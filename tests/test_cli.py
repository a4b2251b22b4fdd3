import io
import json

from algcheck.algebra import Algebra
from algcheck.catalog import catalog_names
from algcheck.cli import run_cli
from algcheck.files import dumps, load
from algcheck.catalog import get
from algcheck.linalg import LinearMap
from algcheck.operators import check_rota_baxter
from algcheck.tensor import StructureTensor


def run(*argv):
    out = io.StringIO()
    code = run_cli(list(argv), out=out)
    return code, out.getvalue()


# ----------------------------------------------------------------- verify


def test_verify_jacobi_pass():
    code, text = run("verify", "a4", "--axiom", "jacobi")
    assert code == 0
    assert "pass" in text
    assert "1024 tuples checked" in text


def test_verify_failure_prints_counterexample_and_exits_1():
    code, text = run("verify", "q3", "--axiom", "skew", "--product", "prod")
    assert code == 1
    assert "fail" in text
    assert "indices [0, 0]" in text
    assert "lhs = (1, 0, 0)" in text
    assert "rhs = (-1, 0, 0)" in text


def test_verify_unknown_algebra_exits_2(capsys):
    code, _ = run("verify", "no_such_algebra", "--axiom", "jacobi")
    assert code == 2


def test_verify_ambiguous_product_exits_2():
    # qt4 has several products, so --product is required
    code, _ = run("verify", "qt4", "--axiom", "assoc")
    assert code == 2


def test_verify_bad_usage_exits_2(capsys):
    code, _ = run("verify", "a4")  # missing --axiom
    assert code == 2
    code, _ = run("frobnicate")
    assert code == 2


def test_verify_wrong_arity_axiom_exits_2():
    # lts on a binary product is an argument error, not a check failure
    code, _ = run("verify", "q3", "--axiom", "lts")
    assert code == 2


def test_verify_report_file(tmp_path):
    path = tmp_path / "rep.json"
    code, _ = run("verify", "a4", "--axiom", "jacobi", "--report", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["format"] == "algcheck-report/1"
    assert doc["results"][0]["verdict"] == "pass"


def test_verify_from_file(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(dumps(get("heisenberg")))
    code, text = run("verify", str(path), "--axiom", "lie")
    assert code == 0 and "pass" in text


def test_file_named_like_catalog_algebra_is_ambiguous(tmp_path, monkeypatch,
                                                      capsys):
    # a local file must not silently shadow the catalog algebra q3
    (tmp_path / "q3").write_text(dumps(get("heisenberg")))
    monkeypatch.chdir(tmp_path)
    code, _ = run("verify", "q3", "--axiom", "lie")
    assert code == 2
    err = capsys.readouterr().err
    assert "./q3" in err and "catalog algebra q3" in err
    code, text = run("verify", "./q3", "--axiom", "lie")
    assert code == 0 and "heisenberg" in text and "pass" in text


def test_verify_malformed_file_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "algcheck-algebra/1"}')
    code, _ = run("verify", str(path), "--axiom", "lie")
    assert code == 2


# -------------------------------------------------------------- verify-op


def test_verify_op_rb_pass():
    code, text = run("verify-op", "q3", "--map", "P", "--kind", "rb",
                     "--weight", "1")
    assert code == 0 and "pass" in text


def test_verify_op_wrong_weight_fails():
    code, text = run("verify-op", "q3", "--map", "P", "--kind", "rb",
                     "--weight", "0")
    assert code == 1 and "fail" in text


def test_verify_op_duality():
    code, text = run("verify-op", "a4", "--map", "D", "--kind", "duality")
    assert code == 0


def test_verify_op_duality_noninvertible_exits_2():
    code, _ = run("verify-op", "q3", "--map", "P", "--kind", "duality",
                  "--weight", "1")
    assert code == 2


def test_verify_op_rational_weight():
    # P = -1/2 * Id is Rota-Baxter of weight 1/2 on any bracket; exercise a
    # fractional --weight through a file round trip
    code, text = run("verify-op", "a4", "--map", "D", "--kind", "derivation",
                     "--weight", "0")
    assert code == 0


def test_verify_op_unknown_map_exits_2():
    code, _ = run("verify-op", "a4", "--map", "nope", "--kind", "rb")
    assert code == 2


# -------------------------------------------------------------- construct


def test_construct_naive_then_verify_fails_jacobi(tmp_path):
    out_file = tmp_path / "naive.json"
    code, text = run("construct", "a4", "--recipe", "naive", "--map", "D",
                     "--name", "nb", "--out", str(out_file))
    assert code == 0
    assert "nb" in text
    alg = load(out_file)
    assert "nb" in alg.products
    code, text = run("verify", str(out_file), "--axiom", "jacobi",
                     "--product", "nb")
    assert code == 1
    assert "fail" in text


def test_construct_derived_then_verify_passes(tmp_path):
    out_file = tmp_path / "derived.json"
    code, _ = run("construct", "a4", "--recipe", "derived", "--map", "D",
                  "--weight", "0", "--out", str(out_file))
    assert code == 0
    code, _ = run("verify", str(out_file), "--axiom", "jacobi",
                  "--product", "derived")
    assert code == 0
    code, _ = run("verify-op", str(out_file), "--product", "derived",
                  "--map", "D", "--kind", "rb")
    assert code == 0


def test_construct_f_bracket_stdout():
    code, text = run("construct", "heisenberg_line", "--recipe", "f-bracket",
                     "--form", "f")
    assert code == 0
    doc = json.loads(text)
    assert "f_bracket" in doc["products"]


def test_construct_lts(tmp_path):
    out_file = tmp_path / "lts.json"
    code, _ = run("construct", "nonabelian2", "--recipe", "lts",
                  "--out", str(out_file))
    assert code == 0
    code, _ = run("verify", str(out_file), "--axiom", "lts",
                  "--product", "lts")
    assert code == 0


def test_construct_det2(tmp_path):
    out_file = tmp_path / "det2.json"
    code, _ = run("construct", "qt2_deg3", "--recipe", "det2",
                  "--product", "prod", "--map", "D1", "--map2", "D2",
                  "--out", str(out_file))
    assert code == 0
    alg = load(out_file)
    assert alg.products["det2"].entries == \
        get("qt2_deg3").products["det2"].entries


def test_construct_missing_ingredient_exits_2():
    code, _ = run("construct", "a4", "--recipe", "f-bracket")  # no --form
    assert code == 2


def test_construct_precondition_violation_exits_2():
    # f-bracket on a non-Lie product
    code, _ = run("construct", "q3", "--recipe", "f-bracket", "--form", "x")
    assert code == 2


# ----------------------------------------------------------------- search


def test_search_annihilating_form():
    code, text = run("search", "heisenberg", "--target", "annihilating_form")
    assert code == 0
    assert "2 result(s)" in text
    assert "form (1, 0, 0)" in text
    assert "form (0, 1, 0)" in text


def test_search_rb_grid_defaults(tmp_path):
    path = tmp_path / "rep.json"
    code, text = run("search", "nonabelian2", "--target", "rb_operator",
                     "--report", str(path))
    assert code == 0
    assert "result(s) for target rb_operator" in text
    doc = json.loads(path.read_text())
    assert all(r["verdict"] == "pass" for r in doc["results"])


def test_search_invalid_combination_exits_2():
    code, _ = run("search", "nonabelian2", "--target", "rb_operator",
                  "--strategy", "solve")
    assert code == 2


def test_search_rational_entries():
    code, text = run("search", "nonabelian2", "--target", "rb_operator",
                     "--entries", "0,1/2", "--weight", "0")
    assert code == 0


def test_search_cut_short_says_so_on_stderr(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, text = run("search", "q3", "--target", "rb_operator", "--weight", "1",
                     "--max-candidates", "50", "--report", str(path))
    assert code == 0
    assert text == "0 result(s) for target rb_operator\n"
    assert capsys.readouterr().err == (
        "note: grid search stopped after 50 of 19683 candidates\n")
    assert json.loads(path.read_text())["results"] == []


def test_search_covering_the_grid_prints_no_note(capsys):
    code, text = run("search", "nonabelian2", "--target", "rb_operator",
                     "--max-candidates", "81")
    assert code == 0
    assert "15 result(s)" in text
    assert capsys.readouterr().err == ""


def test_search_negative_max_candidates_exits_2(capsys):
    code, text = run("search", "q3", "--target", "rb_operator",
                     "--max-candidates", "-3")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "error: max_candidates must be non-negative, got -3\n")


def test_search_covers_the_whole_q4_grid(tmp_path, capsys):
    # 3**16 points; only the pruning makes this grid searchable in seconds
    path = tmp_path / "rep.json"
    code, text = run("search", "q4", "--target", "rb_operator", "--weight", "1",
                     "--max-candidates", str(3 ** 16), "--report", str(path))
    assert code == 0
    assert capsys.readouterr().err == ""
    lines = text.splitlines()
    assert lines[0] == "2000 result(s) for target rb_operator"
    assert len(lines) == 2001
    assert all(line.endswith("certificate: rota-baxter pass")
               for line in lines[1:])
    # each listed map, read back from stdout, passes the check afresh
    q4 = get("q4").products["prod"]
    maps = {tuple(tuple(int(v) for v in col.strip(" ()").split(", "))
                  for col in line.split("map cols ")[1].split("  ")[0]
                  .split("; "))
            for line in lines[1:]}
    assert len(maps) == 2000
    assert all(check_rota_baxter(q4, LinearMap(cols), 1).passed
               for cols in maps)
    results = json.loads(path.read_text())["results"]
    assert len(results) == 2000
    assert all(r["verdict"] == "pass" and r["checked_count"] == 16
               for r in results)


def test_search_note_on_a_grid_too_large_to_print(tmp_path, capsys):
    # 3**9025 has more digits than str() converts, so the note keeps the power
    d = 95
    alg = Algebra("big", d, tuple(f"e{i}" for i in range(d)),
                  {"prod": StructureTensor.zero(2, d)})
    path = tmp_path / "big.json"
    path.write_text(dumps(alg))
    code, text = run("search", str(path), "--target", "rb_operator",
                     "--entries", "0,1,2", "--max-candidates", "1")
    assert code == 0
    assert text.startswith("1 result(s)")
    assert capsys.readouterr().err == (
        "note: grid search stopped after 1 of 3**9025 candidates\n")


# ------------------------------------------------------------- selftest


def test_selftest_two_workers_print_the_single_worker_output():
    code1, text1 = run("selftest", "--workers", "1")
    code2, text2 = run("selftest", "--workers", "2")
    assert code1 == code2 == 0
    assert text2 == text1
    assert text1.endswith("selftest: all passed (125 checks)\n")


# -------------------------------------------------------------- catalog


def test_catalog_lists_all_builtins():
    code, text = run("catalog")
    assert code == 0
    for name in catalog_names():
        assert name in text
