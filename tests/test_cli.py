import io
import json

import pytest

import algcheck.inheritance as inheritance
from algcheck.algebra import Algebra
from algcheck.catalog import catalog_names
from algcheck.cli import run_cli
from algcheck.constructions import (det_bracket_2, det_bracket_3, f_bracket,
                                    fD_bracket, prelie_from_comm_assoc,
                                    thm36_bracket)
from algcheck.files import dumps, dumps_report, load
from algcheck.catalog import get
from algcheck.linalg import LinearMap
from algcheck.operators import check_rota_baxter
from algcheck.reports import InternalConsistencyError
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


def test_verify_op_report_file(tmp_path):
    path = tmp_path / "rep.json"
    code, text = run("verify-op", "q3", "--map", "P", "--kind", "rb",
                     "--weight", "1", "--report", str(path))
    assert code == 0
    assert text.startswith("q3.prod rb(P, weight 1): pass")
    q3 = get("q3")
    rep = check_rota_baxter(q3.products["prod"], q3.maps["P"], 1)
    assert path.read_text(encoding="utf-8") == dumps_report(
        "q3", [("prod:rb:P", rep)])
    doc = json.loads(path.read_text())
    assert doc["format"] == "algcheck-report/1"
    assert [r["verdict"] for r in doc["results"]] == ["pass"]


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


# Each recipe on an input it accepts: (the algebra and the options after
# it, the construction called directly on (algebra, product), its claims).
RECIPE_RUNS = {
    "f-bracket": (["heisenberg_line", "--form", "f"],
                  lambda a, t: f_bracket(t, a.forms["f"]), ("3lie",)),
    "fD-bracket": (["qt4", "--product", "prod", "--form", "f", "--map", "D"],
                   lambda a, t: fD_bracket(t, a.forms["f"], a.maps["D"]),
                   ("3lie",)),
    "det2": (["qt2_deg3", "--product", "prod", "--map", "D1", "--map2", "D2"],
             lambda a, t: det_bracket_2(t, a.maps["D1"], a.maps["D2"]),
             ("3lie",)),
    "det3": (["qt3_deg4", "--map", "D1", "--map2", "D2", "--map3", "D3"],
             lambda a, t: det_bracket_3(t, a.maps["D1"], a.maps["D2"],
                                        a.maps["D3"]),
             ("3lie",)),
    "derived": (["a4", "--map", "D", "--weight", "0"],
                lambda a, t: inheritance.derived_nbracket(t, a.maps["D"], 0),
                ("3lie",)),
    "naive": (["a4", "--map", "D"],
              lambda a, t: inheritance.naive_bracket(t, a.maps["D"]), ()),
    "lts": (["nonabelian2"], lambda a, t: inheritance.lts_from_lie(t),
            ("lts",)),
    "prelie-from-assoc": (
        ["qt4", "--product", "prod", "--map", "D"],
        lambda a, t: prelie_from_comm_assoc(t, a.maps["D"]), ("prelie",)),
    "thm36": (["qt4", "--product", "prelie", "--map", "P0", "--form", "f"],
              lambda a, t: thm36_bracket(t, a.maps["P0"], a.forms["f"]),
              ("3lie",)),
}


@pytest.mark.parametrize("recipe", sorted(RECIPE_RUNS))
def test_each_recipe_writes_its_construction_called_directly(recipe,
                                                             tmp_path):
    options, build, claims = RECIPE_RUNS[recipe]
    alg = get(options[0])
    if "--product" in options:
        pname = options[options.index("--product") + 1]
    else:
        (pname,) = alg.products
    result = build(alg, alg.products[pname])
    name = recipe.replace("-", "_")
    expected = dumps(alg.with_product(name, result, claims))
    path = tmp_path / "out.json"
    argv = ["construct", options[0], "--recipe", recipe, *options[1:]]
    code, text = run(*argv, "--out", str(path))
    assert code == 0
    assert text == (f"wrote {path} with new product {name!r} "
                    f"({len(result.entries)} stored entries)\n")
    assert path.read_bytes() == expected.encode("utf-8")
    assert run(*argv) == (0, expected)


def test_construct_help_lists_the_recipes_in_table_order(capsys):
    assert run("construct", "--help") == (0, "")
    choices = "{" + ",".join(RECIPE_RUNS) + "}"
    assert f"--recipe {choices}" in capsys.readouterr().out


# (flag, a construct command that needs it but leaves it out, its kind)
INGREDIENTS = [
    ("--form", ["heisenberg_line", "--recipe", "f-bracket"], "form"),
    ("--map", ["a4", "--recipe", "naive"], "map"),
    ("--map2", ["qt2_deg3", "--product", "prod", "--recipe", "det2",
                "--map", "D1"], "map"),
    ("--map3", ["qt3_deg4", "--recipe", "det3", "--map", "D1",
                "--map2", "D2"], "map"),
]


@pytest.mark.parametrize("flag, argv, kind", INGREDIENTS)
def test_construct_missing_ingredient_names_its_flag(flag, argv, kind,
                                                     capsys):
    assert run("construct", *argv) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {flag} is required for this operation\n")


@pytest.mark.parametrize("flag, argv, kind", INGREDIENTS)
def test_construct_unknown_ingredient_names_it(flag, argv, kind, capsys):
    assert run("construct", *argv, flag, "nope") == (2, "")
    assert capsys.readouterr().err == (
        f"error: algebra has no {kind} named 'nope'\n")


def test_construct_ingredients_are_picked_in_argument_order(capsys):
    # fD_bracket(t, f, D) asks for the form first, thm36_bracket(t, P, f)
    # for the map
    assert run("construct", "qt4", "--product", "prod",
               "--recipe", "fD-bracket")[0] == 2
    assert run("construct", "qt4", "--product", "prelie",
               "--recipe", "thm36")[0] == 2
    assert capsys.readouterr().err == (
        "error: --form is required for this operation\n"
        "error: --map is required for this operation\n")


@pytest.mark.parametrize("argv, option", [
    (["nonabelian2", "--recipe", "lts", "--map", "P", "--form", "nope",
      "--weight", "5"], "--form"),
    (["a4", "--recipe", "naive", "--map", "D", "--weight", "7"], "--weight")])
def test_construct_rejects_an_option_its_recipe_does_not_take(
        argv, option, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert run("construct", *argv, "--out", str(path)) == (2, "")
    assert not path.exists()
    recipe = argv[argv.index("--recipe") + 1]
    assert capsys.readouterr().err == (
        f"error: {option} is not taken by the recipe {recipe!r}\n")


def test_construct_derived_builds_at_weight_0_without_the_option():
    assert run("construct", "a4", "--recipe", "derived", "--map", "D") == run(
        "construct", "a4", "--recipe", "derived", "--map", "D",
        "--weight", "0")


def test_internal_consistency_error_exits_3(monkeypatch, capsys):
    def broken(lie):
        raise InternalConsistencyError("forced for the test")

    monkeypatch.setattr(inheritance, "lts_from_lie", broken)
    assert run("construct", "nonabelian2", "--recipe", "lts") == (3, "")
    assert capsys.readouterr().err == (
        "internal consistency error: forced for the test\n")


def test_a_replaced_product_takes_only_the_new_claims(tmp_path):
    # the naive bracket of a4 replaces the 3-Lie bracket under its name, so
    # none of the old bracket's claims may stay in the file
    path = tmp_path / "nb.json"
    code, _ = run("construct", "a4", "--recipe", "naive", "--map", "D",
                  "--name", "bracket", "--out", str(path))
    assert code == 0
    alg = load(path)
    assert alg.claims == {} and alg.operator_claims == ()
    assert alg.maps == get("a4").maps
    code, text = run("verify", str(path), "--axiom", "jacobi")
    assert code == 1
    assert "counterexample at (x1, x2, x3, x1, x4) [indices [0, 1, 2, 0, 3]]" \
        in text


def test_replacing_a_product_with_its_own_bracket_keeps_the_file(tmp_path):
    path = tmp_path / "det2.json"
    code, _ = run("construct", "qt2_deg3", "--product", "prod",
                  "--recipe", "det2", "--map", "D1", "--map2", "D2",
                  "--out", str(path))
    assert code == 0
    assert path.read_bytes() == dumps(get("qt2_deg3")).encode("utf-8")


def test_with_product_claims():
    a4 = get("a4")
    t = a4.products["bracket"]
    added = a4.with_product("other", t)
    assert added.claims == a4.claims
    assert added.operator_claims == a4.operator_claims
    replaced = a4.with_product("bracket", t)
    assert replaced.claims == {} and replaced.operator_claims == ()
    assert a4.with_product("bracket", t, ["3lie"]).claims == {
        "bracket": ("3lie",)}


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


def test_selftest_worker_internal_error_exits_3(monkeypatch, capsys):
    from algcheck import selftest

    def broken(name):
        raise InternalConsistencyError(f"theorem failed on {name}")

    monkeypatch.setattr(selftest, "tasks", lambda: [(broken, "q3")] * 2)
    code, text = run("selftest", "--workers", "2")
    assert code == 3 and text == ""
    assert capsys.readouterr().err == (
        "internal consistency error: theorem failed on q3\n")


# -------------------------------------------------------------- catalog


def test_catalog_lists_all_builtins():
    code, text = run("catalog")
    assert code == 0
    for name in catalog_names():
        assert name in text
