import json

import pytest

from algcheck.axioms import check_n_jacobi, check_skew_symmetric
from algcheck.catalog import catalog_names, get
from algcheck.files import (dumps, dumps_report, load, loads, save,
                            save_report)
from algcheck.reports import FileFormatError


def canonical_doc():
    return json.loads(dumps(get("a4")))


def reloads(doc):
    return loads(json.dumps(doc))


# ------------------------------------------------------------- round trips


def test_round_trip_is_byte_identical_for_every_catalog_entry():
    for name in catalog_names():
        text = dumps(get(name))
        assert dumps(loads(text)) == text


def test_round_trip_preserves_structure():
    alg = get("a4")
    back = loads(dumps(alg))
    assert back.name == alg.name
    assert back.dimension == alg.dimension
    assert back.basis == alg.basis
    assert back.products["bracket"].entries == alg.products["bracket"].entries
    assert back.maps["D"].cols == alg.maps["D"].cols
    assert back.claims == alg.claims
    assert back.operator_claims == alg.operator_claims
    assert check_skew_symmetric(back.products["bracket"]).passed
    assert check_n_jacobi(back.products["bracket"]).passed


def test_save_and_load_files(tmp_path):
    path = tmp_path / "a4.json"
    save(get("a4"), path)
    assert dumps(load(path)) == dumps(get("a4"))


def test_rational_scalars_survive_round_trip():
    doc = canonical_doc()
    doc["maps"]["D"]["cols"][0] = ["1/2", "-3/7", "0", "2"]
    from fractions import Fraction
    back = reloads(doc)
    assert back.maps["D"].cols[0] == (Fraction(1, 2), Fraction(-3, 7), 0, 2)


# ------------------------------------------------------------ parse errors


def expect_error(doc, location_fragment):
    with pytest.raises(FileFormatError) as exc:
        reloads(doc)
    assert location_fragment in exc.value.location
    return exc.value


def test_invalid_json_is_rejected():
    with pytest.raises(FileFormatError, match="invalid JSON"):
        loads("{not json")


def test_unknown_format_rejected():
    doc = canonical_doc()
    doc["format"] = "algcheck-algebra/999"
    err = expect_error(doc, "format")
    assert "unsupported" in str(err)


def test_decimal_scalars_rejected():
    doc = canonical_doc()
    doc["maps"]["D"]["cols"][0][0] = "0.5"
    err = expect_error(doc, "maps.D.cols[0][0]")
    assert "0.5" in str(err)


def test_float_scalars_rejected():
    doc = canonical_doc()
    doc["maps"]["D"]["cols"][0][0] = 0.5
    expect_error(doc, "maps.D.cols[0][0]")


def test_non_ascending_skew_key_rejected():
    doc = canonical_doc()
    doc["products"]["bracket"]["entries"][0]["key"] = [1, 0, 2]
    err = expect_error(doc, "products.bracket.entries[0].key")
    assert "ascending" in str(err)


def test_index_out_of_range_rejected():
    doc = canonical_doc()
    doc["products"]["bracket"]["entries"][0]["key"] = [0, 1, 9]
    err = expect_error(doc, "products.bracket.entries[0].key")
    assert "out of range" in str(err)


# JSON true and false load as bool, which Python counts as an int
@pytest.mark.parametrize("edit, location, message", [
    (lambda doc: doc.update(dimension=True), "dimension", "expected int"),
    (lambda doc: doc["products"]["bracket"].update(arity=True),
     "products.bracket.arity", "expected int"),
    (lambda doc: doc["products"]["bracket"]["entries"][0].update(
        key=[False, True, 2]), "products.bracket.entries[0].key",
     "integer indices"),
], ids=["dimension", "arity", "key"])
def test_boolean_rejected_where_an_integer_is_expected(edit, location, message):
    doc = canonical_doc()
    edit(doc)
    err = expect_error(doc, location)
    assert message in str(err)


def test_duplicate_entry_key_rejected():
    doc = canonical_doc()
    ent = doc["products"]["bracket"]["entries"]
    ent.append(dict(ent[0]))
    expect_error(doc, "key")


def test_wrong_value_length_rejected():
    doc = canonical_doc()
    doc["products"]["bracket"]["entries"][0]["value"] = ["1", "0"]
    err = expect_error(doc, "products.bracket.entries[0].value")
    assert "4" in str(err)


def test_missing_field_rejected():
    doc = canonical_doc()
    del doc["dimension"]
    with pytest.raises(FileFormatError, match="dimension"):
        reloads(doc)


def test_wrong_basis_count_rejected():
    doc = canonical_doc()
    doc["basis"] = ["x1", "x2"]
    expect_error(doc, "basis")


def test_claim_on_unknown_product_rejected():
    doc = canonical_doc()
    doc["claims"]["nope"] = ["3lie"]
    expect_error(doc, "claims.nope")


def test_unknown_claim_name_rejected():
    doc = canonical_doc()
    doc["claims"]["bracket"] = ["associative-ish"]
    expect_error(doc, "claims.bracket")


def test_operator_claim_unknown_map_rejected():
    doc = canonical_doc()
    doc["operator_claims"][0]["map"] = "missing"
    expect_error(doc, "operator_claims[0].map")


def test_operator_claim_unknown_kind_rejected():
    doc = canonical_doc()
    doc["operator_claims"][0]["kind"] = "idempotent"
    expect_error(doc, "operator_claims[0].kind")


def test_map_wrong_column_count_rejected():
    doc = canonical_doc()
    doc["maps"]["D"]["cols"] = doc["maps"]["D"]["cols"][:2]
    expect_error(doc, "maps.D.cols")


def test_error_message_carries_location():
    doc = canonical_doc()
    doc["scalars"] = "real"
    err = expect_error(doc, "scalars")
    assert "scalars" in str(err)
    assert "real" in str(err)


# ---------------------------------------------------------------- reports


def test_report_document_shape(tmp_path):
    passing = check_n_jacobi(get("a4").products["bracket"])
    failing = check_skew_symmetric(get("q3").products["prod"])
    text = dumps_report("a4", [("jacobi", passing), ("skew", failing)])
    doc = json.loads(text)
    assert doc["format"] == "algcheck-report/1"
    assert doc["source"] == "a4"
    ok, bad = doc["results"]
    assert ok["verdict"] == "pass"
    assert ok["counterexample"] is None
    assert ok["checked_count"] == 4 ** 5
    assert bad["verdict"] == "fail"
    assert bad["counterexample"]["indices"] == [0, 0]
    assert bad["counterexample"]["lhs"] == ["1", "0", "0"]
    assert bad["counterexample"]["rhs"] == ["-1", "0", "0"]
    path = tmp_path / "report.json"
    save_report("a4", [("jacobi", passing)], path)
    assert json.loads(path.read_text()) == json.loads(
        dumps_report("a4", [("jacobi", passing)]))
