"""Algebra and report files.

JSON, UTF-8, versioned ``format`` field.  All scalars are encoded as strings
``"p"`` or ``"p/q"`` (gcd-reduced, positive denominator); decimals are
rejected.  Serialization is canonical — fixed key order, sorted sparse
entries, two-space indent, trailing newline — so ``save`` after ``load`` of a
canonical file is byte-identical.
"""

from __future__ import annotations

import json

from .algebra import Algebra, OperatorClaim
from .axioms import CLAIM_AXIOMS
from .linalg import LinearForm, LinearMap
from .operators import OPERATOR_CHECKS
from .reports import FileFormatError
from .scalars import format_rational, parse_rational
from .tensor import SYMMETRIES, StructureTensor

ALGEBRA_FORMAT = "algcheck-algebra/1"
REPORT_FORMAT = "algcheck-report/1"

KNOWN_CLAIMS = tuple(CLAIM_AXIOMS)
KNOWN_OP_KINDS = tuple(OPERATOR_CHECKS)


def _scalar(value, location):
    try:
        return parse_rational(value)
    except (ValueError, TypeError) as exc:
        raise FileFormatError(location, str(exc)) from None


def _vector(value, dim, location):
    if not isinstance(value, list) or len(value) != dim:
        raise FileFormatError(location, f"expected a list of {dim} scalars")
    return tuple(_scalar(v, f"{location}[{i}]") for i, v in enumerate(value))


def _expect(obj, key, typ, location):
    if not isinstance(obj, dict) or key not in obj:
        raise FileFormatError(location, f"missing field {key!r}")
    value = obj[key]
    if typ is not None and not isinstance(value, typ):
        raise FileFormatError(f"{location}.{key}", f"expected {typ.__name__}")
    return value


def _parse_product(name, obj, dim):
    loc = f"products.{name}"
    arity = _expect(obj, "arity", int, loc)
    symmetry = _expect(obj, "symmetry", str, loc)
    if symmetry not in SYMMETRIES:
        raise FileFormatError(f"{loc}.symmetry", f"unknown symmetry {symmetry!r}")
    raw_entries = _expect(obj, "entries", list, loc)
    entries = {}
    for i, ent in enumerate(raw_entries):
        eloc = f"{loc}.entries[{i}]"
        key = _expect(ent, "key", list, eloc)
        if len(key) != arity or not all(isinstance(k, int) for k in key):
            raise FileFormatError(f"{eloc}.key", f"expected {arity} integer indices")
        if any(not 0 <= k < dim for k in key):
            raise FileFormatError(f"{eloc}.key", "index out of range")
        key = tuple(key)
        if symmetry == "skew" and any(a >= b for a, b in zip(key, key[1:])):
            raise FileFormatError(f"{eloc}.key", "skew entry key not strictly ascending")
        if symmetry == "symmetric" and any(a > b for a, b in zip(key, key[1:])):
            raise FileFormatError(f"{eloc}.key", "symmetric entry key not sorted")
        if key in entries:
            raise FileFormatError(f"{eloc}.key", "duplicate entry key")
        entries[key] = _vector(_expect(ent, "value", list, eloc), dim,
                               f"{eloc}.value")
    try:
        return StructureTensor(arity, dim, symmetry, entries)
    except ValueError as exc:
        raise FileFormatError(loc, str(exc)) from None


def loads(text: str, location: str = "<string>") -> Algebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(location, f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(location, "top level must be an object")
    fmt = _expect(doc, "format", str, location)
    if fmt != ALGEBRA_FORMAT:
        raise FileFormatError("format", f"unsupported format {fmt!r}")
    name = _expect(doc, "name", str, location)
    dim = _expect(doc, "dimension", int, location)
    if dim < 0:
        raise FileFormatError("dimension", "must be nonnegative")
    basis = _expect(doc, "basis", list, location)
    if len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise FileFormatError("basis", f"expected {dim} basis names")
    scalars = _expect(doc, "scalars", str, location)
    if scalars != "rational":
        raise FileFormatError("scalars", f"unsupported scalar kind {scalars!r}")
    products = {
        pname: _parse_product(pname, pobj, dim)
        for pname, pobj in _expect(doc, "products", dict, location).items()}
    maps = {}
    for mname, mobj in _expect(doc, "maps", dict, location).items():
        loc = f"maps.{mname}"
        cols = _expect(mobj, "cols", list, loc)
        if len(cols) != dim:
            raise FileFormatError(f"{loc}.cols", f"expected {dim} columns")
        maps[mname] = LinearMap(tuple(
            _vector(c, dim, f"{loc}.cols[{j}]") for j, c in enumerate(cols)))
    forms = {}
    for fname, fobj in _expect(doc, "forms", dict, location).items():
        loc = f"forms.{fname}"
        forms[fname] = LinearForm(_vector(_expect(fobj, "row", list, loc),
                                          dim, f"{loc}.row"))
    claims = {}
    for pname, plist in _expect(doc, "claims", dict, location).items():
        loc = f"claims.{pname}"
        if pname not in products:
            raise FileFormatError(loc, "claim references unknown product")
        if not isinstance(plist, list) or not all(
                isinstance(c, str) and c in KNOWN_CLAIMS for c in plist):
            raise FileFormatError(loc, f"claims must be from {KNOWN_CLAIMS}")
        claims[pname] = tuple(plist)
    op_claims = []
    for i, oc in enumerate(_expect(doc, "operator_claims", list, location)):
        loc = f"operator_claims[{i}]"
        kind = _expect(oc, "kind", str, loc)
        if kind not in KNOWN_OP_KINDS:
            raise FileFormatError(f"{loc}.kind", f"must be one of {KNOWN_OP_KINDS}")
        product = _expect(oc, "product", str, loc)
        if product not in products:
            raise FileFormatError(f"{loc}.product", "unknown product")
        mname = _expect(oc, "map", str, loc)
        if mname not in maps:
            raise FileFormatError(f"{loc}.map", "unknown map")
        weight = _scalar(_expect(oc, "weight", str, loc), f"{loc}.weight")
        op_claims.append(OperatorClaim(kind, product, mname, weight))
    try:
        return Algebra(name, dim, tuple(basis), products, maps, forms,
                       claims, tuple(op_claims))
    except ValueError as exc:
        raise FileFormatError(location, str(exc)) from None


def load(path) -> Algebra:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), str(path))


def _dump_product(t: StructureTensor) -> dict:
    return {
        "arity": t.arity,
        "symmetry": t.symmetry,
        "entries": [
            {"key": list(key), "value": [format_rational(v) for v in vec]}
            for key, vec in sorted(t.entries.items())],
    }


def dumps(alg: Algebra) -> str:
    doc = {
        "format": ALGEBRA_FORMAT,
        "name": alg.name,
        "dimension": alg.dimension,
        "basis": list(alg.basis),
        "scalars": "rational",
        "products": {n: _dump_product(t) for n, t in sorted(alg.products.items())},
        "maps": {
            n: {"cols": [[format_rational(v) for v in col] for col in m.cols]}
            for n, m in sorted(alg.maps.items())},
        "forms": {
            n: {"row": [format_rational(v) for v in f.row]}
            for n, f in sorted(alg.forms.items())},
        "claims": {n: list(cs) for n, cs in sorted(alg.claims.items())},
        "operator_claims": [
            {"kind": oc.kind, "product": oc.product, "map": oc.map,
             "weight": format_rational(oc.weight)}
            for oc in alg.operator_claims],
    }
    return json.dumps(doc, indent=2) + "\n"


def save(alg: Algebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(alg))


def report_document(source: str, results) -> dict:
    """Structured report: ``results`` is a list of (label, CheckReport)."""
    out = []
    for label, rep in results:
        entry = {
            "check": label,
            "identity": rep.identity_name,
            "verdict": rep.verdict,
            "checked_count": rep.checked_count,
            "counterexample": None,
        }
        if rep.counterexample is not None:
            ce = rep.counterexample
            entry["counterexample"] = {
                "indices": list(ce.indices),
                "lhs": [format_rational(v) for v in ce.lhs],
                "rhs": [format_rational(v) for v in ce.rhs],
            }
        out.append(entry)
    return {"format": REPORT_FORMAT, "source": source, "results": out}


def dumps_report(source: str, results) -> str:
    return json.dumps(report_document(source, results), indent=2) + "\n"


def save_report(source: str, results, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(source, results))
