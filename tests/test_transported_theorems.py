"""Every theorem of the selftest on catalog algebras moved by a change of
basis: an oracle that shares no code with the builders.

For an invertible S, the product t moves to S^-1 t(S x, S y, ...), a map P
to S^-1 P S and a form f to f o S.  A check keeps its verdict and
``checked_count`` (not its counterexample indices), and a construction is
equivariant: built from the moved inputs, it equals the moved build of the
catalog inputs.  S = Id + N is unitriangular with a few small integer
entries, which fills the catalog's sparse tables without leaving the
integers.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

import algcheck.constructions as constructions
import algcheck.inheritance as inheritance
from algcheck.algebra import Algebra
from algcheck.catalog import catalog_names, get
from algcheck.linalg import LinearMap, maps_commute
from algcheck.operators import (check_derivation, check_duality,
                                check_rota_baxter, nary_from_associative)
from algcheck.reports import CheckReport
from algcheck.tensor import tensors_equal

from test_acceptance import conjugate_form, conjugate_map, conjugate_tensor

# the public builders and conditions of both modules, each of which must run
# on at least one moved instance; fd_bracket_value_forms evaluates one
# displayed formula at given elements and thm42_condition has no catalog
# instance, so neither is a theorem of the selftest
EVERY_CONSTRUCTION = {
    "cor33_condition", "det_bracket_2", "det_bracket_3",
    "det_rb_expansion_check", "derived_prelie", "f_bracket", "fD_bracket",
    "prelie_from_comm_assoc", "thm32_condition", "thm35_f_condition",
    "thm36_bracket", "thm36_f_condition", "thm36_rb_condition",
    "check_derivation_transfer", "check_rb_lts_transfer", "cor53_bracket",
    "cor54_bracket", "cor54_bracket_literal", "cor55_bracket",
    "derived_lts_bracket", "derived_nbracket", "lts_from_lie",
    "naive_bracket",
}


def theorems(alg):
    """{label: report or built tensor} for each theorem of
    ``selftest._theorems_task`` whose hypotheses ``alg`` satisfies, and of
    ``selftest._det3_task`` on ``qt3_deg4``, with the algebra's own forms in
    place of search results; and the set of construction names run.  A
    catalog product that is itself a construction is built again."""
    out, ran = {}, set()

    def run(label, fn, *args):
        name = fn.__name__
        if name in EVERY_CONSTRUCTION:
            ran.add(name)
        out[f"{label}:{name}"] = result = fn(*args)
        return result

    def claimed(pname, what):
        return what in alg.claims.get(pname, ())

    c, i = constructions, inheritance
    for oc in alg.operator_claims:
        t, p, lam = alg.products[oc.product], alg.maps[oc.map], oc.weight
        tag = f"{oc.kind}({oc.product},{oc.map})"
        if oc.kind == "rb" and claimed(oc.product, "3lie"):
            run(tag, i.derived_nbracket, t, p, lam)
            for dc in alg.operator_claims:
                dmap = alg.maps[dc.map]
                if (dc.kind == "derivation" and dc.product == oc.product
                        and dc.weight == lam and maps_commute(dmap, p)):
                    run(f"{tag}{dc.map}", i.check_derivation_transfer,
                        t, p, lam, dmap)
        if oc.kind == "rb" and claimed(oc.product, "lie"):
            run(tag, i.check_rb_lts_transfer, t, p, lam)
            run(tag, i.derived_lts_bracket, i.lts_from_lie(t), p, lam)
            for fname, f in sorted(alg.forms.items()):
                ftag = f"{tag}{fname}"
                run(ftag, c.thm32_condition, t, p, lam, f)
                run(ftag, check_rota_baxter, run(ftag, c.f_bracket, t, f),
                    p, lam)
                run(ftag, i.cor54_bracket, t, p, lam, f)
                run(ftag, i.cor54_bracket_literal, t, p, lam, f)
                if lam == 0:
                    run(ftag, c.cor33_condition, t, p, f)
                    run(ftag, i.cor55_bracket, t, p, f)
        if oc.kind == "rb" and claimed(oc.product, "prelie"):
            run(tag, c.derived_prelie, t, p, lam)
            for fname, f in sorted(alg.forms.items()):
                ftag = f"{tag}{fname}"
                if (lam == 0 and run(ftag, c.thm35_f_condition, t, f).passed
                        and run(ftag, c.thm36_f_condition, t, p, f).passed):
                    run(ftag, c.thm36_bracket, t, p, f)
                    run(ftag, c.thm36_rb_condition, t, p, f)
        comm_assoc = (claimed(oc.product, "assoc")
                      and claimed(oc.product, "comm"))
        if oc.kind == "rb" and comm_assoc:
            run(tag, check_rota_baxter, nary_from_associative(t, 3), p, lam)
            if alg.dimension <= 4:
                run(tag, c.det_rb_expansion_check, t, p, lam)
        if oc.kind == "derivation" and claimed(oc.product, "3lie"):
            if lam == 0:
                run(tag, i.naive_bracket, t, p)
            if p.is_invertible():
                run(tag, i.cor53_bracket, t, p, lam)
        if oc.kind == "derivation" and comm_assoc and lam == 0:
            run(tag, c.prelie_from_comm_assoc, t, p)
            run(tag, check_derivation, nary_from_associative(t, 3), p, 0)
            for fname, f in sorted(alg.forms.items()):
                run(f"{tag}{fname}", c.fD_bracket, t, f, p)
        if oc.kind in ("rb", "derivation") and p.is_invertible():
            run(tag, check_duality, t, p, lam)
    for pname in sorted(alg.claims):
        if claimed(pname, "lie"):
            run(pname, i.lts_from_lie, alg.products[pname])
    # catalog products built by a construction, and the det3 task
    m = alg.maps
    if alg.name == "qt4":
        run("prelie", c.prelie_from_comm_assoc, alg.products["prod"], m["D"])
        run("fdbracket", c.fD_bracket, alg.products["prod"], alg.forms["f"],
            m["D"])
    if alg.name == "qt2_deg3":
        run("det2", c.det_bracket_2, alg.products["prod"], m["D1"], m["D2"])
    if alg.name == "qt3_deg4":
        det3 = run("det3", c.det_bracket_3, alg.products["prod"], m["D1"],
                   m["D2"], m["D3"])
        d = alg.dimension
        for lam in (0, 1):
            run(f"det3-zero-w{lam}", check_rota_baxter, det3,
                LinearMap.zero(d), lam)
        run("det3-minus-id", check_rota_baxter, det3,
            LinearMap.scalar(d, -1), 1)
    return out, ran


@cache
def catalog_theorems(name):
    return theorems(get(name))[0]


def moved(alg, s):
    """``alg`` with every product, map and form moved by ``s``."""
    return Algebra(
        alg.name, alg.dimension, alg.basis,
        {n: conjugate_tensor(t, s) for n, t in alg.products.items()},
        {n: conjugate_map(m, s) for n, m in alg.maps.items()},
        {n: conjugate_form(f, s) for n, f in alg.forms.items()},
        alg.claims, alg.operator_claims)


@st.composite
def unitriangular(draw, d):
    """S = Id + N, N strictly lower or upper triangular, with a few entries
    from {1, -1, 2}."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    below = [(i, j) for i in range(d) for j in range(i)]
    for i, j in draw(st.lists(st.sampled_from(below), min_size=1,
                              max_size=3 if d > 10 else 5)):
        rows[i][j] = draw(st.sampled_from([1, -1, 2]))
    if draw(st.booleans()):
        return LinearMap.from_cols(rows)
    return LinearMap.from_rows(rows)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_every_theorem_holds_alike_on_moved_catalog_algebras(data):
    ran = set()
    for name in catalog_names():
        alg = get(name)
        s = data.draw(unitriangular(alg.dimension), label=name)
        expected = catalog_theorems(name)
        got, ran_here = theorems(moved(alg, s))
        ran |= ran_here
        assert got.keys() == expected.keys()
        for label, want in expected.items():
            have = got[label]
            if isinstance(want, CheckReport):
                assert (have.verdict, have.checked_count) == (
                    want.verdict, want.checked_count), (name, label)
            else:
                assert tensors_equal(have, conjugate_tensor(want, s)), (
                    name, label)
    assert ran == EVERY_CONSTRUCTION
