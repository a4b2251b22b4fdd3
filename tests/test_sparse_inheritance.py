"""The inheritance brackets against the per-entry forms they replaced.

Each oracle below is the earlier value function of a bracket: one public
``subset_expansion`` call, one single-replacement ``contract`` or one
``evaluate`` per entry, on dense ``basis_vector`` arguments.  A rewritten
bracket must store the same entries (values and scalar types, so ``repr``
too) with the same symmetry.
"""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from algcheck.axioms import check_skew_symmetric
from algcheck.catalog import catalog_names, get
from algcheck.constructions import f_bracket
from algcheck.inheritance import (cor53_bracket, derived_lts_bracket,
                                  derived_nbracket, lts_from_lie,
                                  naive_bracket)
from algcheck.linalg import LinearMap, basis_vector, support
from algcheck.operators import SubsetMode, subset_expansion
from algcheck.reports import ArgumentError
from algcheck.scalars import norm
from algcheck.search import SearchSpec, search
from algcheck.tensor import (SYMMETRIES, StructureTensor, skew_from_values,
                             stored_keys)

# ------------------------------------------------------------ per-entry oracles


def _basis_args(d, key):
    return [basis_vector(d, i) for i in key]


def oracle_derived_nbracket(t, p, lam):
    d, lam = t.dimension, norm(lam)
    return skew_from_values(d, t.arity, lambda key: subset_expansion(
        t, p, lam, _basis_args(d, key), SubsetMode.RB_HAT), verify=True)


def oracle_derived_lts_bracket(lts, p, lam):
    d, lam = lts.dimension, norm(lam)
    return StructureTensor.from_function(3, d, "none", lambda key: subset_expansion(
        lts, p, lam, _basis_args(d, key), SubsetMode.RB_HAT))


def single_replacement_sum(t, m, args, mode):
    """The earlier direct weight-0 form, independent of the subset kernel."""
    n = t.arity
    rest = [support(a) for a in args]
    swap = [support(m(a)) for a in args]
    if mode is SubsetMode.RB_HAT:
        rest, swap = swap, rest
    return t.contract(*[rest[:i] + [swap[i]] + rest[i + 1:] for i in range(n)])


def oracle_naive_bracket(t, p):
    d = t.dimension

    def value(key):
        return single_replacement_sum(
            t, p, _basis_args(d, key), SubsetMode.DIFF_CHECK)

    if t.symmetry == "skew" or check_skew_symmetric(t).passed:
        return skew_from_values(d, t.arity, value, verify=True)
    return StructureTensor.from_function(t.arity, d, "none", value)


def oracle_cor53_bracket(t, dmap):
    dinv = dmap.inverse()
    return StructureTensor.from_function(
        t.arity, t.dimension, "skew",
        lambda key: dmap(t.evaluate([dinv.cols[i] for i in key])))


def assert_same_tensor(got, want):
    assert got.symmetry == want.symmetry
    assert got.entries == want.entries
    assert repr(got) == repr(want)


# ------------------------------------------------------- catalog instances


def _claimed(alg, pname, what):
    return what in alg.claims.get(pname, ())


def _selftest_instances():
    """The (bracket, arguments) pairs the selftest's theorem task builds."""
    for name in catalog_names():
        alg = get(name)
        for oc in alg.operator_claims:
            t, m = alg.products[oc.product], alg.maps[oc.map]
            if oc.kind == "rb" and _claimed(alg, oc.product, "3lie"):
                yield name, "derived", (t, m, oc.weight)
            if oc.kind == "rb" and _claimed(alg, oc.product, "lie"):
                yield name, "lts", (lts_from_lie(t), m, oc.weight)
                for res in search(alg, SearchSpec("annihilating_form",
                                                  oc.product)):
                    yield name, "derived", (f_bracket(t, res.found), m,
                                            oc.weight)
            if oc.kind == "derivation" and _claimed(alg, oc.product, "3lie"):
                if oc.weight == 0:
                    yield name, "naive", (t, m)
                if m.is_invertible():
                    yield name, "cor53", (t, m, oc.weight)
                    yield name, "derived", (t, m.inverse(), oc.weight)


_BRACKETS = {
    "derived": (derived_nbracket, oracle_derived_nbracket),
    "lts": (derived_lts_bracket, oracle_derived_lts_bracket),
    "naive": (naive_bracket, oracle_naive_bracket),
    "cor53": (cor53_bracket, lambda t, m, lam: oracle_cor53_bracket(t, m)),
}


def test_catalog_brackets_are_unchanged():
    seen = set()
    for name, kind, args in _selftest_instances():
        new, old = _BRACKETS[kind]
        assert_same_tensor(new(*args), old(*args))
        seen.add(kind)
    assert seen == set(_BRACKETS)


def test_brackets_at_nonzero_weight_and_a_non_involutive_derivation():
    # P = -lam Id is Rota-Baxter of weight lam on every bracket; the catalog
    # claims only weight 0, and its one invertible derivation is involutive
    for name in ("heisenberg", "heisenberg_line", "nonabelian2", "a4"):
        t = get(name).products["bracket"]
        for lam in (1, -1, Fraction(1, 2)):
            p = LinearMap.scalar(t.dimension, -lam)
            if t.arity == 2:
                lts = lts_from_lie(t)
                assert_same_tensor(derived_lts_bracket(lts, p, lam),
                                   oracle_derived_lts_bracket(lts, p, lam))
            else:
                assert_same_tensor(derived_nbracket(t, p, lam),
                                   oracle_derived_nbracket(t, p, lam))
    a4 = get("a4")
    t, dmap = a4.products["bracket"], a4.maps["D"].scaled(2)
    assert_same_tensor(cor53_bracket(t, dmap, 0), oracle_cor53_bracket(t, dmap))


def test_naive_bracket_rejects_a_map_of_another_dimension():
    t = get("a4").products["bracket"]
    with pytest.raises(ArgumentError, match="dimension"):
        naive_bracket(t, LinearMap.identity(3))


# -------------------------------------------------------- random instances

_scalars = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
_weights = st.sampled_from((0, 1, -1, Fraction(1, 2)))


@st.composite
def tensor_and_map(draw, symmetries=("skew",)):
    d = draw(st.integers(2, 4))
    symmetry = draw(st.sampled_from(symmetries))
    vec = st.lists(_scalars, min_size=d, max_size=d).map(tuple)
    keys = stored_keys(3, d, symmetry)
    t = StructureTensor(3, d, symmetry, dict(zip(
        keys, draw(st.lists(vec, min_size=len(keys), max_size=len(keys))))))
    p = draw(st.one_of(
        st.lists(vec, min_size=d, max_size=d).map(LinearMap.from_cols),
        st.sampled_from([LinearMap.zero(d), LinearMap.identity(d),
                         LinearMap.scalar(d, -1)])))
    return t, p


@settings(max_examples=60, deadline=None)
@given(tensor_and_map(), _weights)
def test_derived_nbracket_matches_the_per_entry_form(instance, lam):
    t, p = instance
    assert_same_tensor(derived_nbracket(t, p, lam),
                       oracle_derived_nbracket(t, p, lam))


@settings(max_examples=60, deadline=None)
@given(tensor_and_map(SYMMETRIES))
def test_naive_bracket_matches_the_per_entry_form(instance):
    t, p = instance
    got = naive_bracket(t, p)
    event(f"{t.symmetry} input, {got.symmetry} bracket")
    assert_same_tensor(got, oracle_naive_bracket(t, p))
