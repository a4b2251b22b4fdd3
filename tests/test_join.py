"""The one sparse join through the product table against the per-key
builds it replaced.

``tensor.join`` multiplies a sparse vector into every column of a map
through the kept integer table, so each product comes out as q times its
value, q the common denominator of the table's constants.  It builds the
n-ary powers of ``nary_from_associative`` and the x.D(y) products of
``prelie_from_comm_assoc``; the per-key loops they replaced are kept here
verbatim as oracles.  A joined construction must store the same entries
(values and scalar types, so ``repr`` too), also on products whose
constants have a common denominator q > 1.  The determinant brackets are
held to their per-key build in ``tests/test_sparse_constructions.py``.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcheck.catalog import catalog_names, get
from algcheck.constructions import prelie_from_comm_assoc
from algcheck.linalg import LinearMap, basis_vector, support, vec_scale
from algcheck.operators import _nary_power, check_derivation
from algcheck.tensor import StructureTensor, integer_table, join, stored_keys

from test_linalg import map_and_vector
from test_sparse_constructions import (assert_same_tensor,
                                      conjugated_derivations, transported)

# ------------------------------------------- the builds that were replaced


def per_key_nary_power(t, n):
    """The power loop before the join: one ``contract`` per key and index."""
    d = t.dimension
    # running products as sparse slots; a zero one has only zero extensions
    level = {(i,): ((i, 1),) for i in range(d)}
    for _ in range(n - 2):
        level = {key + (j,): prod for key, slot in level.items()
                 for j in range(d) if (prod := support(t.contract((slot, j))))}
    return StructureTensor(n, d, "none", {
        key + (j,): prod for key, slot in level.items() for j in range(d)
        if any(prod := t.contract((slot, j)))})


def per_key_prelie_from_comm_assoc(assoc, dmap):
    """The x.D(y) product before the join: one ``contract`` per key."""
    dc = dmap.sparse_cols
    return StructureTensor.from_function(
        2, assoc.dimension, "none",
        lambda key: assoc.contract((key[0], dc[key[1]])))


# ------------------------------------------------------------- instances

_NAMES = ("q3", "q4", "qt3", "qt4", "qt2_deg3", "qt3_deg4")


def _derivations(assoc, maps):
    """The maps that are derivations of ``assoc``, each also halved, so
    that the join meets fractional map entries, and the zero map."""
    found = [m for m in maps if check_derivation(assoc, m, 0).passed]
    return (found + [m.scaled(Fraction(1, 2)) for m in found]
            + [LinearMap.zero(assoc.dimension)])


def _catalog(name):
    alg = get(name)
    return alg.products["prod"], list(alg.maps.values())


def _moved(name, seed):
    """The product and maps of ``name`` moved by a monomial change of basis,
    as ``test_det_join_matches_the_per_key_build_after_a_monomial_change``
    moves them: a permutation and scales in 1, -1, 2 and -1/2."""
    rng = random.Random(seed)
    assoc, maps = _catalog(name)
    d = assoc.dimension
    perm = rng.sample(range(d), d)
    scale = [rng.choice((1, -1, 2, Fraction(-1, 2))) for _ in range(d)]
    s = LinearMap.from_cols([vec_scale(scale[i], basis_vector(d, perm[i]))
                             for i in range(d)])
    return transported(assoc, maps, s)


# ------------------------------------------------------ the n-ary powers


@pytest.mark.parametrize("name", _NAMES)
def test_nary_power_matches_the_per_key_loop(name):
    t, _ = _catalog(name)
    stored = 0
    for n in (2, 3, 4):
        got = _nary_power(t, n)
        assert_same_tensor(got, per_key_nary_power(t, n))
        stored += len(got.entries)
    assert stored  # not trivially equal


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", _NAMES)
def test_nary_power_matches_the_per_key_loop_after_a_monomial_change(name,
                                                                     seed):
    t, _ = _moved(name, seed)
    assert integer_table(t)[0] > 1  # the join divides by a power of q
    for n in (2, 3, 4):
        assert_same_tensor(_nary_power(t, n), per_key_nary_power(t, n))


# ---------------------------------------------------- the x.D(y) products


@pytest.mark.parametrize("name", _NAMES)
def test_prelie_from_comm_assoc_matches_the_per_key_build(name):
    assoc, maps = _catalog(name)
    for dmap in _derivations(assoc, maps):
        assert_same_tensor(prelie_from_comm_assoc(assoc, dmap),
                           per_key_prelie_from_comm_assoc(assoc, dmap))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", _NAMES)
def test_prelie_from_comm_assoc_matches_the_per_key_build_after_a_monomial_change(
        name, seed):
    assoc, maps = _moved(name, seed)
    assert integer_table(assoc)[0] > 1
    stored = 0
    for dmap in _derivations(assoc, maps):
        got = prelie_from_comm_assoc(assoc, dmap)
        assert_same_tensor(got, per_key_prelie_from_comm_assoc(assoc, dmap))
        stored += len(got.entries)
    assert stored or name in ("q3", "q4")  # these carry no derivation


# ----------------------------------------------------- on a filled table


@settings(max_examples=15, deadline=None)
@given(conjugated_derivations())
def test_joined_builds_match_the_per_key_builds_on_conjugated_derivations(
        instance):
    # a unitriangular change of basis fills the table, so running products
    # and rows of D hold several entries and the join meets the columns
    # out of order
    assoc, maps = instance
    for n in (2, 3, 4) if assoc.dimension < 10 else (2, 3):
        assert_same_tensor(_nary_power(assoc, n), per_key_nary_power(assoc, n))
    for dmap in maps:
        assert_same_tensor(prelie_from_comm_assoc(assoc, dmap),
                           per_key_prelie_from_comm_assoc(assoc, dmap))


def matrix_units(n):
    """The product of the n x n matrices on the basis of matrix units, e_ij
    e_jk = e_ik, e_ij at index n i + j: associative, not commutative."""
    entries = {(n * i + j, n * j + k): basis_vector(n * n, n * i + k)
               for i, j, k in product(range(n), repeat=3)}
    return StructureTensor(2, n * n, "none", entries)


@st.composite
def moved_matrix_units(draw):
    """The 2 x 2 or 3 x 3 matrix units moved by a unitriangular integer S:
    a product of several units reaches the columns of the identity out of
    order (e_12 + e_21 reaches e_21 and e_22 before e_11 and e_12)."""
    t = matrix_units(draw(st.sampled_from((2, 3))))
    d = t.dimension
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for i, j in draw(st.lists(st.tuples(st.integers(1, d - 1),
                                        st.integers(0, d - 2)), max_size=4)):
        rows[i][min(j, i - 1)] = draw(st.sampled_from((1, -1, 2)))
    s = LinearMap.from_rows(rows)
    s_inv = s.inverse()
    return StructureTensor.from_function(
        2, d, "none", lambda k: s_inv(t(s.cols[k[0]], s.cols[k[1]])))


@settings(max_examples=25, deadline=None)
@given(moved_matrix_units())
def test_nary_power_matches_the_per_key_loop_on_moved_matrix_units(t):
    for n in (2, 3, 4) if t.dimension == 4 else (2, 3):
        assert_same_tensor(_nary_power(t, n), per_key_nary_power(t, n))


# -------------------------------------------------------------- the join

_coeffs = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))


@st.composite
def joined(draw):
    """A binary product of any symmetry, a map, a sparse vector and the
    columns to skip, on dimensions 1 to 4, with fractions throughout."""
    d = draw(st.integers(1, 4))
    symmetry = draw(st.sampled_from(("none", "skew", "symmetric")))
    vec = st.lists(_coeffs, min_size=d, max_size=d).map(tuple)
    keys = stored_keys(2, d, symmetry)
    t = StructureTensor(2, d, symmetry, dict(zip(
        keys, draw(st.lists(vec, min_size=len(keys), max_size=len(keys))))))
    m = LinearMap(tuple(draw(st.lists(vec, min_size=d, max_size=d))))
    left = support(draw(vec))
    skip = tuple(draw(st.sets(st.integers(0, d - 1), max_size=2)))
    return t, m, left, skip


@settings(max_examples=200, deadline=None)
@given(joined())
def test_join_is_q_times_the_product_with_each_column(instance):
    t, m, left, skip = instance
    q = integer_table(t)[0]
    got = join(t, left, m.sparse_rows, skip)
    assert not set(got) & set(skip)
    for x in range(t.dimension):
        want = t.contract((left, m.sparse_cols[x]))
        if x in skip or not any(want):
            assert not any(got.get(x, {}).values())
        else:
            assert {k: c for k, c in got[x].items() if c} == {
                k: q * c for k, c in support(want)}


# ------------------------------------------------------ the kept map rows


def test_sparse_rows_are_the_support_of_the_dense_rows_on_the_catalog():
    seen = 0
    for name in catalog_names():
        for m in get(name).maps.values():
            rows = m.sparse_rows
            assert rows == [support(r) for r in m.rows()]
            assert repr(rows) == repr([support(r) for r in m.rows()])
            seen += 1
    assert seen >= 10


@settings(max_examples=200)
@given(map_and_vector())
def test_sparse_rows_match_the_dense_rows_on_rational_maps(instance):
    m, _ = instance
    assert repr(m.sparse_rows) == repr([support(r) for r in m.rows()])
