import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcheck import files
from algcheck.catalog import catalog_names, get
from algcheck.linalg import (LinearForm, LinearMap, basis_vector, kernel_basis,
                             kernel_membership, maps_commute, nullspace, rref,
                             vec_add, vec_is_zero, vec_scale, vec_sub, vector)
from algcheck.reports import ArgumentError

scalars = st.one_of(st.integers(-6, 6),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def small_maps(dim):
    return st.lists(st.lists(scalars, min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim).map(LinearMap.from_cols)


def test_column_convention():
    # column j is the image of basis vector j
    m = LinearMap.from_cols([(1, 2), (3, 4)])
    assert m(basis_vector(2, 0)) == (1, 2)
    assert m(basis_vector(2, 1)) == (3, 4)
    assert m.rows() == [(1, 3), (2, 4)]


def test_matmul_is_composition():
    a = LinearMap.from_cols([(1, 0), (1, 1)])
    b = LinearMap.from_cols([(2, 1), (0, 3)])
    v = (5, Fraction(1, 2))
    assert (a @ b)(v) == a(b(v))


def test_inverse_and_determinant():
    m = LinearMap.from_cols([(2, 1), (1, 1)])
    assert m.determinant() == 1
    inv = m.inverse()
    ident = LinearMap.identity(2)
    assert (m @ inv).cols == ident.cols
    assert (inv @ m).cols == ident.cols


def test_singular_map():
    m = LinearMap.from_cols([(1, 2), (2, 4)])
    assert m.determinant() == 0
    assert not m.is_invertible()
    with pytest.raises(ValueError):
        m.inverse()


@settings(max_examples=60)
@given(small_maps(3))
def test_determinant_zero_iff_nontrivial_kernel(m):
    assert (m.determinant() == 0) == bool(kernel_basis(m))


@settings(max_examples=40)
@given(small_maps(3))
def test_inverse_roundtrip(m):
    if m.is_invertible():
        assert (m @ m.inverse()).cols == LinearMap.identity(3).cols


def test_rref_canonical():
    rows, pivots = rref([(2, 4, 6), (1, 2, 4)])
    assert pivots == [0, 2]
    assert rows == [[1, 2, 0], [0, 0, 1]]


def test_nullspace_exact():
    # x + 2y + 3z = 0, y + z = 0  ->  free z: x = -z, y = -z
    basis = nullspace([(1, 2, 3), (0, 1, 1)], 3)
    assert basis == [(-1, -1, 1)]
    for v in basis:
        assert sum(a * b for a, b in zip((1, 2, 3), v)) == 0


@settings(max_examples=60)
@given(small_maps(3))
def test_kernel_basis_members_are_in_kernel(m):
    for v in kernel_basis(m):
        assert kernel_membership(m, v)
        assert not vec_is_zero(v)


def test_linear_form():
    f = LinearForm((1, 0, -2))
    assert f((3, 5, 1)) == 1
    assert f.dimension == 3


def test_linear_form_dimension_mismatch_is_argument_error():
    with pytest.raises(ArgumentError):
        LinearForm((1, 0, -2))((3, 5))


def test_linear_map_dimension_errors_are_argument_errors():
    with pytest.raises(ArgumentError, match="square"):
        LinearMap(((1, 0),))
    with pytest.raises(ArgumentError, match="map application"):
        LinearMap.identity(2)((1, 2, 3))


def test_vector_helpers():
    assert vector([Fraction(2, 1), Fraction(1, 2)]) == (2, Fraction(1, 2))
    assert vec_add((1, 2), (3, 4)) == (4, 6)
    assert vec_sub((1, 2), (3, 4)) == (-2, -2)
    assert vec_scale(0, (5, 6)) == (0, 0)
    assert vec_scale(2, (5, 6)) == (10, 12)


def test_maps_commute():
    a = LinearMap.diagonal([1, 2])
    b = LinearMap.diagonal([3, 4])
    c = LinearMap.from_cols([(0, 1), (0, 0)])
    assert maps_commute(a, b)
    assert not maps_commute(a, c)


def test_linear_map_sum_and_difference_reject_other_dimensions():
    a, b = LinearMap.identity(2), LinearMap.identity(3)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ArgumentError, match="dimension"):
            x + y
        with pytest.raises(ArgumentError, match="dimension"):
            x - y
    assert (a + a).cols == ((2, 0), (0, 2))
    assert (a - a).cols == ((0, 0), (0, 0))


# ------------------------------------------------ the map's kept columns


def _snapshot(alg):
    maps = alg.maps.values()
    return (files.dumps(alg), [repr(m) for m in maps], [hash(m) for m in maps],
            [pickle.loads(pickle.dumps(m)) for m in maps])


def test_kept_columns_leave_equality_hash_repr_pickle_and_files_alone():
    for name in catalog_names():
        alg = files.loads(files.dumps(get(name)))  # columns not built yet
        assert all("sparse_cols" not in vars(m) and "sparse_rows" not in vars(m)
                   for m in alg.maps.values())
        text, reprs, hashes, copies = _snapshot(alg)
        for m in alg.maps.values():
            assert m.sparse_cols is m.sparse_cols  # built once, then kept
            assert m.sparse_rows is m.sparse_rows
            m(tuple(range(m.dimension)))
        assert _snapshot(alg) == (text, reprs, hashes, copies)
        for m, copy in zip(alg.maps.values(), copies):
            assert m == copy and hash(m) == hash(copy)
            again = pickle.loads(pickle.dumps(m))
            assert again == m and repr(again) == repr(m)
            assert again.sparse_cols == m.sparse_cols
            assert again.sparse_rows == m.sparse_rows


def dense_apply(m, v):
    """The earlier dense matrix-vector loop of ``LinearMap.__call__``."""
    out = [0] * m.dimension
    for c, col in zip(v, m.cols):
        if c == 0:
            continue
        for i, a in enumerate(col):
            if a:
                out[i] += c * a
    return tuple(out)


# Fraction(2) and Fraction(0) are kept unnormalized in the raw constructor,
# so a drift between int and Fraction results shows in ``repr``
_raw = st.one_of(st.integers(-3, 3), st.sampled_from((Fraction(2), Fraction(0))),
                 st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def map_and_vector(draw):
    d = draw(st.integers(1, 5))
    vec = st.lists(_raw, min_size=d, max_size=d).map(tuple)
    col = st.one_of(vec, st.just((0,) * d))
    m = LinearMap(tuple(draw(st.lists(col, min_size=d, max_size=d))))
    return m, draw(st.one_of(vec, st.just((0,) * d)))


@settings(max_examples=200)
@given(map_and_vector())
def test_map_application_matches_the_dense_loop(instance):
    m, v = instance
    assert repr(m(v)) == repr(dense_apply(m, v))
