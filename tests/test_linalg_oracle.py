"""Differential tests of ``linalg`` against sympy's exact ``Matrix``, an
implementation of rref, nullspace, determinant and inverse independent of
this package's."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcheck.linalg import LinearMap, nullspace, rref

sympy = pytest.importorskip("sympy")

# zeros are drawn often, so rank-deficient matrices are common
_scalars = st.one_of(
    st.just(0), st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3))


def _matrices(rows, cols):
    return st.lists(st.lists(_scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


_rectangular = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: _matrices(*shape))
_square = st.integers(1, 4).flatmap(lambda n: _matrices(n, n))


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(a.numerator, a.denominator)
                          for a in map(Fraction, r)] for r in rows])


def _frac(x):
    return Fraction(int(x.p), int(x.q))


def _rows_of(m):
    return [[_frac(x) for x in m.row(i)] for i in range(m.rows)]


@settings(max_examples=80, deadline=None)
@given(_rectangular)
def test_rref_matches_sympy(rows):
    red, pivots = rref(rows)
    want, want_pivots = _sym(rows).rref()
    assert pivots == list(want_pivots)
    assert red == _rows_of(want)[:len(pivots)]


@settings(max_examples=80, deadline=None)
@given(_rectangular)
def test_nullspace_matches_sympy(rows):
    ncols = len(rows[0])
    want = [tuple(_frac(x) for x in v) for v in _sym(rows).nullspace()]
    assert nullspace(rows, ncols) == want


@settings(max_examples=80, deadline=None)
@given(_square)
def test_determinant_and_inverse_match_sympy(rows):
    m, s = LinearMap.from_rows(rows), _sym(rows)
    det = s.det()
    assert m.determinant() == _frac(det)
    if det == 0:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert [list(r) for r in m.inverse().rows()] == _rows_of(s.inv())
