"""Exact vectors, matrices and linear forms over the rationals.

Conventions used throughout the package:

* a vector is a tuple of scalars, length = ambient dimension;
* a sparse vector (a ``contract`` slot) is the tuple of its nonzero
  ``(index, coefficient)`` pairs, as :func:`support` gives it;
* ``LinearMap`` stores its matrix by columns, column ``j`` being the image of
  basis vector ``j``; composition ``A @ B`` is the matrix product ``A . B``.
  Its sparse columns and rows are built on first use and kept on the frozen
  map, like ``StructureTensor.table``, outside equality, hashing and
  ``repr``; a map applies through its columns;
* nullspaces are computed by exact Gaussian elimination over the rationals
  and returned in the canonical reduced-row-echelon parametrization, so the
  result is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .reports import ArgumentError, Record
from .scalars import Scalar, norm

Vector = tuple  # tuple of Scalar


def vector(coords) -> Vector:
    return tuple(norm(c) for c in coords)


def zero_vector(dim: int) -> Vector:
    return (0,) * dim


def basis_vector(dim: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(dim))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Scalar, v: Vector) -> Vector:
    if c == 0:
        return (0,) * len(v)
    if c == 1:
        return v
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def support(v: Vector) -> tuple:
    """The nonzero ``(index, coefficient)`` pairs of a dense vector."""
    return tuple((i, c) for i, c in enumerate(v) if c)


def apply_cols(cols, v: Vector) -> Vector:
    """Image of ``v`` under the map with the sparse columns ``cols``; reads
    only the columns at the nonzero entries of ``v``."""
    out = [0] * len(v)
    for c, col in zip(v, cols):
        if c:
            for i, a in col:
                out[i] += c * a
    return tuple(out)


class LinearForm(Record):
    """Covector; ``f(x) = sum_i row[i] * x[i]``."""

    _fields = ("row",)

    def __init__(self, row: Vector):
        self.__dict__["row"] = row

    @property
    def dimension(self) -> int:
        return len(self.row)

    def __call__(self, v: Vector) -> Scalar:
        if len(v) != len(self.row):
            raise ArgumentError("dimension mismatch in form application")
        return sum(a * b for a, b in zip(self.row, v) if a and b)

    def is_zero(self) -> bool:
        return vec_is_zero(self.row)


class LinearMap(Record):
    """Square matrix stored by columns (column j = image of basis vector j)."""

    _fields = ("cols",)

    def __init__(self, cols: tuple):  # tuple of Vector
        self.__dict__["cols"] = cols
        self.__post_init__()

    def __post_init__(self):
        d = len(self.cols)
        for c in self.cols:
            if len(c) != d:
                raise ArgumentError("LinearMap matrix must be square")

    @property
    def dimension(self) -> int:
        return len(self.cols)

    @classmethod
    def from_cols(cls, cols) -> "LinearMap":
        return cls(tuple(vector(c) for c in cols))

    @classmethod
    def from_rows(cls, rows) -> "LinearMap":
        rows = [vector(r) for r in rows]
        return cls(tuple(zip(*rows)) if rows else ())

    @classmethod
    def identity(cls, dim: int) -> "LinearMap":
        return cls(tuple(basis_vector(dim, i) for i in range(dim)))

    @classmethod
    def zero(cls, dim: int) -> "LinearMap":
        return cls(tuple(zero_vector(dim) for _ in range(dim)))

    @classmethod
    def scalar(cls, dim: int, c: Scalar) -> "LinearMap":
        c = norm(c)
        return cls(tuple(vec_scale(c, basis_vector(dim, i)) for i in range(dim)))

    @classmethod
    def diagonal(cls, entries) -> "LinearMap":
        entries = [norm(e) for e in entries]
        d = len(entries)
        return cls(tuple(vec_scale(entries[i], basis_vector(d, i)) for i in range(d)))

    def rows(self) -> list:
        return [tuple(col[i] for col in self.cols) for i in range(self.dimension)]

    @cached_property
    def sparse_cols(self) -> list:
        """The :func:`support` of each column, built on first use."""
        return [support(col) for col in self.cols]

    @cached_property
    def sparse_rows(self) -> list:
        """The :func:`support` of each row, built on first use: row j holds
        ``(i, M[j, i])``, in increasing i."""
        return [support(row) for row in zip(*self.cols)]

    def __call__(self, v: Vector) -> Vector:
        if len(v) != self.dimension:
            raise ArgumentError("dimension mismatch in map application")
        return apply_cols(self.sparse_cols, v)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if other.dimension != self.dimension:
            raise ArgumentError("dimension mismatch in map sum")
        return LinearMap(tuple(vec_add(a, b) for a, b in zip(self.cols, other.cols)))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        if other.dimension != self.dimension:
            raise ArgumentError("dimension mismatch in map difference")
        return LinearMap(tuple(vec_sub(a, b) for a, b in zip(self.cols, other.cols)))

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(tuple(self(col) for col in other.cols))

    def scaled(self, c: Scalar) -> "LinearMap":
        c = norm(c)
        return LinearMap(tuple(vec_scale(c, col) for col in self.cols))

    def determinant(self) -> Scalar:
        _, pivots, det = _eliminate(self.rows())
        return det if len(pivots) == self.dimension else 0

    def is_invertible(self) -> bool:
        return self.determinant() != 0

    def inverse(self) -> "LinearMap":
        """Reduces [M | I]; M is invertible iff every pivot lies in M, and
        then the right-hand block is M^-1."""
        d = self.dimension
        red, pivots, _ = _eliminate(
            [r + basis_vector(d, i) for i, r in enumerate(self.rows())])
        if pivots != list(range(d)):
            raise ValueError("singular map has no inverse")
        return LinearMap.from_rows([row[d:] for row in red])


def maps_commute(a: LinearMap, b: LinearMap) -> bool:
    """Exact test of ``A B = B A``."""
    return (a @ b).cols == (b @ a).cols


def _eliminate(rows) -> tuple[list, list[int], Scalar]:
    """Gauss-Jordan elimination, the one pivot loop of this module.

    Returns the nonzero rows of the reduced row echelon form, the pivot
    columns, and the product of the pivots times the sign of the row swaps.
    Swaps negate the determinant, scaling a row by 1/pivot divides it by the
    pivot, and adding multiples of rows keeps it; so for a square matrix of
    full rank, whose reduced form is I, that product is the determinant.
    """
    m = [[norm(e) for e in r] for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    det = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            det = -det
        det *= m[r][c]
        pv = Fraction(1, 1) / m[r][c]
        m[r] = [norm(e * pv) for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [norm(a - f * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots, norm(det)


def rref(rows) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    return _eliminate(rows)[:2]


def nullspace(rows, ncols: int) -> list[Vector]:
    """Canonical basis of ``{v : M v = 0}`` for the matrix with the given rows."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = norm(-r[fc])
        basis.append(tuple(v))
    return basis


def kernel_basis(m: LinearMap) -> list[Vector]:
    """Exact nullspace of a linear map."""
    return nullspace(m.rows(), m.dimension)


def kernel_membership(m: LinearMap, v: Vector) -> bool:
    return vec_is_zero(m(v))
