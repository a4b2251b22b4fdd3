"""Structure-constant tensors for n-ary multilinear products.

A ``StructureTensor`` records the products of basis tuples; the product of
arbitrary vectors is the multilinear expansion of those constants.  Skew
tensors are stored on strictly ascending index tuples only (``d choose n``
entries instead of ``d**n``), symmetric ones on sorted tuples, and missing
tuples are zero.

Every product is read from one lookup table, built lazily on first use and
cached on the (frozen) tensor: it maps each ordered index tuple with a
nonzero product to the nonzero ``(k, c)`` pairs of that product, with the
sign of the sorting permutation already applied for skew storage.  It holds
about ``n! * len(entries)`` keys, not ``d**n``; a tuple with a repeated index
is absent from a skew table, so skew-symmetry holds by construction.
Values that depend on the tensor alone, such as axiom verdicts and n-ary
powers, are kept on it in the same way (``StructureTensor._memo``).
:meth:`StructureTensor.contract` expands multilinear products of sparse
arguments over that table and is the one contraction kernel of the package.
The table scaled to ints is kept too (:func:`integer_table`): the sparse
builders read it, and so does :func:`join`, the product of a sparse vector
with every column of a map under a binary product, which builds the
determinant brackets, the n-ary powers and the x·D(y) products.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, combinations_with_replacement, permutations
from itertools import product as iproduct
from math import lcm

from .linalg import (Vector, basis_vector, support, vec_is_zero, vec_scale,
                     vector)
from .reports import ArgumentError, Record
from .scalars import rational

SYMMETRIES = ("none", "skew", "symmetric")


def sort_with_sign(indices) -> tuple[tuple, int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign)."""
    idx = list(indices)
    sign = 1
    # insertion sort; tuples here have length <= 4
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


class StructureTensor(Record):
    """The products of the basis tuples of an n-ary product, by stored key."""

    _fields = ("arity", "dimension", "symmetry", "entries")

    def __init__(self, arity: int, dimension: int, symmetry: str,
                 entries: dict | None = None):  # index tuple -> Vector
        d = self.__dict__
        d["arity"] = arity
        d["dimension"] = dimension
        d["symmetry"] = symmetry
        d["entries"] = {} if entries is None else entries
        self.__post_init__()

    def __post_init__(self):
        if self.arity < 2:
            raise ArgumentError("arity must be at least 2")
        if self.symmetry not in SYMMETRIES:
            raise ArgumentError(f"unknown symmetry {self.symmetry!r}")
        clean = {}
        for key, value in self.entries.items():
            key = tuple(key)
            if len(key) != self.arity:
                raise ArgumentError(f"entry key {key} has wrong arity")
            if any(not (0 <= i < self.dimension) for i in key):
                raise ArgumentError(f"entry key {key} out of range")
            if self.symmetry == "skew" and any(a >= b for a, b in zip(key, key[1:])):
                raise ArgumentError(f"skew entry key {key} not strictly ascending")
            if self.symmetry == "symmetric" and any(a > b for a, b in zip(key, key[1:])):
                raise ArgumentError(f"symmetric entry key {key} not sorted")
            value = vector(value)
            if len(value) != self.dimension:
                raise ArgumentError(f"entry {key} has wrong dimension")
            if not vec_is_zero(value):
                clean[key] = value
        self.__dict__["entries"] = clean

    # -- basis products ----------------------------------------------------

    @cached_property
    def table(self) -> dict:
        """Ordered index tuple -> nonzero ``(k, c)`` pairs of its product.

        Built on first use, never at construction.  Tuples whose product is
        zero are absent.
        """
        if self.symmetry == "none":
            return {key: support(value) for key, value in self.entries.items()}
        skew = self.symmetry == "skew"
        perms = [(p, sort_with_sign(p)[1] if skew else 1)
                 for p in permutations(range(self.arity))]
        table = {}
        for key, value in self.entries.items():
            pairs = support(value)
            neg = tuple((k, -c) for k, c in pairs)
            for p, sign in perms:
                table[tuple(key[i] for i in p)] = pairs if sign > 0 else neg
        return table

    def _memo(self, key, fn, *args):
        """``fn(self, *args)`` for a value that depends on the frozen tensor
        alone, computed once per ``key`` and kept, like :attr:`table`, in the
        instance ``__dict__``, outside the fields that equality compares.
        An exception is not kept; every call raises it."""
        memo = self.__dict__.setdefault("_memo_values", {})
        if key not in memo:
            memo[key] = fn(self, *args)
        return memo[key]

    def contract(self, *terms) -> Vector:
        """Sum of the multilinear products ``terms`` as a dense vector.

        Each term is a sequence of ``arity`` slots; a slot is a basis index
        or a sparse vector given as ``(index, coefficient)`` pairs.  Every
        index tuple of the expansion is looked up in :attr:`table`; an
        empty table gives the zero vector without expanding any slot.
        """
        table = self.table
        out = [0] * self.dimension
        if not table:
            return tuple(out)
        for slots in terms:
            # a coefficient of None is an exact 1, never multiplied in
            keys = [((), None)]
            fixed = ()  # basis indices not yet appended to the keys
            for slot in slots:
                if isinstance(slot, int):
                    fixed += (slot,)
                else:
                    keys = [(key + fixed + (i,), a if c is None else c * a)
                            for key, c in keys for i, a in slot]
                    fixed = ()
            if fixed:
                keys = [(key + fixed, c) for key, c in keys]
            for key, c in keys:
                for k, a in table.get(key, ()):
                    out[k] += a if c is None else c * a
        return tuple(out)

    def basis_product(self, indices) -> Vector:
        """Product of the basis vectors named by ``indices``."""
        indices = tuple(indices)
        if len(indices) != self.arity:
            raise ArgumentError("wrong number of indices")
        return self.contract(indices)

    # -- evaluation --------------------------------------------------------

    def __call__(self, *args):
        return self.evaluate(list(args))

    def evaluate(self, args) -> Vector:
        """Multilinear expansion of the structure constants at ``args``."""
        if len(args) != self.arity:
            raise ArgumentError(
                f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if len(a) != self.dimension:
                raise ArgumentError("argument dimension mismatch")
        return vector(self.contract([support(a) for a in args]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_function(cls, arity, dimension, symmetry, fn) -> "StructureTensor":
        """Build a tensor from a function on stored index tuples.

        ``fn`` receives an index tuple (ascending for skew, sorted for
        symmetric, arbitrary for none) and returns the product vector.
        """
        entries = {}
        for key in basis_tuples(arity, dimension, symmetry):
            value = fn(key)
            if not vec_is_zero(value):
                entries[key] = vector(value)
        return cls(arity, dimension, symmetry, entries)

    @classmethod
    def zero(cls, arity, dimension, symmetry="none") -> "StructureTensor":
        return cls(arity, dimension, symmetry, {})

    def scaled(self, c) -> "StructureTensor":
        return StructureTensor(
            self.arity, self.dimension, self.symmetry,
            {k: vec_scale(c, v) for k, v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries


_TUPLES = {"skew": combinations, "symmetric": combinations_with_replacement,
           "none": lambda r, n: iproduct(r, repeat=n)}
# the least rise from one index to the next of the tuples ``basis_tuples``
# gives for each symmetry; those of "none" may fall
RISE = {"skew": 1, "symmetric": 0, "none": None}


def basis_tuples(arity, dimension, symmetry):
    """Lazy lex-order iterator over the index tuples keyed by ``symmetry``:
    strictly ascending for skew, sorted for symmetric, all for none.

    These are the tuples a tensor of that shape stores, and the tuples an
    exhaustive check scans when its identity has that symmetry.
    """
    return _TUPLES[symmetry](range(dimension), arity)


def integer_table(t: StructureTensor) -> tuple:
    """``(q, rows)``: the constants of ``t.table`` times their common
    denominator q, as ints, with ``rows[i]`` the ``(key, pairs)`` of the
    keys whose first index is i, in table order.  Built once and kept on
    ``t`` (``StructureTensor._memo``), so every decided check on ``t``
    shares it."""
    return t._memo("integer table", _integer_table)


def _integer_table(t: StructureTensor) -> tuple:
    q = lcm(*(c.denominator for pairs in t.table.values() for _, c in pairs))
    rows = [[] for _ in range(t.dimension)]
    for key, pairs in t.table.items():
        rows[key[0]].append(
            (key, tuple((k, c.numerator * (q // c.denominator))
                        for k, c in pairs)))
    return q, rows


def join(t: StructureTensor, left, rows, skip=()) -> dict:
    """``{x: q times t(left, M e_x)}`` for the binary product t, over the
    columns x of a map M not in ``skip`` that a stored product reaches,
    each product as a ``k -> coefficient`` dict.  ``left`` is a sparse
    vector, ``rows`` the sparse rows of M (``LinearMap.sparse_rows``) and q
    the common denominator of :func:`integer_table`, whose rows by first
    index it reads: t(e_a, e_b) is read only where ``left`` has a and row b
    of M is nonzero, so a column no stored product reaches costs nothing."""
    first = integer_table(t)[1]
    out = {}
    for a, p in left:
        if not p:
            continue
        for (_, b), pairs in first[a]:
            for x, m in rows[b]:
                if x in skip:
                    continue
                prod = out.setdefault(x, {})
                c = p * m
                for k, e in pairs:
                    prod[k] = prod.get(k, 0) + c * e
    return out


def descaled(prod: dict, d: int, q) -> list:
    """The dense d-vector of ``prod``, which maps k to q times coordinate
    k, dividing by q once at each nonzero coordinate."""
    out = [0] * d
    for k, c in prod.items():
        if c:
            out[k] = rational(c, q)
    return out


def stored_keys(arity, dimension, symmetry):
    """Index tuples a tensor of the given shape actually stores, in lex order."""
    return list(basis_tuples(arity, dimension, symmetry))


def skew_from_values(dimension, arity, value_fn, verify=True) -> StructureTensor:
    """Store ``value_fn`` over ascending tuples as a skew tensor.

    With ``verify`` (the default) the claimed skewness is checked rather than
    assumed: ``value_fn`` is evaluated on every index tuple and compared with
    the signed value of its sorted tuple.  Raises ``ArgumentError`` on the
    first violation.
    """
    t = StructureTensor.from_function(arity, dimension, "skew", value_fn)
    if verify:
        for key in basis_tuples(arity, dimension, "none"):
            if vector(value_fn(key)) != t.contract(key):
                raise ArgumentError(
                    f"values are not skew-symmetric at index tuple {key}")
    return t


def tensors_equal(a: StructureTensor, b: StructureTensor) -> bool:
    """Entrywise equality as multilinear maps (storage-independent)."""
    return (a.arity == b.arity and a.dimension == b.dimension
            and a.table == b.table)


def basis(dimension) -> list[Vector]:
    return [basis_vector(dimension, i) for i in range(dimension)]
