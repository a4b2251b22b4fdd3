"""Axiom checkers for the algebra classes handled by the workbench.

Every universally quantified identity here is multilinear in each argument,
so it holds for all vectors iff it holds on basis tuples; the checkers only
iterate basis tuples and this reduction is relied on throughout.  Every
check hands its tuples, in lexicographic order, to
:func:`reports.first_failure`, which reports the first failure; that makes
counterexamples deterministic.  The tuples come from
:func:`tensor.basis_tuples`, keyed by the symmetry of the identity in a
block of its arguments.  Where it is alternating in a block (the n-Jacobi
identity on a skew tensor, the binary Jacobi identity, the commutator
conditions) only strictly ascending blocks are scanned: a repeated index
inside the block satisfies the identity trivially (both sides cancel
pairwise), and a non-ascending tuple fails iff its blockwise-sorted,
lexicographically smaller companion fails.  Where it is symmetric in a
block (the polarized first Lie-triple-system axiom) only sorted blocks are
scanned, by the same argument without the repeated-index case.  Either
way the first reduced failure is still the lexicographically least failing
basis tuple.  ``checked_count`` always reports the full logical tuple count.

The n-Jacobi, associativity, pre-Lie and binary Jacobi identities, and the
derivation axiom of a Lie triple system, are quadratic in the product: each
side is a sum of one-level compositions t(..., t(...), ...) of basis
vectors, stated once as data, ``(coeff, inner, outer)`` per composition.
Their scans visit blocks of ``basis_tuples`` concatenated: ascending xs then
ascending ys for n-Jacobi, i < j then any k for pre-Lie, ascending triples
for the binary Jacobi identity, every triple for associativity and every
5-tuple for the derivation axiom.  They scan the first ``reports._PREFIX``
tuples one by one, each side one contraction of its compositions
(``_composed_side``), and decide the rest from the sparse difference of the
two sides (:func:`reports.decide`), which ``_least_composed`` builds from
``t.table`` alone, from the same compositions with those of rhs negated.
A term of a composition takes an inner source key J of the table, a nonzero
coordinate c at v of its product, and an outer source key K with v in the
slot of the inner product; it lands on the tuple whose positions J and K,
less that slot, name, with the coefficient of the composition times c times
the product of K.  The difference at a tuple is exactly lhs - rhs there:
both sides and the difference are read off the same compositions, so by
construction the terms landing on a tuple, with the coefficients of their
compositions, are the summands of lhs and rhs as ``_composed_side``
expands them over the same table.  Each is a product of two constants, so
with every constant made an integer by their common denominator q the
terms add up exactly to q**2 (lhs - rhs), which divided by q**2 is
lhs - rhs, zero iff the two sides are equal.  ``decide`` shows why the
report is then the per-tuple one.

Degenerate dimensions 0 and 1 are legal; checks pass vacuously.
"""

from __future__ import annotations

from functools import wraps
from math import lcm
from operator import itemgetter

from .linalg import LinearForm, LinearMap, basis_vector, nullspace
from .reports import (ArgumentError, CheckReport, decide, failing,
                      first_failure, passing)
from .scalars import rational
from .tensor import RISE, StructureTensor, basis_tuples


def _kept(check):
    """``check(t)``, whose report depends on the frozen ``t`` alone, kept on it."""
    @wraps(check)
    def kept(t: StructureTensor) -> CheckReport:
        return t._memo(check.__name__, check)
    return kept


@_kept
def check_skew_symmetric(t: StructureTensor) -> CheckReport:
    """Does evaluation change sign under every transposition of arguments?

    Adjacent transpositions are checked on every basis tuple; they generate
    the full symmetric group, so this is complete.  Tuples with repeated
    indices are included: skewness over a characteristic-0 field forces
    their product to vanish.
    """
    name = "skew-symmetric"
    count = t.dimension ** t.arity * max(t.arity - 1, 1)
    if t.symmetry == "skew":
        return passing(name, count)  # holds by construction of the storage

    def sides(idx):  # the first swapped product that is not -t(idx)
        neg = tuple(-a for a in t.basis_product(idx))
        swaps = (t.basis_product(idx[:p] + (idx[p + 1], idx[p]) + idx[p + 2:])
                 for p in range(t.arity - 1))
        return next((got for got in swaps if got != neg), neg), neg
    return first_failure(name, count, basis_tuples(t.arity, t.dimension, "none"),
                         sides)


def _require_skew(t):
    rep = check_skew_symmetric(t)
    if not rep.passed:
        raise ArgumentError(
            "tensor is not skew-symmetric "
            f"(violation at basis tuple {rep.counterexample.indices})")


def _block_tuples(d, blocks):
    """Lazy lex-order iterator over the tuples scanned for ``blocks``: one
    tuple of ``basis_tuples(k, d, symmetry)`` per block ``(k, symmetry)``,
    concatenated."""
    (k, symmetry), rest = blocks[0], blocks[1:]
    for head in basis_tuples(k, d, symmetry):
        for tail in _block_tuples(d, rest) if rest else ((),):
            yield head + tail


def _composed_side(t: StructureTensor, compositions, idx):
    """The sum of ``compositions`` at the basis tuple ``idx``, as one
    contraction with one term per composition; a coefficient other than 1
    scales the inner product in its slot."""
    pairs = t.table.get
    terms = []
    for coeff, inner, outer in compositions:
        slot = pairs(tuple(idx[p] for p in inner), ())
        if coeff != 1:
            slot = tuple((k, coeff * c) for k, c in slot)
        terms.append(tuple(slot if p is None else idx[p] for p in outer))
    return t.contract(*terms)


def _decide_composed(name, count, t: StructureTensor, blocks, lhs,
                     rhs) -> CheckReport:
    """The report of ``first_failure`` over the tuples of ``blocks`` with the
    sides ``lhs`` and ``rhs``, sums of compositions, past the prefix from
    the least tuple where lhs - rhs is nonzero."""
    return decide(name, count, _block_tuples(t.dimension, blocks),
                  lambda idx: (_composed_side(t, lhs, idx),
                               _composed_side(t, rhs, idx)),
                  lambda: _least_composed(
                      t, blocks, [*lhs, *((-c, i, o) for c, i, o in rhs)]))


def _steps(names, rises):
    """``(i, h, r)``: entry i of a key naming the positions ``names`` must
    exceed entry h by at least r, for the tuple to rise as the scan's do."""
    at = {p: i for i, p in enumerate(names)}
    return [(at[p], at[p - 1], r) for p, r in rises.items()
            if p in at and p - 1 in at]


def _rises(values, steps):
    return all(values[i] >= values[h] + r for i, h, r in steps)


def _least_composed(t: StructureTensor, blocks, compositions):
    """``(key, lhs - rhs)`` at the least tuple of ``blocks`` where the sum
    of ``compositions`` is nonzero, or ``None``.

    A composition ``(coeff, inner, outer)`` is coeff times the product at
    the positions ``outer`` of the tuple with the product at the positions
    ``inner`` in the slot marked ``None``; each position is named once.
    Its terms are those of the module docstring: an inner key J and an
    outer key K name the positions of the tuple they land on, the slot
    aside.  All terms landing on a tuple share its first index, so they are
    expanded one first index at a time, in increasing order, and the least
    nonzero tuple of the first index that has one is the least overall.
    Of J and K, the one that names position 0 is looked up by its first
    index, the other by v.
    """
    d = t.dimension
    # the constants times their common denominator q, as ints: a term, the
    # product of two constants, is then q**2 times its value
    q = lcm(*(c.denominator for prod in t.table.values() for _, c in prod))
    table = {key: [(k, c.numerator * (q // c.denominator)) for k, c in prod]
             for key, prod in t.table.items()}
    rises, length = {}, 0  # position -> least rise from the one before it
    for k, symmetry in blocks:
        if RISE[symmetry] is not None:
            rises.update(dict.fromkeys(range(length + 1, length + k),
                                       RISE[symmetry]))
        length += k
    plans = []
    for coeff, inner, outer in compositions:
        slot, steps = outer.index(None), _steps(inner, rises)
        js = [(j, v, coeff * c) for j, prod in table.items()
              if _rises(j, steps) for v, c in prod]
        steps = _steps(outer, rises)
        ks = [(key, key[slot], prod) for key, prod in table.items()
              if _rises(key, steps)]
        j_drives = 0 in inner
        (first_side, names), (other_side, other) = (
            ((js, inner), (ks, outer)) if j_drives else ((ks, outer), (js, inner)))
        by_first, by_v = [[] for _ in range(d)], {}
        for item in first_side:
            by_first[item[0][names.index(0)]].append(item)
        for item in other_side:
            by_v.setdefault(item[1], []).append(item)
        # the steps between the two keys, checked on each joined pair
        cut, names = len(names), names + other
        cross = [(i, h, r) for i, h, r in _steps(names, rises)
                 if (i < cut) != (h < cut)]
        plans.append((by_first, by_v, j_drives, cross,
                      itemgetter(*map(names.index, range(length)))))
    for first in range(d):
        diff = {}
        for plan in plans:
            for key, w, prod in _landings(plan, first):
                acc = diff.get(key)
                if acc is None:
                    acc = diff[key] = [0] * d
                for k, a in prod:
                    acc[k] += w * a
        nonzero = [key for key, acc in diff.items() if any(acc)]
        if nonzero:
            key = min(nonzero)
            return key, tuple(rational(a, q * q) for a in diff[key])
    return None


def _landings(plan, first):
    """``(tuple, w, product of K)`` of each term of one composition whose
    tuple has the first index ``first`` and rises as the scan's do."""
    by_first, by_v, j_drives, cross, pick = plan
    for a, v, x in by_first[first]:
        for b, _, y in by_v.get(v, ()):
            ab = a + b
            for i, h, r in cross:
                if ab[i] < ab[h] + r:
                    break
            else:
                yield (pick(ab), x, y) if j_drives else (pick(ab), y, x)


@_kept
def check_n_jacobi(t: StructureTensor) -> CheckReport:
    """Fundamental identity of an n-Lie bracket, over all basis tuples.

    The bracket of the first n arguments must act as a derivation of the
    bracket in the remaining n-1 ones; this derivation form is the one
    scanned.  For ternary brackets the bracket-first form

        [[x0, x1, x2], y0, y1] = [[x0, y0, y1], x1, x2]
                                 + [[x1, y0, y1], x2, x0]
                                 + [[x2, y0, y1], x0, x1]

    is the same sum, term by term, so it is not scanned again.  Term 0 is
    the same key in both forms; terms 1 and 2 differ by a cyclic shift,
    ``(x0, v, x2)`` against ``(v, x2, x0)`` and ``(x0, x1, v)`` against
    ``(v, x0, x1)``.  A cyclic shift of three slots is an even permutation,
    so once the bracket is skew both keys give the same products: on
    ``skew`` storage by construction of the table, on ``none`` storage
    because :func:`check_skew_symmetric` passed on every adjacent swap.

    Both sides are compositions of the bracket with itself, t(t(xs), ys)
    and the sum over i of t(xs with t(x_i, ys) at slot i), decided as in
    the module docstring.
    """
    n = t.arity
    _require_skew(t)
    xs, ys = tuple(range(n)), tuple(range(n, 2 * n - 1))
    return _decide_composed(
        f"{n}-jacobi", t.dimension ** (2 * n - 1), t,
        ((n, "skew"), (n - 1, "skew")), ((1, xs, (None,) + ys),),
        [(1, (i,) + ys, xs[:i] + (None,) + xs[i + 1:]) for i in range(n)])


# each quadratic identity of a binary product as its (lhs, rhs), each side
# compositions as ``_least_composed`` reads them: (e0 e1) e2 = e0 (e1 e2);
# the associator at (e0, e1, e2) equals the one at (e1, e0, e2); and the
# cyclic sum of (e0 e1) e2 vanishes
_ASSOCIATIVE = (((1, (0, 1), (None, 2)),), ((1, (1, 2), (0, None)),))
_PRELIE = (((1, (0, 1), (None, 2)), (-1, (1, 2), (0, None))),
           ((1, (1, 0), (None, 2)), (-1, (0, 2), (1, None))))
_LIE_JACOBI = (((1, (0, 1), (None, 2)), (1, (1, 2), (None, 0)),
                (1, (2, 0), (None, 1))), ())
# {e0 e1 e2} e3 e4 acts as a derivation: {{e0 e1 e2} e3 e4} =
# {{e0 e3 e4} e1 e2} + {e0 {e1 e3 e4} e2} + {e0 e1 {e2 e3 e4}}
_LTS_DERIVATION = (((1, (0, 1, 2), (None, 3, 4)),),
                   ((1, (0, 3, 4), (None, 1, 2)), (1, (1, 3, 4), (0, None, 2)),
                    (1, (2, 3, 4), (0, 1, None))))


@_kept
def check_associative(t: StructureTensor) -> CheckReport:
    """(xy)z = x(yz) over all basis triples, decided as in the module
    docstring."""
    if t.arity != 2:
        raise ArgumentError("associativity is a binary axiom")
    return _decide_composed("associative", t.dimension ** 3, t,
                            ((3, "none"),), *_ASSOCIATIVE)


@_kept
def check_commutative(t: StructureTensor) -> CheckReport:
    if t.arity != 2:
        raise ArgumentError("commutativity is a binary axiom")
    return first_failure("commutative", t.dimension ** 2,
                         basis_tuples(2, t.dimension, "skew"),
                         lambda ij: (t.contract(ij), t.contract(ij[::-1])))


@_kept
def check_lie(t: StructureTensor) -> CheckReport:
    """Antisymmetry plus the binary Jacobi identity (cyclic form), the
    latter decided as in the module docstring."""
    if t.arity != 2:
        raise ArgumentError("the Lie axioms are binary")
    skew = check_skew_symmetric(t)
    count = skew.checked_count + t.dimension ** 3
    if not skew.passed:
        c = skew.counterexample
        return failing("lie", count, c.indices, c.lhs, c.rhs)
    return _decide_composed("lie", count, t, ((3, "skew"),), *_LIE_JACOBI)


@_kept
def check_prelie(t: StructureTensor) -> CheckReport:
    """Left pre-Lie: the associator is symmetric in its first two arguments.

    The associator at (i, j, k) is scanned against the one at (j, i, k) on
    i < j: the identity is alternating in (i, j).  Both sides are
    associators, composed of the product with itself, and the scan is
    decided as in the module docstring.
    """
    if t.arity != 2:
        raise ArgumentError("the pre-Lie axiom is binary")
    return _decide_composed("prelie", t.dimension ** 3, t,
                            ((2, "skew"), (1, "none")), *_PRELIE)


@_kept
def check_lts(t: StructureTensor) -> CheckReport:
    """The three Lie-triple-system axioms, in order.

    The vanishing of {x,y,y} is checked in its polarized form
    {x,y,z} + {x,z,y} = 0 (equivalent in characteristic 0); then the cyclic
    sum; then the five-argument derivation identity, decided as in the
    module docstring.
    """
    if t.arity != 3:
        raise ArgumentError("the Lie-triple-system axioms are ternary")
    d = t.dimension
    zero = (0,) * d
    count = d ** 3 + d ** 3 + d ** 5
    scans = (
        (((i, j, k) for i in range(d) for j, k in basis_tuples(2, d, "symmetric")),
         lambda idx: (t.contract(idx, (idx[0], idx[2], idx[1])), zero)),
        (basis_tuples(3, d, "none"),
         lambda idx: (t.contract(idx, idx[1:] + idx[:1], idx[2:] + idx[:2]), zero)))
    for scan in scans:
        rep = first_failure("lts", count, *scan)
        if not rep.passed:
            return rep
    return _decide_composed("lts", count, t, ((5, "none"),), *_LTS_DERIVATION)


# every axiom check by its name on the command line
AXIOM_CHECKS = {
    "jacobi": check_n_jacobi,
    "skew": check_skew_symmetric,
    "assoc": check_associative,
    "comm": check_commutative,
    "prelie": check_prelie,
    "lie": check_lie,
    "lts": check_lts,
}

# the axioms each claim of an algebra file asserts, in the order checked
CLAIM_AXIOMS = {"3lie": ("skew", "jacobi"), "assoc": ("assoc",),
                "comm": ("comm",), "lie": ("lie",), "prelie": ("prelie",),
                "lts": ("lts",)}


def commutator(t: StructureTensor) -> StructureTensor:
    """Skew tensor x*y - y*x of a binary product."""
    if t.arity != 2:
        raise ArgumentError("commutator needs a binary product")

    def value(key):
        i, j = key
        return tuple(a - b for a, b in zip(
            t.basis_product((i, j)), t.basis_product((j, i))))

    return StructureTensor.from_function(2, t.dimension, "skew", value)


def ad_map(t: StructureTensor, fixed) -> LinearMap:
    """Matrix of ``v -> t(fixed[0], ..., fixed[-1], v)``."""
    if len(fixed) != t.arity - 1:
        raise ArgumentError(
            f"ad_map needs {t.arity - 1} fixed arguments, got {len(fixed)}")
    fixed = list(fixed)
    d = t.dimension
    return LinearMap(tuple(
        t.evaluate(fixed + [basis_vector(d, j)]) for j in range(d)))


def annihilator_of_image(t: StructureTensor) -> list[LinearForm]:
    """Canonical basis of the forms vanishing on every basis-tuple product."""
    rows = list(t.entries.values())
    return [LinearForm(v) for v in nullspace(rows, t.dimension)]
