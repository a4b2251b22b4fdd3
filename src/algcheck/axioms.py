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

Degenerate dimensions 0 and 1 are legal; checks pass vacuously.
"""

from __future__ import annotations

from functools import wraps

from .linalg import LinearForm, LinearMap, basis_vector, nullspace, vec_sub
from .reports import (ArgumentError, CheckReport, failing, first_failure,
                      passing)
from .tensor import StructureTensor, basis_tuples


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

    A pair (xs, ys) whose products ``t[xs]`` and ``t[(x_i,) + ys]`` are all
    zero is never scanned: every term contains one of them, so both sides
    are zero.
    """
    n, d = t.arity, t.dimension
    _require_skew(t)
    table = t.table
    pairs = table.get
    # ys -> the x whose t[(x,) + ys] is nonzero
    hits = {ys: {x for x in range(d) if (x,) + ys in table}
            for ys in basis_tuples(n - 1, d, "skew")}
    live = (xs + ys for xs in basis_tuples(n, d, "skew") for ys in hits
            if xs in table or not hits[ys].isdisjoint(xs))

    def sides(idx):
        xs, ys = idx[:n], idx[n:]
        inner = [pairs((x,) + ys) for x in xs]
        return (t.contract((pairs(xs, ()),) + ys),
                t.contract(*[xs[:i] + (v,) + xs[i + 1:]
                             for i, v in enumerate(inner) if v]))
    return first_failure(f"{n}-jacobi", d ** (2 * n - 1), live, sides)


def _associator(t, i, j, k):
    """Both bracketings (e_i e_j) e_k and e_i (e_j e_k) of a binary product."""
    pairs = t.table.get
    return (t.contract((pairs((i, j), ()), k)),
            t.contract((i, pairs((j, k), ()))))


@_kept
def check_associative(t: StructureTensor) -> CheckReport:
    if t.arity != 2:
        raise ArgumentError("associativity is a binary axiom")
    return first_failure("associative", t.dimension ** 3,
                         basis_tuples(3, t.dimension, "none"),
                         lambda idx: _associator(t, *idx))


@_kept
def check_commutative(t: StructureTensor) -> CheckReport:
    if t.arity != 2:
        raise ArgumentError("commutativity is a binary axiom")
    return first_failure("commutative", t.dimension ** 2,
                         basis_tuples(2, t.dimension, "skew"),
                         lambda ij: (t.contract(ij), t.contract(ij[::-1])))


@_kept
def check_lie(t: StructureTensor) -> CheckReport:
    """Antisymmetry plus the binary Jacobi identity (cyclic form)."""
    if t.arity != 2:
        raise ArgumentError("the Lie axioms are binary")
    d = t.dimension
    skew = check_skew_symmetric(t)
    count = skew.checked_count + d ** 3
    if not skew.passed:
        c = skew.counterexample
        return failing("lie", count, c.indices, c.lhs, c.rhs)
    pairs = t.table.get
    zero = (0,) * d

    def sides(idx):
        i, j, k = idx
        return t.contract(*[(pairs((a, b), ()), c)
                            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]), zero
    return first_failure("lie", count, basis_tuples(3, d, "skew"), sides)


@_kept
def check_prelie(t: StructureTensor) -> CheckReport:
    """Left pre-Lie: the associator is symmetric in its first two arguments."""
    if t.arity != 2:
        raise ArgumentError("the pre-Lie axiom is binary")
    d = t.dimension
    return first_failure(
        "prelie", d ** 3,
        ((i, j, k) for i, j in basis_tuples(2, d, "skew") for k in range(d)),
        lambda idx: (vec_sub(*_associator(t, *idx)),
                     vec_sub(*_associator(t, idx[1], idx[0], idx[2]))))


@_kept
def check_lts(t: StructureTensor) -> CheckReport:
    """The three Lie-triple-system axioms, in order.

    The vanishing of {x,y,y} is checked in its polarized form
    {x,y,z} + {x,z,y} = 0 (equivalent in characteristic 0); then the cyclic
    sum; then the five-argument derivation identity.
    """
    if t.arity != 3:
        raise ArgumentError("the Lie-triple-system axioms are ternary")
    d = t.dimension
    zero = (0,) * d
    count = d ** 3 + d ** 3 + d ** 5
    pairs = t.table.get

    def derivation(idx):
        i, j, k, a, b = idx
        return (t.contract((pairs((i, j, k), ()), a, b)),
                t.contract((pairs((i, a, b), ()), j, k),
                           (i, pairs((j, a, b), ()), k),
                           (i, j, pairs((k, a, b), ()))))
    scans = (
        (((i, j, k) for i in range(d) for j, k in basis_tuples(2, d, "symmetric")),
         lambda idx: (t.contract(idx, (idx[0], idx[2], idx[1])), zero)),
        (basis_tuples(3, d, "none"),
         lambda idx: (t.contract(idx, idx[1:] + idx[:1], idx[2:] + idx[:2]), zero)),
        (basis_tuples(5, d, "none"), derivation))
    reports = (first_failure("lts", count, *scan) for scan in scans)
    return next((rep for rep in reports if not rep.passed), passing("lts", count))


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
