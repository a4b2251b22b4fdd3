"""Weight-lambda operator identities: Rota-Baxter operators and derivations.

Both families of identities are instances of one subset-expansion sum over
the nonempty subsets I of the argument positions, weighted by
``lambda**(|I|-1)``; they differ only in whether the map is applied to the
positions inside I (derivation convention) or outside I (Rota-Baxter
convention).  One private term builder serves :func:`subset_expansion` and
``_basis_expansion``, which gives the expansion at each basis tuple from the
map's sparse columns and the subset weights, set up once per map.  Both
checkers and the derived and naive brackets (inheritance module) use it, so
they cannot drift apart.  The two sides of the Rota-Baxter identity at a
basis tuple are written once, in ``_rb_sides``, for
:func:`check_rota_baxter`, the pruned grid search (search module) and the
determinant expansion's table on the cube (constructions module).

Both checks report the first failure of the per-tuple scan over
``tensor.basis_tuples``, but scan only a lex prefix of ``reports._PREFIX``
tuples one by one, where most failures lie, and decide the rest from the
sparse difference of the two sides (:func:`reports.decide`).  A term of
either side takes a source key j of ``t.table`` and pulls some slots s back
through the map M: it lands on the tuple i with i_s = j_s at the other
slots and i_s with M[j_s, i_s] != 0 at those, times those entries.
Rota-Baxter: the left side pulls every slot; the right side, for each
nonempty subset I, pulls the slots outside I, weighs the term by
lambda**(|I|-1) and pushes t[j] through M.  Derivation: the left side
pushes t[j] through M and pulls no slot; the right side pulls exactly I,
with the same weight.  The report is the per-tuple one because:

1. *The difference at a tuple is exactly lhs - rhs there.*  The terms
   landing on a tuple, with the sign of their side, are the summands of
   lhs and rhs, and scalars are exact rationals, so they add up to
   lhs - rhs, which is zero iff the two sides are equal.
2. *It is kept at the scanned tuples only.*  A term is dropped as soon as
   its partial tuple leaves the set ``basis_tuples`` yields for the
   symmetry of the product (sorted for ``symmetric``, strictly ascending
   for ``skew``, all for ``none``), so it is kept where the scan looks.
3. *Its least nonzero tuple is the scan's first failure.*  The prefix is
   the scan's first tuples in lex order and holds no failure.  That tuple
   alone is handed to ``first_failure`` with the per-tuple sides, so the
   report is the per-tuple report by construction; were those sides equal
   there, ``agree`` would raise ``InternalConsistencyError``.

With no nonzero difference a check passes with ``checked_count`` d**n.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .axioms import check_associative
from .linalg import LinearMap, apply_cols, maps_commute, support, vector
from .reports import (ArgumentError, CheckReport, PreconditionError, agree,
                      decide, passing)
from .scalars import Scalar, norm
from .tensor import RISE, StructureTensor, basis_tuples

__all__ = [
    "SubsetMode", "subset_expansion", "check_rota_baxter", "check_derivation",
    "check_duality", "nary_from_associative", "maps_commute",
]

class SubsetMode(enum.Enum):
    """Which side of a subset the linear map is applied to.

    ``RB_HAT`` leaves positions inside I untouched and applies the map
    outside (Rota-Baxter convention); ``DIFF_CHECK`` applies the map inside I
    (derivation convention).
    """

    RB_HAT = "rb_hat"
    DIFF_CHECK = "diff_check"


def _as_mode(mode) -> SubsetMode:
    return mode if isinstance(mode, SubsetMode) else SubsetMode(mode)


@lru_cache(maxsize=64)
def _subset_weights(lam: Scalar, n: int):
    """``(mask, lam**(|I|-1))`` for each nonempty subset I of n positions,
    as a bitmask in increasing order, omitting zero weights (0**0 == 1).
    Kept per (lam, n): a grid search sets up one check per candidate."""
    powers = [None, 1]
    for _ in range(2, n + 1):
        powers.append(norm(powers[-1] * lam))
    return tuple((mask, powers[mask.bit_count()]) for mask in range(1, 1 << n)
                 if powers[mask.bit_count()] != 0)


def _expansion_terms(inside, outside, weights):
    """The ``contract`` terms of one subset expansion: position i takes the
    sparse slot ``inside[i]`` when it is in the subset, ``outside[i]``
    otherwise, and the subset's weight scales the first slot."""
    terms = []
    for mask, coeff in weights:
        slots = [inside[i] if mask >> i & 1 else outside[i]
                 for i in range(len(inside))]
        if coeff != 1:
            slots[0] = tuple((k, coeff * a) for k, a in slots[0])
        terms.append(slots)
    return terms


def subset_expansion(t: StructureTensor, m: LinearMap, lam, args, mode):
    """Sum over nonempty subsets I of lambda^(|I|-1) times the product with
    the map applied per ``mode``."""
    mode = _as_mode(mode)
    n = t.arity
    if len(args) != n:
        raise ArgumentError(f"expected {n} arguments, got {len(args)}")
    if m.dimension != t.dimension or any(len(a) != t.dimension for a in args):
        raise ArgumentError("dimension mismatch in subset expansion")
    plain = [support(a) for a in args]
    imgs = [support(m(a)) for a in args]
    inside, outside = (imgs, plain) if mode is SubsetMode.DIFF_CHECK else (plain, imgs)
    return t.contract(*_expansion_terms(inside, outside, _subset_weights(norm(lam), n)))


def _basis_expansion(t: StructureTensor, cols, lam, mode):
    """``value(idx)``: the subset expansion at the basis tuple ``idx``, from
    unit slots and the map's sparse columns ``cols``, with the weights set
    up once.  It reads only the columns named in ``idx``, when called."""
    if len(cols) != t.dimension:
        raise ArgumentError("operator dimension does not match the tensor")
    unit = [((i, 1),) for i in range(t.dimension)]
    weights = _subset_weights(norm(lam), t.arity)
    diff = mode is SubsetMode.DIFF_CHECK

    def value(idx):
        plain, imgs = [unit[i] for i in idx], [cols[i] for i in idx]
        inside, outside = (imgs, plain) if diff else (plain, imgs)
        return t.contract(*_expansion_terms(inside, outside, weights))
    return value


def _rb_sides(t: StructureTensor, cols, lam):
    """``(value, sides)`` of the Rota-Baxter identity of the map with the
    sparse columns ``cols``: ``value(idx)`` is the subset expansion at
    ``idx``, and ``sides(idx, value(idx))`` is the pair (product of the
    images, P of the expansion).  ``value`` reads the columns in ``idx``;
    ``sides`` reads those and the columns in the support of the expansion.
    Both read ``cols`` when called, so a caller may fill it in as it goes.
    """
    value = _basis_expansion(t, cols, lam, SubsetMode.RB_HAT)

    def sides(idx, v):
        return vector(t.contract([cols[i] for i in idx])), apply_cols(cols, v)
    return value, sides


def check_rota_baxter(t: StructureTensor, p: LinearMap, lam) -> CheckReport:
    """Weight-lambda Rota-Baxter identity of ``p`` on the product ``t``.

    The product of the P-images must equal P of the subset expansion with P
    applied outside each subset.  For binary products this is the classical
    P(x)P(y) = P(P(x)y + xP(y) + lambda xy).

    Only the basis tuples keyed by the symmetry of ``t`` are scanned
    (``tensor.basis_tuples``); ``checked_count`` is the full d**n.
    Permuting the arguments permutes the positions of every term on both
    sides, and maps each subset I to a subset of the same size and weight.
    On a symmetric product both sides are therefore invariant, so a tuple
    fails iff its sorted form fails.  On a skew product both sides change
    sign, so a tuple with a repeated index passes and one of distinct
    indices fails iff its ascending form fails.  Either way the first
    failure of the full scan is the least of its permutations, so it is
    scanned, and it is reported with the same two sides.

    Past the first ``reports._PREFIX`` tuples the scan is decided from the
    sparse difference of the two sides (module docstring): at a tuple it is
    exactly lhs - rhs, it is kept at the scanned tuples only, and since the
    prefix holds no failure its least nonzero tuple is the first failure,
    reported with the same two sides.
    """
    value, sides = _rb_sides(t, p.sparse_cols, lam)
    return decide("rota-baxter", t.dimension ** t.arity,
                  basis_tuples(t.arity, t.dimension, t.symmetry),
                  lambda idx: sides(idx, value(idx)),
                  lambda: _least_difference(t, p, lam, True))


def check_derivation(t: StructureTensor, dmap: LinearMap, lam) -> CheckReport:
    """Weight-lambda derivation identity of ``dmap`` on the product ``t``.

    d of a product must equal the subset expansion with d applied inside
    each subset; weight 0 is the ordinary Leibniz rule.  The scan is that of
    :func:`check_rota_baxter`, by the same argument: on a symmetric product
    both sides are invariant under permuting the arguments, so only sorted
    tuples are scanned, and on a skew one only strictly ascending tuples.
    Past the same prefix it is decided the same way: the sparse difference
    of d of the product and the expansion is exactly lhs - rhs at a tuple,
    it is kept at the scanned tuples only, and since the prefix holds no
    failure its least nonzero tuple is the first failure, reported with the
    same two sides.
    """
    value = _basis_expansion(t, dmap.sparse_cols, lam, SubsetMode.DIFF_CHECK)
    return decide("derivation", t.dimension ** t.arity,
                  basis_tuples(t.arity, t.dimension, t.symmetry),
                  lambda idx: (dmap(t.basis_product(idx)), value(idx)),
                  lambda: _least_difference(t, dmap, lam, False))


def _least_difference(t: StructureTensor, m: LinearMap, lam, rb: bool):
    """``(key, lhs - rhs)`` at the least scanned tuple where the identity of
    the map M = ``m`` has a nonzero difference, or ``None``; the terms are
    those of the module docstring.

    All terms landing on a tuple share its first index, so they are
    expanded one first index at a time, in increasing order, and the least
    nonzero tuple of the first index that has one is the least overall.
    A term pulling slot 0 onto the first index i starts at a source whose
    first index j has M[j, i] != 0: column i of M.
    """
    n, d = t.arity, t.dimension
    cols, rows = m.sparse_cols, [support(row) for row in m.rows()]
    full = (1 << n) - 1
    weights = _subset_weights(norm(lam), n)
    # (pulled slots, coefficient, pushed through M) of each term of lhs - rhs
    if rb:
        terms = [(full, 1, False)] + [(full ^ mask, -w, True)
                                      for mask, w in weights]
    else:
        terms = [(0, 1, True)] + [(mask, -w, False) for mask, w in weights]
    by_first = [[] for _ in range(d)]  # source keys by first index
    for key, pairs in t.table.items():
        pushed = [0] * d
        for k, c in pairs:
            for i, a in cols[k]:
                pushed[i] += c * a
        by_first[key[0]].append((key, pairs, support(pushed)))
    # a scanned tuple rises by at least gap at each slot; -d bounds nothing
    gap = RISE[t.symmetry]
    gap = -d if gap is None else gap
    for first in range(d):
        diff = {}
        for pulled, coeff, push in terms:
            for j, b in cols[first] if pulled & 1 else ((first, 1),):
                for key, pairs, pushed in by_first[j]:
                    out = pushed if push else pairs
                    if not out:
                        continue
                    tips = [((first,), coeff * b)]
                    for s in range(1, n):
                        choices = (rows[key[s]] if pulled >> s & 1
                                   else ((key[s], 1),))
                        tips = [(tip + (i,), c * a) for tip, c in tips
                                for i, a in choices if i >= tip[-1] + gap]
                    for tip, c in tips:
                        acc = diff.get(tip)
                        if acc is None:
                            acc = diff[tip] = [0] * d
                        for k, a in out:
                            acc[k] += c * a
        nonzero = [tip for tip, acc in diff.items() if any(acc)]
        if nonzero:
            key = min(nonzero)
            return key, tuple(diff[key])
    return None


def check_duality(t: StructureTensor, p: LinearMap, lam) -> CheckReport:
    """Invertible P is Rota-Baxter of weight lambda iff P^{-1} is a
    derivation of weight lambda.

    Both sides are computed; the verdicts agreeing is the only possible
    correct outcome, so a disagreement aborts with an internal-consistency
    error instead of being reported as a failure.
    """
    if not p.is_invertible():
        raise PreconditionError("duality check requires an invertible map")
    rb = check_rota_baxter(t, p, lam)
    der = check_derivation(t, p.inverse(), lam)
    agree(rb, der, "Rota-Baxter/derivation-of-inverse duality verdicts")
    return passing("rb-derivation-duality", rb.checked_count + der.checked_count)


# every operator check by its kind in files and on the command line
OPERATOR_CHECKS = {"rb": check_rota_baxter, "derivation": check_derivation,
                   "duality": check_duality}


def nary_from_associative(t: StructureTensor, n: int) -> StructureTensor:
    """Arity-n tensor of left-nested n-fold products of an associative
    binary product.  Associativity is a verified precondition (it makes the
    nesting order immaterial; left-to-right is fixed for reproducibility).
    The power is kept on ``t``: each call with the same ``n`` returns it."""
    return t._memo(("nary_from_associative", n), _nary_power, n)


def _nary_power(t: StructureTensor, n: int) -> StructureTensor:
    if n < 2:
        raise ArgumentError("arity must be at least 2")
    rep = check_associative(t)
    if not rep.passed:
        raise PreconditionError(
            "product is not associative "
            f"(violation at basis triple {rep.counterexample.indices})")
    d = t.dimension
    # running products as sparse slots; a zero one has only zero extensions
    level = {(i,): ((i, 1),) for i in range(d)}
    for _ in range(n - 2):
        level = {key + (j,): prod for key, slot in level.items()
                 for j in range(d) if (prod := support(t.contract((slot, j))))}
    return StructureTensor(n, d, "none", {
        key + (j,): t.contract((slot, j))
        for key, slot in level.items() for j in range(d)})
