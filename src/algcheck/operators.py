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
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .axioms import check_associative
from .linalg import LinearMap, apply_cols, maps_commute, support, vector
from .reports import (ArgumentError, CheckReport, PreconditionError, agree,
                      first_failure, passing)
from .scalars import Scalar, norm
from .tensor import StructureTensor, basis_tuples

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
    """
    value, sides = _rb_sides(t, p.sparse_cols, lam)
    return first_failure(
        "rota-baxter", t.dimension ** t.arity,
        basis_tuples(t.arity, t.dimension, t.symmetry),
        lambda idx: sides(idx, value(idx)))


def check_derivation(t: StructureTensor, dmap: LinearMap, lam) -> CheckReport:
    """Weight-lambda derivation identity of ``dmap`` on the product ``t``.

    d of a product must equal the subset expansion with d applied inside
    each subset; weight 0 is the ordinary Leibniz rule.  The scan is that of
    :func:`check_rota_baxter`, by the same argument: on a symmetric product
    both sides are invariant under permuting the arguments, so only sorted
    tuples are scanned, and on a skew one only strictly ascending tuples.
    """
    value = _basis_expansion(t, dmap.sparse_cols, lam, SubsetMode.DIFF_CHECK)
    return first_failure(
        "derivation", t.dimension ** t.arity,
        basis_tuples(t.arity, t.dimension, t.symmetry),
        lambda idx: (dmap(t.basis_product(idx)), value(idx)))


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
