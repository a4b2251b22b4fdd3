"""Weight-lambda operator identities: Rota-Baxter operators and derivations.

Both families of identities are instances of one subset-expansion sum over
the nonempty subsets I of the argument positions, weighted by
``lambda**(|I|-1)``; they differ only in whether the map is applied to the
positions inside I (derivation convention) or outside I (Rota-Baxter
convention).  One private term builder serves :func:`subset_expansion` and
``_basis_expansion``, which gives the expansion at each basis tuple from the
map's sparse columns and the subset weights, set up once per map.  Both
checkers and the derived and naive brackets (inheritance module) use it, so
they cannot drift apart.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import product as iproduct

from .axioms import _strict_ascending, check_associative
from .linalg import LinearMap, maps_commute, support, vector
from .reports import (ArgumentError, CheckReport, InternalConsistencyError,
                      PreconditionError, failing, passing)
from .scalars import Scalar, norm
from .tensor import StructureTensor

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


def _basis_expansion(t: StructureTensor, m: LinearMap, lam, mode):
    """``value(idx)``: the subset expansion at the basis tuple ``idx``, from
    unit slots and the map's sparse columns, with the weights set up once."""
    if m.dimension != t.dimension:
        raise ArgumentError("operator dimension does not match the tensor")
    unit = [((i, 1),) for i in range(t.dimension)]
    cols = m.sparse_cols
    weights = _subset_weights(norm(lam), t.arity)
    diff = mode is SubsetMode.DIFF_CHECK

    def value(idx):
        plain, imgs = [unit[i] for i in idx], [cols[i] for i in idx]
        inside, outside = (imgs, plain) if diff else (plain, imgs)
        return t.contract(*_expansion_terms(inside, outside, weights))
    return value


def _scan(t: StructureTensor):
    """Basis tuples in lex order, ascending only for skew ``t`` (axioms)."""
    d = t.dimension
    return (_strict_ascending(d, t.arity) if t.symmetry == "skew"
            else iproduct(range(d), repeat=t.arity))


def check_rota_baxter(t: StructureTensor, p: LinearMap, lam) -> CheckReport:
    """Weight-lambda Rota-Baxter identity of ``p`` on the product ``t``.

    The product of the P-images must equal P of the subset expansion with P
    applied outside each subset.  For binary products this is the classical
    P(x)P(y) = P(P(x)y + xP(y) + lambda xy).
    """
    name = "rota-baxter"
    count = t.dimension ** t.arity
    value = _basis_expansion(t, p, lam, SubsetMode.RB_HAT)
    cols = p.sparse_cols
    for idx in _scan(t):
        lhs = vector(t.contract([cols[i] for i in idx]))
        rhs = p(value(idx))
        if lhs != rhs:
            return failing(name, count, idx, lhs, rhs)
    return passing(name, count)


def check_derivation(t: StructureTensor, dmap: LinearMap, lam) -> CheckReport:
    """Weight-lambda derivation identity of ``dmap`` on the product ``t``.

    d of a product must equal the subset expansion with d applied inside
    each subset; weight 0 is the ordinary Leibniz rule.
    """
    name = "derivation"
    count = t.dimension ** t.arity
    value = _basis_expansion(t, dmap, lam, SubsetMode.DIFF_CHECK)
    for idx in _scan(t):
        lhs = dmap(t.basis_product(idx))
        rhs = value(idx)
        if lhs != rhs:
            return failing(name, count, idx, lhs, rhs)
    return passing(name, count)


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
    if rb.passed != der.passed:
        raise InternalConsistencyError(
            "Rota-Baxter verdict and derivation-of-inverse verdict disagree: "
            f"rb={rb.verdict} ({rb.counterexample}), "
            f"derivation={der.verdict} ({der.counterexample})")
    return passing("rb-derivation-duality", rb.checked_count + der.checked_count)


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
