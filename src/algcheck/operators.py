"""Weight-lambda operator identities: Rota-Baxter operators and derivations.

Both families of identities are instances of one subset-expansion sum over
the nonempty subsets I of the argument positions, weighted by
``lambda**(|I|-1)``; they differ only in whether the map is applied to the
positions inside I (derivation convention) or outside I (Rota-Baxter
convention).  A single kernel parameterized by :class:`SubsetMode` serves
both checkers so the two cannot drift apart.
"""

from __future__ import annotations

import enum
from itertools import product as iproduct

from .axioms import _strict_ascending, check_associative, check_skew_symmetric
from .linalg import LinearMap, basis_vector, maps_commute, vec_is_zero
from .reports import (ArgumentError, CheckReport, InternalConsistencyError,
                      PreconditionError, failing, passing)
from .scalars import Scalar, norm
from .tensor import StructureTensor, support

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


def _lambda_powers(lam: Scalar, n: int):
    # powers[s] = lam**(s-1) for subset size s; 0**0 == 1 by convention
    powers = [None, 1]
    for _ in range(2, n + 1):
        powers.append(norm(powers[-1] * lam))
    return powers


def subset_expansion(t: StructureTensor, m: LinearMap, lam, args, mode):
    """Sum over nonempty subsets I of lambda^(|I|-1) times the product with
    the map applied per ``mode``."""
    mode = _as_mode(mode)
    n = t.arity
    if len(args) != n:
        raise ArgumentError(f"expected {n} arguments, got {len(args)}")
    if m.dimension != t.dimension or any(len(a) != t.dimension for a in args):
        raise ArgumentError("dimension mismatch in subset expansion")
    lam = norm(lam)
    plain = [support(a) for a in args]
    imgs = [support(m(a)) for a in args]
    powers = _lambda_powers(lam, n)
    inside, outside = (imgs, plain) if mode is SubsetMode.DIFF_CHECK else (plain, imgs)
    terms = []
    for mask in range(1, 1 << n):
        coeff = powers[mask.bit_count()]
        if coeff == 0:
            continue
        slots = [inside[i] if mask >> i & 1 else outside[i] for i in range(n)]
        if coeff != 1:
            slots[0] = tuple((k, coeff * a) for k, a in slots[0])
        terms.append(slots)
    return t.contract(*terms)


def single_replacement_sum(t: StructureTensor, m: LinearMap, args, mode):
    """Direct weight-0 form: the n single-replacement (or single-omission)
    terms, implemented independently of the subset kernel for cross-checks."""
    mode = _as_mode(mode)
    out = [0] * t.dimension
    imgs = [m(a) for a in args]
    for i in range(t.arity):
        if mode is SubsetMode.DIFF_CHECK:
            term = t.evaluate(args[:i] + [imgs[i]] + args[i + 1:])
        else:
            term = t.evaluate(imgs[:i] + [args[i]] + imgs[i + 1:])
        for k, a in enumerate(term):
            if a:
                out[k] += a
    return tuple(out)


def check_rota_baxter(t: StructureTensor, p: LinearMap, lam) -> CheckReport:
    """Weight-lambda Rota-Baxter identity of ``p`` on the product ``t``.

    The product of the P-images must equal P of the subset expansion with P
    applied outside each subset.  For binary products this is the classical
    P(x)P(y) = P(P(x)y + xP(y) + lambda xy).
    """
    if p.dimension != t.dimension:
        raise ArgumentError("operator dimension does not match the tensor")
    name = "rota-baxter"
    count = t.dimension ** t.arity
    d = t.dimension
    ebasis = [basis_vector(d, i) for i in range(d)]
    # a skew scan covers strictly ascending tuples only (axioms module notes)
    scan = (_strict_ascending(d, t.arity) if t.symmetry == "skew"
            else iproduct(range(d), repeat=t.arity))
    for idx in scan:
        lhs = t.evaluate([p.cols[i] for i in idx])
        rhs = p(subset_expansion(
            t, p, lam, [ebasis[i] for i in idx], SubsetMode.RB_HAT))
        if lhs != rhs:
            return failing(name, count, idx, lhs, rhs)
    return passing(name, count)


def check_derivation(t: StructureTensor, dmap: LinearMap, lam) -> CheckReport:
    """Weight-lambda derivation identity of ``dmap`` on the product ``t``.

    d of a product must equal the subset expansion with d applied inside
    each subset; weight 0 is the ordinary Leibniz rule.
    """
    if dmap.dimension != t.dimension:
        raise ArgumentError("operator dimension does not match the tensor")
    name = "derivation"
    count = t.dimension ** t.arity
    d = t.dimension
    ebasis = [basis_vector(d, i) for i in range(d)]
    scan = (_strict_ascending(d, t.arity) if t.symmetry == "skew"
            else iproduct(range(d), repeat=t.arity))
    for idx in scan:
        lhs = dmap(t.basis_product(idx))
        rhs = subset_expansion(
            t, dmap, lam, [ebasis[i] for i in idx], SubsetMode.DIFF_CHECK)
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
    nesting order immaterial; left-to-right is fixed for reproducibility)."""
    if n < 2:
        raise ArgumentError("arity must be at least 2")
    rep = check_associative(t)
    if not rep.passed:
        raise PreconditionError(
            "product is not associative "
            f"(violation at basis triple {rep.counterexample.indices})")
    d = t.dimension
    level = {(i,): basis_vector(d, i) for i in range(d)}
    for _ in range(n - 1):
        nxt = {}
        for key, vec in level.items():
            for j in range(d):
                nxt[key + (j,)] = t.contract((support(vec), j))
        level = nxt
    entries = {k: v for k, v in level.items() if not vec_is_zero(v)}
    return StructureTensor(n, d, "none", entries)
