"""Derived brackets of Rota-Baxter ternary algebras and Lie triple systems.

The derived bracket [.,.,.]_P is the Rota-Baxter subset expansion of a
ternary bracket; when the input is a Rota-Baxter 3-Lie algebra the result is
again one with the same operator and weight, and those conclusions are
unconditional, so they are re-verified here through ``reports.conclude``;
hypotheses go through ``reports.require``.  The "naive" single-replacement
sum is also provided: it carries no Jacobi guarantee and exists to exhibit
the standard counterexample.  Both brackets take each entry from the operator
checkers' basis-tuple expansion (``operators._basis_expansion``), the naive
one at weight 0, where only the one-element subsets carry weight.
"""

from __future__ import annotations

from operator import add

from .axioms import check_lie, check_lts, check_n_jacobi, check_skew_symmetric
from .constructions import (_cyclic, _cyclic_condition, _verify_annihilating,
                            f_bracket)
from .linalg import (LinearForm, LinearMap, basis_vector, maps_commute,
                     vec_add, vec_scale, zero_vector)
from .operators import (SubsetMode, _basis_expansion, check_derivation,
                        check_rota_baxter)
from .reports import (ArgumentError, CheckReport, InternalConsistencyError,
                      PreconditionError, conclude, passing, require)
from .scalars import norm
from .tensor import StructureTensor, skew_from_values, tensors_equal


def derived_nbracket(t: StructureTensor, p: LinearMap, lam) -> StructureTensor:
    """Subset-expansion bracket [x1,...,xn]_P of a skew n-ary bracket.

    Computable for any skew input; when the input satisfies the Jacobi
    identity and P is Rota-Baxter of weight lambda on it, the result again
    satisfies both with the same P and lambda, and that is re-verified.
    """
    if p.dimension != t.dimension:
        raise ArgumentError("operator dimension does not match the tensor")
    if not check_skew_symmetric(t).passed:
        raise ArgumentError("derived bracket needs a skew-symmetric input")
    value = _basis_expansion(t, p.sparse_cols, lam, SubsetMode.RB_HAT)
    try:
        out = skew_from_values(t.dimension, t.arity, value, verify=True)
    except ArgumentError as exc:
        # the subset expansion of a skew bracket is skew unconditionally
        raise InternalConsistencyError(
            f"derived bracket of a skew input is not skew: {exc}") from exc
    if check_n_jacobi(t).passed and check_rota_baxter(t, p, lam).passed:
        conclude(check_n_jacobi(out), "derived bracket: Jacobi identity")
        conclude(check_rota_baxter(out, p, lam),
                 "derived bracket: Rota-Baxter identity of the operator")
    return out


def check_derivation_transfer(t: StructureTensor, p: LinearMap, lam,
                              dmap: LinearMap) -> CheckReport:
    """A weight-lambda derivation commuting with P stays a derivation of the
    derived bracket; unconditional, so a failure is an internal error."""
    require(check_n_jacobi(t), "Jacobi identity")
    require(check_rota_baxter(t, p, lam), "Rota-Baxter identity")
    require(check_derivation(t, dmap, lam), "derivation identity")
    if not maps_commute(dmap, p):
        raise PreconditionError("derivation and Rota-Baxter operator do not commute")
    rep = conclude(check_derivation(derived_nbracket(t, p, lam), dmap, lam),
                   "derivation transfer to the derived bracket")
    return passing("derivation-transfer", rep.checked_count)


def cor53_bracket(t: StructureTensor, dmap: LinearMap, lam) -> StructureTensor:
    """Conjugated bracket d([d^{-1}x, d^{-1}y, d^{-1}z]) of an invertible
    weight-lambda derivation; equals the derived bracket of d^{-1} and that
    equality is asserted."""
    require(check_n_jacobi(t), "Jacobi identity")
    if not dmap.is_invertible():
        raise PreconditionError("derivation must be invertible")
    require(check_derivation(t, dmap, lam), "derivation identity")
    dinv = dmap.inverse()
    cols = dinv.sparse_cols
    out = StructureTensor.from_function(
        t.arity, t.dimension, "skew",
        lambda key: dmap(t.contract([cols[i] for i in key])))
    generic = derived_nbracket(t, dinv, lam)
    if not tensors_equal(out, generic):
        raise InternalConsistencyError(
            "conjugated bracket differs from the derived bracket of the "
            "inverse operator")
    conclude(check_derivation(out, dmap, lam),
             "conjugated bracket: derivation identity")
    return out


def _cor54_preconditions(lie, p, lam, f):
    require(check_lie(lie), "Lie axioms")
    require(check_rota_baxter(lie, p, lam), "binary Rota-Baxter identity")
    _verify_annihilating(lie, f)
    d = lie.dimension
    pc = p.sparse_cols
    rep = _cyclic_condition(
        "kernel-condition", d, f, lambda a, b: lie.contract((pc[a], pc[b])),
        p + LinearMap.scalar(d, lam))
    if not rep.passed:
        raise PreconditionError(
            f"kernel condition fails at basis triple {rep.counterexample.indices}")


def cor54_bracket(lie: StructureTensor, p: LinearMap, lam,
                  f: LinearForm) -> StructureTensor:
    """Explicit expansion of the derived bracket of the f-bracket of a
    Rota-Baxter Lie algebra, written out in binary brackets.

    One published term of the expansion, f(P(z))([P(x),y] + [y,P(x)]), is
    identically zero by antisymmetry and breaks skew-symmetry of the whole
    expression; the cyclic pattern of the other two terms fixes it to
    f(P(z))([P(x),y] + [x,P(y)] + lambda[x,y]), which is what is computed
    here (see :func:`cor54_bracket_literal` for the verbatim form).  The
    expansion is asserted to coincide with the generic derived bracket.
    It is the sum of two cyclic sums, one weighted by f(P(.)), one by f.
    """
    _cor54_preconditions(lie, p, lam, f)
    lam = norm(lam)
    lam2 = norm(lam * lam)
    pc = p.sparse_cols
    # [P(y), z] + [y, P(z)] + lambda [y, z]
    first = _cyclic(LinearForm(tuple(f(col) for col in p.cols)), lambda y, z:
                    lie.contract((pc[y], z), (y, pc[z]), (((y, lam),), z)))
    # [P(y), P(z)] + lambda ([P(y), z] + [y, P(z)]) + lambda^2 [y, z]
    second = _cyclic(f, lambda y, z: lie.contract(
        (pc[y], pc[z]), (((y, lam),), pc[z]), (pc[y], ((z, lam),)),
        (((y, lam2),), z)))
    out = skew_from_values(lie.dimension, 3, lambda key: tuple(
        map(add, first(key), second(key))), verify=True)
    generic = derived_nbracket(f_bracket(lie, f), p, lam)
    if not tensors_equal(out, generic):
        raise InternalConsistencyError(
            "explicit expansion differs from the generic derived bracket "
            "of the f-bracket")
    conclude(check_rota_baxter(out, p, lam),
             "explicit derived f-bracket: Rota-Baxter identity")
    return out


def cor54_bracket_literal(lie: StructureTensor, p: LinearMap, lam,
                          f: LinearForm) -> StructureTensor:
    """The expansion exactly as published, including the term
    f(P(z))([P(x),y] + [y,P(x)]) that collapses to zero; stored without
    symmetry and offered only for comparison with :func:`cor54_bracket`."""
    d = lie.dimension
    lam = norm(lam)
    fp = tuple(f(col) for col in p.cols)
    fr = f.row

    def value(key):
        x, y, z = key
        ex, ey, ez = (basis_vector(d, i) for i in key)
        out = zero_vector(d)
        if fp[x]:
            term = vec_add(lie(p.cols[y], ez), lie(ey, p.cols[z]))
            term = vec_add(term, vec_scale(lam, lie.basis_product((y, z))))
            out = vec_add(out, vec_scale(fp[x], term))
        if fp[y]:
            term = vec_add(lie(p.cols[z], ex), lie(ez, p.cols[x]))
            term = vec_add(term, vec_scale(lam, lie.basis_product((z, x))))
            out = vec_add(out, vec_scale(fp[y], term))
        if fp[z]:
            # verbatim: [P(x), y] + [y, P(x)] + lambda [x, y]
            term = vec_add(lie(p.cols[x], ey), lie(ey, p.cols[x]))
            term = vec_add(term, vec_scale(lam, lie.basis_product((x, y))))
            out = vec_add(out, vec_scale(fp[z], term))
        for c, (a, b) in ((fr[x], (y, z)), (fr[y], (z, x)), (fr[z], (x, y))):
            if c:
                ea, eb = basis_vector(d, a), basis_vector(d, b)
                term = lie(p.cols[a], p.cols[b])
                term = vec_add(term, vec_scale(lam, vec_add(
                    lie(p.cols[a], eb), lie(ea, p.cols[b]))))
                term = vec_add(term, vec_scale(
                    norm(lam * lam), lie.basis_product((a, b))))
                out = vec_add(out, vec_scale(c, term))
        return out

    return StructureTensor.from_function(3, d, "none", value)


def cor55_bracket(lie: StructureTensor, p: LinearMap,
                  f: LinearForm) -> StructureTensor:
    """Weight-0 specialization of the explicit expansion."""
    return cor54_bracket(lie, p, 0, f)


def naive_bracket(t: StructureTensor, p: LinearMap) -> StructureTensor:
    """Single-replacement sum [P(x),y,z] + [x,P(y),z] + [x,y,P(z)].

    Carries no Jacobi guarantee even when (t, P) is a weight-0 Rota-Baxter
    3-Lie algebra; it exists to reproduce the standard counterexample.
    """
    value = _basis_expansion(t, p.sparse_cols, 0, SubsetMode.DIFF_CHECK)
    if check_skew_symmetric(t).passed:
        return skew_from_values(t.dimension, t.arity, value, verify=True)
    return StructureTensor.from_function(t.arity, t.dimension, "none", value)


def lts_from_lie(lie: StructureTensor) -> StructureTensor:
    """Lie triple system [x,y,z] = [x,[y,z]] of a Lie algebra.

    Stored without symmetry: the bracket is skew only in its last two
    arguments.  The triple-system axioms are re-verified (they hold for any
    Lie algebra) and a failure is an internal error.
    """
    require(check_lie(lie), "Lie axioms")
    d = lie.dimension

    def value(key):
        i, j, k = key
        return lie.contract((i, lie.table.get((j, k), ())))

    out = StructureTensor.from_function(3, d, "none", value)
    conclude(check_lts(out), "Lie triple system of a Lie algebra: axioms")
    return out


def check_rb_lts_transfer(lie: StructureTensor, p: LinearMap, lam) -> CheckReport:
    """A Rota-Baxter operator on a Lie algebra is Rota-Baxter on the induced
    Lie triple system; unconditional, so a failure is an internal error."""
    require(check_rota_baxter(lie, p, lam), "binary Rota-Baxter identity")
    lts = lts_from_lie(lie)
    rep = conclude(check_rota_baxter(lts, p, lam),
                   "induced Lie triple system: Rota-Baxter identity")
    return passing("lts-rb-transfer", rep.checked_count)


def derived_lts_bracket(lts: StructureTensor, p: LinearMap, lam) -> StructureTensor:
    """Subset-expansion bracket of a Rota-Baxter Lie triple system; the
    result is again one with the same operator and weight (re-verified)."""
    require(check_lts(lts), "Lie-triple-system axioms")
    require(check_rota_baxter(lts, p, lam), "ternary Rota-Baxter identity")
    value = _basis_expansion(lts, p.sparse_cols, lam, SubsetMode.RB_HAT)
    out = StructureTensor.from_function(3, lts.dimension, "none", value)
    conclude(check_lts(out), "derived Lie triple system: axioms")
    conclude(check_rota_baxter(out, p, lam),
             "derived Lie triple system: Rota-Baxter identity")
    return out
