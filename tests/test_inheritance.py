from fractions import Fraction

import pytest

from algcheck.axioms import check_lts, check_n_jacobi
from algcheck.catalog import get
from algcheck.constructions import f_bracket
from algcheck.inheritance import (check_derivation_transfer,
                                  check_rb_lts_transfer, cor53_bracket,
                                  cor54_bracket, cor54_bracket_literal,
                                  cor55_bracket, derived_lts_bracket,
                                  derived_nbracket, lts_from_lie,
                                  naive_bracket)
from algcheck.linalg import LinearMap, basis_vector
from algcheck.operators import check_derivation, check_rota_baxter
from algcheck.reports import PreconditionError
from algcheck.tensor import StructureTensor, tensors_equal


def a4():
    alg = get("a4")
    return alg.products["bracket"], alg.maps["D"]


# ------------------------------------------------------- derived bracket


def test_derived_nbracket_a4_values():
    t, dmap = a4()
    out = derived_nbracket(t, dmap, 0)
    # [x1,x2,x3]_D = [Dx1,Dx2,x3]+[Dx1,x2,Dx3]+[x1,Dx2,Dx3]
    #              = [x2,x1,x3]+[x2,x2,x4]+[x1,x1,x4] = -x4
    assert out.basis_product((0, 1, 2)) == (0, 0, 0, -1)
    assert check_n_jacobi(out).passed
    assert check_rota_baxter(out, dmap, 0).passed


def test_derived_nbracket_zero_map_scales_by_lambda_squared():
    t, _ = a4()
    for lam in (0, 1, Fraction(1, 2)):
        out = derived_nbracket(t, LinearMap.zero(4), lam)
        expected = t.scaled(lam * lam)
        assert tensors_equal(out, expected)


def test_derived_nbracket_minus_lambda_id():
    # binomial identity: sum_k C(3,k) lam^(k-1) (-lam)^(3-k) = lam^2
    t, _ = a4()
    for lam in (1, -1, 2, Fraction(1, 2)):
        out = derived_nbracket(t, LinearMap.scalar(4, -lam), lam)
        assert tensors_equal(out, t.scaled(lam * lam))


def test_derived_nbracket_rejects_non_skew():
    with pytest.raises(Exception):
        derived_nbracket(get("q3").products["prod"], LinearMap.zero(3), 0)


# ------------------------------------------------------ derivation transfer


def test_derivation_transfer_a4():
    t, dmap = a4()
    rep = check_derivation_transfer(t, dmap, 0, dmap)
    assert rep.passed


def test_derivation_transfer_zero_derivation():
    t, dmap = a4()
    assert check_derivation_transfer(t, dmap, 0, LinearMap.zero(4)).passed


def test_derivation_transfer_requires_commuting():
    t, dmap = a4()
    # a weight-0 derivation that does not commute with D: ad(x1, x2) alone
    from algcheck.axioms import ad_map
    d2 = ad_map(t, [basis_vector(4, 0), basis_vector(4, 1)])
    assert check_derivation(t, d2, 0).passed
    from algcheck.linalg import maps_commute
    if not maps_commute(d2, dmap):
        with pytest.raises(PreconditionError, match="commute"):
            check_derivation_transfer(t, dmap, 0, d2)


# ------------------------------------------------------------- corollary 53


def test_cor53_a4_swap_equals_derived():
    t, dmap = a4()
    out = cor53_bracket(t, dmap, 0)
    # D^-1 = D, so the conjugated bracket equals derived_nbracket(t, D, 0)
    assert tensors_equal(out, derived_nbracket(t, dmap, 0))


def test_cor53_identity_at_special_weights():
    t, _ = a4()
    for lam in (-1, -2):
        out = cor53_bracket(t, LinearMap.identity(4), lam)
        assert tensors_equal(out, t)


def test_cor53_requires_invertible():
    t, _ = a4()
    with pytest.raises(PreconditionError, match="invertible"):
        cor53_bracket(t, LinearMap.zero(4), 0)


# --------------------------------------------------------- corollaries 54/55


def test_cor54_heisenberg_line_matches_generic():
    alg = get("heisenberg_line")
    lie, p, f = alg.products["bracket"], alg.maps["P"], alg.forms["f"]
    out = cor54_bracket(lie, p, 0, f)
    generic = derived_nbracket(f_bracket(lie, f), p, 0)
    assert tensors_equal(out, generic)
    assert tensors_equal(out, cor55_bracket(lie, p, f))


def test_cor54_zero_operator_scales_f_bracket():
    alg = get("heisenberg_line")
    lie, f = alg.products["bracket"], alg.forms["f"]
    for lam in (1, Fraction(1, 2)):
        out = cor54_bracket(lie, LinearMap.zero(4), lam, f)
        assert tensors_equal(out, f_bracket(lie, f).scaled(lam * lam))


def test_cor54_literal_term_breaks_skewness():
    # the verbatim expansion contains f(P(z))([P(x),y]+[y,P(x)]), which
    # collapses to zero, where the cyclic pattern demands
    # f(P(z))([P(x),y]+[x,P(y)]).  On a 2-dimensional Lie algebra every
    # skew ternary tensor vanishes, so the corrected bracket is zero; the
    # verbatim expansion however is nonzero at the repeated-index tuple
    # (e1, e2, e1), i.e. it is not even skew-symmetric.
    from algcheck.linalg import LinearForm
    alg = get("nonabelian2")
    lie = alg.products["bracket"]
    f = LinearForm((1, 0))
    p = LinearMap.from_cols([(1, 0), (0, 0)])  # P(e1)=e1, P(e2)=0
    assert check_rota_baxter(lie, p, 0).passed
    corrected = cor54_bracket(lie, p, 0, f)
    assert corrected.is_zero()
    literal = cor54_bracket_literal(lie, p, 0, f)
    assert literal.basis_product((0, 1, 0)) == (0, -1)
    assert not tensors_equal(corrected, literal)


def test_cor54_kernel_condition_enforced():
    from algcheck.linalg import LinearForm
    alg = get("nonabelian2")
    lie, p = alg.products["bracket"], alg.maps["P"]
    out = cor54_bracket(lie, p, 0, LinearForm((1, 0)))
    assert check_rota_baxter(out, p, 0).passed


# ------------------------------------------------------------ naive bracket


def test_naive_bracket_paper_values():
    t, dmap = a4()
    out = naive_bracket(t, dmap)
    assert out.basis_product((0, 1, 2)) == (0, 0, 1, 0)   # x3
    assert out.basis_product((0, 1, 3)) == (0, 0, 0, 1)   # x4
    assert out.basis_product((0, 2, 3)) == (1, 0, 0, 0)   # x1
    assert out.basis_product((1, 2, 3)) == (0, 1, 0, 0)   # x2


def test_naive_bracket_fails_jacobi_with_documented_witness():
    t, dmap = a4()
    out = naive_bracket(t, dmap)
    rep = check_n_jacobi(out)
    assert not rep.passed
    # the documented failing instance: [[x1,x2,x3]_1, x2, x4]_1 = -x2 while
    # the Jacobi right side sums to +x2
    lhs = out.evaluate([out.basis_product((0, 1, 2)), basis_vector(4, 1),
                        basis_vector(4, 3)])
    assert lhs == (0, -1, 0, 0)
    rhs = [0, 0, 0, 0]
    for pos, xi in enumerate((0, 1, 2)):
        inner = out.basis_product((xi, 1, 3))
        args = [basis_vector(4, v) for v in (0, 1, 2)]
        args[pos] = inner
        for k, v in enumerate(out.evaluate(args)):
            rhs[k] += v
    assert tuple(rhs) == (0, 1, 0, 0)


def test_naive_bracket_zero_map():
    t, _ = a4()
    assert naive_bracket(t, LinearMap.zero(4)).is_zero()


# ------------------------------------------------------- Lie triple systems


def test_lts_from_lie_heisenberg_all_zero():
    lts = lts_from_lie(get("heisenberg").products["bracket"])
    assert lts.is_zero()  # bracket image is central


def test_lts_from_lie_nonabelian2():
    lts = lts_from_lie(get("nonabelian2").products["bracket"])
    # [e1,[e1,e2]] = [e1,e2] = e2; [e2,[e1,e2]] = [e2,e2] = 0
    assert lts.basis_product((0, 0, 1)) == (0, 1)
    assert lts.basis_product((0, 1, 0)) == (0, -1)
    assert check_lts(lts).passed
    # NOT fully skew: swapping first two args is not a sign flip
    assert lts.basis_product((0, 0, 1)) != (0, 0)


def test_lts_from_lie_abelian():
    abelian = StructureTensor.zero(2, 2, "skew")
    assert lts_from_lie(abelian).is_zero()


def test_rb_lts_transfer_nonabelian2():
    alg = get("nonabelian2")
    rep = check_rb_lts_transfer(alg.products["bracket"], alg.maps["P"], 0)
    assert rep.passed


def test_derived_lts_bracket():
    alg = get("nonabelian2")
    lts = lts_from_lie(alg.products["bracket"])
    out = derived_lts_bracket(lts, alg.maps["P"], 0)
    assert check_lts(out).passed
    assert check_rota_baxter(out, alg.maps["P"], 0).passed
    # P = 0 and P = -lam*Id scale by lam^2
    for lam in (0, 1, 2):
        assert tensors_equal(derived_lts_bracket(lts, LinearMap.zero(2), lam),
                             lts.scaled(lam * lam))
        assert tensors_equal(
            derived_lts_bracket(lts, LinearMap.scalar(2, -lam), lam),
            lts.scaled(lam * lam))


def test_derived_lts_requires_lts():
    with pytest.raises(PreconditionError):
        derived_lts_bracket(get("a4").products["bracket"],
                            LinearMap.zero(4), 0)
