"""The three gates of ``reports`` and every theorem that goes through them.

No catalog input reaches an ``InternalConsistencyError``, so each
conclusion and agreement is reached by making the check that re-verifies it
lie: :func:`flip` reverses the verdict of a module's check on the tensors
it selects, so a conclusion that holds reads as failed and two verdicts
that agree read as different.
"""

from fractions import Fraction

import pytest

from algcheck import constructions, inheritance, operators
from algcheck.axioms import check_n_jacobi
from algcheck.catalog import euler_maps, get, truncated_poly_product
from algcheck.linalg import LinearForm, LinearMap
from algcheck.reports import (ArgumentError, InternalConsistencyError,
                              PreconditionError, agree, conclude, failing,
                              passing, require)

PASS = passing("some-identity", 8)
FAIL = failing("other-identity", 8, (1, 0, 2), (1,), (0,))

# ----------------------------------------------------------------- gates


def test_require_lets_a_passing_report_through():
    assert require(PASS, "hypothesis H") is None


def test_require_names_the_first_failing_tuple():
    with pytest.raises(PreconditionError) as exc:
        require(FAIL, "hypothesis H")
    assert str(exc.value) == "hypothesis H fails at basis tuple (1, 0, 2)"


def test_conclude_returns_a_passing_report():
    assert conclude(PASS, "theorem T: conclusion") is PASS


def test_conclude_names_the_theorem_and_the_first_failing_tuple():
    with pytest.raises(InternalConsistencyError) as exc:
        conclude(FAIL, "theorem T: conclusion")
    assert str(exc.value).startswith(
        "theorem T: conclusion fails at basis tuple (1, 0, 2)")


def test_agree_returns_the_first_of_two_equal_verdicts():
    assert agree(PASS, passing("x", 1), "theorem T") is PASS
    assert agree(FAIL, failing("x", 1, (0,), (1,), (0,)), "theorem T") is FAIL


@pytest.mark.parametrize("first, second", [(PASS, FAIL), (FAIL, PASS)])
def test_agree_names_the_theorem_and_both_verdicts(first, second):
    with pytest.raises(InternalConsistencyError) as exc:
        agree(first, second, "theorem T: A and B")
    assert str(exc.value) == (
        f"theorem T: A and B disagree: {first.identity_name} "
        f"{first.verdict}, {second.identity_name} {second.verdict}")


# ------------------------------------------------- sites, through flip

WITNESS = (7, 7, 7)


def flip(monkeypatch, module, name, on):
    """Replace the check ``module.name`` by one that reverses its verdict on
    the tensors ``on`` selects; a reversed pass fails at ``WITNESS``."""
    real = getattr(module, name)

    def flipped(t, *args):
        rep = real(t, *args)
        if not on(t):
            return rep
        if rep.passed:
            return failing(rep.identity_name, rep.checked_count, WITNESS,
                           (1,), (0,))
        return passing(rep.identity_name, rep.checked_count)
    monkeypatch.setattr(module, name, flipped)


def every(t):
    return True


def ternary(t):
    return t.arity == 3


def besides(u):
    """Every tensor but the input ``u``: the ones a theorem builds."""
    return lambda t: t is not u


HL = get("heisenberg_line")
LIE, P, F = HL.products["bracket"], HL.maps["P"], HL.forms["f"]
LTS = inheritance.lts_from_lie(LIE)
A4, D = get("a4").products["bracket"], get("a4").maps["D"]
QT4 = get("qt4")
PRELIE, P0, PROD, QD, QF = (QT4.products["prelie"], QT4.maps["P0"],
                            QT4.products["prod"], QT4.maps["D"], QT4.forms["f"])
QT2 = get("qt2_deg3")

# (module, check it re-verifies with, tensors flipped, theorem, its name)
CONCLUSIONS = {
    "f_bracket": (
        constructions, "check_n_jacobi", every,
        lambda: constructions.f_bracket(LIE, F), "f-bracket: Jacobi"),
    "thm36_bracket": (
        constructions, "check_n_jacobi", every,
        lambda: constructions.thm36_bracket(PRELIE, P0, QF),
        "pre-Lie ternary bracket: Jacobi"),
    "fD_bracket": (
        constructions, "check_n_jacobi", every,
        lambda: constructions.fD_bracket(PROD, QF, QD),
        "f,D determinant bracket: Jacobi"),
    "det_bracket_2": (
        constructions, "check_n_jacobi", every,
        lambda: constructions.det_bracket_2(
            QT2.products["prod"], QT2.maps["D1"], QT2.maps["D2"]),
        "two-derivation bracket: Jacobi"),
    "det_bracket_3": (
        constructions, "check_n_jacobi", every,
        lambda: constructions.det_bracket_3(truncated_poly_product(3, 2),
                                            *euler_maps(3, 2)),
        "three-derivation bracket: Jacobi"),
    "prelie_from_comm_assoc": (
        constructions, "check_prelie", every,
        lambda: constructions.prelie_from_comm_assoc(PROD, QD),
        "x.D(y) product: pre-Lie"),
    "derived_prelie": (
        constructions, "check_prelie", besides(PRELIE),
        lambda: constructions.derived_prelie(PRELIE, P0, 0),
        "weight-0 derived pre-Lie product: pre-Lie"),
    "derived_nbracket-jacobi": (
        inheritance, "check_n_jacobi", besides(A4),
        lambda: inheritance.derived_nbracket(A4, D, 0),
        "derived bracket: Jacobi"),
    "derived_nbracket-rb": (
        inheritance, "check_rota_baxter", besides(A4),
        lambda: inheritance.derived_nbracket(A4, D, 0),
        "derived bracket: Rota-Baxter"),
    "check_derivation_transfer": (
        inheritance, "check_derivation", besides(A4),
        lambda: inheritance.check_derivation_transfer(A4, D, 0, D),
        "derivation transfer to the derived bracket"),
    "cor53_bracket": (
        inheritance, "check_derivation", besides(A4),
        lambda: inheritance.cor53_bracket(A4, D, 0),
        "conjugated bracket: derivation"),
    # flipping every ternary verdict also skips the conclusions of the
    # inner derived_nbracket, whose input then reads as not Rota-Baxter
    "cor54_bracket": (
        inheritance, "check_rota_baxter", ternary,
        lambda: inheritance.cor54_bracket(LIE, P, 0, F),
        "explicit derived f-bracket: Rota-Baxter"),
    "lts_from_lie": (
        inheritance, "check_lts", every,
        lambda: inheritance.lts_from_lie(LIE),
        "Lie triple system of a Lie algebra"),
    "check_rb_lts_transfer": (
        inheritance, "check_rota_baxter", ternary,
        lambda: inheritance.check_rb_lts_transfer(LIE, P, 0),
        "induced Lie triple system: Rota-Baxter"),
    "derived_lts_bracket-axioms": (
        inheritance, "check_lts", besides(LTS),
        lambda: inheritance.derived_lts_bracket(LTS, P, 0),
        "derived Lie triple system: axioms"),
    "derived_lts_bracket-rb": (
        inheritance, "check_rota_baxter", besides(LTS),
        lambda: inheritance.derived_lts_bracket(LTS, P, 0),
        "derived Lie triple system: Rota-Baxter"),
}

# the direct Rota-Baxter verdict is the one on a ternary bracket
AGREEMENTS = {
    "thm32_condition": (
        constructions, "check_rota_baxter", ternary,
        lambda: constructions.thm32_condition(LIE, P, 0, F),
        "f-bracket kernel condition"),
    "thm36_rb_condition": (
        constructions, "check_rota_baxter", ternary,
        lambda: constructions.thm36_rb_condition(PRELIE, P0, QF),
        "pre-Lie ternary bracket P^2 vanishing condition"),
    "thm42_condition": (
        constructions, "check_rota_baxter", ternary,
        lambda: constructions.thm42_condition(PROD, LinearMap.zero(4), 0, QF,
                                              QD),
        "f,D bracket kernel condition"),
    "check_duality": (
        operators, "check_derivation", every,
        lambda: operators.check_duality(A4, D, 0),
        "Rota-Baxter/derivation-of-inverse duality"),
}


@pytest.mark.parametrize("site", sorted({**CONCLUSIONS, **AGREEMENTS}))
def test_every_site_holds_on_its_input(site):
    *_, run, _ = {**CONCLUSIONS, **AGREEMENTS}[site]
    run()


@pytest.mark.parametrize("site", sorted(CONCLUSIONS))
def test_a_failed_conclusion_names_the_theorem_and_the_tuple(site, monkeypatch):
    module, check, on, run, theorem = CONCLUSIONS[site]
    flip(monkeypatch, module, check, on)
    with pytest.raises(InternalConsistencyError) as exc:
        run()
    assert str(exc.value).startswith(theorem)
    assert f"fails at basis tuple {WITNESS}" in str(exc.value)


@pytest.mark.parametrize("site", sorted(AGREEMENTS))
def test_differing_verdicts_name_the_theorem_and_both(site, monkeypatch):
    module, check, on, run, theorem = AGREEMENTS[site]
    flip(monkeypatch, module, check, on)
    with pytest.raises(InternalConsistencyError) as exc:
        run()
    message = str(exc.value)
    assert message.startswith(theorem)
    assert " pass" in message and " fail" in message


# ----------------------------------------------- precondition messages

# every text as the checks printed it before they shared the gates
PRECONDITIONS = {
    "require-lie": (
        PreconditionError,
        lambda: constructions.f_bracket(get("q3").products["prod"],
                                        LinearForm((0, 0, 0))),
        "Lie axioms fails at basis tuple (0, 0)"),
    "require-rb": (
        PreconditionError,
        lambda: constructions.derived_prelie(PRELIE, LinearMap.identity(4), 0),
        "Rota-Baxter identity fails at basis tuple (0, 1)"),
    "require_skew": (
        ArgumentError, lambda: check_n_jacobi(get("q3").products["prod"]),
        "tensor is not skew-symmetric (violation at basis tuple (0, 0))"),
    "nary_power": (
        PreconditionError, lambda: operators.nary_from_associative(PRELIE, 3),
        "product is not associative (violation at basis triple (0, 0, 1))"),
    # diag(1, 1, 1/2, 0) is Rota-Baxter of weight 0 on [e1, e2] = e3, and
    # P[P e1, P e2] = e3/2 is not zero
    "cor54_preconditions": (
        PreconditionError,
        lambda: inheritance.cor54_bracket(
            LIE, LinearMap.diagonal([1, 1, Fraction(1, 2), 0]), 0, F),
        "kernel condition fails at basis triple (0, 1, 3)"),
    "derived_prelie-nonzero-weight": (
        PreconditionError,
        lambda: constructions.derived_prelie(PRELIE, LinearMap.scalar(4, -1),
                                             1),
        "derived product is not pre-Lie at this nonzero weight "
        "(violation at basis triple (0, 1, 0))"),
}


@pytest.mark.parametrize("site", sorted(PRECONDITIONS))
def test_precondition_messages_are_as_recorded(site):
    error, run, message = PRECONDITIONS[site]
    with pytest.raises(error) as exc:
        run()
    assert type(exc.value) is error
    assert str(exc.value) == message
