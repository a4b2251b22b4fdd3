"""The three gates of ``reports`` and every theorem that goes through them.

No catalog input reaches an ``InternalConsistencyError``, so each
conclusion and agreement is reached by making the check that re-verifies it
lie: :func:`flip` reverses the verdict of a module's check on the tensors
it selects, so a conclusion that holds reads as failed and two verdicts
that agree read as different.
"""

from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest

from algcheck import constructions, inheritance, operators
from algcheck.axioms import check_n_jacobi
from algcheck.catalog import euler_maps, get, truncated_poly_product
from algcheck.linalg import LinearForm, LinearMap
from algcheck.reports import (ArgumentError, InternalConsistencyError,
                              PreconditionError, agree, conclude, decide,
                              failing, passing, require)

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


# ---------------------------------------------------------------- decide


def _sides_at(table):
    """Per-tuple sides ``(lhs, 0)`` read from ``table``, which record the
    tuples they are evaluated at."""
    calls = []

    def sides(idx):
        calls.append(idx)
        return table.get(idx, (0,)), (0,)
    return sides, calls


def test_decide_passes_without_evaluating_the_sides():
    sides, calls = _sides_at({})
    assert decide("x", 8, sides, lambda: None) == passing("x", 8)
    assert calls == []


def test_decide_evaluates_the_sides_once_at_the_least_difference():
    sides, calls = _sides_at({(0, 1): (2,), (1, 0): (3,)})
    rep = decide("x", 8, sides, lambda: ((0, 1), (2,)))
    assert rep == failing("x", 8, (0, 1), (2,), (0,))
    assert calls == [(0, 1)]


def test_decide_refuses_a_difference_the_sides_do_not_confirm():
    sides, calls = _sides_at({})
    with pytest.raises(InternalConsistencyError, match=(
            r"per-tuple and sparse-difference verdicts at \(0, 1\) disagree: "
            "x pass, x difference fail")):
        decide("x", 8, sides, lambda: ((0, 1), (2,)))
    assert calls == [(0, 1)]


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


def besides(name):
    """Every tensor but the input ``name``: the ones a theorem builds."""
    return lambda t: t is not getattr(inputs(), name)


@lru_cache(maxsize=None)
def inputs():
    """The catalog inputs of the sites, built on first use, so that a
    construction that raises fails the tests that use it, not collection."""
    hl, a4, qt4 = get("heisenberg_line"), get("a4"), get("qt4")
    lie = hl.products["bracket"]
    return SimpleNamespace(
        LIE=lie, P=hl.maps["P"], F=hl.forms["f"],
        LTS=inheritance.lts_from_lie(lie),
        A4=a4.products["bracket"], D=a4.maps["D"],
        PRELIE=qt4.products["prelie"], P0=qt4.maps["P0"],
        PROD=qt4.products["prod"], QD=qt4.maps["D"], QF=qt4.forms["f"],
        QT2=get("qt2_deg3"))

# (module, check it re-verifies with, tensors flipped, theorem, its name)
CONCLUSIONS = {
    "f_bracket": (
        constructions, "check_n_jacobi", every,
        lambda x: constructions.f_bracket(x.LIE, x.F), "f-bracket: Jacobi"),
    "thm36_bracket": (
        constructions, "check_n_jacobi", every,
        lambda x: constructions.thm36_bracket(x.PRELIE, x.P0, x.QF),
        "pre-Lie ternary bracket: Jacobi"),
    "fD_bracket": (
        constructions, "check_n_jacobi", every,
        lambda x: constructions.fD_bracket(x.PROD, x.QF, x.QD),
        "f,D determinant bracket: Jacobi"),
    "det_bracket_2": (
        constructions, "check_n_jacobi", every,
        lambda x: constructions.det_bracket_2(
            x.QT2.products["prod"], x.QT2.maps["D1"], x.QT2.maps["D2"]),
        "two-derivation bracket: Jacobi"),
    "det_bracket_3": (
        constructions, "check_n_jacobi", every,
        lambda x: constructions.det_bracket_3(truncated_poly_product(3, 2),
                                              *euler_maps(3, 2)),
        "three-derivation bracket: Jacobi"),
    "prelie_from_comm_assoc": (
        constructions, "check_prelie", every,
        lambda x: constructions.prelie_from_comm_assoc(x.PROD, x.QD),
        "x.D(y) product: pre-Lie"),
    "derived_prelie": (
        constructions, "check_prelie", besides("PRELIE"),
        lambda x: constructions.derived_prelie(x.PRELIE, x.P0, 0),
        "weight-0 derived pre-Lie product: pre-Lie"),
    "derived_nbracket-jacobi": (
        inheritance, "check_n_jacobi", besides("A4"),
        lambda x: inheritance.derived_nbracket(x.A4, x.D, 0),
        "derived bracket: Jacobi"),
    "derived_nbracket-rb": (
        inheritance, "check_rota_baxter", besides("A4"),
        lambda x: inheritance.derived_nbracket(x.A4, x.D, 0),
        "derived bracket: Rota-Baxter"),
    "check_derivation_transfer": (
        inheritance, "check_derivation", besides("A4"),
        lambda x: inheritance.check_derivation_transfer(x.A4, x.D, 0, x.D),
        "derivation transfer to the derived bracket"),
    "cor53_bracket": (
        inheritance, "check_derivation", besides("A4"),
        lambda x: inheritance.cor53_bracket(x.A4, x.D, 0),
        "conjugated bracket: derivation"),
    # flipping every ternary verdict also skips the conclusions of the
    # inner derived_nbracket, whose input then reads as not Rota-Baxter
    "cor54_bracket": (
        inheritance, "check_rota_baxter", ternary,
        lambda x: inheritance.cor54_bracket(x.LIE, x.P, 0, x.F),
        "explicit derived f-bracket: Rota-Baxter"),
    "lts_from_lie": (
        inheritance, "check_lts", every,
        lambda x: inheritance.lts_from_lie(x.LIE),
        "Lie triple system of a Lie algebra"),
    "check_rb_lts_transfer": (
        inheritance, "check_rota_baxter", ternary,
        lambda x: inheritance.check_rb_lts_transfer(x.LIE, x.P, 0),
        "induced Lie triple system: Rota-Baxter"),
    "derived_lts_bracket-axioms": (
        inheritance, "check_lts", besides("LTS"),
        lambda x: inheritance.derived_lts_bracket(x.LTS, x.P, 0),
        "derived Lie triple system: axioms"),
    "derived_lts_bracket-rb": (
        inheritance, "check_rota_baxter", besides("LTS"),
        lambda x: inheritance.derived_lts_bracket(x.LTS, x.P, 0),
        "derived Lie triple system: Rota-Baxter"),
}

# the direct Rota-Baxter verdict is the one on a ternary bracket
AGREEMENTS = {
    "thm32_condition": (
        constructions, "check_rota_baxter", ternary,
        lambda x: constructions.thm32_condition(x.LIE, x.P, 0, x.F),
        "f-bracket kernel condition"),
    "thm36_rb_condition": (
        constructions, "check_rota_baxter", ternary,
        lambda x: constructions.thm36_rb_condition(x.PRELIE, x.P0, x.QF),
        "pre-Lie ternary bracket P^2 vanishing condition"),
    "thm42_condition": (
        constructions, "check_rota_baxter", ternary,
        lambda x: constructions.thm42_condition(x.PROD, LinearMap.zero(4), 0,
                                                x.QF, x.QD),
        "f,D bracket kernel condition"),
    "check_duality": (
        operators, "check_derivation", every,
        lambda x: operators.check_duality(x.A4, x.D, 0),
        "Rota-Baxter/derivation-of-inverse duality"),
}


@pytest.mark.parametrize("site", sorted({**CONCLUSIONS, **AGREEMENTS}))
def test_every_site_holds_on_its_input(site):
    *_, run, _ = {**CONCLUSIONS, **AGREEMENTS}[site]
    run(inputs())


@pytest.mark.parametrize("site", sorted(CONCLUSIONS))
def test_a_failed_conclusion_names_the_theorem_and_the_tuple(site, monkeypatch):
    module, check, on, run, theorem = CONCLUSIONS[site]
    flip(monkeypatch, module, check, on)
    with pytest.raises(InternalConsistencyError) as exc:
        run(inputs())
    assert str(exc.value).startswith(theorem)
    assert f"fails at basis tuple {WITNESS}" in str(exc.value)


@pytest.mark.parametrize("site", sorted(AGREEMENTS))
def test_differing_verdicts_name_the_theorem_and_both(site, monkeypatch):
    module, check, on, run, theorem = AGREEMENTS[site]
    flip(monkeypatch, module, check, on)
    with pytest.raises(InternalConsistencyError) as exc:
        run(inputs())
    message = str(exc.value)
    assert message.startswith(theorem)
    assert " pass" in message and " fail" in message


# ----------------------------------------------- precondition messages

# every text as the checks printed it before they shared the gates
PRECONDITIONS = {
    "require-lie": (
        PreconditionError,
        lambda x: constructions.f_bracket(get("q3").products["prod"],
                                          LinearForm((0, 0, 0))),
        "Lie axioms fails at basis tuple (0, 0)"),
    "require-rb": (
        PreconditionError,
        lambda x: constructions.derived_prelie(x.PRELIE, LinearMap.identity(4),
                                               0),
        "Rota-Baxter identity fails at basis tuple (0, 1)"),
    "require_skew": (
        ArgumentError, lambda x: check_n_jacobi(get("q3").products["prod"]),
        "tensor is not skew-symmetric (violation at basis tuple (0, 0))"),
    "nary_power": (
        PreconditionError,
        lambda x: operators.nary_from_associative(x.PRELIE, 3),
        "product is not associative (violation at basis triple (0, 0, 1))"),
    # diag(1, 1, 1/2, 0) is Rota-Baxter of weight 0 on [e1, e2] = e3, and
    # P[P e1, P e2] = e3/2 is not zero
    "cor54_preconditions": (
        PreconditionError,
        lambda x: inheritance.cor54_bracket(
            x.LIE, LinearMap.diagonal([1, 1, Fraction(1, 2), 0]), 0, x.F),
        "kernel condition fails at basis triple (0, 1, 3)"),
    "derived_prelie-nonzero-weight": (
        PreconditionError,
        lambda x: constructions.derived_prelie(x.PRELIE,
                                               LinearMap.scalar(4, -1), 1),
        "derived product is not pre-Lie at this nonzero weight "
        "(violation at basis triple (0, 1, 0))"),
}


@pytest.mark.parametrize("site", sorted(PRECONDITIONS))
def test_precondition_messages_are_as_recorded(site):
    error, run, message = PRECONDITIONS[site]
    with pytest.raises(error) as exc:
        run(inputs())
    assert type(exc.value) is error
    assert str(exc.value) == message
