"""Check verdicts, counterexamples and error types, and the gates that
turn a verdict into an error.

The constructions and inheritance theorems hold under hypotheses that are
checked, never trusted, and some of their conclusions are unconditional
and so re-verified.  Three gates carry that policy:

* :func:`require`, a hypothesis: a failing report raises
  :class:`PreconditionError` (bad input);
* :func:`conclude`, an unconditional conclusion: a failing report raises
  :class:`InternalConsistencyError` (a bug here);
* :func:`agree`, two verdicts a theorem makes equivalent: differing
  verdicts raise :class:`InternalConsistencyError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class ArgumentError(ValueError):
    """Arity or dimension mismatch between supplied objects."""


class PreconditionError(ValueError):
    """A theorem hypothesis that must hold for the operation was violated.

    Carries a human-readable witness of the violation where available.
    """


class InternalConsistencyError(RuntimeError):
    """A conclusion the paper's theorems make unconditional failed to hold.

    This never indicates user error: if raised, the implementation itself is
    wrong, and the condition is surfaced loudly instead of being reported as
    an ordinary failed check.
    """


class FileFormatError(ValueError):
    """Malformed algebra file; message includes the offending location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass(frozen=True)
class Counterexample:
    indices: tuple
    lhs: tuple  # a vector, as in ``linalg``
    rhs: tuple


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an identity check over basis tuples.

    ``counterexample`` is present exactly when the check failed, and is the
    lexicographically least failing basis tuple (checkers scan in lex order).
    """

    identity_name: str
    passed: bool
    checked_count: int
    counterexample: Optional[Counterexample] = None

    def __post_init__(self):
        if self.passed and self.counterexample is not None:
            raise ValueError("passing report cannot carry a counterexample")
        if not self.passed and self.counterexample is None:
            raise ValueError("failing report must carry a counterexample")

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def passing(name: str, checked: int) -> CheckReport:
    return CheckReport(name, True, checked)


def failing(name: str, checked: int, indices, lhs, rhs) -> CheckReport:
    return CheckReport(name, False, checked, Counterexample(tuple(indices), lhs, rhs))


def first_failure(name: str, checked: int, tuples, sides) -> CheckReport:
    """Scan ``tuples`` in the order given and fail at the first ``idx``
    whose two sides ``lhs, rhs = sides(idx)`` differ; pass if none do.

    Every exhaustive check reports through this scan, so its counterexample
    is the first failure of its tuple order (lex order in every caller).
    """
    for idx in tuples:
        lhs, rhs = sides(idx)
        if lhs != rhs:
            return failing(name, checked, idx, lhs, rhs)
    return passing(name, checked)


def require(report: CheckReport, what: str) -> None:
    """The hypothesis ``what`` holds, or :class:`PreconditionError` names
    its first failing basis tuple."""
    if not report.passed:
        raise PreconditionError(
            f"{what} fails at basis tuple {report.counterexample.indices}")


def conclude(report: CheckReport, what: str) -> CheckReport:
    """The unconditional conclusion ``what`` holds, or
    :class:`InternalConsistencyError` names its first failing basis tuple.
    Returns ``report``."""
    if not report.passed:
        raise InternalConsistencyError(
            f"{what} fails at basis tuple {report.counterexample.indices}, "
            "though the theorem makes it unconditional")
    return report


def agree(first: CheckReport, second: CheckReport, what: str) -> CheckReport:
    """The two verdicts of ``what``, which a theorem makes equivalent, are
    equal, or :class:`InternalConsistencyError` names both.  Returns
    ``first``."""
    if first.passed != second.passed:
        raise InternalConsistencyError(
            f"{what} disagree: {first.identity_name} {first.verdict}, "
            f"{second.identity_name} {second.verdict}")
    return first
