"""Check verdicts, counterexamples and error types."""

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
