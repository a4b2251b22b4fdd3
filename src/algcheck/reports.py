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

:func:`decide` is the scan of :func:`first_failure` for the checks that
find their first failure from the sparse difference of their two sides
alone, with :func:`agree` as its cross-check.
"""

from __future__ import annotations


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


class Record:
    """A frozen record, valued by its fields as a frozen dataclass is.

    A subclass names its fields in order in ``_fields`` and sets them in its
    own ``__init__`` through ``self.__dict__``, then calls
    ``self.__post_init__()`` if it has one.  ``repr``, ``==`` (same class
    only) and ``hash`` read the fields alone; values kept beside them in
    ``__dict__``, such as a ``cached_property``, stay out of all three.
    Assignment and deletion raise ``AttributeError``.
    """

    _fields = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}"
                           for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Counterexample(Record):
    """The first failing basis tuple of a check and its two sides there."""

    _fields = ("indices", "lhs", "rhs")

    def __init__(self, indices: tuple, lhs: tuple, rhs: tuple):
        # lhs and rhs are vectors, as in ``linalg``
        d = self.__dict__
        d["indices"] = indices
        d["lhs"] = lhs
        d["rhs"] = rhs


class CheckReport(Record):
    """Outcome of an identity check over basis tuples.

    ``counterexample`` is present exactly when the check failed, and is the
    lexicographically least failing basis tuple (checkers scan in lex order).
    """

    _fields = ("identity_name", "passed", "checked_count", "counterexample")

    def __init__(self, identity_name: str, passed: bool, checked_count: int,
                 counterexample: Counterexample | None = None):
        d = self.__dict__
        d["identity_name"] = identity_name
        d["passed"] = passed
        d["checked_count"] = checked_count
        d["counterexample"] = counterexample
        self.__post_init__()

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


def decide(name: str, checked: int, sides, least) -> CheckReport:
    """The report of ``first_failure(name, checked, tuples, sides)`` over
    the tuples a check scans in lex order, decided by ``least()``.

    ``least()`` is ``(key, lhs - rhs)`` at the least scanned tuple where
    the difference of the two sides is nonzero, or ``None``.  Its builder
    shows, in its own docstring, that the difference it adds up at a tuple
    is exactly lhs - rhs there.  The report is then the scan's:

    1. *The difference is kept at the scanned tuples only.*  A term is
       dropped unless its tuple rises as the scan's tuples do (strictly in
       a ``skew`` block, weakly in a ``symmetric`` one, freely in
       ``none``), so a nonzero tuple is one the scan visits.
    2. *Its least nonzero tuple is the scan's first failure.*  Scalars are
       exact, so a scanned tuple fails iff its difference is nonzero, and
       the scan meets the nonzero tuples in lex order: with none it passes,
       and otherwise it fails first at the least.  That tuple alone is
       handed to ``first_failure`` with ``sides``, so the report is the
       scan's by construction; were those sides equal there, :func:`agree`
       raises :class:`InternalConsistencyError`.
    """
    found = least()
    if found is None:
        return passing(name, checked)
    key, diff = found
    return agree(first_failure(name, checked, (key,), sides),
                 failing(f"{name} difference", checked, key, diff,
                         (0,) * len(diff)),
                 f"per-tuple and sparse-difference verdicts at {key}")


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
