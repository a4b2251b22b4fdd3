"""Golden reports of every axiom and operator check on the catalog.

``tests/data/catalog_reports.json`` was recorded once, before the checks
shared one first-failure scan, and is compared byte for byte: every
verdict, ``checked_count`` and counterexample, and the type and message of
each check that raises, must stay as recorded.
"""

import json
from pathlib import Path

from algcheck import files
from algcheck.catalog import catalog
from algcheck.cli import _AXIOMS, _OP_KINDS
from algcheck.reports import ArgumentError, PreconditionError

GOLDEN = Path(__file__).parent / "data" / "catalog_reports.json"
WEIGHTS = (0, 1, -1)


def _checks():
    """``(label, run)`` for every axiom on every catalog product and every
    operator kind on every (product, map) pair at each weight."""
    for alg in catalog():
        for pname, t in sorted(alg.products.items()):
            for axiom, check in _AXIOMS.items():
                yield f"{alg.name}.{pname}:{axiom}", lambda c=check, t=t: c(t)
            for mname, m in sorted(alg.maps.items()):
                for kind, check in _OP_KINDS.items():
                    for w in WEIGHTS:
                        yield (f"{alg.name}.{pname}:{kind}:{mname}:{w}",
                               lambda c=check, t=t, m=m, w=w: c(t, m, w))


def catalog_reports() -> str:
    """The report document of every check that returns, followed by the
    error type and message of every check that raises."""
    results, errors = [], []
    for label, run in _checks():
        try:
            results.append((label, run()))
        except (ArgumentError, PreconditionError) as exc:
            errors.append({"check": label, "error": type(exc).__name__,
                           "message": str(exc)})
    doc = files.report_document("catalog", results)
    doc["errors"] = errors
    return json.dumps(doc, indent=2) + "\n"


def test_catalog_reports_match_the_recorded_file():
    assert catalog_reports() == GOLDEN.read_text(encoding="utf-8")
