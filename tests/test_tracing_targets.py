"""Every layer the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` of its ``HOT``
and ``SPANS`` tables by a timing wrapper.  An attribute that a change to the
package renames or removes would otherwise show only when the benchmark
runs, and stop it before its first pass.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.HOT + tracing.SPANS
    assert targets
    missing = [name for name, owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
