"""Dimension ladder: how the scan kernels and the builders grow with d.

    python tools/ladder.py    # gl(3) .. gl(8), min of 3 calls each

Each rung is gl(n) on the matrix units (d = n^2) with the trace form, built
by the generators of ``perfbench/inputs.py`` and run against the package in
``src/`` of this checkout, in-process.  Every timed call gets a fresh tensor
built from the entries, so no verdict or integer table kept on an earlier
tensor is reused.  Per rung, min of ``repeat`` calls, in milliseconds:

- ``build``: ``f_bracket(gl(n), trace)``, with its Lie check of the input
  and the Jacobi check that concludes it;
- ``jacobi``: ``check_n_jacobi`` on the f-bracket;
- ``rb``: ``check_rota_baxter(f-bracket, -Id, 1)``;
- ``perturbed``: ``check_n_jacobi`` on the f-bracket with one coordinate
  moved by ``inputs.perturb`` (seeded with n);
- ``derived`` (n <= 6): ``derived_nbracket(f-bracket,
  -Id, 1)`` on a fresh tensor whose Jacobi and Rota-Baxter verdicts are
  already kept, so it times the build, its skew verification and the two
  checks of the result that conclude it; its peak holds the expansion on
  all keys that the skew verification compares with.

One more rung times ``check_prelie`` on the x.D1(y) product of
``qt3_deg4``, the small decided check whose set-up ``_least_composed`` does
not keep.  A ``tracemalloc`` peak of each call is taken in a separate,
untimed call.

Every verdict is checked against the theorem that fixes it: the f-bracket
of a Lie algebra with a form vanishing on its brackets is 3-Lie; -lambda Id
is Rota-Baxter of weight lambda on any algebra; the derived bracket of a
Rota-Baxter 3-Lie algebra is 3-Lie, with the same operator Rota-Baxter on
it; x.D(y) on a commutative associative algebra with a derivation D is
pre-Lie.  The perturbed bracket must fail, and the identity is evaluated
directly at the reported tuple to confirm it.  A wrong verdict exits 1.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import random
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
DERIVED_MAX_N = 6  # derived_nbracket takes about 0.4 s at gl(6)

from algcheck.axioms import check_n_jacobi, check_prelie  # noqa: E402
from algcheck.catalog import get  # noqa: E402
from algcheck.constructions import (f_bracket,  # noqa: E402
                                    prelie_from_comm_assoc)
from algcheck.inheritance import derived_nbracket  # noqa: E402
from algcheck.linalg import LinearForm, LinearMap, basis_vector  # noqa: E402
from algcheck.operators import check_rota_baxter  # noqa: E402
from algcheck.tensor import StructureTensor  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


def timed(call, fresh, repeat):
    """(min ms over ``repeat`` calls, tracemalloc peak KiB of one more, the
    last result), each call on its own ``fresh()`` argument."""
    best, result = None, None
    for _ in range(repeat):
        arg = fresh()
        start = time.perf_counter()
        result = call(arg)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    arg = fresh()
    tracemalloc.start()
    try:
        call(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(best * 1000, 3), round(peak / 1024, 1), result


def expect(ok, what):
    if not ok:
        raise SystemExit(f"ladder: wrong verdict: {what}")


def fails_jacobi_at(t, indices):
    """Whether [[x0, x1, x2], y0, y1] differs, at the basis tuple
    ``indices``, from the sum over i of the bracket with [x_i, y0, y1] in
    slot i: the fundamental identity in the form ``check_n_jacobi`` scans."""
    d = t.dimension
    x0, x1, x2, y0, y1 = (basis_vector(d, i) for i in indices)

    def br(a, b, c):
        return t.evaluate([a, b, c])

    lhs = br(br(x0, x1, x2), y0, y1)
    terms = (br(br(x0, y0, y1), x1, x2), br(x0, br(x1, y0, y1), x2),
             br(x0, x1, br(x2, y0, y1)))
    return any(a != sum(col) for a, col in zip(lhs, zip(*terms)))


def gl_rung(n, repeat, derived):
    d = n * n
    lie_entries = inputs.gl_bracket(n)
    trace = LinearForm(inputs.trace_form(n))
    build_ms, build_kib, fb = timed(
        lambda lie: f_bracket(lie, trace),
        lambda: StructureTensor(2, d, "skew", dict(lie_entries)), repeat)
    entries = fb.entries

    def fresh():
        return StructureTensor(3, d, "skew", dict(entries))

    row = {"n": n, "d": d, "stored": len(entries),
           "build_ms": build_ms, "build_peak_kib": build_kib}
    minus_id = LinearMap.scalar(d, -1)
    jac = timed(check_n_jacobi, fresh, repeat)
    expect(jac[2].passed, f"gl({n}) f-bracket Jacobi")
    rb = timed(lambda t: check_rota_baxter(t, minus_id, 1), fresh, repeat)
    expect(rb[2].passed, f"gl({n}) f-bracket rb(-Id, 1)")
    broken = inputs.perturb(entries, d, random.Random(n))
    bad = timed(check_n_jacobi,
                lambda: StructureTensor(3, d, "skew", dict(broken)), repeat)
    ce = bad[2].counterexample
    expect(not bad[2].passed and fails_jacobi_at(
        StructureTensor(3, d, "skew", dict(broken)), ce.indices),
        f"gl({n}) perturbed f-bracket Jacobi")
    for name, (ms, kib, _) in (("jacobi", jac), ("rb", rb),
                               ("perturbed", bad)):
        row[f"{name}_ms"], row[f"{name}_peak_kib"] = ms, kib
    if derived:
        def primed():
            t = fresh()
            check_n_jacobi(t)
            check_rota_baxter(t, minus_id, 1)
            return t

        ms, kib, out = timed(lambda t: derived_nbracket(t, minus_id, 1),
                             primed, repeat)
        expect(check_n_jacobi(out).passed
               and check_rota_baxter(out, minus_id, 1).passed,
               f"gl({n}) derived bracket")
        row["derived_ms"], row["derived_peak_kib"] = ms, kib
    return row


def prelie_rung(repeat):
    alg = get("qt3_deg4")
    entries = prelie_from_comm_assoc(alg.products["prod"],
                                     alg.maps["D1"]).entries
    d = alg.dimension
    ms, kib, rep = timed(
        check_prelie, lambda: StructureTensor(2, d, "none", dict(entries)),
        repeat)
    expect(rep.passed, "qt3_deg4 x.D1(y) pre-Lie")
    return {"d": d, "stored": len(entries), "check_prelie_ms": ms,
            "check_prelie_peak_kib": kib}


def main(max_n=8, repeat=3):
    """Print the ladder from gl(3) to gl(max_n) as one JSON line."""
    print(json.dumps({
        "python": platform.python_version(),
        "repeat": repeat,
        "gl_f_bracket": [gl_rung(n, repeat, n <= DERIVED_MAX_N)
                         for n in range(3, max_n + 1)],
        "prelie_qt3_deg4_xD1y": prelie_rung(repeat),
        "verdicts": "as the theorems fix them",
    }))


if __name__ == "__main__":
    main()
