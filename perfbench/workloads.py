"""The timed passes of each workload and the checks of their outputs.

A pass drives the public API the way a user would: it parses the seeded
documents with ``files.loads`` and calls the checkers, constructions, search
or selftest on the result.  Every call whose output is checked is one
operation; ``Ops`` runs it, keeps its output and counts an exception as a
failed operation instead of ending the run.

The checks run after the timed pass.  They hold for every seed: a verdict
must be the theorem-backed one, ``checked_count`` must match its formula,
both sides of a counterexample are recomputed through
``StructureTensor.evaluate``, constructed brackets must equal the ones the
benchmark computes on its own, and search results are mapped back through
the change of basis.  For the seeds recorded in ``expected.json`` every
output must also hash to the value recorded from the reference commit.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import traceback

# Layer functions are looked up on their modules at call time, so that the
# tracer's wrappers, bound on those modules, see the benchmark's own calls.
from algcheck import axioms, constructions, files, operators, selftest
from algcheck.linalg import LinearMap
from algcheck.reports import CheckReport
from algcheck.tensor import StructureTensor

from inputs import fmt

# ``algcheck.search`` is the search function, re-exported over the module.
search = importlib.import_module("algcheck.search")

SELFTEST_WORKERS = 2


class Ops:
    """Runs the operations of one pass and keeps their outputs in order."""

    def __init__(self):
        self.outputs = {}
        self.errors = {}

    def run(self, label, fn):
        try:
            out = fn()
        except Exception:  # a raising operation is a failed one, not a crash
            self.errors[label] = traceback.format_exc()
            return None
        self.outputs[label] = out
        return out


# -- passes -----------------------------------------------------------------


def _criterion08_rb(ops, t, d):
    for lam in (0, 1):
        ops.run(f"rb(P=0,w={lam})",
                lambda: operators.check_rota_baxter(t, LinearMap.zero(d), lam))
        ops.run(f"rb(P=-{lam}Id,w={lam})",
                lambda: operators.check_rota_baxter(t, LinearMap.scalar(d, -lam), lam))


def pass_jacobi_sparse20(ops, inp):
    alg = ops.run("loads", lambda: files.loads(inp["docs"]["algebra"]))
    det3 = ops.run("det_bracket_3", lambda: constructions.det_bracket_3(
        alg.products["prod"], alg.maps["D1"], alg.maps["D2"], alg.maps["D3"]))
    ops.run("jacobi", lambda: axioms.check_n_jacobi(det3))
    _criterion08_rb(ops, det3, alg.dimension)


def pass_jacobi_dense16(ops, inp):
    alg = ops.run("loads", lambda: files.loads(inp["docs"]["algebra"]))
    fb = ops.run("f_bracket", lambda: constructions.f_bracket(
        alg.products["bracket"], alg.forms["trace"]))
    ops.run("jacobi", lambda: axioms.check_n_jacobi(fb))
    _criterion08_rb(ops, fb, alg.dimension)
    broken = ops.run("loads_perturbed",
                     lambda: files.loads(inp["docs"]["perturbed"]))
    ops.run("jacobi_perturbed",
            lambda: axioms.check_n_jacobi(broken.products["fbracket"]))


def pass_det_expansion(ops, inp):
    alg = ops.run("loads", lambda: files.loads(inp["docs"]["algebra"]))
    ops.run("det_rb_expansion", lambda: constructions.det_rb_expansion_check(
        alg.products["prod"], alg.maps["P"], 1))


def pass_rb_search(ops, inp):
    alg = ops.run("loads", lambda: files.loads(inp["docs"]["algebra"]))
    ops.run("search", lambda: search.search(alg, search.SearchSpec(
        "rb_operator", "prod", weight=1, strategy="grid",
        entry_set=(-1, 0, 1))))


def pass_selftest_pool(ops, inp):
    ops.run("selftest", lambda: selftest.run_selftest(workers=SELFTEST_WORKERS))


PASSES = {
    "jacobi_sparse20": pass_jacobi_sparse20,
    "jacobi_dense16": pass_jacobi_dense16,
    "det_expansion": pass_det_expansion,
    "rb_search": pass_rb_search,
    "selftest_pool": pass_selftest_pool,
}


# -- canonical outputs --------------------------------------------------------


def _vec(v):
    return [fmt(a) for a in v]


def canonical(out):
    """JSON-ready form of an operation's output, independent of storage."""
    if isinstance(out, CheckReport):
        ce = out.counterexample
        return {"verdict": out.verdict, "checked_count": out.checked_count,
                "counterexample": None if ce is None else {
                    "indices": list(ce.indices), "lhs": _vec(ce.lhs),
                    "rhs": _vec(ce.rhs)}}
    if isinstance(out, StructureTensor):
        return {"arity": out.arity, "dimension": out.dimension,
                "symmetry": out.symmetry,
                "entries": [[list(k), _vec(v)]
                            for k, v in sorted(out.entries.items())]}
    if isinstance(out, list):  # search results
        return [{"found": [_vec(c) for c in r.found.cols],
                 "certificate": canonical(r.certificate)} for r in out]
    if isinstance(out, tuple):  # run_selftest: (all_passed, lines)
        return {"all_passed": out[0], "lines": list(out[1])}
    return {"name": out.name, "dimension": out.dimension,  # an Algebra
            "products": sorted(out.products), "maps": sorted(out.maps),
            "forms": sorted(out.forms)}


def digest(out) -> str:
    text = json.dumps(canonical(out), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- independent checks ----------------------------------------------------------


def _report(rep, verdict, count):
    if not isinstance(rep, CheckReport):
        return f"expected a CheckReport, got {type(rep).__name__}"
    if rep.verdict != verdict:
        return f"verdict {rep.verdict}, expected {verdict}"
    if rep.checked_count != count:
        return f"checked_count {rep.checked_count}, expected {count}"
    return None


def _entries(t, expected):
    if not isinstance(t, StructureTensor):
        return f"expected a StructureTensor, got {type(t).__name__}"
    got = {k: tuple(v) for k, v in t.entries.items()}
    if got != expected:
        return (f"bracket differs from the expected one "
                f"({len(got)} stored entries, expected {len(expected)})")
    return None


def _jacobi_sides(t, indices):
    """Both sides of the ternary fundamental identity at a basis tuple,
    recomputed through ``StructureTensor.evaluate``."""
    d = t.dimension
    e = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    x, y = [e[i] for i in indices[:3]], [e[i] for i in indices[3:]]
    lhs = t.evaluate([t.evaluate(x)] + y)
    rhs = [0] * d
    for i in range(3):
        args = list(x)
        args[i] = t.evaluate([x[i]] + y)
        rhs = [a + b for a, b in zip(rhs, t.evaluate(args))]
    return lhs, tuple(rhs)


def _counterexample(rep, t):
    err = _report(rep, "fail", t.dimension ** 5)
    if err:
        return err
    ce = rep.counterexample
    lhs, rhs = _jacobi_sides(t, ce.indices)
    if lhs == rhs:
        return f"identity holds at the reported tuple {ce.indices}"
    if (lhs, rhs) != (tuple(ce.lhs), tuple(ce.rhs)):
        return f"reported sides at {ce.indices} do not match their recomputation"
    return None


def _rb_checks(outputs, d):
    return {label: _report(outputs.get(label), "pass", d ** 3)
            for label in ("rb(P=0,w=0)", "rb(P=-0Id,w=0)", "rb(P=0,w=1)",
                          "rb(P=-1Id,w=1)")}


def _loads(alg, dim):
    if getattr(alg, "dimension", None) != dim:
        return "document did not parse to an algebra of its dimension"
    return None


def check_jacobi_sparse20(outputs, inp, expected):
    d = 20
    return {"loads": _loads(outputs.get("loads"), d),
            "det_bracket_3": _entries(outputs.get("det_bracket_3"),
                                      inp["bracket"]),
            "jacobi": _report(outputs.get("jacobi"), "pass", d ** 5),
            **_rb_checks(outputs, d)}


def check_jacobi_dense16(outputs, inp, expected):
    d = 16
    broken = outputs.get("loads_perturbed")
    return {"loads": _loads(outputs.get("loads"), d),
            "f_bracket": _entries(outputs.get("f_bracket"), inp["bracket"]),
            "jacobi": _report(outputs.get("jacobi"), "pass", d ** 5),
            **_rb_checks(outputs, d),
            "loads_perturbed": _loads(broken, d),
            "jacobi_perturbed": _counterexample(
                outputs.get("jacobi_perturbed"),
                broken.products["fbracket"]) if broken else "not parsed"}


def check_det_expansion(outputs, inp, expected):
    return {"loads": _loads(outputs.get("loads"), 4),
            "det_rb_expansion": _report(outputs.get("det_rb_expansion"),
                                        "pass", 4 ** 9)}


def _rb_search(results, inp, expected):
    if not isinstance(results, list):
        return "search returned no result list"
    s = inp["change"]
    bad = [r for r in results if _report(r.certificate, "pass", 9)]
    if bad:
        return f"{len(bad)} results carry a failing or miscounted certificate"
    back = sorted(tuple(tuple(fmt(a) for a in c) for c in s.unmap(r.found.cols))
                  for r in results)
    want = sorted(tuple(tuple(c) for c in m) for m in expected["q3_rb_weight1"])
    if back != want:
        return (f"{len(results)} results do not map back to the "
                f"{len(want)} weight-1 operators of q3")
    return None


def check_rb_search(outputs, inp, expected):
    return {"loads": _loads(outputs.get("loads"), 3),
            "search": _rb_search(outputs.get("search"), inp, expected)}


def check_selftest_pool(outputs, inp, expected):
    """One operation per selftest line, compared with the recorded lines."""
    out = outputs.get("selftest")
    lines = list(out[1]) if isinstance(out, tuple) else []
    want = expected["selftest_lines"]
    checks = {}
    for i, line in enumerate(want):
        got = lines[i] if i < len(lines) else None
        checks[f"selftest[{i}]"] = (None if got == line and line.startswith("PASS")
                                    else f"line {got!r}, expected {line!r}")
    if len(lines) > len(want):
        checks["selftest[extra]"] = f"{len(lines) - len(want)} unexpected lines"
    checks["selftest"] = (None if isinstance(out, tuple) and out[0] is True
                          else "selftest did not report all passed")
    return checks


CHECKS = {
    "jacobi_sparse20": check_jacobi_sparse20,
    "jacobi_dense16": check_jacobi_dense16,
    "det_expansion": check_det_expansion,
    "rb_search": check_rb_search,
    "selftest_pool": check_selftest_pool,
}


def check_pass(workload, ops, inp, expected):
    """Returns {operation label: None if correct, else the reason}."""
    checks = CHECKS[workload](ops.outputs, inp, expected)
    for label, tb in ops.errors.items():
        checks[label] = "raised: " + tb.strip().splitlines()[-1]
    recorded = expected["outputs"].get(workload, {}).get(input_key(inp))
    if recorded is not None:
        for label, want in recorded.items():
            out = ops.outputs.get(label)
            got = None if out is None else digest(out)
            if got != want and checks.get(label) is None:
                checks[label] = f"output digest {got}, recorded {want}"
    return checks


def input_key(inp) -> str:
    """Identifies a pass's input documents in ``expected.json``."""
    text = json.dumps(inp["docs"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
