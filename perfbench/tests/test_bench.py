"""Tests of the benchmark itself: its inputs, its checks and its tracer.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import cProfile
import itertools
import json
import multiprocessing
import pstats
import random
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hostspeed
import inputs
import run
import tracing
import workloads
from algcheck import axioms, files, linalg, operators, scalars
from algcheck.reports import CheckReport, Counterexample

from conftest import BENCH

ROOT = BENCH.parent
EXPECTED = json.loads((BENCH / "expected.json").read_text())


def small_fbracket_case(seed):
    """gl(3) with its trace form under a seeded rational change of basis."""
    rng = random.Random(seed)
    s = inputs.BasisChange.seeded(rng, 9, rational=True)
    lie = inputs.gl_bracket(3)
    fb = s.tensor(inputs.f_bracket(lie, inputs.trace_form(3), 9), "skew")
    return s, lie, fb, rng


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    gen = inputs.GENERATORS[workload]
    for k in range(inputs.VARIANTS.get(workload, 1)):
        assert gen(7, k)["docs"] == gen(7, k)["docs"]
    if workload in ("jacobi_sparse20", "jacobi_dense16", "det_expansion"):
        assert gen(7)["docs"] != gen(8)["docs"]


def test_rb_search_inputs_cover_every_sign_pattern():
    docs = {inputs.rb_search(5, k)["docs"]["algebra"] for k in range(8)}
    assert len(docs) == 8


def test_relabelled_small_instances_keep_their_verdicts():
    for seed in range(3):
        s, lie, fb, _ = small_fbracket_case(seed)
        text = inputs.document("gl3", 9, products={
            "bracket": (2, "skew", s.tensor(lie, "skew")),
            "fbracket": (3, "skew", fb)})
        alg = files.loads(text)
        assert axioms.check_lie(alg.products["bracket"]).passed
        assert axioms.check_n_jacobi(alg.products["fbracket"]).passed

        q = inputs.BasisChange.seeded(random.Random(seed), 3, rational=False)
        alg = files.loads(inputs.document(
            "q3", 3, products={"prod": (2, "symmetric",
                                        q.tensor(inputs.componentwise(3),
                                                 "symmetric"))},
            maps={"P": q.linear_map(inputs.running_sum(3))}))
        assert operators.check_rota_baxter(
            alg.products["prod"], alg.maps["P"], 1).passed


def test_perturbed_bracket_fails_and_its_counterexample_checks_out():
    s, lie, fb, rng = small_fbracket_case(11)
    broken = inputs.perturb(fb, 9, rng)
    t = files.loads(inputs.document("p", 9, products={
        "fbracket": (3, "skew", broken)})).products["fbracket"]
    rep = axioms.check_n_jacobi(t)
    assert not rep.passed
    assert workloads._counterexample(rep, t) is None
    ce = rep.counterexample
    forged = CheckReport(rep.identity_name, False, rep.checked_count,
                         Counterexample(ce.indices, ce.rhs, ce.lhs))
    assert workloads._counterexample(forged, t) is not None


def test_basis_change_round_trips_maps():
    s = inputs.BasisChange.seeded(random.Random(3), 4, rational=True)
    cols = [tuple(random.Random(i).randint(-2, 2) for _ in range(4))
            for i in range(4)]
    assert s.unmap(s.linear_map(cols)) == cols


def test_recorded_q3_operators_are_all_weight1_rota_baxter_operators():
    """Enumerates the grid without the package: on the componentwise q3,
    P(e_i)P(e_j) = P(P(e_i)e_j + e_iP(e_j) + e_ie_j) for all i, j."""
    found = set()
    for flat in itertools.product((-1, 0, 1), repeat=9):
        m = [flat[3 * j:3 * j + 3] for j in range(3)]  # m[j] = P(e_j)

        def ok(i, j):
            inner = [0, 0, 0]
            inner[j] += m[i][j]
            inner[i] += m[j][i] + (i == j)
            rhs = [sum(m[c][k] * inner[c] for c in range(3)) for k in range(3)]
            return all(m[i][k] * m[j][k] == rhs[k] for k in range(3))

        if all(ok(i, j) for i in range(3) for j in range(3)):
            found.add(tuple(tuple(str(a) for a in col) for col in m))
    recorded = {tuple(tuple(c) for c in m) for m in EXPECTED["q3_rb_weight1"]}
    assert len(found) == 128 and recorded == found


@pytest.fixture(scope="module")
def rb_pass():
    inp = inputs.rb_search(2, 0)
    ops = workloads.Ops()
    workloads.pass_rb_search(ops, inp)
    return inp, ops


def test_reference_outputs_pass_their_checks(rb_pass):
    inp, ops = rb_pass
    assert workloads.input_key(inp) in EXPECTED["outputs"]["rb_search"]
    checks = workloads.check_pass("rb_search", ops, inp, EXPECTED)
    assert checks and all(v is None for v in checks.values()), checks


def test_corrupted_expected_output_counts_as_failed_operation(rb_pass):
    inp, ops = rb_pass
    key = workloads.input_key(inp)
    corrupted = json.loads(json.dumps(EXPECTED))
    corrupted["outputs"]["rb_search"][key]["search"] = "0" * 16
    runner = run.Runner("rb_search", 2, corrupted)
    runner.check(0, ops)
    assert runner.attempted == 2 and runner.failed == 1
    assert "search" in runner.failures[0]

    corrupted = json.loads(json.dumps(EXPECTED))
    corrupted["q3_rb_weight1"] = corrupted["q3_rb_weight1"][1:]
    checks = workloads.check_pass("rb_search", ops, inp, corrupted)
    assert checks["search"] is not None


def test_wrong_verdict_and_raised_operation_are_failures():
    inp = inputs.det_expansion(0)
    ops = workloads.Ops()
    ops.outputs["loads"] = files.loads(inp["docs"]["algebra"])
    ops.outputs["det_rb_expansion"] = CheckReport(
        "determinant-rb-expansion", True, 4 ** 9 - 1)
    checks = workloads.check_pass("det_expansion", ops, inp, EXPECTED)
    assert checks["det_rb_expansion"] is not None
    ops = workloads.Ops()
    assert ops.run("boom", lambda: 1 / 0) is None
    checks = workloads.check_pass("det_expansion", ops, inp, EXPECTED)
    assert checks["boom"].startswith("raised")
    assert checks["loads"] is not None


def test_selftest_line_mismatch_is_one_failure_per_line():
    lines = list(EXPECTED["selftest_lines"])
    lines[3] = lines[3].replace("PASS", "FAIL")
    ops = workloads.Ops()
    ops.outputs["selftest"] = (False, lines)
    checks = workloads.check_pass("selftest_pool", ops, {"docs": {}}, EXPECTED)
    bad = {k for k, v in checks.items() if v is not None}
    assert bad == {"selftest[3]", "selftest"}


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path):
    original = scalars.norm
    assert linalg.norm is original and operators.norm is original
    with tracing.Tracer(tmp_path):
        assert scalars.norm is not original
        assert linalg.norm is scalars.norm and operators.norm is scalars.norm
    assert scalars.norm is original and linalg.norm is original


def _traced_counts(tmp_path, inp):
    tracer = tracing.Tracer(tmp_path)
    with tracer:
        workloads.pass_rb_search(workloads.Ops(), inp)
    return dict(tracer.calls), dict(tracer.extra)


def test_traced_counts_repeat_and_match_cprofile(tmp_path, rb_pass):
    inp, _ = rb_pass
    first = _traced_counts(tmp_path, inp)
    assert first == _traced_counts(tmp_path, inp)
    profiler = cProfile.Profile()
    profiler.runcall(workloads.pass_rb_search, workloads.Ops(), inp)
    stats = pstats.Stats(profiler).stats
    by_code = {key: calls for key, (_, calls, *_) in stats.items()}
    for name, owner, attr in tracing.HOT + tracing.SPANS:
        code = getattr(owner, attr).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        assert by_code.get(key, 0) == first[0].get(name, 0), name


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_speed_sampler_scales_wall_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as s:
        _spin(3.5 * hostspeed.INTERVAL)
    assert signal.getsignal(signal.SIGALRM) is before
    assert s.samples >= 4  # at start, at end and at least two ticks
    assert 0 < s.busy_s < s.wall_s
    assert s.speed > 0
    assert s.scaled_s == pytest.approx((s.wall_s - s.busy_s) * s.speed)


def test_host_speed_sampler_weighs_in_forked_workers():
    ctx = multiprocessing.get_context("fork")
    with hostspeed.Sampler() as s:
        child = ctx.Process(target=_spin, args=(5 * hostspeed.INTERVAL,))
        child.start()
        child.join()
    assert child.exitcode == 0
    main_s, child_s = s.weight_s
    # the child's spinning counts; the main process only waited
    assert child_s > 3 * hostspeed.INTERVAL > main_s


def test_benchmark_json_follows_its_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in bench["workloads"]} <= set(inputs.GENERATORS)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rb_search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
