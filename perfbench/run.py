"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs timed passes of it against
the package in ``src/`` for about ``S`` seconds, checks every output, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are
the per-layer ones, from one traced pass after one untraced pass of the same
input.  Timed passes and set-up run under ``hostspeed.Sampler``, so
``run_s`` and ``setup_s`` are wall times scaled to a reference host speed.
Machine and input facts, pass-time quartiles, the sample count and the raw
wall time go to the lines before it; everything, spans included, also goes
to a file in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up samples, taken half before and half after the passes so that their
# median spans the run, as the pass times do.
SETUP_RUNS = 8

# Runs in a fresh interpreter: import plus the first catalog() call, each
# scaled to the reference host speed (see hostspeed.py).
SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
from hostspeed import Sampler
with Sampler() as imp:
    import algcheck
with Sampler() as cat:
    algcheck.catalog()
print(imp.scaled_s, cat.scaled_s, imp.wall_s + cat.wall_s)
"""


def measure_setup():
    """(import seconds, catalog seconds, wall seconds) in a fresh process;
    the first two are scaled to the reference host speed."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE),
                           str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return tuple(map(float, proc.stdout.split()))


def machine_facts(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "git": git_hash(),
            "src_sha256": source_digest(), "seed": seed}


def git_hash():
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest():
    """Identifies the measured code where the checkout has no ``.git``."""
    h = hashlib.sha256()
    for path in sorted((SRC / "algcheck").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


class Runner:
    def __init__(self, workload, seed, expected):
        import inputs
        import workloads
        self.workload, self.seed, self.expected = workload, seed, expected
        self.generate = inputs.GENERATORS[workload]
        # a run covers every input variant of its seed (see inputs.py)
        self.min_passes = inputs.VARIANTS.get(workload, 1)
        self.wl = workloads
        self._inputs = {}
        self.attempted = self.failed = 0
        self.failures = []

    def inputs(self, k):
        key = k % self.min_passes
        if key not in self._inputs:
            self._inputs[key] = self.generate(self.seed, key)
        return self._inputs[key]

    def run_pass(self, k):
        """Time pass ``k``; returns its wall time and its outputs."""
        inp = self.inputs(k)
        ops = self.wl.Ops()
        t0 = time.perf_counter()
        self.wl.PASSES[self.workload](ops, inp)
        elapsed = time.perf_counter() - t0
        return elapsed, ops

    def check(self, k, ops):
        checks = self.wl.check_pass(self.workload, ops, self.inputs(k),
                                    self.expected)
        self.attempted += len(checks)
        for label, reason in checks.items():
            if reason is not None:
                self.failed += 1
                self.failures.append(f"pass {k} {label}: {reason}")

    def timed_passes(self, seconds):
        """Host-speed samplers of the passes run within ``seconds``."""
        samplers = []
        start = time.perf_counter()
        while True:
            with hostspeed.Sampler() as sampler:
                _, ops = self.run_pass(len(samplers))
            self.check(len(samplers), ops)
            samplers.append(sampler)
            spent = time.perf_counter() - start
            # whole cycles of the input variants, so that each run's median
            # is over the same inputs
            cycle = self.min_passes * statistics.median(
                s.wall_s for s in samplers)
            if (len(samplers) % self.min_passes == 0
                    and spent + cycle > seconds):
                return samplers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "algcheck" / "__init__.py").is_file():
        print(f"no algcheck package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import algcheck
    if Path(algcheck.__file__).resolve().parent != SRC / "algcheck":
        print(f"imported algcheck from {algcheck.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import inputs
    if args.workload not in inputs.GENERATORS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(inputs.GENERATORS)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    OUT.mkdir(exist_ok=True)

    setup = [measure_setup() for _ in range(SETUP_RUNS // 2)]
    runner = Runner(args.workload, args.seed, expected)
    facts = {"machine": machine_facts(args.seed),
             "inputs": runner.inputs(0)["facts"]}
    print("machine:", json.dumps(facts["machine"]))
    print("inputs:", json.dumps(facts["inputs"]))

    if args.trace:
        from tracing import Tracer, layer_metrics, task_durations
        untraced, ops = runner.run_pass(0)
        runner.check(0, ops)
        tracer = Tracer(OUT)
        with tracer:
            traced, ops = runner.run_pass(0)
        tracer.collect_workers()
        runner.check(0, ops)
        setup += [measure_setup() for _ in range(SETUP_RUNS - len(setup))]
        names = [m["name"] for m in bench["per_layer"]]
        tasks = [n[len("selftest.task."):-2] for n in names
                 if n.startswith("selftest.task.")]
        if args.workload == "selftest_pool" and (
                sorted(task_durations(tracer)) != sorted(tasks)):
            print("the traced selftest did not record every one of its tasks; "
                  "pool workers must be forked to inherit the tracer",
                  file=sys.stderr)
            return 1
        values = layer_metrics(tracer, traced, runner.wl.SELFTEST_WORKERS, tasks)
        values.update({
            "catalog.build_s": statistics.median(s[1] for s in setup),
            "setup.import_s": statistics.median(s[0] for s in setup),
            "trace.run_s": traced,
            "trace.untraced_run_s": untraced,
            "trace.overhead": traced / untraced,
        })
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
        detail = {"spans": tracer.spans, "calls": tracer.calls,
                  "self_s": tracer.self_s, "extra": tracer.extra}
        print(f"trace: traced pass {traced:.3f} s, untraced {untraced:.3f} s, "
              f"overhead x{traced / untraced:.2f}, {len(tracer.spans)} spans")
    else:
        samplers = runner.timed_passes(args.seconds)
        setup += [measure_setup() for _ in range(SETUP_RUNS - len(setup))]
        times = [s.scaled_s for s in samplers]
        walls = [s.wall_s for s in samplers]
        q1, med, q3 = quartiles(times)
        values = {"setup_s": statistics.median(i + c for i, c, _ in setup),
                  "run_s": med, "peak_rss_mb": peak_rss_mb()}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        detail = {"pass_s": times, "pass_wall_s": walls,
                  "pass_host_speed": [s.speed for s in samplers],
                  "run_s_quartiles": [q1, med, q3],
                  "setup_s_samples": [i + c for i, c, _ in setup],
                  "setup_wall_s_samples": [w for _, _, w in setup]}
        print(f"passes: n={len(times)} run_s median {med:.4f} "
              f"q1 {q1:.4f} q3 {q3:.4f} (scaled to the reference host "
              f"speed); wall median {statistics.median(walls):.4f}")

    for line in runner.failures[:20]:
        print("FAILED", line, file=sys.stderr)
    print(f"op_error_rate: {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4f}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, **facts, "result": result, **detail,
              "failures": runner.failures}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
