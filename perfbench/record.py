"""Record the reference outputs in ``expected.json``.

    python3 perfbench/record.py [--seeds 0-10]

Runs one untraced pass of every workload on each seed (for ``rb_search``,
on each of its eight inputs) and stores a digest of every operation's
output, keyed by the digest of the input documents.  It also stores the
weight-1 Rota-Baxter operators of q3 in its catalog basis and the selftest
lines, which the checks of every seed compare against.  Nothing is recorded
unless every output passes the independent checks first, so a recording
cannot enshrine a wrong answer that those checks would catch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-10"))
    args = parser.parse_args(argv)

    ops = workloads.Ops()
    workloads.pass_selftest_pool(ops, {})
    _, lines = ops.outputs["selftest"]
    base = {"docs": {"algebra": inputs.document("q3", 3, products={
        "prod": (2, "symmetric", inputs.componentwise(3))})}}
    ops = workloads.Ops()
    workloads.pass_rb_search(ops, base)
    expected = {
        "q3_rb_weight1": sorted([[inputs.fmt(a) for a in col]
                                 for col in r.found.cols]
                                for r in ops.outputs["search"]),
        "selftest_lines": lines,
        "outputs": {},
    }
    for workload, generate in inputs.GENERATORS.items():
        recorded = expected["outputs"][workload] = {}
        for seed in args.seeds:
            for k in range(inputs.VARIANTS.get(workload, 1)):
                inp = generate(seed, k)
                key = workloads.input_key(inp)
                if key in recorded:
                    continue
                ops = workloads.Ops()
                workloads.PASSES[workload](ops, inp)
                bad = {label: reason for label, reason in workloads.check_pass(
                    workload, ops, inp, {**expected, "outputs": {}}).items()
                       if reason is not None}
                if bad:
                    sys.exit(f"{workload} seed {seed} pass {k}: refusing to "
                             f"record failing outputs: {bad}")
                recorded[key] = {label: workloads.digest(out)
                                 for label, out in ops.outputs.items()}
                print(workload, seed, k, key, flush=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
