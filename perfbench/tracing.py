"""Layer tracing from outside the package.

``Tracer.install`` replaces the public functions of each layer by timing
wrappers.  A name bound with ``from ... import`` is a separate binding in
every importing module, so each wrapper is bound wherever the original
object is, in every ``algcheck`` module; methods are replaced on their class.

Entry points (parsing, constructions, the Jacobi scan, search, inheritance,
selftest tasks) record a span each: name, start, end, parent and self time.
The per-tuple hot functions only add to per-name counters, so memory stays
bounded however many tuples a scan visits.  Every wrapped call, span or not,
charges its duration to its caller, so each name's time is self time: its
duration minus the time spent in other wrapped calls below it.

Selftest tasks run in forked pool workers, which inherit the wrappers.  A
worker starts each task from empty counters and appends the task's counters
and spans to a file in the output directory; the parent merges those after
the pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from algcheck import (axioms, constructions, files, inheritance, linalg,
                      operators, scalars, selftest, tensor)

search = importlib.import_module("algcheck.search")

HOT = (
    ("tensor.basis_product", tensor.StructureTensor, "basis_product"),
    ("tensor.evaluate", tensor.StructureTensor, "evaluate"),
    ("tensor.construct", tensor.StructureTensor, "__post_init__"),
    ("operators.check_rota_baxter", operators, "check_rota_baxter"),
    ("operators.subset_expansion", operators, "subset_expansion"),
    ("linalg.LinearMap.call", linalg.LinearMap, "__call__"),
    ("linalg.nullspace", linalg, "nullspace"),
    ("scalars.norm", scalars, "norm"),
)

SPANS = (
    ("files.loads", files, "loads"),
    ("axioms.check_n_jacobi", axioms, "check_n_jacobi"),
    ("constructions.det_bracket_3", constructions, "det_bracket_3"),
    ("constructions.f_bracket", constructions, "f_bracket"),
    ("constructions.det_rb_expansion_check", constructions,
     "det_rb_expansion_check"),
    ("search.search", search, "search"),
    ("selftest.run_selftest", selftest, "run_selftest"),
) + tuple((f"inheritance.{name}", inheritance, name) for name in (
    "derived_nbracket", "check_derivation_transfer", "cor53_bracket",
    "cor54_bracket", "cor54_bracket_literal", "cor55_bracket",
    "naive_bracket", "lts_from_lie", "check_rb_lts_transfer",
    "derived_lts_bracket"))


def task_name(fn, arg) -> str:
    """``_theorems_task`` on ``q4`` -> ``theorems.q4``."""
    return f"{fn.__name__.strip('_').removesuffix('_task')}.{arg}"


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self._patched = []  # (owner, attribute, original)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)
        self.spans = []  # (id, parent id, name, start, end, self seconds)
        self._stack = []  # per open call: [child seconds, span id]
        self._open_spans = []  # names of the open spans, innermost last
        self.reset()

    def reset(self):
        """Empty every counter in place: the wrappers hold references."""
        for box in (self.calls, self.self_s, self.extra, self.spans,
                    self._stack, self._open_spans):
            box.clear()
        self._stack.append([0.0, None])

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, span):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        spans, open_spans = self.spans, self._open_spans
        observe = {"tensor.basis_product": self._zero,
                   "operators.check_rota_baxter": self._rb,
                   "files.loads": self._bytes}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if span:
                frame[1] = len(spans)
                spans.append(None)
                open_spans.append(name)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stack[-1][0] += t1 - t0
                calls[name] += 1
                self_s[name] += t1 - t0 - frame[0]
                if span:
                    open_spans.pop()
                    parent = next((f[1] for f in reversed(stack)
                                   if f[1] is not None), None)
                    spans[frame[1]] = (frame[1], parent, name, t0, t1,
                                       t1 - t0 - frame[0])
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _zero(self, args, result):
        if not any(result):
            self.extra["tensor.basis_product.zero"] += 1

    def _rb(self, args, result):
        self.extra["operators.check_rota_baxter.passed"] += result.passed
        if self._open_spans and self._open_spans[-1] == "search.search":
            self.extra["search.candidates"] += 1
            self.extra["search.hits"] += result.passed

    def _bytes(self, args, result):
        self.extra["files.loads.bytes"] += len(args[0].encode())

    def _task_runner(self, run):
        @functools.wraps(run)
        def run_task(job):
            in_worker = os.getpid() != self.pid
            if in_worker:
                self.reset()
            name = f"selftest.task.{task_name(*job)}"
            out = self._wrap(name, run, True)(job)
            if in_worker:
                record = {"calls": self.calls, "self_s": self.self_s,
                          "extra": self.extra, "spans": self.spans}
                path = self.out_dir / f"tasks-{self.pid}-{os.getpid()}.jsonl"
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
            return out

        return run_task

    # -- installation -------------------------------------------------------

    def _bind(self, original, wrapper, owner, attr):
        """Bind ``wrapper`` wherever ``original`` is bound."""
        if isinstance(owner, type):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "algcheck" and not mod_name.startswith("algcheck."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        for name, owner, attr in HOT:
            original = getattr(owner, attr)
            self._bind(original, self._wrap(name, original, False), owner, attr)
        for name, owner, attr in SPANS:
            original = getattr(owner, attr)
            self._bind(original, self._wrap(name, original, True), owner, attr)
        original = selftest._run
        self._bind(original, self._task_runner(original), selftest, "_run")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- worker records -----------------------------------------------------

    def collect_workers(self):
        """Merge the records pool workers wrote during the last pass; their
        task spans become children of the last ``run_selftest`` span."""
        root = next((sp[0] for sp in reversed(self.spans)
                     if sp[2] == "selftest.run_selftest"), None)
        for path in sorted(self.out_dir.glob(f"tasks-{self.pid}-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            path.unlink()
            for rec in records:
                for key, n in rec["calls"].items():
                    self.calls[key] += n
                for key, sec in rec["self_s"].items():
                    self.self_s[key] += sec
                for key, n in rec["extra"].items():
                    self.extra[key] += n
                offset = len(self.spans)
                for sid, parent, *rest in rec["spans"]:
                    self.spans.append((offset + sid, root if parent is None
                                       else offset + parent, *rest))


def share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tr: Tracer, run_s: float, workers: int, task_names) -> dict:
    """Per-layer metrics of one traced pass, by the names in BENCHMARK.json."""
    c, s, x = tr.calls, tr.self_s, tr.extra
    m = {}
    for name in ("tensor.basis_product", "tensor.evaluate", "tensor.construct",
                 "operators.check_rota_baxter", "operators.subset_expansion",
                 "linalg.LinearMap.call", "linalg.nullspace", "scalars.norm"):
        m[f"{name}.calls"] = c[name]
        m[f"{name}.s"] = s[name]
    m["tensor.basis_product.zero_share"] = share(
        x["tensor.basis_product.zero"], c["tensor.basis_product"])
    m["operators.check_rota_baxter.pass_share"] = share(
        x["operators.check_rota_baxter.passed"], c["operators.check_rota_baxter"])
    for name in ("axioms.check_n_jacobi", "constructions.det_rb_expansion_check",
                 "constructions.det_bracket_3", "constructions.f_bracket",
                 "search.search", "files.loads"):
        m[f"{name}.s"] = s[name]
    m["inheritance.s"] = sum((v for k, v in s.items()
                              if k.startswith("inheritance.")), 0.0)
    m["search.candidates"] = x["search.candidates"]
    m["search.hit_ratio"] = share(x["search.hits"], x["search.candidates"])
    m["files.loads.bytes"] = x["files.loads.bytes"]
    durations = task_durations(tr)
    for name in task_names:
        m[f"selftest.task.{name}.s"] = durations.get(name, 0.0)
    busy = sum(durations.values())
    m["selftest.busy_s"] = busy
    m["selftest.critical_path_s"] = max(durations.values(), default=0.0)
    m["selftest.pool_efficiency"] = share(busy, workers * run_s)
    return m


def task_durations(tr: Tracer) -> dict:
    prefix = "selftest.task."
    return {name[len(prefix):]: end - start
            for _, _, name, start, end, _ in tr.spans if name.startswith(prefix)}
