import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algcheck import selftest
from algcheck.operators import check_duality
from algcheck.reports import InternalConsistencyError
from algcheck.selftest import run_selftest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"


def test_process_pool_gives_the_single_worker_lines(monkeypatch):
    monkeypatch.delenv("ALGCHECK_WORKERS", raising=False)
    serial = run_selftest(workers=1)
    assert serial[0] and len(serial[1]) == 125
    assert run_selftest(workers=2) == serial
    monkeypatch.setenv("ALGCHECK_WORKERS", "2")
    assert run_selftest() == serial


def test_pool_has_at_most_one_worker_per_job(monkeypatch):
    # real forks, counted; a fork beyond one per job raises before it
    # starts a process, so a broken cap cannot start thousands of them
    jobs = [(selftest._roundtrip_task, name) for name in ("q3", "a4", "q4")]
    monkeypatch.setattr(selftest, "tasks", lambda: jobs)
    real_fork, forks = os.fork, [0]

    def counted_fork():
        if forks[0] >= len(jobs):
            raise AssertionError("more pool workers than jobs")
        forks[0] += 1
        return real_fork()

    monkeypatch.setattr(selftest.os, "fork", counted_fork)
    serial = run_selftest(workers=1)
    assert forks == [0]
    sizes = []
    for workers in (5000, 2):
        forks[0] = 0
        assert run_selftest(workers=workers) == serial
        sizes.append(forks[0])
    assert sizes == [3, 2]


def _assert_every_worker_reaped():
    with pytest.raises(ChildProcessError):  # no child left to wait for
        os.waitpid(-1, os.WNOHANG)


def test_a_task_error_reaches_the_caller_after_every_worker_left(monkeypatch):
    def broken(name):
        raise InternalConsistencyError(f"theorem failed on {name}")

    jobs = [(selftest._roundtrip_task, "q3"), (broken, "a4"),
            (selftest._roundtrip_task, "q4")]
    monkeypatch.setattr(selftest, "tasks", lambda: jobs)
    with pytest.raises(InternalConsistencyError) as err:
        run_selftest(workers=2)
    assert type(err.value) is InternalConsistencyError
    assert str(err.value) == "theorem failed on a4"
    _assert_every_worker_reaped()


def test_a_worker_that_leaves_no_result_is_named_with_its_status(monkeypatch):
    def leave(name):
        os._exit(7)

    jobs = [(leave, "q3"), (selftest._roundtrip_task, "a4")]
    monkeypatch.setattr(selftest, "tasks", lambda: jobs)
    with pytest.raises(RuntimeError, match=r"selftest worker \d+ left no "
                       r"result: exit status 7$"):
        run_selftest(workers=2)
    _assert_every_worker_reaped()


def test_an_error_that_cannot_be_pickled_is_a_worker_with_no_result(
        monkeypatch):
    def broken(name):
        exc = InternalConsistencyError(name)
        exc.hook = lambda: None  # a lambda does not pickle
        raise exc

    monkeypatch.setattr(selftest, "tasks", lambda: [(broken, "q3")])
    with pytest.raises(RuntimeError, match="left no result: exit status 1$"):
        run_selftest(workers=2)
    _assert_every_worker_reaped()


def test_a_failed_fork_reaps_the_workers_already_started(monkeypatch):
    jobs = [(selftest._roundtrip_task, name) for name in ("q3", "a4", "q4")]
    monkeypatch.setattr(selftest, "tasks", lambda: jobs)
    real_fork, forks = os.fork, [0]

    def fork_once():
        forks[0] += 1
        if forks[0] > 1:
            raise OSError("no more processes")
        return real_fork()

    monkeypatch.setattr(selftest.os, "fork", fork_once)
    with pytest.raises(OSError, match="no more processes"):
        run_selftest(workers=3)
    _assert_every_worker_reaped()


def test_workers_never_flush_the_parents_buffered_output():
    # stdout on a pipe is block-buffered: a line printed before the pool
    # is still in the buffer when the workers are forked
    code = """
from algcheck.selftest import run_selftest
print("before the pool")
ok, lines = run_selftest(workers=2)
print(ok, len(lines))
"""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["before the pool", "True 125"]


def test_task_names_are_the_task_metrics_of_the_benchmark():
    # the traced selftest of perfbench names each task "theorems.q4" from
    # (_theorems_task, "q4") and stops unless it records every
    # selftest.task.<name>.s metric that BENCHMARK.json lists, and no other
    prefix, suffix = "selftest.task.", ".s"
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    listed = [m["name"][len(prefix):-len(suffix)] for m in metrics
              if m["name"].startswith(prefix)]
    names = [f"{fn.__name__.strip('_').removesuffix('_task')}.{arg}"
             for fn, arg in selftest.tasks()]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(listed)


def test_theorems_task_runs_each_duality_once(monkeypatch):
    # a4 claims D Rota-Baxter and a derivation at weight 0: one duality
    # check covers both claims, and both claims still print their line
    calls = []

    def counted(t, p, lam):
        calls.append((p, lam))
        return check_duality(t, p, lam)

    monkeypatch.setattr(selftest, "check_duality", counted)
    labels = [label for label, passed in selftest._theorems_task("a4")
              if passed]
    assert len(calls) == 1
    assert labels.count("a4:duality(D)") == 2
