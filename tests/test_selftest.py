import json
from pathlib import Path

from algcheck import selftest
from algcheck.operators import check_duality
from algcheck.selftest import run_selftest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_process_pool_gives_the_single_worker_lines(monkeypatch):
    monkeypatch.delenv("ALGCHECK_WORKERS", raising=False)
    serial = run_selftest(workers=1)
    assert serial[0] and len(serial[1]) == 125
    assert run_selftest(workers=2) == serial
    monkeypatch.setenv("ALGCHECK_WORKERS", "2")
    assert run_selftest() == serial


def test_pool_has_at_most_one_worker_per_job(monkeypatch):
    # a stand-in executor that maps serially and starts no process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    jobs = [(selftest._roundtrip_task, name) for name in ("q3", "a4", "q4")]
    monkeypatch.setattr(selftest, "tasks", lambda: jobs)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    serial = run_selftest(workers=1)
    assert sizes == []
    assert run_selftest(workers=5000) == serial
    assert run_selftest(workers=2) == serial
    assert sizes == [3, 2]


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
