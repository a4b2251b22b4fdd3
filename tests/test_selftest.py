from algcheck.selftest import run_selftest


def test_process_pool_gives_the_single_worker_lines(monkeypatch):
    monkeypatch.delenv("ALGCHECK_WORKERS", raising=False)
    serial = run_selftest(workers=1)
    assert serial[0] and len(serial[1]) == 125
    assert run_selftest(workers=2) == serial
    monkeypatch.setenv("ALGCHECK_WORKERS", "2")
    assert run_selftest() == serial
