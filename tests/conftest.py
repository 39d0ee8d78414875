"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest

from hergmkit import rng


@pytest.fixture
def pools(monkeypatch, tmp_path):
    """A function listing the worker counts of the process pools that
    ``rng.parallel_map`` started, in this process or in any forked worker.

    The worker count depends on the CPUs the process may run on, so the
    fixture pins ``rng.cores`` to 4, where ``threads`` 2 and 3 do not cover
    them; a test of the other side patches it again."""
    log = tmp_path / "pools.log"

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{max_workers}\n")
            super().__init__(max_workers, **kw)

    # parallel_map imports the executor from the package when a pool starts
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr(rng, "cores", lambda: 4)
    return lambda: [int(v) for v in log.read_text().split()] if log.exists() else []
