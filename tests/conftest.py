"""Fixtures shared by the test modules."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from hergmkit import rng


@pytest.fixture
def pools(monkeypatch, tmp_path):
    """A function listing the worker counts of the process pools that
    ``rng.parallel_map`` started, in this process or in any forked worker."""
    log = tmp_path / "pools.log"

    class Recorded(ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{max_workers}\n")
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(rng, "ProcessPoolExecutor", Recorded)
    return lambda: [int(v) for v in log.read_text().split()] if log.exists() else []
