"""Deterministic seed derivation and the one ordered parallel map.

Every stochastic routine takes a master seed; nested work units (cluster
chains, replications, simulation draws) get child generators derived from
(master seed, path), so results are reproducible regardless of execution
order or thread count.  String path elements are hashed with crc32 to keep
derived keys stable across runs and platforms.

``parallel_map`` runs such units, and returns their results in task order,
in a pool of worker processes only when the pool can pay for itself:
``threads > 1``, at least two tasks, and an estimated ``visits`` of at least
``POOL_MIN_VISITS``.  Work is counted in dyad visits, C(n_k, 2) per sweep of
each ERGM block, an MPLE fit counting as a fifth of a sweep; Bernoulli blocks
count none.  Workers are forked where the platform can fork.  Library calls
default to ``threads=1`` and so never start a pool, which keeps pools from
nesting inside the workers of another.
"""

from __future__ import annotations

import math
import multiprocessing
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = ["child_rng", "child_seed", "parallel_map"]

# Serial against a pool of 2 on a 2-vCPU VM, medians of 9 alternating calls,
# a Gibbs update on the fig3 chains taking 2.4-2.9 us: the fig3 model's
# 3 x 20-node chains took 32 against 31 ms at 11,970 dyad visits and 67
# against 47 ms at 23,370; MCMLE fits of the fig3 graph, most of them
# ending on their first full-size sample, 63 against 80 ms at 10,260
# estimated visits, 127 against 122 ms at 20,520 and 142 against 114 ms at
# 30,780 (medians of 15; at these sizes the walk takes a fit to 1.5-1.8
# times its estimate of burn-in and full-size sample).  MPLE fits of 4
# blocks at density 0.15 (fig3 spec, BLAS at one thread), whose design is
# dense algebra: 26-27 against 53-55 ms at 79,600 dyads (4 x 200 nodes),
# 64-69 against 67-110 at 179,400, 93-126 against 78-106 at 244,300,
# 119-175 against 98-139 at 319,200 and 741 against 553-564 at 1,278,400
# (4 x 800); whole ``fit twostage`` runs (medians of 5) took 0.33 against
# 0.37 s at 216,780 dyads and 0.44 against 0.40 s at 319,200.  A fifth of a
# visit a dyad puts the threshold at 250,000 dyads, inside that crossover.
# With BLAS at two threads a serial fit already keeps both vCPUs busy, and
# the pool lost at every size: whole runs 0.45 against 0.65 s at 319,200
# dyads and 1.14 against 1.36 s at 4 x 800.  While the VM ran two busy
# processes no faster than one, the chains found no crossover up to 91,770
# visits.  The threshold sits above the chains' crossovers because the toy
# fig3 fit of perfbench/test_smoke.py (46,740 visits) must stay serial:
# that test counts sampler and fit calls in its own process only.
POOL_MIN_VISITS = 50_000
# Workers are forked where the platform can: they start with the parent's
# modules loaded, where a spawned or forkserver worker (Python 3.14's default
# on Linux) imports numpy and hergmkit again, which cost the fig3 GOF draws
# 536-643 ms in a pool of 2 against 356-577 ms serially.  Under fork the
# executor starts every worker before its own manager thread, and hergmkit
# starts no thread of its own.
_FORK = (multiprocessing.get_context("fork")
         if "fork" in multiprocessing.get_all_start_methods() else None)


def _key(path) -> tuple[int, ...]:
    out = []
    for p in path:
        if isinstance(p, str):
            out.append(zlib.crc32(p.encode("utf-8")))
        else:
            out.append(int(p))
    return tuple(out)


def child_seed(master: int, *path) -> np.random.SeedSequence:
    return np.random.SeedSequence(int(master), spawn_key=_key(path))


def child_rng(master: int, *path) -> np.random.Generator:
    """Generator for the work unit identified by (master, *path)."""
    return np.random.default_rng(child_seed(master, *path))


def parallel_map(fn, tasks, threads: int = 1, visits: float = math.inf) -> list:
    """``[fn(t) for t in tasks]``, in a pool of at most ``threads`` worker
    processes when the rule of the module docstring allows one.

    ``visits`` is the work's estimate in dyad visits; without one the work
    counts as large enough.  ``fn`` and each task must pickle.
    """
    tasks = list(tasks)
    if threads < 2 or len(tasks) < 2 or visits < POOL_MIN_VISITS:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks)), mp_context=_FORK) as pool:
        return list(pool.map(fn, tasks, chunksize=1))
