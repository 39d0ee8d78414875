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
count none.  ``threads`` is the CPUs the work may use, and the pool holds
``min(threads, tasks)`` workers, except when ``threads`` covers every CPU of
the process's affinity mask (``cores()``) and there are fewer than
``2 * threads`` tasks: then it holds one worker per task, and the kernel
shares the CPUs among them until the last task ends, where a worker per CPU
would leave CPUs idle through the last round of tasks.  So a smaller
``threads`` never runs on more CPUs than it names, and no pool holds
``2 * threads`` workers or more.  Workers are forked where the platform can
fork, and the pool modules load only when a pool starts.  Library calls
default to ``threads=1`` and so never start a pool, which keeps pools from
nesting inside the workers of another.
"""

from __future__ import annotations

import math
import os
import zlib

import numpy as np

__all__ = ["child_rng", "child_seed", "cores", "parallel_map", "pool_workers"]

# Serial against a pool on a 2-vCPU VM, in-process medians of alternating
# calls.  The fig3 model's 3 x 20-node chains at threads 2, in a worker each
# (two rounds of 15 calls, one at 182,970): 31-46 against 39-41 ms at 11,970
# dyad visits, 79-82 against 58-60 ms at 23,370, 124-126 against 84-92 ms at
# 46,170, 223-307 against 146-198 ms at 91,770 and 444 against 283 ms at
# 182,970; two workers took 36-38, 58-59, 91-93, 165-194 and 324 ms.  MCMLE
# fits of the fig3 graph in a pool of 2, most of them ending on their first
# full-size sample, 63 against 80 ms at 10,260 estimated visits, 127 against
# 122 ms at 20,520 and 142 against 114 ms at 30,780 (medians of 15; at these
# sizes the walk takes a fit to 1.5-1.8 times its estimate of burn-in and
# full-size sample).  MPLE fits of 4 blocks at density 0.15 (fig3 spec, BLAS
# at one thread, a pool of 2), whose design is dense algebra: 26-27 against
# 53-55 ms at 79,600 dyads (4 x 200 nodes), 64-69 against 67-110 at 179,400,
# 93-126 against 78-106 at 244,300, 119-175 against 98-139 at 319,200 and 741
# against 553-564 at 1,278,400 (4 x 800); whole ``fit twostage`` runs
# (medians of 5) took 0.33 against 0.37 s at 216,780 dyads and 0.44 against
# 0.40 s at 319,200.  A fifth of a visit a dyad puts the threshold at 250,000
# dyads, inside that crossover.  With BLAS at two threads a serial fit
# already keeps both vCPUs busy, and the pool lost at every size: whole runs
# 0.45 against 0.65 s at 319,200 dyads and 1.14 against 1.36 s at 4 x 800,
# and at 3 x 450 nodes (303,075 dyads, medians of 7) 0.19 s serial against
# 0.31 s in two workers and 0.40 s in three (0.20, 0.17 and 0.18 s with BLAS
# at one thread).  While the VM ran two busy processes no faster than one,
# the chains found no crossover up to 91,770 visits.  The threshold sits
# above the chains' crossovers because the toy fig3 fit of
# perfbench/test_smoke.py (46,740 visits) must stay serial: that test counts
# sampler and fit calls in its own process only.
POOL_MIN_VISITS = 50_000


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


def cores() -> int:
    """The CPUs this process may run on, where the platform says."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_workers(n_tasks: int, threads: int, visits: float, n_cores: int) -> int:
    """The worker processes of ``parallel_map``'s pool for ``n_tasks`` tasks
    of ``visits`` dyad visits in all, by the rule of the module docstring, on a
    process that may run on ``n_cores`` CPUs; 1 runs the tasks in this
    process."""
    if threads < 2 or n_tasks < 2 or visits < POOL_MIN_VISITS:
        return 1
    if threads >= n_cores and n_tasks < 2 * threads:
        return n_tasks
    return min(threads, n_tasks)


def parallel_map(fn, tasks, threads: int = 1, visits: float = math.inf) -> list:
    """``[fn(t) for t in tasks]``, in a pool of ``pool_workers`` worker
    processes when the rule of the module docstring allows one.

    ``visits`` is the work's estimate in dyad visits; without one the work
    counts as large enough.  ``fn`` and each task must pickle.
    """
    tasks = list(tasks)
    workers = pool_workers(len(tasks), threads, visits, cores())
    if workers == 1:
        return [fn(t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Workers are forked where the platform can: they start with the
    # parent's modules loaded, where a spawned or forkserver worker (Python
    # 3.14's default on Linux) imports numpy and hergmkit again, which cost
    # the fig3 GOF draws 536-643 ms in a pool of 2 against 356-577 ms
    # serially.  Under fork the executor starts every worker before its own
    # manager thread, and hergmkit starts no thread of its own.
    fork = (multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods() else None)
    with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
        return list(pool.map(fn, tasks, chunksize=1))
