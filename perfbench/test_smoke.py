"""Toy-size smoke test of the benchmark harness.

Runs one unit of each workload at toy sizes, plain and under the tracer, and
checks what the harness promises: the metric names match ``BENCHMARK.json``,
layer self times add up to the traced stage time, the command refuses to run
without the program, and ``experiment misrate`` writes identical rows for
``--threads 1`` and ``--threads 2``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

TOY = {
    "fig3_mcmle": wl.Fig3Sizes(sim_burnin=2, mc_samples=32, mc_burnin=10, gof_nsim=2,
                               gof_burnin=2),
    "misrate_cell": wl.MisrateSizes(n_per_cluster=8, lsm_burnin=20, lsm_samples=10,
                                    lsm_thin=1, sim_burnin=5),
    "large_mple": wl.LargeSizes(blocks=(25, 25, 25, 25), p_in=0.4),
}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def _in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_plain_and_traced(name, tmp_path):
    work = wl.WORKLOADS[name](7, str(tmp_path), TOY[name])
    plain = work.unit(0)
    checks = work.run_checks()
    tracer = Tracer()
    work.tracer = tracer
    traced = work.unit(0)
    for res in (plain, checks, traced):
        assert res.problems == [] and res.failed == 0
    assert plain.attempted == traced.attempted > 0
    assert traced.scores and all(0.0 <= h <= 1.0 for h in traced.scores.values())

    metrics = layer_metrics(tracer, 1)
    assert set(metrics) | {"trace.total_s", "trace.untraced_total_s", "trace.overhead_s",
                           "trace.outside_s"} == {m["name"] for m in _benchmark()["per_layer"]}
    # every second of the traced stages is some layer's self time
    assert metrics["trace.self_sum_s"] == pytest.approx(traced.total_raw_s, rel=1e-3)
    assert metrics["cli.main_s"] == pytest.approx(traced.total_raw_s, rel=1e-3)
    if name == "large_mple":
        assert metrics["sampler.gibbs_calls"] == 0 and metrics["fit.mple_calls"] == 4
    else:
        assert metrics["sampler.dyad_updates"] > 0 and metrics["stats.compute_calls"] > 0
    if name == "misrate_cell":
        assert metrics["lsm.iterations"] == 20 + 10 and metrics["experiments.replications"] == 1
    # counts come from arguments and results, so a second traced pass repeats them
    again = Tracer()
    work.tracer = again
    work.unit(0)
    second = layer_metrics(again, 1)
    for key in ("stats.compute_calls", "sampler.sweeps", "fit.mcmle_outer_iters",
                "lsm.iterations", "trace.spans"):
        assert second[key] == metrics[key]


def test_end_to_end_metrics(tmp_path):
    class Args:
        seconds = 0.0

    work = wl.LargeMple(3, str(tmp_path), TOY["large_mple"])
    results = []
    metrics, units, _ = run.end_to_end_run(work, Args, results)
    expected = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: u for k, (_, u) in metrics.items()} == expected
    assert len(units) == 1 and all(v > 0 for v, _ in metrics.values())
    assert metrics["ok_frac"][0] == 1.0


def test_dense_mple_matches_program():
    from hergmkit.graph import Graph
    from hergmkit.fit import mple
    from hergmkit.stats import parse_spec

    a, _ = wl.block_graph(np.random.default_rng(5), (30,), 0.3, 0.0)
    g = Graph(30)
    for i, j in zip(*np.nonzero(np.triu(a, 1))):
        g.add_edge(int(i), int(j))
    fit = mple(g, parse_spec(wl.SPEC))
    theta, se = wl.dense_mple(a)
    np.testing.assert_allclose(fit.theta_hat, theta, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(fit.std_errors, se, rtol=1e-6, atol=1e-8)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_mple", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_misrate_rows_identical_across_thread_counts(tmp_path):
    from hergmkit import cli

    work = wl.MisrateCell(11, str(tmp_path), wl.MisrateSizes(
        n_per_cluster=6, replications=2, lsm_burnin=10, lsm_samples=5, lsm_thin=1,
        sim_burnin=3))
    outs = []
    for threads in (1, 2):
        argv = work.argv(123, threads=threads, out=f"rows-{threads}.csv")
        assert cli.main(argv) == 0
        with open(argv[-1], "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1] and outs[0].count(b"\n") == 4
