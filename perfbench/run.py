"""hergmkit benchmark: one workload per process, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload fig3_mcmle --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs each unit untraced and then under the span tracer, and
reports per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a readable table goes to standard error.  The exit code is 1
when an output check fails and 2 when the program cannot be found or run.

End-to-end metrics, reported by every workload:

* ``total_s``: seconds of one unit's timed CLI stages, averaged over the
  run's units.  The mean rather than the median pools every unit's MCMLE
  iterations, which vary with the seed.
* ``setup_s``: median seconds for a fresh interpreter to import the CLI,
  build its parser and load the inputs of the workload's main stage.

Both are wall times scaled to a reference machine speed: each timed call is
divided by the time per round of a fixed pure-Python loop
(``workloads.speed_loop``) and multiplied by that loop's reference time per
round, 0.2 us.  The loop runs every 0.1 s during an in-process CLI call, and
just before and after a setup process.  The machine the benchmark was built
on changed speed by up to 2x within a minute, which raw seconds carry
straight into the spread.  Raw wall seconds are in the table.
* ``ok_frac``: share of attempted operations (CLI calls, cluster fits,
  replications, output checks) that succeeded.
* ``hit_frac``: share of the answer that is right, averaged over units.  On
  ``fig3_mcmle`` a unit's share is the mean of its GOF envelope coverage and
  its theta closeness (per component 1 at the long-chain reference, falling
  with the squared error to 0 at ``workloads.THETA_TOL_SE`` reference
  standard errors); on ``misrate_cell`` and ``large_mple`` it is the share
  of nodes put in their true cluster.
* ``peak_rss_mb``: peak resident memory of the benchmark process.

Per-stage medians and the workload's own accuracy figures (theta error in
reference standard errors, misclustering rate) go to the table only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_RUNS = 5  # setup probes per run

# what a user pays before any work: a fresh interpreter imports the CLI,
# builds its parser and parses the stage's arguments, and loads its inputs
SETUP_PROBE = r"""
import json, sys
sys.path.insert(0, "src")
from hergmkit import cli, graph, twostage
args = cli.build_parser().parse_args(sys.argv[1:])
if getattr(args, "graph", None):
    graph.read_edge_list(args.graph)
if getattr(args, "partition", None):
    graph.read_partition(args.partition)
if getattr(args, "fit", None):
    with open(args.fit, encoding="utf-8") as fh:
        twostage.two_stage_fit_from_dict(json.load(fh))
if getattr(args, "config", None):
    with open(args.config, encoding="utf-8") as fh:
        json.load(fh)
"""


def setup_probe(argv: list[str]):
    """One fresh setup process."""
    subprocess.run([sys.executable, "-c", SETUP_PROBE, *argv], cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)


def report(metrics: dict[str, tuple[float, str]]):
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hergmkit", "cli.py")):
        print(f"error: no hergmkit sources under {SRC}", file=sys.stderr)
        return 2
    # single-threaded BLAS, set before numpy loads; setup probes inherit it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        wl = WORKLOADS[args.workload](args.seed, work)
        results = [wl.run_checks()]
        if args.trace:
            metrics, units, extra = traced_run(wl, args, results)
        else:
            metrics, units, extra = end_to_end_run(wl, args, results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    correct = not problems

    print(f"{args.workload} seed {args.seed}: {len(units)} units, "
          f"{attempted} operations, {failed} failed", file=sys.stderr)
    extra["fail_frac"] = (failed / attempted, "fraction")
    if not args.trace:  # stage medians and the workload's own accuracy figures
        for stage in units[0].stage_s:
            extra[f"{stage}_s"] = (statistics.median(r.stage_s[stage] for r in units), "s")
            extra[f"{stage}_raw_s"] = (
                statistics.median(r.stage_raw_s[stage] for r in units), "s")
        extra.update(wl.summary(units))
    report({**metrics, **extra})
    print("  unit seconds: " + " ".join(f"{r.total_s:.3f}" for r in units), file=sys.stderr)
    print("  unit raw s:   " + " ".join(f"{r.total_raw_s:.3f}" for r in units), file=sys.stderr)
    for p in problems:
        print(f"  check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def end_to_end_run(wl, args, results):
    """Units while the next one is expected to end within --seconds; the
    machine's speed drifts over seconds, so the setup probes run one before
    each of the first units rather than all in one burst."""
    from workloads import timed

    argv = wl.setup_argv()
    setups, units = [], []
    t0 = perf_counter()
    while not units or (perf_counter() - t0) * (len(units) + 1) / len(units) <= args.seconds:
        if len(setups) < SETUP_RUNS:
            setups.append(timed(setup_probe, argv))
        units.append(wl.unit(len(units)))
    while len(setups) < SETUP_RUNS:
        setups.append(timed(setup_probe, argv))
    results.extend(units)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    hits = [statistics.fmean(r.scores.values()) for r in units if r.scores]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(s for _, _, s in setups), "s"),
        "total_s": (statistics.fmean(r.total_s for r in units), "s"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
        "hit_frac": (statistics.fmean(hits) if hits else 0.0, "fraction"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }, units, {"setup_raw_s": (statistics.median(raw for _, raw, _ in setups), "s")}


def traced_run(wl, args, results):
    """Each unit untraced, then traced; per-layer metrics are per-unit means."""
    from tracer import Tracer, layer_metrics

    n_units = max(1, int(args.seconds // wl.trace_pair_s))
    tracer = Tracer()
    plain, traced = [], []
    for u in range(n_units):
        plain.append(wl.unit(u))
        wl.tracer = tracer
        try:
            traced.append(wl.unit(u))
        finally:
            wl.tracer = None
    results.extend(plain + traced)
    metrics = layer_metrics(tracer, n_units)
    total = statistics.fmean(r.total_raw_s for r in traced)
    # the untraced units' time at the machine speed of the traced ones, so
    # that a change of speed between the two does not read as overhead
    slowness = sum(r.total_raw_s for r in traced) / sum(r.total_s for r in traced)
    untraced = slowness * statistics.fmean(r.total_s for r in plain)
    metrics.update({
        "trace.total_s": total,
        "trace.untraced_total_s": untraced,
        "trace.overhead_s": total - untraced,
        # the part of the timed stages no span covers
        "trace.outside_s": total - metrics["trace.self_sum_s"],
    })
    spans = os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.jsonl")
    tracer.write(spans)
    print(f"spans written to {os.path.relpath(spans, ROOT)}", file=sys.stderr)
    return {k: (v, _unit(k)) for k, v in metrics.items()}, traced, {}


def _unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    if tail == "accept_positions":
        return "fraction"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_frac", "fraction")):
        if tail.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
