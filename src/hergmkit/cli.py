"""Command-line front end.

Subcommands: ``simulate`` (hergm | ergm), ``cluster`` (lsm | score), ``fit``
(twostage | ergm), ``gof``, and ``experiment`` (misrate | sensitivity |
score).  Configs and fit results are JSON, tables are CSV, plots are SVG.
A whole-graph ERGM is the one-block HERGM: ``simulate ergm`` is ``simulate
hergm`` on one block, and ``fit ergm`` is ``fit twostage`` on the
one-cluster partition.  So a fit file is of one of two kinds, ``twostage``
(``fit``; ``twostage.two_stage_fit_to_dict`` lists its fields) or ``lsm``
(``cluster lsm --posterior``), and ``gof`` reads both.
Every command embeds a master seed (``--seed``; for ``experiment`` the
config's ``seed``) and writes byte-identical outputs when rerun with the same
arguments.  ``simulate hergm``, ``fit twostage``, ``gof`` and ``experiment``
take ``--threads`` (default: the cores this process may run on), the CPUs
their clusters or replications may use.  A stage runs in a pool of at most
that many worker processes, or, when ``--threads`` covers every core and the
stage has fewer than twice as many tasks, of one worker per task
(``rng.pool_workers``); the outputs are byte-identical regardless of it.

Exit codes: 0 success, 1 a pool worker died (e.g. killed for memory), 2
validation/usage error, 3 numerical failure.  A config field that is
missing, of the wrong type or out of range exits 2 with an error naming the
field's path (``hergmkit.experiments`` lists the fields of every config
kind).
Diagnostics go to standard error; data only to files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from importlib import resources

import numpy as np

from .experiments import (
    misrate_experiment,
    read_hergm_config as _parse_hergm_config,
    score_experiment,
    sensitivity_experiment,
)
from .fit import MCMLE_SAMPLE_BOOST, McmleControls
from .graph import (
    Partition,
    between_edge_counts,
    read_edge_list,
    read_partition,
    within_subgraph,
    write_edge_list,
    write_partition,
)
from .lsm import LsmControls, lsm_posterior_from_dict, lsm_posterior_to_dict
from .rng import cores
from .sampler import (ClusterSpec, HergmSpec, SamplerControls, hergm_draws, near_degenerate,
                      simulate_hergm)
from .stats import parse_spec, stat_matrix, stat_vector
from .svgplot import render_panels
from .twostage import (
    GOF_THIN_SWEEPS,
    TwoStageFit,
    cluster,
    gof,
    stage1_seed,
    two_stage_fit,
    two_stage_fit_from_dict,
    two_stage_fit_to_dict,
)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, header: list[str], rows: list[dict]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in header])


def _write_json(path, doc: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_config(path) -> dict:
    """Load a JSON config object from disk, falling back to the bundled ones."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    else:
        bundled = resources.files("hergmkit").joinpath("configs", str(path))
        if os.sep in str(path) or not bundled.is_file():
            raise ValueError(f"config file not found: {path}")
        cfg = json.loads(bundled.read_text(encoding="utf-8"))
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return cfg


def _stderr(msg: str):
    print(msg, file=sys.stderr)


# -- flags -------------------------------------------------------------------
# A chain-length, dimension or restart flag is absent from ``args`` unless
# given, so the default that applies is that of the code that reads it.

_LSM_FLAGS = {"lsm_burnin": "burnin", "lsm_samples": "n_samples", "lsm_thin": "thin"}
_MCMLE_FLAGS = {"mc_samples": "n_samples", "mc_burnin": "burnin_sweeps"}
# flags read only under one --stage1 or --method: dest -> (mode dest, value)
_READ_ONLY_WITH = {
    "partition": ("stage1", "given"),
    **dict.fromkeys(["dim", *_LSM_FLAGS], ("stage1", "lsm")),
    **dict.fromkeys([*_MCMLE_FLAGS, "theta0"], ("method", "mcmle")),
}


def _refuse_unread(args):
    """Refuse a flag that the chosen ``--stage1`` or ``--method`` does not read."""
    for dest, (mode, value) in _READ_ONLY_WITH.items():
        if dest in args and mode in args and getattr(args, mode) != value:
            raise ValueError(f"--{dest.replace('_', '-')} read only with --{mode} {value}")


def _with_flags(args, flags: dict[str, str], fn, *pos, **kw):
    """``fn(*pos, **kw)`` plus one keyword for each flag of ``flags`` (dest ->
    keyword) that was given.  An error whose message starts with such a
    keyword, as ``sampler.check_counts``'s do, is reported under its flag."""
    given = {dest: key for dest, key in flags.items() if dest in args}
    try:
        return fn(*pos, **kw, **{key: getattr(args, dest) for dest, key in given.items()})
    except ValueError as exc:
        named = [dest for dest, key in given.items() if str(exc).startswith(key + " ")]
        if not named:
            raise
        raise ValueError(f"--{named[0].replace('_', '-')}: {exc}") from exc


# -- simulate ----------------------------------------------------------------


def _cmd_simulate_hergm(args) -> int:
    cfg = _load_config(args.config)
    hspec, controls = _parse_hergm_config(cfg)
    g, truth = simulate_hergm(hspec, args.seed, controls, args.threads)
    write_edge_list(g, args.out)
    write_partition(truth, args.truth)
    if args.stats_out:
        rows = []
        for k, cl in enumerate(hspec.clusters):
            values = stat_vector(within_subgraph(g, truth, k), cl.spec)
            for label, value in zip(cl.spec.labels(), values):
                rows.append({"cluster": k, "stat": label, "value": float(value)})
        if hspec.n_clusters >= 2:
            y_b, n_b = between_edge_counts(g, truth)
            rows.append({"cluster": "between", "stat": "y_B", "value": y_b})
            rows.append({"cluster": "between", "stat": "n_B", "value": n_b})
            rows.append({"cluster": "between", "stat": "p_hat", "value": y_b / n_b})
        _write_csv(args.stats_out, ["cluster", "stat", "value"], rows)
    _stderr(f"simulated {g.n} nodes, {g.n_edges} edges -> {args.out}")
    return 0


def _cmd_simulate_ergm(args) -> int:
    """The one-block ``simulate hergm``: ``hergm_draws`` of the ERGM on
    ``--n`` nodes, whose last draw is written to ``--out``."""
    spec = parse_spec(args.stats)
    controls = _with_flags(args, {"burnin": "burnin_sweeps", "samples": "n_samples",
                                  "thin": "thin_sweeps"}, SamplerControls)
    draws = hergm_draws(HergmSpec((ClusterSpec(args.n, spec, args.theta),), 0.0), args.seed,
                        controls)
    write_edge_list(draws[-1], args.out)
    if args.stats_out:
        rows = [{"sample": s, **dict(zip(spec.labels(), row.tolist()))}
                for s, row in enumerate(stat_matrix(draws, spec))]
        _write_csv(args.stats_out, ["sample"] + spec.labels(), rows)
    if near_degenerate(draws[-1]):
        _stderr("warning: chain ended near a degenerate (empty/complete) graph")
    _stderr(f"retained {len(draws)} samples; wrote final graph -> {args.out}")
    return 0


# -- cluster -----------------------------------------------------------------


def _stage1(args, g, method: str, seed: int, lsm_flags: dict[str, str]):
    """``cluster`` at ``seed`` with the chain lengths of ``lsm_flags`` (dest ->
    ``LsmControls`` field) and a given ``--dim`` or ``--restarts``; prints the
    LSM chain's acceptance warnings."""
    part, post = _with_flags(args, {"dim": "dim", "restarts": "restarts"}, cluster,
                             g, args.K, method, seed,
                             lsm=_with_flags(args, lsm_flags, LsmControls))
    for w in [] if post is None else post.warnings:
        _stderr(f"warning: {w}")
    return part, post


def _cmd_cluster_lsm(args) -> int:
    g = read_edge_list(args.graph)
    part, post = _stage1(args, g, "lsm", args.seed,
                         {"burnin": "burnin", "samples": "n_samples", "thin": "thin"})
    write_partition(part, args.out)
    if args.posterior:
        _write_json(args.posterior, lsm_posterior_to_dict(post))
    if args.positions:
        rows = []
        mean_pos = post.positions_mean
        for node in range(g.n):
            row = {"node": node}
            for axis in range(post.dim):
                row[f"x{axis + 1}"] = float(mean_pos[node, axis])
            row["cluster"] = int(part.assignments[node])
            rows.append(row)
        header = ["node"] + [f"x{a + 1}" for a in range(post.dim)] + ["cluster"]
        _write_csv(args.positions, header, rows)
    _stderr(f"clustered {g.n} nodes into K={args.K} -> {args.out}")
    return 0


def _cmd_cluster_score(args) -> int:
    g = read_edge_list(args.graph)
    part, _ = _stage1(args, g, "score", args.seed, {})
    write_partition(part, args.out)
    _stderr(f"clustered {g.n} nodes into K={args.K} -> {args.out}")
    return 0


# -- fit ---------------------------------------------------------------------


def _cmd_fit(args) -> int:
    """``fit twostage`` and ``fit ergm``, whose whole-graph ERGM is the
    one-cluster fit: ``two_stage_fit`` at ``--method``, the ``--mc-*`` flags
    and a given ``--theta0`` or ``--threads``, written to ``--out``.  Warns of
    each cluster without a fit or whose MCMLE missed the moment condition;
    ``fit ergm``'s one cluster without a fit is the error instead, exit 2
    below the spec's size rule (``StatisticSpec.min_nodes``), else 3."""
    g = read_edge_list(args.graph)
    spec = parse_spec(args.stats)
    controls = _with_flags(args, _MCMLE_FLAGS, McmleControls)
    stage1 = getattr(args, "stage1", "given")
    if args.mode == "ergm":
        part = Partition(np.zeros(g.n, np.int64), 1)
    elif stage1 != "given":
        part, _ = _stage1(args, g, stage1, stage1_seed(args.seed), _LSM_FLAGS)
    elif "partition" not in args:
        raise ValueError("--stage1 given needs --partition")
    else:
        part = read_partition(args.partition)
        if part.n_clusters != args.K:
            raise ValueError(f"--K {args.K} but --partition has {part.n_clusters} clusters")
        if part.n != g.n:
            raise ValueError(f"--partition covers {part.n} nodes but --graph has {g.n}")
    ts = _with_flags(args, {"theta0": "theta0", "threads": "threads"}, two_stage_fit, g, part,
                     spec, method=args.method, mcmle=controls, seed=args.seed, stage1=stage1)
    for k, reason in enumerate(ts.fit_errors):
        if reason is not None and args.mode == "ergm":
            raise (ValueError if g.n < spec.min_nodes() else RuntimeError)(reason)
        if reason is not None:
            _stderr(f"warning: cluster {k} fit unavailable: {reason}")
    _warn_unconverged(ts)
    _write_json(args.out, two_stage_fit_to_dict(ts))
    _stderr(f"two-stage fit ({stage1} + {args.method}, K={part.n_clusters}) -> {args.out}")
    return 0


def _warn_unconverged(ts: TwoStageFit):
    """Warn of each cluster of ``ts`` whose MCMLE missed the moment condition."""
    for k, cfit in enumerate(ts.cluster_fits):
        if cfit is not None and not cfit.diagnostics.converged:
            _stderr(f"warning: cluster {k}: moment condition not met within iteration budget")


# -- gof ---------------------------------------------------------------------


def _load_fit(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    loaders = {
        "twostage": two_stage_fit_from_dict,
        "lsm": lsm_posterior_from_dict,
    }
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in loaders:
        raise ValueError(f"{path}: unknown fit kind {kind!r}")
    try:
        return loaders[kind](doc)
    except KeyError as exc:
        raise ValueError(f"{path}: {kind} fit is missing field {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed {kind} fit: {exc}") from exc


def _cmd_gof(args) -> int:
    g = read_edge_list(args.graph)
    fit = _load_fit(args.fit)
    report = _with_flags(args, {"burnin": "burnin_sweeps"}, gof, g, fit, args.nsim,
                         seed=args.seed, threads=args.threads)
    rows = []
    for name, diag in report.items():
        for b in range(len(diag.observed)):
            rows.append(
                {
                    "diagnostic": name,
                    "bin": b,
                    "observed": float(diag.observed[b]),
                    "lower": float(diag.lower[b]),
                    "upper": float(diag.upper[b]),
                    "inside": int(diag.inside[b]),
                }
            )
        rows.append(
            {
                "diagnostic": name,
                "bin": "coverage",
                "observed": diag.coverage,
                "lower": "",
                "upper": "",
                "inside": "",
            }
        )
    _write_csv(
        args.out, ["diagnostic", "bin", "observed", "lower", "upper", "inside"], rows
    )
    if args.svg:
        panels = []
        for name, diag in report.items():
            xs = list(range(len(diag.observed)))
            panels.append(
                {
                    "title": f"{name} (coverage {diag.coverage:.2f})",
                    "x": xs,
                    "series": [
                        {
                            "label": "envelope",
                            "lower": diag.lower.tolist(),
                            "upper": diag.upper.tolist(),
                        },
                        {"label": "observed", "values": diag.observed.tolist()},
                    ],
                }
            )
        render_panels(panels, args.svg)
    if isinstance(fit, TwoStageFit):
        unfit = [k for k, cfit in enumerate(fit.cluster_fits) if cfit is None]
        bernoulli = [k for k in unfit if fit.partition.sizes()[k]]
        empty = [k for k in unfit if not fit.partition.sizes()[k]]
        if bernoulli:
            _stderr(f"warning: clusters simulated as Bernoulli fallback: {bernoulli}")
        if empty:
            _stderr(f"warning: empty clusters without a fit, so not simulated: {empty}")
        _warn_unconverged(fit)
    cov = ", ".join(
        f"{name}={diag.coverage:.3f}" for name, diag in report.items()
    )
    _stderr(f"gof coverage: {cov} -> {args.out}")
    return 0


# -- experiment ----------------------------------------------------------------


def _experiment_svg(kind: str, rows: list[dict], path):
    means = [r for r in rows if r["replication"] == "mean"]
    if kind == "misrate":
        ns = sorted({r["n_per_cluster"] for r in means})
        rate = {(r["n_per_cluster"], r["transitivity"]): r["rate"] for r in means}
        series = [{"label": f"t={t:g}", "values": [rate[n, t] for n in ns]}
                  for t in sorted({r["transitivity"] for r in means})]
        panels = [{"title": "mean mis-clustering rate vs cluster size", "x": ns,
                   "series": series}]
    elif kind == "score":
        reps = [r for r in rows if r["replication"] != "mean"]
        panels = [{"title": "SCORE mis-clustering rate per replication",
                   "x": [r["replication"] for r in reps],
                   "series": [{"label": "rate", "values": [r["rate"] for r in reps]}]}]
    else:
        rhos = sorted({r["rho"] for r in means})

        def per_rho(col):  # the mean over clusters at each flip fraction
            return [float(np.mean([r[col] for r in means if r["rho"] == rho])) for rho in rhos]

        bias = [{"label": col[len("bias["):-1], "values": per_rho(col)}
                for col in rows[0] if col.startswith("bias[")]
        cov = [{"label": name, "values": per_rho(f"{name}_coverage")}
               for name in ("esp", "degree")]
        panels = [
            {"title": "mean |bias| vs flip fraction", "x": rhos, "series": bias},
            {"title": "envelope coverage vs flip fraction", "x": rhos, "series": cov},
        ]
    render_panels(panels, path)


def _cmd_experiment(args) -> int:
    runners = {
        "misrate": misrate_experiment,
        "sensitivity": sensitivity_experiment,
        "score": score_experiment,
    }
    rows = runners[args.kind](_load_config(args.config), threads=args.threads)
    # rows are built in column order, and every config yields at least one
    _write_csv(args.out, list(rows[0]), rows)
    if args.svg:
        _experiment_svg(args.kind, rows, args.svg)
    _stderr(f"experiment {args.kind}: {len(rows)} rows -> {args.out}")
    return 0


# -- parser ------------------------------------------------------------------


def _int_at_least(lo: int):
    """Argument type: an integer no smaller than ``lo``."""
    def parse(text: str) -> int:
        try:
            if int(text) >= lo:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text!r}")
    return parse


def _floats(text: str) -> tuple[float, ...]:
    """Argument type: comma-separated numbers."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_int_at_least(0), default=0, help="master seed, >= 0")
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--threads", type=_int_at_least(1), default=cores(),
                      help="CPUs to use, >= 1 (default: the cores this process may run "
                      "on): a pool of at most that many worker processes, or one per "
                      "task for a stage of fewer than twice as many tasks when it covers "
                      "every core; outputs do not depend on it")
    unset = argparse.SUPPRESS
    stage2 = argparse.ArgumentParser(add_help=False, argument_default=unset)
    stage2.add_argument("--method", choices=("mcmle", "mple"), default="mcmle")
    stage2.add_argument(
        "--mc-samples", type=int,
        help=f"MCMLE sample size N: a full-size MCMLE sample holds {MCMLE_SAMPLE_BOOST}N "
        "draws, taken on consecutive sweeps",
    )
    stage2.add_argument("--mc-burnin", type=int, help="MCMLE burn-in sweeps, run once "
                        "per ERGM fit before its first sample")

    parser = argparse.ArgumentParser(
        prog="hergm-kit",
        description="Simulate, cluster, fit, and check hierarchical ERGMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw networks from a model")
    sim_sub = p_sim.add_subparsers(dest="mode", required=True)
    p_sh = sim_sub.add_parser("hergm", parents=[common, pool],
                              help="block-structured network")
    p_sh.add_argument("--config", required=True, help="JSON config (bundled name ok)")
    p_sh.add_argument("--out", required=True, help="edge-list output")
    p_sh.add_argument("--truth", required=True, help="ground-truth partition CSV")
    p_sh.add_argument("--stats-out", help="per-cluster statistics CSV")
    p_sh.set_defaults(func=_cmd_simulate_hergm)
    p_se = sim_sub.add_parser("ergm", parents=[common], help="single-block ERGM")
    p_se.add_argument("--n", type=_int_at_least(1), required=True, help="nodes, >= 1")
    p_se.add_argument("--stats", required=True, help="e.g. edges,gwesp(0.5)")
    p_se.add_argument("--theta", type=_floats, required=True,
                      help="comma-separated values, written --theta=-1,0.1 so that "
                      "a negative first value is not read as a flag")
    p_se.add_argument("--burnin", type=int, default=unset, help="burn-in sweeps")
    p_se.add_argument("--samples", type=int, default=unset)
    p_se.add_argument("--thin", type=int, default=unset, help="sweeps between samples")
    p_se.add_argument("--out", required=True, help="edge list of the final sample")
    p_se.add_argument("--stats-out", help="CSV of retained statistic vectors")
    p_se.set_defaults(func=_cmd_simulate_ergm)

    p_cl = sub.add_parser("cluster", help="recover a partition (stage 1)")
    cl_sub = p_cl.add_subparsers(dest="mode", required=True)
    p_cl_lsm = cl_sub.add_parser("lsm", parents=[common], help="latent position model")
    p_cl_lsm.add_argument("--graph", required=True)
    p_cl_lsm.add_argument("--K", type=_int_at_least(1), required=True, help="clusters, >= 1")
    for flag in ("--dim", "--burnin", "--samples", "--thin"):
        p_cl_lsm.add_argument(flag, type=int, default=unset)
    p_cl_lsm.add_argument("--out", required=True, help="partition CSV")
    p_cl_lsm.add_argument("--posterior", help="posterior summary JSON")
    p_cl_lsm.add_argument("--positions", help="posterior-mean positions CSV")
    p_cl_lsm.set_defaults(func=_cmd_cluster_lsm)
    p_cl_sc = cl_sub.add_parser("score", parents=[common], help="SCORE spectral")
    p_cl_sc.add_argument("--graph", required=True)
    p_cl_sc.add_argument("--K", type=_int_at_least(1), required=True, help="clusters, >= 1")
    p_cl_sc.add_argument("--restarts", type=int, default=unset)
    p_cl_sc.add_argument("--out", required=True, help="partition CSV")
    p_cl_sc.set_defaults(func=_cmd_cluster_score)

    p_fit = sub.add_parser("fit", help="estimate model parameters")
    fit_sub = p_fit.add_subparsers(dest="mode", required=True)
    p_ft = fit_sub.add_parser("twostage", parents=[common, stage2, pool],
                              help="full pipeline")
    p_ft.add_argument("--graph", required=True)
    p_ft.add_argument("--K", type=_int_at_least(1), required=True, help="clusters, >= 1")
    p_ft.add_argument("--stats", required=True)
    p_ft.add_argument("--stage1", choices=("lsm", "score", "given"), default="lsm")
    p_ft.add_argument("--partition", default=unset, help="partition CSV, --stage1 given only")
    for flag in ("--dim", "--lsm-burnin", "--lsm-samples", "--lsm-thin"):
        p_ft.add_argument(flag, type=int, default=unset, help="--stage1 lsm only")
    p_ft.add_argument("--out", required=True, help="fit JSON")
    p_ft.set_defaults(func=_cmd_fit)
    p_fe = fit_sub.add_parser("ergm", parents=[common, stage2],
                              help="whole-graph ERGM: fit twostage on one cluster")
    p_fe.add_argument("--graph", required=True)
    p_fe.add_argument("--stats", required=True)
    p_fe.add_argument("--theta0", type=_floats, default=unset,
                      help="comma-separated MCMLE start (--method mcmle only), written "
                      "--theta0=-1,0.1 so that a negative first value is not read as a flag")
    p_fe.add_argument("--out", required=True, help="fit JSON")
    p_fe.set_defaults(func=_cmd_fit)

    p_gof = sub.add_parser("gof", parents=[common, pool],
                           help="simulation-envelope fit check")
    p_gof.add_argument("--graph", required=True)
    p_gof.add_argument("--fit", required=True,
                       help="fit JSON from fit twostage|ergm or cluster lsm --posterior")
    p_gof.add_argument("--nsim", type=_int_at_least(1), required=True,
                       help="simulated graphs, >= 1")
    p_gof.add_argument("--burnin", type=int, default=unset,
                       help="burn-in sweeps, run once per cluster chain; draws are then "
                       f"taken every {GOF_THIN_SWEEPS} sweeps of that chain")
    p_gof.add_argument("--out", required=True, help="envelope CSV")
    p_gof.add_argument("--svg", help="envelope plot")
    p_gof.set_defaults(func=_cmd_gof)

    p_exp = sub.add_parser("experiment", parents=[pool], help="batch experiments")
    p_exp.add_argument("kind", choices=("misrate", "sensitivity", "score"))
    p_exp.add_argument("--config", required=True, help="JSON config (bundled name ok)")
    p_exp.add_argument("--out", required=True, help="result CSV")
    p_exp.add_argument("--svg", help="summary plot")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_unread(args)
        return args.func(args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # a dead worker raises BrokenProcessPool, a RuntimeError of a module
        # that loads only once rng.parallel_map starts a pool
        pool = sys.modules.get("concurrent.futures.process")
        if pool is not None and isinstance(exc, pool.BrokenProcessPool):
            _stderr(f"pool failure: a worker process died ({exc}); retry with fewer --threads")
            return 1
        _stderr(f"numerical failure: {exc}")
        return 3
    except (ValueError, OSError) as exc:
        _stderr(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
