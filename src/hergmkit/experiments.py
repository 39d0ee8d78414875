"""Reproducible simulation experiments: mis-clustering curves, sensitivity
to perturbed partitions, and SCORE recovery on planted blocks.

Each experiment takes a plain-dict config carrying one master seed; every
replication derives its own seed from (master, cell, replication), so tables
are bit-identical however the replications are scheduled.  Replications can
run in a process pool; results are reduced in replication order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .graph import Partition
from .lsm import LsmControls, lsm_mcmc, map_membership
from .rng import child_rng
from .sampler import ClusterSpec, HergmSpec, SamplerControls, simulate_hergm
from .spectral import ScoreControls, score_cluster
from .stats import parse_spec
from .twostage import (
    TwoStageControls,
    gof,
    misclustering_rate,
    two_stage_fit,
)

__all__ = ["misrate_experiment", "sensitivity_experiment", "score_experiment"]


def _parallel_map(fn, tasks, threads: int):
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be strictly inside (0, 1), got {p}")
    return math.log(p / (1.0 - p))


def _check_objects(config: dict, kind: str, keys: tuple[str, ...]):
    """Optional nested fields that must be JSON objects when present."""
    for key in keys:
        if key in config and not isinstance(config[key], dict):
            raise ValueError(f"{kind} config field {key!r} must be an object")


def _controls(kind: str, key: str, make, **values):
    """``make(**values)``; a rejected value names the config field ``key``."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ValueError(f"{kind} config field {key!r}: {exc}") from exc


def _check_seed_keys(kind: str, name: str, values, key):
    """Reject grid values that would share a replication seed.

    Seeds are derived from ``key(value)``, so two values with one key would
    run the same replications twice under different labels.
    """
    seen = {}
    for value in values:
        k = key(value)
        if k in seen:
            raise ValueError(
                f"{kind} config field {name!r}: values {seen[k]!r} and {value!r} "
                f"share the seed key {k}"
            )
        seen[k] = value


def _milli(value) -> int:
    """Seed key of a grid value in [0, 1]: whole thousandths."""
    return int(float(value) * 1000)


# -- mis-clustering rate vs cluster size and transitivity --------------------


def _misrate_cell_spec(cfg: dict, n_per_cluster: int, transitivity: float) -> HergmSpec:
    decay = cfg.get("decay", 0.5)
    base = cfg.get("baseline_theta", _logit(0.05))
    spec = parse_spec(f"edges,gwdsp({decay:g}),gwesp({decay:g})")
    k = cfg.get("n_clusters", 3)
    clusters = tuple(
        ClusterSpec(n_per_cluster, spec, (base, transitivity, transitivity))
        for _ in range(k)
    )
    return HergmSpec(clusters, cfg.get("between_p", 0.05))


def _misrate_one(task) -> dict:
    cfg, sim_controls, lsm_controls, n_per_cluster, transitivity, rep = task
    hspec = _misrate_cell_spec(cfg, n_per_cluster, transitivity)
    seed = int(
        child_rng(cfg["seed"], "misrate", n_per_cluster, _milli(transitivity), rep)
        .integers(2**31)
    )
    g, truth = simulate_hergm(hspec, seed, sim_controls)
    k = hspec.n_clusters
    if cfg.get("stage1", "lsm") == "score":
        est = score_cluster(g, ScoreControls(n_clusters=k, seed=seed))
    else:
        post = lsm_mcmc(g, k, dim=cfg.get("dim", 2), controls=lsm_controls, seed=seed)
        est = map_membership(post)
    rate = misclustering_rate(est, truth)
    return {
        "n_per_cluster": n_per_cluster,
        "transitivity": transitivity,
        "replication": rep,
        "rate": rate,
    }


def misrate_experiment(config: dict, threads: int = 1) -> list[dict]:
    """Stage-1 recovery error over a (cluster size x transitivity) grid.

    Returns per-replication rows followed by one mean row per cell
    (replication == "mean").
    """
    for key in ("n_per_cluster", "transitivity", "replications", "seed"):
        if key not in config:
            raise ValueError(f"misrate config missing key {key!r}")
    _check_objects(config, "misrate", ("lsm", "sim"))
    sim_cfg, lsm_cfg = config.get("sim", {}), config.get("lsm", {})
    sim_controls = _controls(
        "misrate", "sim", SamplerControls,
        burnin_sweeps=sim_cfg.get("burnin_sweeps", 500),
        thin_sweeps=sim_cfg.get("thin_sweeps", 1),
    )
    lsm_controls = _controls(
        "misrate", "lsm", LsmControls,
        burnin=lsm_cfg.get("burnin", 1000),
        n_samples=lsm_cfg.get("samples", 400),
        thin=lsm_cfg.get("thin", 2),
    )
    _check_seed_keys("misrate", "n_per_cluster", config["n_per_cluster"], int)
    _check_seed_keys("misrate", "transitivity", config["transitivity"], _milli)
    tasks = [
        (config, sim_controls, lsm_controls, int(n), float(t), rep)
        for n in config["n_per_cluster"]
        for t in config["transitivity"]
        for rep in range(config["replications"])
    ]
    rows = _parallel_map(_misrate_one, tasks, threads)
    means = []
    for n in config["n_per_cluster"]:
        for t in config["transitivity"]:
            cell = [
                r["rate"]
                for r in rows
                if r["n_per_cluster"] == int(n) and r["transitivity"] == float(t)
            ]
            means.append(
                {
                    "n_per_cluster": int(n),
                    "transitivity": float(t),
                    "replication": "mean",
                    "rate": float(np.mean(cell)),
                }
            )
    return rows + means


# -- stage-2 sensitivity to a perturbed partition ----------------------------


def _perturb_partition(truth: Partition, rho: float, rng) -> Partition:
    """Flip a rho-fraction of labels to a uniformly random other cluster."""
    labels = truth.assignments.copy()
    k = truth.n_clusters
    n_flip = int(round(rho * truth.n))
    if n_flip == 0 or k < 2:
        return Partition(labels, k)
    picks = rng.choice(truth.n, size=n_flip, replace=False)
    offsets = rng.integers(1, k, size=n_flip)
    labels[picks] = (labels[picks] + offsets) % k
    return Partition(labels, k)


def _sensitivity_one(task) -> list[dict]:
    cfg, sim_controls, rho, rep = task
    spec = parse_spec(cfg["stats"])
    clusters = tuple(
        ClusterSpec(int(c["n"]), spec, tuple(float(v) for v in c["theta"]))
        for c in cfg["clusters"]
    )
    hspec = HergmSpec(clusters, cfg.get("between_p", 0.05))
    seed = int(
        child_rng(cfg["seed"], "sens", _milli(rho), rep).integers(2**31)
    )
    g, truth = simulate_hergm(hspec, seed, sim_controls)
    perturbed = _perturb_partition(truth, rho, child_rng(seed, "flip"))
    ts = two_stage_fit(
        g,
        hspec.n_clusters,
        spec,
        stage1="given",
        controls=TwoStageControls(method=cfg.get("method", "mple")),
        given_partition=perturbed,
        seed=seed,
    )
    report = gof(g, ts, cfg.get("nsim_gof", 50), seed=seed, sim_controls=sim_controls)
    out = []
    for k, cfit in enumerate(ts.cluster_fits):
        truth_theta = np.array(clusters[k].theta)
        if cfit is None:
            theta = [math.nan] * len(spec)
            bias = [math.nan] * len(spec)
        else:
            theta = [float(v) for v in cfit.theta_hat]
            bias = [float(v) for v in (cfit.theta_hat - truth_theta)]
        row = {"rho": rho, "replication": rep, "cluster": k}
        for pos, label in enumerate(spec.labels()):
            row[f"theta[{label}]"] = theta[pos]
            row[f"bias[{label}]"] = bias[pos]
        row["esp_coverage"] = report.coverage("esp")
        row["degree_coverage"] = report.coverage("degree")
        out.append(row)
    return out


def sensitivity_experiment(config: dict, threads: int = 1) -> list[dict]:
    """Stage-2 estimates and fit quality when the given partition is wrong.

    Starts from the true partition of each simulated network, flips a
    rho-fraction of labels, runs stage 2 only, and records per-cluster
    parameter bias plus envelope coverages.  Mean rows (replication ==
    "mean") aggregate |bias| and coverages per (rho, cluster).
    """
    for key in ("clusters", "stats", "rho_grid", "replications", "seed"):
        if key not in config:
            raise ValueError(f"sensitivity config missing key {key!r}")
    if not isinstance(config["clusters"], list):
        raise ValueError("sensitivity config field 'clusters' must be a list")
    for i, c in enumerate(config["clusters"]):
        where = f"sensitivity config field clusters[{i}]"
        if not isinstance(c, dict):
            raise ValueError(f"{where} must be an object")
        for key, kind in (("n", int), ("theta", list)):
            if key not in c:
                raise ValueError(f"{where}.{key} is missing")
            if not isinstance(c[key], kind):
                raise ValueError(f"{where}.{key} must be a {kind.__name__}")
    _check_objects(config, "sensitivity", ("sim",))
    sim_controls = _controls(
        "sensitivity", "sim", SamplerControls,
        burnin_sweeps=config.get("sim", {}).get("burnin_sweeps", 500),
    )
    _check_seed_keys("sensitivity", "rho_grid", config["rho_grid"], _milli)
    tasks = [
        (config, sim_controls, float(rho), rep)
        for rho in config["rho_grid"]
        for rep in range(config["replications"])
    ]
    nested = _parallel_map(_sensitivity_one, tasks, threads)
    rows = [row for chunk in nested for row in chunk]
    spec = parse_spec(config["stats"])
    means = []
    for rho in config["rho_grid"]:
        for k in range(len(config["clusters"])):
            cell = [
                r
                for r in rows
                if r["rho"] == float(rho) and r["cluster"] == k
            ]
            mean_row = {"rho": float(rho), "replication": "mean", "cluster": k}
            for label in spec.labels():
                vals = [r[f"bias[{label}]"] for r in cell]
                finite = [v for v in vals if not math.isnan(v)]
                mean_row[f"theta[{label}]"] = float(
                    np.mean([r[f"theta[{label}]"] for r in cell if not math.isnan(r[f"theta[{label}]"])])
                ) if finite else math.nan
                mean_row[f"bias[{label}]"] = (
                    float(np.mean(np.abs(finite))) if finite else math.nan
                )
            mean_row["esp_coverage"] = float(np.mean([r["esp_coverage"] for r in cell]))
            mean_row["degree_coverage"] = float(
                np.mean([r["degree_coverage"] for r in cell])
            )
            means.append(mean_row)
    return rows + means


# -- SCORE recovery on planted blocks ----------------------------------------


def _score_one(task) -> dict:
    cfg, rep = task
    spec = parse_spec("edges")
    theta_in = _logit(cfg["p_in"])
    clusters = tuple(
        ClusterSpec(int(n), spec, (theta_in,)) for n in cfg["blocks"]
    )
    hspec = HergmSpec(clusters, cfg["p_out"])
    seed = int(child_rng(cfg["seed"], "score", rep).integers(2**31))
    # edges-only blocks are dyad-independent; a short chain is exact enough
    g, truth = simulate_hergm(hspec, seed, SamplerControls(burnin_sweeps=20))
    est = score_cluster(
        g,
        ScoreControls(
            n_clusters=len(cfg["blocks"]),
            restarts=cfg.get("restarts", 10),
            seed=seed,
        ),
    )
    return {"replication": rep, "rate": misclustering_rate(est, truth)}


def score_experiment(config: dict, threads: int = 1) -> list[dict]:
    """SCORE mis-clustering on planted-partition graphs with known truth."""
    for key in ("blocks", "p_in", "p_out", "replications", "seed"):
        if key not in config:
            raise ValueError(f"score config missing key {key!r}")
    tasks = [(config, rep) for rep in range(config["replications"])]
    rows = _parallel_map(_score_one, tasks, threads)
    rows.append(
        {"replication": "mean", "rate": float(np.mean([r["rate"] for r in rows]))}
    )
    return rows
