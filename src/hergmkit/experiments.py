"""Reproducible simulation experiments: mis-clustering curves, sensitivity
to perturbed partitions, and SCORE recovery on planted blocks.

Each experiment takes a plain-dict config carrying one master seed; every
replication derives its own seed from (master, cell, replication), so tables
are bit-identical however the replications are scheduled.  Replications run
through ``rng.parallel_map``, in a process pool at ``threads > 1``, and are
reduced in replication order; the calls inside a replication keep their
default ``threads=1``, so pools never nest.

Every config is read here, once, before any replication runs.  A field of
the wrong type or out of range raises ``ValueError`` naming its path, e.g.
``'clusters[1].n'``; keys not listed are ignored, and a field marked
'stage1 "lsm" only' is refused under any other ``stage1``.  A number is a
JSON int or float, finite and never a boolean; an integer is a JSON int; a
list is non-empty.  Every simulated network is the draw one sweep after
its ``burnin_sweeps``.  Fields (type, default, allowed range):

block model (``simulate hergm``)
    clusters        list of {n: int >= 1, stats: spec string, theta: list
                    of numbers, one per term}; required
    between_p       number in [0, 1]; required
    burnin_sweeps   int >= 0; default 2000

misrate
    n_per_cluster   list of int >= 1; required
    transitivity    list of numbers >= 0 (gwdsp and gwesp coefficient);
                    required
    replications    int >= 1; required
    seed            int >= 0; required
    n_clusters      int >= 2; default 3
    baseline_theta  number (edges coefficient); default logit(0.05)
    between_p       number in [0, 1]; default 0.05
    decay           number in [0, 20] (gw decay); default 0.5
    stage1          "lsm" or "score"; default "lsm"
    dim             int >= 1 (LSM latent dimension); default 2; stage1
                    "lsm" only
    lsm             {burnin: int >= 0 = 1000, samples: int >= 1 = 400,
                    thin: int >= 1 = 2}; stage1 "lsm" only
    sim             {burnin_sweeps: int >= 0 = 500}

sensitivity
    clusters        list of {n: int >= 1, theta: list of numbers, one per
                    term of stats}; required
    stats           spec string shared by every cluster; required
    rho_grid        list of numbers in [0, 1]; required
    replications    int >= 1; required
    seed            int >= 0; required
    nsim_gof        int >= 1; default 50
    method          "mple" or "mcmle"; default "mple"
    between_p       number in [0, 1]; default 0.05
    sim             {burnin_sweeps: int >= 0 = 500}

score
    blocks          list of at least two int >= 1; required
    p_in, p_out     numbers in [0, 1]; required
    replications    int >= 1; required
    seed            int >= 0; required
    restarts        int >= 1; default 10
"""

from __future__ import annotations

import math
import sys
from functools import partial
from itertools import product

import numpy as np

from .graph import Partition
from .lsm import LSM_DIM, LsmControls
from .rng import child_rng, parallel_map
from .sampler import BernoulliBlock, ClusterSpec, HergmSpec, SamplerControls, simulate_hergm
from .spectral import SCORE_RESTARTS
from .stats import StatisticSpec, parse_spec
from .twostage import cluster, gof, misclustering_rate, two_stage_fit

__all__ = [
    "misrate_experiment", "sensitivity_experiment", "score_experiment", "read_hergm_config",
]


# -- reading configs -----------------------------------------------------------

_REQUIRED = object()
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def _field(cfg: dict, key: str, kind, default=_REQUIRED, *,
           lo=None, hi=None, choices=None, at: str = ""):
    """``cfg[key]`` read as ``kind``, or ``default`` when the key is absent.

    ``kind`` is int, float (an int is converted), str, dict, or ``[t]`` for
    a non-empty list of ``t``.  ``lo`` and ``hi`` bound a number or each
    item of a list; ``choices`` are a string's allowed values.  ``at``
    prefixes the field's path, e.g. ``"clusters[1]."``.
    """
    path = at + key
    if key not in cfg:
        if default is _REQUIRED:
            raise ValueError(f"config field {path!r} is missing")
        return default
    return _value(cfg[key], path, kind, lo, hi, choices)


def _value(value, path: str, kind, lo, hi, choices):
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ValueError(f"config field {path!r} must be a non-empty list, got {value!r}")
        return [_value(v, f"{path}[{i}]", kind[0], lo, hi, choices)
                for i, v in enumerate(value)]
    if kind is float and type(value) is int:  # not bool; too large to convert is not finite
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"config field {path!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"config field {path!r} must be finite, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        need = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"config field {path!r} must be {need}, got {value!r}")
    if choices is not None and value not in choices:
        need = " or ".join(map(repr, choices))
        raise ValueError(f"config field {path!r} must be {need}, got {value!r}")
    return value


def _as_field(key: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a value it rejects is reported as config
    field ``key``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"config field {key!r}: {exc}") from exc


def _spec(cfg: dict, at: str = "") -> StatisticSpec:
    return _as_field(at + "stats", parse_spec, _field(cfg, "stats", str, at=at))


def _clusters(cfg: dict, spec: StatisticSpec | None = None) -> tuple[ClusterSpec, ...]:
    """The ``clusters`` list; each cluster reads its own ``stats`` unless one
    shared ``spec`` is given."""
    out = []
    for i, c in enumerate(_field(cfg, "clusters", [dict])):
        at = f"clusters[{i}]."
        n = _field(c, "n", int, lo=1, at=at)
        c_spec = _spec(c, at) if spec is None else spec
        theta = _field(c, "theta", [float], at=at)
        if len(theta) != len(c_spec):
            raise ValueError(
                f"config field '{at}theta' has {len(theta)} values for a "
                f"{len(c_spec)}-term spec"
            )
        # what ClusterSpec still rejects is a degree(k) term too large for n
        key = at + ("stats" if spec is None else "n")
        out.append(_as_field(key, ClusterSpec, n, c_spec, tuple(theta)))
    return tuple(out)


def _check_seed_keys(name: str, values, key):
    """Reject grid values that would share a replication seed.

    Seeds are derived from ``key(value)``, so two values with one key would
    run the same replications twice under different labels.
    """
    seen = {}
    for value in values:
        k = key(value)
        if k in seen:
            raise ValueError(
                f"config field {name!r}: values {seen[k]!r} and {value!r} "
                f"share the seed key {k}"
            )
        seen[k] = value


def _milli(value: float) -> int:
    """Seed key of a grid value in [0, 1]: whole thousandths."""
    return int(value * 1000)


def read_hergm_config(cfg: dict) -> tuple[HergmSpec, int]:
    """The block model and burn-in sweeps of a ``simulate hergm`` config."""
    hspec = HergmSpec(_clusters(cfg), _field(cfg, "between_p", float, lo=0, hi=1))
    return hspec, _field(cfg, "burnin_sweeps", int, SamplerControls.burnin_sweeps, lo=0)


# -- mis-clustering rate vs cluster size and transitivity --------------------


def _misrate_one(stage1, dim, sim_burnin, lsm_controls, master, task) -> tuple[dict, list]:
    """One replication's row, and its LSM chain's acceptance warnings."""
    hspec, n_per_cluster, transitivity, rep = task
    seed = int(
        child_rng(master, "misrate", n_per_cluster, _milli(transitivity), rep)
        .integers(2**31)
    )
    g, truth = simulate_hergm(hspec, seed, sim_burnin)
    est, post = cluster(g, hspec.n_clusters, stage1, seed, dim, lsm_controls)
    rate = misclustering_rate(est, truth)
    return {
        "n_per_cluster": n_per_cluster,
        "transitivity": transitivity,
        "replication": rep,
        "rate": rate,
    }, [] if post is None else post.warnings


def misrate_experiment(config: dict, threads: int = 1) -> list[dict]:
    """Stage-1 recovery error over a (cluster size x transitivity) grid.

    Returns per-replication rows followed by one mean row per cell
    (replication == "mean").  Each LSM chain's acceptance warnings are
    written to stderr, naming the replication, in replication order.
    """
    sizes = _field(config, "n_per_cluster", [int], lo=1)
    grid = _field(config, "transitivity", [float], lo=0)
    reps = _field(config, "replications", int, lo=1)
    seed = _field(config, "seed", int, lo=0)
    k = _field(config, "n_clusters", int, 3, lo=2)
    base = _field(config, "baseline_theta", float, math.log(0.05 / (1.0 - 0.05)))
    between_p = _field(config, "between_p", float, 0.05, lo=0, hi=1)
    decay = _field(config, "decay", float, 0.5, lo=0)
    stage1 = _field(config, "stage1", str, "lsm", choices=("lsm", "score"))
    for key in ("dim", "lsm"):
        if key in config and stage1 != "lsm":
            raise ValueError(f"config field {key!r} is read only with stage1 'lsm'")
    dim = _field(config, "dim", int, LSM_DIM, lo=1)
    sim, lsm = _field(config, "sim", dict, {}), _field(config, "lsm", dict, {})
    sim_burnin = _field(sim, "burnin_sweeps", int, 500, lo=0, at="sim.")
    lsm_controls = LsmControls(
        burnin=_field(lsm, "burnin", int, 1000, lo=0, at="lsm."),
        n_samples=_field(lsm, "samples", int, 400, lo=1, at="lsm."),
        thin=_field(lsm, "thin", int, 2, lo=1, at="lsm."),
    )
    spec = _as_field("decay", parse_spec, f"edges,gwdsp({decay:g}),gwesp({decay:g})")
    _check_seed_keys("n_per_cluster", sizes, int)
    _check_seed_keys("transitivity", grid, _milli)
    cells = list(product(sizes, grid))
    tasks = [
        (HergmSpec((ClusterSpec(n, spec, (base, t, t)),) * k, between_p), n, t, rep)
        for n, t in cells
        for rep in range(reps)
    ]
    rows = []
    for row, warnings in parallel_map(
        partial(_misrate_one, stage1, dim, sim_burnin, lsm_controls, seed),
        tasks, threads,
    ):
        rows.append(row)
        for w in warnings:
            print(f"warning: n_per_cluster={row['n_per_cluster']} transitivity="
                  f"{row['transitivity']} replication {row['replication']}: {w}",
                  file=sys.stderr)
    means = [
        {"n_per_cluster": n, "transitivity": t, "replication": "mean",
         "rate": float(np.mean([r["rate"] for r in rows[c * reps:(c + 1) * reps]]))}
        for c, (n, t) in enumerate(cells)
    ]
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


def _sensitivity_one(hspec, method, nsim_gof, sim_burnin, master, task) -> list[dict]:
    rho, rep = task
    seed = int(child_rng(master, "sens", _milli(rho), rep).integers(2**31))
    g, truth = simulate_hergm(hspec, seed, sim_burnin)
    perturbed = _perturb_partition(truth, rho, child_rng(seed, "flip"))
    spec = hspec.clusters[0].spec
    ts = two_stage_fit(g, perturbed, spec, method, seed=seed)
    report = gof(g, ts, nsim_gof, seed=seed, burnin_sweeps=sim_burnin)
    labels = spec.labels()
    out = []
    for k, cfit in enumerate(ts.cluster_fits):
        if cfit is None:
            theta = bias = [math.nan] * len(spec)
        else:
            theta = [float(v) for v in cfit.theta_hat]
            bias = [float(v) for v in cfit.theta_hat - np.array(hspec.clusters[k].theta)]
        out.append({
            "rho": rho, "replication": rep, "cluster": k,
            **{f"theta[{label}]": v for label, v in zip(labels, theta)},
            **{f"bias[{label}]": v for label, v in zip(labels, bias)},
            "esp_coverage": report["esp"].coverage,
            "degree_coverage": report["degree"].coverage,
        })
    return out


def _finite_mean(values) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return float(np.mean(finite)) if finite else math.nan


def sensitivity_experiment(config: dict, threads: int = 1) -> list[dict]:
    """Stage-2 estimates and fit quality when the given partition is wrong.

    Starts from the true partition of each simulated network, flips a
    rho-fraction of labels, runs stage 2 only, and records per-cluster
    parameter bias plus envelope coverages.  Mean rows (replication ==
    "mean") aggregate |bias| and coverages per (rho, cluster).
    """
    spec = _spec(config)
    clusters = _clusters(config, spec)
    grid = _field(config, "rho_grid", [float], lo=0, hi=1)
    reps = _field(config, "replications", int, lo=1)
    seed = _field(config, "seed", int, lo=0)
    nsim_gof = _field(config, "nsim_gof", int, 50, lo=1)
    method = _field(config, "method", str, "mple", choices=("mple", "mcmle"))
    hspec = HergmSpec(clusters, _field(config, "between_p", float, 0.05, lo=0, hi=1))
    sim = _field(config, "sim", dict, {})
    sim_burnin = _field(sim, "burnin_sweeps", int, 500, lo=0, at="sim.")
    _check_seed_keys("rho_grid", grid, _milli)
    run = partial(_sensitivity_one, hspec, method, nsim_gof, sim_burnin, seed)
    nested = parallel_map(run, [(rho, rep) for rho in grid for rep in range(reps)], threads)
    means = []
    for i, rho in enumerate(grid):
        for k in range(hspec.n_clusters):
            cell = [chunk[k] for chunk in nested[i * reps:(i + 1) * reps]]
            row = {"rho": rho, "replication": "mean", "cluster": k}
            for col in cell[0]:
                if col.startswith("theta["):
                    row[col] = _finite_mean([r[col] for r in cell])
                elif col.startswith("bias["):
                    row[col] = _finite_mean([abs(r[col]) for r in cell])
            for col in ("esp_coverage", "degree_coverage"):
                row[col] = float(np.mean([r[col] for r in cell]))
            means.append(row)
    return [row for chunk in nested for row in chunk] + means


# -- SCORE recovery on planted blocks ----------------------------------------


def _score_one(hspec, restarts, master, rep) -> dict:
    seed = int(child_rng(master, "score", rep).integers(2**31))
    g, truth = simulate_hergm(hspec, seed)
    est, _ = cluster(g, hspec.n_clusters, "score", seed, restarts=restarts)
    return {"replication": rep, "rate": misclustering_rate(est, truth)}


def score_experiment(config: dict, threads: int = 1) -> list[dict]:
    """SCORE mis-clustering on planted-partition graphs with known truth."""
    blocks = _field(config, "blocks", [int], lo=1)
    p_in = _field(config, "p_in", float, lo=0, hi=1)
    p_out = _field(config, "p_out", float, lo=0, hi=1)
    reps = _field(config, "replications", int, lo=1)
    seed = _field(config, "seed", int, lo=0)
    restarts = _field(config, "restarts", int, SCORE_RESTARTS, lo=1)
    if len(blocks) < 2:
        raise ValueError("config field 'blocks': SCORE needs K >= 2")
    hspec = HergmSpec(tuple(BernoulliBlock(n, p_in) for n in blocks), p_out)
    rows = parallel_map(partial(_score_one, hspec, restarts, seed), list(range(reps)), threads)
    rows.append(
        {"replication": "mean", "rate": float(np.mean([r["rate"] for r in rows]))}
    )
    return rows
