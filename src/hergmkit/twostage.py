"""Two-stage estimation: cluster first, then fit per-cluster ERGMs.

Stage 1 (``cluster``) recovers a node partition from the observed graph with
a working model, a latent position cluster model or SCORE.  Stage 2
(``two_stage_fit``) takes a partition, recovered or given, and fits an ERGM
independently inside each of its clusters and the closed-form Binomial
density between clusters.  Goodness of fit compares the observed graph
against simulation envelopes from the fitted model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .fit import (
    MCMLE_SAMPLE_BOOST,
    MCMLE_WALK_DIVISOR,
    ErgmFit,
    FitDiagnostics,
    GraphTooSmallError,
    McmleControls,
    MpleNotConvergedError,
    NonFiniteMleError,
    SamplesDegenerateError,
    between_density_mle,
    mcmle,
    mple,
)
from .graph import Graph, Partition, within_subgraph
from .lsm import (
    LSM_DIM,
    LsmControls,
    LsmPosterior,
    _best_permutation,
    _distances,
    lsm_mcmc,
    map_membership,
)
from .rng import child_seed, parallel_map
from .sampler import (
    BernoulliBlock,
    ClusterSpec,
    HergmSpec,
    SamplerControls,
    hergm_draws,
)
from .spectral import SCORE_RESTARTS, score_cluster
from .stats import StatisticSpec, esp_histogram, parse_spec, stat_matrix

__all__ = [
    "TwoStageFit",
    "GofDiagnostic",
    "cluster",
    "two_stage_fit",
    "misclustering_rate",
    "gof",
    "two_stage_fit_to_dict",
    "two_stage_fit_from_dict",
]


@dataclass
class TwoStageFit:
    spec: StatisticSpec
    stage1_method: str  # lsm | score | given
    partition: Partition
    cluster_fits: list[ErgmFit | None]
    fit_errors: list[str | None]
    between_p: float | None
    between_se: float | None
    method: str
    seed: int


def stage1_seed(master: int) -> int:
    """Deterministic stage-1 seed."""
    return int(child_seed(master, "stage1").generate_state(1, np.uint32)[0])


def stage2_seed(master: int, k: int) -> int:
    """Deterministic per-cluster stage-2 seed."""
    return int(child_seed(master, "stage2", k).generate_state(1, np.uint32)[0])


def _fit_cluster(job) -> tuple[ErgmFit | None, str | None]:
    """Fit one within-cluster block; ``job`` is (subgraph, spec, method,
    MCMLE controls, MCMLE start, seed).  Returns (fit | None, reason | None)."""
    sub, spec, method, mcmle_controls, theta0, seed_k = job
    try:
        if method == "mple":
            return mple(sub, spec), None
        return mcmle(sub, spec, theta0, controls=mcmle_controls, seed=seed_k), None
    except (GraphTooSmallError, NonFiniteMleError, SamplesDegenerateError,
            MpleNotConvergedError) as exc:
        return None, str(exc)


def cluster(
    g: Graph,
    n_clusters: int,
    method: str,
    seed: int,
    dim: int = LSM_DIM,
    lsm: LsmControls = LsmControls(),
    restarts: int = SCORE_RESTARTS,
) -> tuple[Partition, LsmPosterior | None]:
    """Stage 1: the partition of ``g`` recovered by ``method``, and a posterior.

    ``"lsm"`` is the MAP membership of a latent position cluster model in
    ``dim`` dimensions (chain lengths ``lsm``), returned with its posterior;
    ``"score"`` is SCORE with ``restarts`` k-means starts, returned with
    ``None``.
    """
    if method == "lsm":
        posterior = lsm_mcmc(g, n_clusters, dim=dim, controls=lsm, seed=seed)
        return map_membership(posterior), posterior
    if method == "score":
        return score_cluster(g, n_clusters, restarts=restarts, seed=seed), None
    raise ValueError(f"unknown stage-1 method {method!r}")


def two_stage_fit(
    g: Graph,
    partition: Partition,
    spec: StatisticSpec,
    method: str = "mcmle",
    mcmle: McmleControls = McmleControls(),
    theta0=None,
    seed: int = 0,
    threads: int = 1,
    stage1: str = "given",
) -> TwoStageFit:
    """Stage 2 on ``partition``: an ERGM inside each cluster, the Binomial
    density between them.  On the one-cluster partition this is the
    whole-graph ERGM, with no between-cluster density.

    ``stage1`` names where the partition came from, a ``cluster`` method or
    ``given``, for the fit's record.  ``method`` is the stage-2 estimator,
    ``mcmle`` (chain lengths ``mcmle``, every cluster's chain started at
    ``theta0`` if given) or ``mple``.  A cluster that is
    empty, too small for the spec, or without a finite fit is marked
    unavailable with its reason rather than failing the run.  The clusters
    are fitted by ``rng.parallel_map`` with ``threads``, which changes no
    fit: each has its own seed, ``stage2_seed(seed, k)``.
    """
    if method not in ("mcmle", "mple"):
        raise ValueError(f"stage-2 method must be mcmle or mple, got {method!r}")
    sizes = partition.sizes().tolist()
    jobs = [(within_subgraph(g, partition, k), spec, method, mcmle, theta0,
             stage2_seed(seed, k)) for k, nk in enumerate(sizes) if nk]
    # an MCMLE fit runs at least its burn-in, the walk's first sample and
    # the full-size sample it ends on; an MPLE fit counts a fifth of a visit
    # a dyad, which puts the threshold of rng.POOL_MIN_VISITS at the MPLE
    # crossover timed in its comment
    m = MCMLE_SAMPLE_BOOST * mcmle.n_samples
    sweeps = (0.2 if method == "mple"
              else mcmle.burnin_sweeps + max(m // MCMLE_WALK_DIVISOR, 4) + m)
    done = iter(parallel_map(_fit_cluster, jobs, threads,
                             sweeps * sum(nk * (nk - 1) // 2 for nk in sizes)))
    fits, reasons = zip(*(next(done) if nk else (None, "cluster is empty") for nk in sizes))

    if np.count_nonzero(sizes) >= 2:
        p_hat, p_se = between_density_mle(g, partition)
    else:
        p_hat = p_se = None
    return TwoStageFit(
        spec=spec,
        stage1_method=stage1,
        partition=partition,
        cluster_fits=list(fits),
        fit_errors=list(reasons),
        between_p=p_hat,
        between_se=p_se,
        method=method,
        seed=seed,
    )


def misclustering_rate(est: Partition, truth: Partition) -> float:
    """Fraction of disagreeing nodes under the best label matching.

    Exact: the matching with the most agreeing nodes, found by
    ``lsm._best_permutation``, which also relabels LSM draws.
    """
    if est.n != truth.n:
        raise ValueError(f"partition sizes differ: {est.n} vs {truth.n}")
    k = max(est.n_clusters, truth.n_clusters)
    perm = _best_permutation(est.assignments, truth.assignments, k)
    matched = int(np.count_nonzero(perm[est.assignments] == truth.assignments))
    return 1.0 - matched / est.n


# -- goodness of fit ---------------------------------------------------------

GOF_BURNIN_SWEEPS = 500
GOF_THIN_SWEEPS = 10


@dataclass
class GofDiagnostic:
    observed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    inside: np.ndarray  # per bin: lower <= observed <= upper

    @property
    def coverage(self) -> float:
        return float(self.inside.mean())


def _diagnostics(graphs: list[Graph], spec: StatisticSpec) -> dict[str, np.ndarray]:
    """The four GOF diagnostics of ``graphs``, one row a graph: degree counts,
    edgewise shared partners, dyad counts at geodesic 1..n-1 (the last slot
    counts unreachable pairs) and the statistics of ``spec``."""
    n = graphs[0].n
    pairs = np.triu_indices(n, 1)
    geodesic = np.zeros((len(graphs), n))
    for row, g in zip(geodesic, graphs):
        d_u = g.geodesic_distances()[pairs]
        finite = np.isfinite(d_u)
        row[: n - 1] = np.bincount(d_u[finite].astype(np.int64), minlength=n)[1:n]
        row[n - 1] = np.count_nonzero(~finite)
    return {
        "degree": np.array([np.bincount(g.degrees(), minlength=n) for g in graphs],
                           dtype=np.float64),
        "esp": np.array([esp_histogram(g) for g in graphs], dtype=np.float64),
        "geodesic": geodesic,
        "stats": stat_matrix(graphs, spec),
    }


def _gof_model(fit, g: Graph) -> tuple[HergmSpec, StatisticSpec]:
    """The block model ``gof`` simulates for ``fit`` on ``g``.

    Returns (model, spec of the statistics panel).
    A ``TwoStageFit`` gives one block per non-empty cluster, in label order
    (a whole-graph ERGM is its one-cluster case); a cluster without a fit is
    Bernoulli at its observed density.  An LSM posterior is one Bernoulli
    block at the posterior-mean tie probabilities.
    """
    if isinstance(fit, TwoStageFit):
        part = fit.partition
        if part.n != g.n:
            raise ValueError(
                f"the fit's partition covers {part.n} nodes; the graph has {g.n}"
            )
        blocks = []
        for k, (nk, cfit) in enumerate(zip(part.sizes().tolist(), fit.cluster_fits)):
            if nk == 0:
                continue
            if cfit is not None:
                blocks.append(ClusterSpec(nk, fit.spec, cfit.theta_hat))
            else:
                ties = within_subgraph(g, part, k).n_edges
                blocks.append(BernoulliBlock(nk, ties / max(nk * (nk - 1) // 2, 1)))
        between_p = 0.0 if fit.between_p is None else fit.between_p
        return HergmSpec(tuple(blocks), between_p), fit.spec
    if isinstance(fit, LsmPosterior):
        z = fit.positions_mean
        if z.shape[0] != g.n:
            raise ValueError(
                f"the fit has latent positions for {z.shape[0]} nodes; the graph has {g.n}"
            )
        dmat = _distances(z, z)
        p = 0.5 * (1.0 + np.tanh(0.5 * (fit.beta0_mean - fit.beta1_mean * dmat)))
        block = BernoulliBlock(g.n, p[np.triu_indices(g.n, 1)])
        # model statistics panel: density only
        return HergmSpec((block,), 0.0), parse_spec("edges")
    raise TypeError(f"cannot run gof on {type(fit).__name__}")


def gof(
    g: Graph,
    fit,
    n_sim: int,
    seed: int = 0,
    burnin_sweeps: int = GOF_BURNIN_SWEEPS,
    threads: int = 1,
) -> dict[str, GofDiagnostic]:
    """Simulation-envelope goodness of fit, one ``GofDiagnostic`` a diagnostic.

    ``fit`` may be a ``TwoStageFit`` (on one cluster, a whole-graph ERGM)
    or an ``LsmPosterior`` (ties Bernoulli at the posterior-mean
    probabilities); it must be a fit for a graph with ``g``'s node count,
    which must be at least 2.
    Four diagnostics are compared pointwise against the 2.5%/97.5% envelope
    of ``n_sim`` simulated graphs (``_diagnostics``); a bin is inside when
    its observed value lies in the envelope, and a diagnostic's coverage is
    the share of its bins inside.

    The fit becomes a block model (``_gof_model``) and the ``n_sim`` graphs
    are one ``hergm_draws`` call: each ERGM block is one Gibbs chain, as in
    ergm's ``gof``, that burns in ``burnin_sweeps`` sweeps once and keeps a
    draw every ``GOF_THIN_SWEEPS`` sweeps; ``threads`` is passed on and
    changes no draw.  A non-empty cluster without a fit falls back to
    Bernoulli ties at its observed density, and an empty one has nothing to
    simulate.
    Diagnostics are label-invariant, so blocks are laid out contiguously.
    """
    if g.n < 2:
        raise ValueError(f"gof needs a graph of at least 2 nodes, got {g.n}")
    hspec, spec = _gof_model(fit, g)
    draws = hergm_draws(hspec, seed, SamplerControls(burnin_sweeps, n_sim, GOF_THIN_SWEEPS),
                        threads)

    sims = _diagnostics(draws, spec)
    diagnostics = {}
    for name, (obs,) in _diagnostics([g], spec).items():
        lower = np.quantile(sims[name], 0.025, axis=0)
        upper = np.quantile(sims[name], 0.975, axis=0)
        diagnostics[name] = GofDiagnostic(obs, lower, upper, (lower <= obs) & (obs <= upper))
    return diagnostics


# -- serialization -----------------------------------------------------------


def two_stage_fit_to_dict(fit: TwoStageFit) -> dict:
    """The JSON document of ``fit``, a fit file of kind ``twostage``.

    Its fields are ``kind``, ``spec``, ``method`` (the stage-2 estimator),
    ``stage1`` (``method``, ``partition``, ``K``), ``cluster_fits`` (one
    entry a cluster, in label order), ``between`` (``p_hat`` and
    ``std_error``, or null) and ``seed``.  An entry holds only its own
    cluster's fields: ``theta_hat``, ``std_errors``, ``seed`` (null for
    MPLE), ``diagnostics`` (the fields of ``FitDiagnostics``) and
    ``available`` true, or ``available`` false and the ``reason``.
    """
    def entry(cfit: ErgmFit | None, reason: str | None) -> dict:
        if cfit is None:
            return {"available": False, "reason": reason}
        diag = {f.name: getattr(cfit.diagnostics, f.name) for f in fields(FitDiagnostics)}
        for key in ("mu_hat", "mc_se", "step_sizes"):
            diag[key] = None if diag[key] is None else [float(v) for v in diag[key]]
        return {
            "theta_hat": [float(v) for v in cfit.theta_hat],
            "std_errors": [float(v) for v in cfit.std_errors],
            "seed": cfit.seed,
            "diagnostics": diag,
            "available": True,
        }

    return {
        "kind": "twostage",
        "spec": fit.spec.to_string(),
        "method": fit.method,
        "stage1": {
            "method": fit.stage1_method,
            "partition": [int(v) for v in fit.partition.assignments],
            "K": fit.partition.n_clusters,
        },
        "cluster_fits": [entry(*pair) for pair in zip(fit.cluster_fits, fit.fit_errors)],
        "between": (
            None
            if fit.between_p is None
            else {"p_hat": fit.between_p, "std_error": fit.between_se}
        ),
        "seed": fit.seed,
    }


def two_stage_fit_from_dict(data: dict) -> TwoStageFit:
    """Inverse of ``two_stage_fit_to_dict``; every field it writes is
    required.  A cluster entry's ``kind``, ``spec`` and ``method``, which
    older files repeat in each entry, are not read."""
    part = Partition(
        np.array(data["stage1"]["partition"], dtype=np.int64),
        int(data["stage1"]["K"]),
    )
    if len(data["cluster_fits"]) != part.n_clusters:
        raise ValueError(f"{len(data['cluster_fits'])} cluster fits for K={part.n_clusters}")
    spec = parse_spec(data["spec"])
    fits: list[ErgmFit | None] = []
    for entry in data["cluster_fits"]:
        if not entry["available"]:
            fits.append(None)
            continue
        diag = {f.name: entry["diagnostics"][f.name] for f in fields(FitDiagnostics)}
        for key in ("mu_hat", "mc_se"):
            if diag[key] is not None:
                diag[key] = np.array(diag[key], dtype=np.float64)
        arrays = {key: np.array(entry[key], dtype=np.float64)
                  for key in ("theta_hat", "std_errors")}
        for key, values in arrays.items():
            if values.shape != (len(spec),):
                raise ValueError(f"{key} has shape {values.shape} for a {len(spec)}-term spec")
        fits.append(ErgmFit(**arrays, diagnostics=FitDiagnostics(**diag), seed=entry["seed"]))
    between = data["between"]
    return TwoStageFit(
        spec=spec,
        stage1_method=data["stage1"]["method"],
        partition=part,
        cluster_fits=fits,
        fit_errors=[None if entry["available"] else entry["reason"]
                    for entry in data["cluster_fits"]],
        between_p=None if between is None else float(between["p_hat"]),
        between_se=None if between is None else float(between["std_error"]),
        method=data["method"],
        seed=int(data["seed"]),
    )
