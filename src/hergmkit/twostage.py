"""Two-stage estimation: cluster first, then fit per-cluster ERGMs.

Stage 1 recovers a node partition from the observed graph with a working
model (latent position cluster model, SCORE, or a user-supplied partition).
Stage 2 fits an ERGM independently inside each recovered cluster and the
closed-form Binomial density between clusters.  Goodness of fit compares the
observed graph against simulation envelopes from the fitted model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fit import (
    MCMLE_SAMPLE_BOOST,
    ErgmFit,
    GraphTooSmallError,
    McmleControls,
    MpleNotConvergedError,
    NonFiniteMleError,
    SamplesDegenerateError,
    between_density_mle,
    ergm_fit_from_dict,
    ergm_fit_to_dict,
    mcmle,
    mple,
)
from .graph import Graph, Partition, within_subgraph
from .lsm import (
    LSM_DIM,
    LsmControls,
    LsmPosterior,
    LsmSummary,
    _best_permutation,
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
from .stats import StatisticSpec, esp_histogram, parse_spec, stat_matrix, stat_vector

__all__ = [
    "TwoStageFit",
    "GofDiagnostic",
    "GofReport",
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

    @property
    def n_clusters(self) -> int:
        return self.partition.n_clusters


def stage2_seed(master: int, k: int) -> int:
    """Deterministic per-cluster stage-2 seed."""
    return int(child_seed(master, "stage2", k).generate_state(1, np.uint32)[0])


def _fit_cluster(job) -> tuple[ErgmFit | None, str | None]:
    """Fit one within-cluster block; ``job`` is (subgraph, spec, method,
    MCMLE controls, seed).  Returns (fit | None, reason | None)."""
    sub, spec, method, mcmle_controls, seed_k = job
    try:
        if method == "mple":
            return mple(sub, spec), None
        return mcmle(sub, spec, controls=mcmle_controls, seed=seed_k), None
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
    n_clusters: int,
    spec: StatisticSpec,
    stage1: str = "lsm",
    method: str = "mcmle",
    dim: int = LSM_DIM,
    lsm: LsmControls = LsmControls(),
    mcmle: McmleControls = McmleControls(),
    given_partition: Partition | None = None,
    seed: int = 0,
    threads: int = 1,
) -> TwoStageFit:
    """Run the full pipeline on one observed graph.

    ``stage1`` is a ``cluster`` method, run with ``dim`` and ``lsm``, or
    ``given``, which uses ``given_partition`` unchanged and so makes the
    pipeline identical to fitting each block directly; a partition given
    with any other ``stage1`` is an error.  ``method`` is the stage-2
    estimator, ``mcmle`` (chain lengths ``mcmle``) or ``mple``.  A cluster
    that is empty, too small for the spec, or without a finite fit is marked
    unavailable with its reason rather than failing the run.  The clusters
    are fitted by ``rng.parallel_map`` with ``threads``, which changes no
    fit: each has its own seed, ``stage2_seed(seed, k)``.
    """
    if method not in ("mcmle", "mple"):
        raise ValueError(f"stage-2 method must be mcmle or mple, got {method!r}")
    if stage1 != "given" and given_partition is not None:
        raise ValueError(f"a given partition needs stage1='given', not {stage1!r}")
    if stage1 == "given":
        if given_partition is None:
            raise ValueError("stage1='given' requires given_partition")
        if given_partition.n_clusters != n_clusters:
            raise ValueError(
                f"K={n_clusters} but the given partition has "
                f"{given_partition.n_clusters} clusters"
            )
        partition = given_partition
    else:
        stage1_seed = int(child_seed(seed, "stage1").generate_state(1, np.uint32)[0])
        partition, _ = cluster(g, n_clusters, stage1, stage1_seed, dim, lsm)

    sizes = partition.sizes().tolist()
    jobs = [(within_subgraph(g, partition, k)[0], spec, method, mcmle, stage2_seed(seed, k))
            for k, nk in enumerate(sizes) if nk]
    # an MCMLE fit runs at least its burn-in and the full-size sample it ends
    # on; an MPLE fit builds one design row a dyad, which took as long as 3-5
    # Gibbs updates (8.5-22 us a dyad on 4 blocks of 70-200 nodes at density
    # 0.15, against 2.7-4.0 us an update on the fig3 chains)
    sweeps = (3 if method == "mple"
              else mcmle.burnin_sweeps + MCMLE_SAMPLE_BOOST * mcmle.n_samples)
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
    coverage: float


@dataclass
class GofReport:
    diagnostics: dict[str, GofDiagnostic]
    flagged_clusters: list[int]

    def coverage(self, name: str) -> float:
        return self.diagnostics[name].coverage


def _degree_hist(g: Graph) -> np.ndarray:
    return np.bincount(g.degrees(), minlength=g.n).astype(np.float64)


def _esp_hist(g: Graph) -> np.ndarray:
    return esp_histogram(g).astype(np.float64)


def _geodesic_hist(g: Graph) -> np.ndarray:
    """Dyad counts at geodesic 1..n-1; the last slot counts unreachable pairs."""
    n = g.n
    d_u = g.geodesic_distances()[np.triu_indices(n, 1)]
    out = np.zeros(n, dtype=np.float64)
    finite = d_u[np.isfinite(d_u)].astype(np.int64)
    counts = np.bincount(finite, minlength=n)
    out[: n - 1] = counts[1:n]
    out[n - 1] = float(np.sum(~np.isfinite(d_u)))
    return out


def _gof_model(fit, g: Graph) -> tuple[HergmSpec, StatisticSpec, list[int]]:
    """The block model ``gof`` simulates for ``fit`` on ``g``.

    Returns (model, spec of the statistics panel, clusters without a fit).
    A ``TwoStageFit`` gives one block per non-empty cluster, in label order;
    a cluster without a fit is Bernoulli at its observed density.  An
    ``ErgmFit`` is one ERGM block, an LSM posterior or summary one Bernoulli
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
                blocks.append(ClusterSpec(nk, cfit.spec, cfit.theta_hat))
            else:
                sub, _ = within_subgraph(g, part, k)
                blocks.append(BernoulliBlock(nk, sub.n_edges / max(nk * (nk - 1) // 2, 1)))
        between_p = 0.0 if fit.between_p is None else fit.between_p
        flagged = [k for k, f in enumerate(fit.cluster_fits) if f is None]
        return HergmSpec(tuple(blocks), between_p), fit.spec, flagged
    if isinstance(fit, ErgmFit):
        return HergmSpec((ClusterSpec(g.n, fit.spec, fit.theta_hat),), 0.0), fit.spec, []
    if isinstance(fit, (LsmPosterior, LsmSummary)):
        z = np.asarray(fit.positions_mean, dtype=np.float64)
        if z.shape[0] != g.n:
            raise ValueError(
                f"the fit has latent positions for {z.shape[0]} nodes; the graph has {g.n}"
            )
        dmat = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2))
        p = 0.5 * (1.0 + np.tanh(0.5 * (fit.beta0_mean - fit.beta1_mean * dmat)))
        block = BernoulliBlock(g.n, p[np.triu_indices(g.n, 1)])
        # model statistics panel: density only
        return HergmSpec((block,), 0.0), parse_spec("edges"), []
    raise TypeError(f"cannot run gof on {type(fit).__name__}")


def gof(
    g: Graph,
    fit,
    n_sim: int,
    seed: int = 0,
    burnin_sweeps: int = GOF_BURNIN_SWEEPS,
    threads: int = 1,
) -> GofReport:
    """Simulation-envelope goodness of fit.

    ``fit`` may be a ``TwoStageFit``, a single ``ErgmFit`` (whole-graph
    model), or an LSM posterior/summary (ties Bernoulli at the posterior-mean
    probabilities); it must be a fit for a graph with ``g``'s node count,
    which must be at least 2.
    Four diagnostics are compared pointwise against the 2.5%/97.5% envelope
    of ``n_sim`` simulated graphs: degree counts, edgewise shared partners,
    geodesic distances, and the model statistics.

    The fit becomes a block model (``_gof_model``) and the ``n_sim`` graphs
    are one ``hergm_draws`` call: each ERGM block is one Gibbs chain, as in
    ergm's ``gof``, that burns in ``burnin_sweeps`` sweeps once and keeps a
    draw every ``GOF_THIN_SWEEPS`` sweeps; ``threads`` is passed on and
    changes no draw.  A cluster without a fit falls back to Bernoulli ties
    at its observed density and is listed in ``flagged_clusters``.
    Diagnostics are label-invariant, so blocks are laid out contiguously.
    """
    if g.n < 2:
        raise ValueError(f"gof needs a graph of at least 2 nodes, got {g.n}")
    hspec, spec, flagged = _gof_model(fit, g)
    draws = hergm_draws(hspec, seed, SamplerControls(burnin_sweeps, n_sim, GOF_THIN_SWEEPS),
                        threads)

    observed = {
        "degree": _degree_hist(g),
        "esp": _esp_hist(g),
        "geodesic": _geodesic_hist(g),
        "stats": stat_vector(g, spec),
    }
    sims = {
        "degree": [_degree_hist(sim) for sim in draws],
        "esp": [_esp_hist(sim) for sim in draws],
        "geodesic": [_geodesic_hist(sim) for sim in draws],
        "stats": stat_matrix(draws, spec),
    }

    diagnostics = {}
    for name, obs in observed.items():
        arr = np.stack(sims[name])
        lower = np.quantile(arr, 0.025, axis=0)
        upper = np.quantile(arr, 0.975, axis=0)
        inside = (obs >= lower) & (obs <= upper)
        diagnostics[name] = GofDiagnostic(obs, lower, upper, float(inside.mean()))
    return GofReport(diagnostics, flagged)


# -- serialization -----------------------------------------------------------


def two_stage_fit_to_dict(fit: TwoStageFit) -> dict:
    clusters = []
    for cfit, reason in zip(fit.cluster_fits, fit.fit_errors):
        if cfit is None:
            clusters.append({"available": False, "reason": reason})
        else:
            entry = ergm_fit_to_dict(cfit)
            entry["available"] = True
            clusters.append(entry)
    return {
        "kind": "twostage",
        "spec": fit.spec.to_string(),
        "method": fit.method,
        "stage1": {
            "method": fit.stage1_method,
            "partition": [int(v) for v in fit.partition.assignments],
            "K": fit.partition.n_clusters,
        },
        "cluster_fits": clusters,
        "between": (
            None
            if fit.between_p is None
            else {"p_hat": fit.between_p, "std_error": fit.between_se}
        ),
        "seed": fit.seed,
    }


def two_stage_fit_from_dict(data: dict) -> TwoStageFit:
    part = Partition(
        np.array(data["stage1"]["partition"], dtype=np.int64),
        int(data["stage1"]["K"]),
    )
    if len(data["cluster_fits"]) != part.n_clusters:
        raise ValueError(f"{len(data['cluster_fits'])} cluster fits for K={part.n_clusters}")
    spec = parse_spec(data["spec"])
    fits: list[ErgmFit | None] = []
    reasons: list[str | None] = []
    for k, entry in enumerate(data["cluster_fits"]):
        if entry.get("available"):
            cfit = ergm_fit_from_dict(entry)
            if cfit.spec != spec:
                raise ValueError(
                    f"cluster {k} has spec {cfit.spec.to_string()!r}; "
                    f"the fit's spec is {spec.to_string()!r}"
                )
            fits.append(cfit)
            reasons.append(None)
        else:
            fits.append(None)
            reasons.append(entry.get("reason"))
    between = data.get("between")
    return TwoStageFit(
        spec=spec,
        stage1_method=data["stage1"]["method"],
        partition=part,
        cluster_fits=fits,
        fit_errors=reasons,
        between_p=None if between is None else float(between["p_hat"]),
        between_se=None if between is None else float(between["std_error"]),
        method=data.get("method", "mcmle"),
        seed=int(data.get("seed", 0)),
    )
