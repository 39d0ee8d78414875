"""Two-stage estimation: cluster first, then fit per-cluster ERGMs.

Stage 1 recovers a node partition from the observed graph with a working
model (latent position cluster model, SCORE, or a user-supplied partition).
Stage 2 fits an ERGM independently inside each recovered cluster and the
closed-form Binomial density between clusters.  Goodness of fit compares the
observed graph against simulation envelopes from the fitted model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .fit import (
    ErgmFit,
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
    LsmControls,
    LsmPosterior,
    LsmSummary,
    lsm_mcmc,
    map_membership,
)
from .rng import child_seed
from .sampler import (
    BernoulliBlock,
    ClusterSpec,
    HergmSpec,
    SamplerControls,
    hergm_draws,
)
from .spectral import score_cluster
from .stats import StatisticSpec, esp_histogram, parse_spec, stat_vector

__all__ = [
    "TwoStageControls",
    "TwoStageFit",
    "GofDiagnostic",
    "GofReport",
    "two_stage_fit",
    "misclustering_rate",
    "gof",
    "two_stage_fit_to_dict",
    "two_stage_fit_from_dict",
]


@dataclass(frozen=True)
class TwoStageControls:
    method: str = "mcmle"  # stage-2 estimator: mcmle | mple
    dim: int = 2
    lsm: LsmControls = LsmControls()
    mcmle: McmleControls = McmleControls()

    def __post_init__(self):
        if self.method not in ("mcmle", "mple"):
            raise ValueError(f"stage-2 method must be mcmle or mple, got {self.method!r}")


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
    lsm_posterior: LsmPosterior | LsmSummary | None = None

    @property
    def n_clusters(self) -> int:
        return self.partition.n_clusters


def stage2_seed(master: int, k: int) -> int:
    """Deterministic per-cluster stage-2 seed."""
    return int(child_seed(master, "stage2", k).generate_state(1, np.uint32)[0])


def _fit_cluster(sub: Graph, spec: StatisticSpec, method: str,
                 mcmle_controls: McmleControls, seed_k: int):
    """Fit one within-cluster block; returns (fit | None, reason | None)."""
    need = spec.min_nodes()
    if sub.n < need:
        return None, f"cluster has {sub.n} nodes; spec needs at least {need}"
    try:
        if method == "mple":
            return mple(sub, spec), None
        return mcmle(sub, spec, controls=mcmle_controls, seed=seed_k), None
    except (NonFiniteMleError, SamplesDegenerateError, MpleNotConvergedError) as exc:
        return None, str(exc)


def two_stage_fit(
    g: Graph,
    n_clusters: int,
    spec: StatisticSpec,
    stage1: str = "lsm",
    controls: TwoStageControls | None = None,
    given_partition: Partition | None = None,
    seed: int = 0,
) -> TwoStageFit:
    """Run the full pipeline on one observed graph.

    ``stage1`` selects the clustering route; ``given`` uses the supplied
    partition unchanged, which makes the pipeline identical to fitting each
    block directly.  A cluster that is empty, too small for the spec, or
    without a finite fit is marked unavailable with its reason rather than
    failing the run.
    """
    controls = controls or TwoStageControls()
    posterior = None
    stage1_seed = int(child_seed(seed, "stage1").generate_state(1, np.uint32)[0])
    if stage1 == "lsm":
        posterior = lsm_mcmc(
            g, n_clusters, dim=controls.dim, controls=controls.lsm, seed=stage1_seed
        )
        partition = map_membership(posterior)
    elif stage1 == "score":
        partition = score_cluster(g, n_clusters, seed=stage1_seed)
    elif stage1 == "given":
        if given_partition is None:
            raise ValueError("stage1='given' requires given_partition")
        if given_partition.n != g.n:
            raise ValueError("given partition does not cover the graph")
        if given_partition.n_clusters != n_clusters:
            raise ValueError(
                f"K={n_clusters} but the given partition has "
                f"{given_partition.n_clusters} clusters"
            )
        partition = given_partition
    else:
        raise ValueError(f"unknown stage-1 method {stage1!r}")

    fits: list[ErgmFit | None] = []
    reasons: list[str | None] = []
    sizes = partition.sizes()
    for k in range(partition.n_clusters):
        if sizes[k] == 0:
            fit, reason = None, "cluster is empty"
        else:
            sub, _ = within_subgraph(g, partition, k)
            fit, reason = _fit_cluster(
                sub, spec, controls.method, controls.mcmle, stage2_seed(seed, k)
            )
        fits.append(fit)
        reasons.append(reason)

    if np.count_nonzero(sizes) >= 2:
        p_hat, p_se = between_density_mle(g, partition)
    else:
        p_hat = p_se = None
    return TwoStageFit(
        spec=spec,
        stage1_method=stage1,
        partition=partition,
        cluster_fits=fits,
        fit_errors=reasons,
        between_p=p_hat,
        between_se=p_se,
        method=controls.method,
        seed=seed,
        lsm_posterior=posterior,
    )


def misclustering_rate(est: Partition, truth: Partition) -> float:
    """Fraction of disagreeing nodes under the best label matching.

    Exact: Hungarian assignment on the label contingency matrix.
    """
    if est.n != truth.n:
        raise ValueError(f"partition sizes differ: {est.n} vs {truth.n}")
    k = max(est.n_clusters, truth.n_clusters)
    cont = np.zeros((k, k), dtype=np.int64)
    np.add.at(cont, (est.assignments, truth.assignments), 1)
    rows, cols = linear_sum_assignment(-cont)
    matched = int(cont[rows, cols].sum())
    return 1.0 - matched / est.n


# -- goodness of fit ---------------------------------------------------------

GOF_BURNIN_SWEEPS = 500
GOF_THIN_SWEEPS = 10


@dataclass
class GofDiagnostic:
    name: str
    observed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    coverage: float


@dataclass
class GofReport:
    diagnostics: dict[str, GofDiagnostic]
    n_sim: int
    seed: int
    flagged_clusters: list[int] = field(default_factory=list)

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
) -> GofReport:
    """Simulation-envelope goodness of fit.

    ``fit`` may be a ``TwoStageFit``, a single ``ErgmFit`` (whole-graph
    model), or an LSM posterior/summary (ties Bernoulli at the posterior-mean
    probabilities); it must be a fit for a graph with ``g``'s node count.
    Four diagnostics are compared pointwise against the 2.5%/97.5% envelope
    of ``n_sim`` simulated graphs: degree counts, edgewise shared partners,
    geodesic distances, and the model statistics.

    The fit becomes a block model (``_gof_model``) and the ``n_sim`` graphs
    are one ``hergm_draws`` call: each ERGM block is one Gibbs chain, as in
    ergm's ``gof``, that burns in ``burnin_sweeps`` sweeps once and keeps a
    draw every ``GOF_THIN_SWEEPS`` sweeps.  A cluster without a fit falls
    back to Bernoulli ties at its observed density and is listed in
    ``flagged_clusters``.  Diagnostics are label-invariant, so blocks are
    laid out contiguously.
    """
    if n_sim < 1:
        raise ValueError("n_sim must be >= 1")
    hspec, spec, flagged = _gof_model(fit, g)
    draws = hergm_draws(hspec, seed, SamplerControls(burnin_sweeps, n_sim, GOF_THIN_SWEEPS))

    observed = {
        "degree": _degree_hist(g),
        "esp": _esp_hist(g),
        "geodesic": _geodesic_hist(g),
        "stats": stat_vector(g, spec),
    }
    sims = {name: [] for name in observed}
    for sim in draws:
        sims["degree"].append(_degree_hist(sim))
        sims["esp"].append(_esp_hist(sim))
        sims["geodesic"].append(_geodesic_hist(sim))
        sims["stats"].append(stat_vector(sim, spec))

    diagnostics = {}
    for name, obs in observed.items():
        arr = np.stack(sims[name])
        lower = np.quantile(arr, 0.025, axis=0)
        upper = np.quantile(arr, 0.975, axis=0)
        inside = (obs >= lower) & (obs <= upper)
        diagnostics[name] = GofDiagnostic(
            name=name,
            observed=obs,
            lower=lower,
            upper=upper,
            coverage=float(inside.mean()),
        )
    return GofReport(diagnostics, n_sim, seed, flagged)


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
    fits: list[ErgmFit | None] = []
    reasons: list[str | None] = []
    for entry in data["cluster_fits"]:
        if entry.get("available"):
            fits.append(ergm_fit_from_dict(entry))
            reasons.append(None)
        else:
            fits.append(None)
            reasons.append(entry.get("reason"))
    between = data.get("between")
    return TwoStageFit(
        spec=parse_spec(data["spec"]),
        stage1_method=data["stage1"]["method"],
        partition=part,
        cluster_fits=fits,
        fit_errors=reasons,
        between_p=None if between is None else float(between["p_hat"]),
        between_se=None if between is None else float(between["std_error"]),
        method=data.get("method", "mcmle"),
        seed=int(data.get("seed", 0)),
    )
