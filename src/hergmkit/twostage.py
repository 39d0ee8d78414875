"""Two-stage estimation: cluster first, then fit per-cluster ERGMs.

Stage 1 recovers a node partition from the observed graph with a working
model (latent position cluster model, SCORE, or a user-supplied partition).
Stage 2 fits an ERGM independently inside each recovered cluster and the
closed-form Binomial density between clusters.  Goodness of fit compares the
observed graph against simulation envelopes from the fitted model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

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
    LsmPriors,
    LsmSummary,
    lsm_mcmc,
    map_membership,
)
from .rng import child_rng, child_seed
from .sampler import SamplerControls, bernoulli_graph, gibbs_sample
from .spectral import ScoreControls, score_cluster
from .stats import StatisticSpec, esp_histogram, stat_vector

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


# smallest cluster that can support a term (a 2-path needs 3 nodes, etc.)
def _min_nodes(term) -> int:
    if term.kind == "edges":
        return 2
    if term.kind in ("triangles", "gwdsp", "gwesp"):
        return 3
    if term.kind == "kstar":
        return term.param + 1
    return term.param + 1  # degree(k)


@dataclass(frozen=True)
class TwoStageControls:
    method: str = "mcmle"  # stage-2 estimator: mcmle | mple
    dim: int = 2
    lsm: LsmControls = LsmControls()
    priors: LsmPriors = LsmPriors()
    mcmle: McmleControls = McmleControls()
    score_restarts: int = 10

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
    need = max(_min_nodes(t) for t in spec)
    if sub.n < need:
        return None, f"cluster has {sub.n} nodes; spec needs at least {need}"
    try:
        if method == "mple":
            return mple(sub, spec), None
        return mcmle(sub, spec, controls=replace(mcmle_controls, seed=seed_k)), None
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
    if stage1 == "lsm":
        posterior = lsm_mcmc(
            g,
            n_clusters,
            dim=controls.dim,
            priors=controls.priors,
            controls=controls.lsm,
            seed=int(child_seed(seed, "stage1").generate_state(1, np.uint32)[0]),
        )
        partition = map_membership(posterior)
    elif stage1 == "score":
        partition = score_cluster(
            g,
            ScoreControls(
                n_clusters=n_clusters,
                restarts=controls.score_restarts,
                seed=int(child_seed(seed, "stage1").generate_state(1, np.uint32)[0]),
            ),
        )
    elif stage1 == "given":
        if given_partition is None:
            raise ValueError("stage1='given' requires given_partition")
        if given_partition.n != g.n:
            raise ValueError("given partition does not cover the graph")
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
    dist = shortest_path(
        csr_matrix(g.adjacency_matrix()), method="D", directed=False, unweighted=True
    )
    iu = np.triu_indices(n, 1)
    d_u = dist[iu]
    out = np.zeros(n, dtype=np.float64)
    finite = d_u[np.isfinite(d_u)].astype(np.int64)
    counts = np.bincount(finite, minlength=n)
    out[: n - 1] = counts[1:n]
    out[n - 1] = float(np.sum(~np.isfinite(d_u)))
    return out


def _chain_draws(n: int, fit: ErgmFit, n_sim: int, sim_controls: SamplerControls,
                 rng) -> list[Graph]:
    """n_sim graphs from one chain at the fitted parameter.

    The chain burns in ``sim_controls.burnin_sweeps`` sweeps once, then keeps
    a draw every ``sim_controls.thin_sweeps`` sweeps.
    """
    controls = replace(sim_controls, n_samples=n_sim)
    return gibbs_sample(n, fit.spec, fit.theta_hat, controls, rng=rng).graphs


def _cluster_chains(fit: TwoStageFit, n_sim: int, sim_controls: SamplerControls,
                    rng_seed: int) -> list[list[Graph] | None]:
    """``_chain_draws`` for every fitted cluster; None where a block has no fit."""
    sizes = fit.partition.sizes()
    return [
        None if cfit is None
        else _chain_draws(int(sizes[k]), cfit, n_sim, sim_controls,
                          child_rng(rng_seed, "gof", "chain", k))
        for k, cfit in enumerate(fit.cluster_fits)
    ]


def _simulate_twostage(fit: TwoStageFit, g_obs: Graph, sim_controls: SamplerControls,
                       rng_seed: int, rep: int, chains=None) -> Graph:
    """Draw ``rep`` from the fitted hierarchical model.

    A fitted block is sample ``rep`` of its cluster's chain, taken from
    ``chains`` (see ``_cluster_chains``) or, without it, from a chain run
    here up to that sample.  Blocks with unavailable fits fall back to
    Bernoulli at their observed within-cluster density; they and the
    between-cluster ties use their own stream per draw.  Diagnostics are
    label-invariant, so blocks are laid out contiguously.
    """
    if chains is None:
        chains = _cluster_chains(fit, rep + 1, sim_controls, rng_seed)
    part = fit.partition
    sizes = part.sizes()
    g = Graph(g_obs.n)
    pos = 0
    offsets = []
    for k in range(part.n_clusters):
        offsets.append(pos)
        nk = int(sizes[k])
        if nk >= 2:  # smaller blocks have no dyads
            if chains[k] is not None:
                block = chains[k][rep]
            else:
                sub, _ = within_subgraph(g_obs, part, k)
                dens = sub.n_edges / (nk * (nk - 1) // 2)
                block = bernoulli_graph(nk, dens, child_rng(rng_seed, "gof", rep, k))
            for i, j in block.edges():
                g.add_edge(pos + i, pos + j)
        pos += nk
    if part.n_clusters >= 2 and fit.between_p is not None:
        rng_b = child_rng(rng_seed, "gof", rep, "between")
        for k in range(part.n_clusters):
            for l in range(k + 1, part.n_clusters):
                u = rng_b.random((int(sizes[k]), int(sizes[l])))
                for i, j in zip(*np.nonzero(u < fit.between_p)):
                    g.add_edge(offsets[k] + int(i), offsets[l] + int(j))
    return g


def _simulate_lsm_mean(summary, n: int, rng) -> Graph:
    z = np.asarray(summary.positions_mean, dtype=np.float64)
    dmat = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2))
    eta = summary.beta0_mean - summary.beta1_mean * dmat
    p = 0.5 * (1.0 + np.tanh(0.5 * eta))
    return bernoulli_graph(n, p[np.triu_indices(n, 1)], rng)


def gof(
    g: Graph,
    fit,
    n_sim: int,
    seed: int = 0,
    sim_controls: SamplerControls | None = None,
) -> GofReport:
    """Simulation-envelope goodness of fit.

    ``fit`` may be a ``TwoStageFit``, a single ``ErgmFit`` (whole-graph
    model), or an LSM posterior/summary (ties Bernoulli at the posterior-mean
    probabilities).  Four diagnostics are compared pointwise against the
    2.5%/97.5% envelope of ``n_sim`` simulated graphs: degree counts,
    edgewise shared partners, geodesic distances, and the model statistics.

    ERGM blocks come from one Gibbs chain per fitted cluster (one chain for
    an ``ErgmFit``), as in ergm's ``gof``: the chain burns in
    ``sim_controls.burnin_sweeps`` sweeps once and draw ``rep`` is its
    sample ``rep``, ``sim_controls.thin_sweeps`` sweeps after the previous
    one.
    """
    if n_sim < 1:
        raise ValueError("n_sim must be >= 1")
    sim_controls = sim_controls or SamplerControls(burnin_sweeps=500)
    if isinstance(fit, TwoStageFit):
        spec = fit.spec
        flagged = [k for k, f in enumerate(fit.cluster_fits) if f is None]
        chains = _cluster_chains(fit, n_sim, sim_controls, seed)

        def draw(rep):
            return _simulate_twostage(fit, g, sim_controls, seed, rep, chains)

    elif isinstance(fit, ErgmFit):
        spec = fit.spec
        flagged = []
        draw = _chain_draws(
            g.n, fit, n_sim, sim_controls, child_rng(seed, "gof", "chain")
        ).__getitem__

    elif isinstance(fit, (LsmPosterior, LsmSummary)):
        from .stats import parse_spec

        spec = parse_spec("edges")  # model statistics panel: density only
        flagged = []

        def draw(rep):
            return _simulate_lsm_mean(fit, g.n, child_rng(seed, "gof", rep))

    else:
        raise TypeError(f"cannot run gof on {type(fit).__name__}")

    observed = {
        "degree": _degree_hist(g),
        "esp": _esp_hist(g),
        "geodesic": _geodesic_hist(g),
        "stats": stat_vector(g, spec),
    }
    sims = {name: [] for name in observed}
    for rep in range(n_sim):
        sim = draw(rep)
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
    from .stats import parse_spec

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
