"""Sampling from ERGM distributions and block-structured network simulation.

``gibbs_sample`` runs a single-site Gibbs chain over dyads: each update draws
the dyad from its full conditional, a Bernoulli whose logit is the inner
product of the parameter vector with the dyad's change statistics given the
current rest of the graph.  ``hergm_draws`` is the one simulator of block
models: each block is a Gibbs chain (``ClusterSpec``) or independent
Bernoulli ties (``BernoulliBlock``), and between-block ties are i.i.d.
Bernoulli.  ``simulate_hergm`` (one network and its partition) and the GOF
envelopes both draw through it.  ``exact_distribution`` enumerates the full
sample space for small n and is the ground-truth reference for sampler and
estimator tests, apart from the change-statistic kernel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Graph, Partition
from .rng import child_rng, parallel_map
from .stats import ChangeStatEngine, StatisticSpec, _chunk_rows, _stat_rows, stat_matrix

__all__ = [
    "SamplerControls",
    "GibbsResult",
    "ClusterSpec",
    "BernoulliBlock",
    "HergmSpec",
    "ExactDistribution",
    "gibbs_sample",
    "bernoulli_graph",
    "hergm_draws",
    "simulate_hergm",
    "exact_distribution",
    "dyad_order",
    "graph_index",
]

_DEGENERACY_BAND = (0.01, 0.99)


def near_degenerate(g: Graph) -> bool:
    """Whether ``g``'s density lies outside ``_DEGENERACY_BAND``; a chain
    whose final draw does is flagged near-degenerate.  A one-node graph has
    no dyad, so it is never flagged."""
    if g.n < 2:
        return False
    density = g.n_edges / (g.n * (g.n - 1) // 2)
    return not _DEGENERACY_BAND[0] <= density <= _DEGENERACY_BAND[1]


def check_counts(obj, **least) -> None:
    """Check that each named field of ``obj`` is an integer, not a bool, and
    at least its bound; ``least`` maps field names to bounds."""
    for name, lo in least.items():
        check_count(name, getattr(obj, name), lo)


def check_count(name: str, value, lo: int) -> None:
    """``check_counts`` for one argument ``value`` called ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value!r}")


@dataclass(frozen=True)
class SamplerControls:
    """Chain length controls; one sweep visits every dyad once."""

    burnin_sweeps: int = 2000
    n_samples: int = 1
    thin_sweeps: int = 10

    def __post_init__(self):
        check_counts(self, burnin_sweeps=0, n_samples=1, thin_sweeps=1)


@dataclass
class GibbsResult:
    graphs: list[Graph]
    stats: np.ndarray  # n_samples x n_terms, spec order
    degenerate: bool


def _check_theta(theta, spec: StatisticSpec, name: str = "theta") -> tuple[float, ...]:
    theta = tuple(float(v) for v in theta)
    if len(theta) != len(spec):
        raise ValueError(
            f"{name} has {len(theta)} entries for a {len(spec)}-term spec"
        )
    if not all(math.isfinite(v) for v in theta):
        raise ValueError(f"{name} must be finite, got {theta}")
    return theta


def dyad_order(n: int) -> list[tuple[int, int]]:
    """Canonical dyad sweep order: (0,1), (0,2), ..., (n-2,n-1)."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _expit(x: float) -> float:
    # stable logistic; tanh form avoids overflow on both tails
    return 0.5 * (1.0 + math.tanh(0.5 * x))


def _init_density(spec: StatisticSpec, theta) -> float:
    idx = spec.edges_index()
    return _expit(theta[idx]) if idx is not None else 0.5


def bernoulli_graph(n: int, p, rng: np.random.Generator) -> Graph:
    """Graph on n nodes with independent Bernoulli ties.

    ``p`` is one tie probability for every dyad, or an array of C(n, 2)
    per-dyad probabilities in ``dyad_order``.  Draws ``rng.random(C(n, 2))``
    once; dyad b is present iff ``u[b] < p[b]``.
    """
    iu, ju = np.triu_indices(n, 1)
    a = np.zeros((n, n), dtype=bool)
    a[iu, ju] = rng.random(iu.size) < p
    return Graph.from_adjacency(a | a.T)


def gibbs_sample(
    n: int,
    spec: StatisticSpec,
    theta,
    controls: SamplerControls,
    rng: np.random.Generator,
    start: Graph | None = None,
) -> GibbsResult:
    """Sample graphs from the ERGM on n nodes defined by (spec, theta).

    The chain starts from a copy of ``start`` (the caller's graph is not
    changed), or without one from an Erdos-Renyi draw at the edges-term
    density (0.5 without an edges term).  It runs ``burnin_sweeps``, then
    retains a copy every ``thin_sweeps`` sweeps, all in one
    ``ChangeStatEngine.run`` on one kernel state; the retained graphs'
    statistics are one ``stat_matrix`` call.  Degenerate parameter values
    do not raise; the result carries ``near_degenerate`` of the final state.
    """
    theta = _check_theta(theta, spec)
    spec.check_degrees(n)
    if start is None:
        g = bernoulli_graph(n, _init_density(spec, theta), rng)
    elif start.n != n:
        raise ValueError(f"start graph has {start.n} nodes, the chain {n}")
    else:
        g = start.copy()
    graphs = ChangeStatEngine(spec, n).run(
        g, theta, rng, controls.burnin_sweeps, controls.n_samples, controls.thin_sweeps
    )
    return GibbsResult(graphs, stat_matrix(graphs, spec), near_degenerate(g))


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster's size, model terms, and parameter vector."""

    n: int
    spec: StatisticSpec
    theta: tuple[float, ...]

    def __post_init__(self):
        check_counts(self, n=1)
        self.spec.check_degrees(self.n)
        object.__setattr__(self, "theta", _check_theta(self.theta, self.spec))


@dataclass(frozen=True, eq=False)
class BernoulliBlock:
    """A cluster of n nodes with independent Bernoulli ties.

    ``p`` is one tie probability, or C(n, 2) per-dyad probabilities in
    ``dyad_order``; 0 and 1 are allowed.
    """

    n: int
    p: float | np.ndarray

    def __post_init__(self):
        check_counts(self, n=1)
        p = np.array(self.p, dtype=np.float64)
        n_dyads = self.n * (self.n - 1) // 2
        if p.ndim and p.shape != (n_dyads,):
            raise ValueError(
                f"per-dyad p has shape {p.shape}; a {self.n}-node block needs ({n_dyads},)"
            )
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("tie probabilities must lie in [0, 1]")
        object.__setattr__(self, "p", p if p.ndim else float(p))


@dataclass(frozen=True)
class HergmSpec:
    """Block models plus one shared between-cluster tie probability.

    Each cluster is a ``ClusterSpec`` (an ERGM) or a ``BernoulliBlock``.
    """

    clusters: tuple[ClusterSpec | BernoulliBlock, ...]
    between_p: float

    def __post_init__(self):
        clusters = tuple(self.clusters)
        if not clusters:
            raise ValueError("need at least one cluster")
        if not 0.0 <= self.between_p <= 1.0:
            raise ValueError(f"between_p must be in [0, 1], got {self.between_p}")
        object.__setattr__(self, "clusters", clusters)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n(self) -> int:
        return sum(c.n for c in self.clusters)


def _block_draws(task) -> list[Graph]:
    """The ``n_samples`` draws of block k of ``hergm_draws``; ``task`` is
    (block, seed, k, controls)."""
    cl, seed, k, controls = task
    rng_k = child_rng(seed, "within", k)
    if isinstance(cl, BernoulliBlock):
        return [bernoulli_graph(cl.n, cl.p, rng_k) for _ in range(controls.n_samples)]
    return gibbs_sample(cl.n, cl.spec, cl.theta, controls, rng_k).graphs


def hergm_draws(
    hspec: HergmSpec,
    seed: int,
    controls: SamplerControls,
    threads: int = 1,
) -> list[Graph]:
    """Draw ``controls.n_samples`` networks from the block model.

    Cluster k occupies the consecutive node ids after clusters 0..k-1 and is
    drawn from its own stream ``child_rng(seed, "within", k)``: an ERGM
    block is one Gibbs chain that burns in once and keeps a draw every
    ``thin_sweeps`` sweeps; a Bernoulli block is a new ``bernoulli_graph``
    per draw.  Between-cluster dyads are i.i.d. Bernoulli(between_p) from
    one stream, ``child_rng(seed, "between")``, that carries on from draw to
    draw.  Blocks can thus be reproduced in isolation, and draw 0 does not
    depend on ``n_samples``.  The blocks are drawn by ``rng.parallel_map``
    with ``threads``, which changes no draw; the between-cluster stream is
    drawn here.
    """
    sizes = [c.n for c in hspec.clusters]
    offsets = np.cumsum([0] + sizes).tolist()
    sweeps = controls.burnin_sweeps + controls.n_samples * controls.thin_sweeps
    visits = sweeps * sum(c.n * (c.n - 1) // 2 for c in hspec.clusters
                          if isinstance(c, ClusterSpec))
    chains = parallel_map(_block_draws, [(cl, seed, k, controls)
                                         for k, cl in enumerate(hspec.clusters)],
                          threads, visits)
    rng_b = child_rng(seed, "between")
    blocks = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    draws = []
    for s in range(controls.n_samples):
        a = np.zeros((hspec.n, hspec.n), dtype=bool)
        for k, chain in enumerate(chains):
            a[blocks[k], blocks[k]] = chain[s].adjacency_matrix()
            for l in range(k + 1, hspec.n_clusters):
                u = rng_b.random((sizes[k], sizes[l]))
                a[blocks[k], blocks[l]] = u < hspec.between_p
        draws.append(Graph.from_adjacency(a | a.T))
    return draws


def simulate_hergm(
    hspec: HergmSpec,
    seed: int,
    controls: SamplerControls = SamplerControls(),
    threads: int = 1,
) -> tuple[Graph, Partition]:
    """Draw one network, draw 0 of ``hergm_draws``, and its partition."""
    g = hergm_draws(hspec, seed, replace(controls, n_samples=1), threads)[0]
    labels = np.repeat(np.arange(hspec.n_clusters), [c.n for c in hspec.clusters])
    return g, Partition(labels, hspec.n_clusters)


@dataclass
class ExactDistribution:
    """Full enumeration of P(Y=y) for every graph on n nodes.

    Graph index convention: bit b of the index is the dyad ``dyads[b]``.
    """

    n: int
    spec: StatisticSpec
    theta: tuple[float, ...]
    probs: np.ndarray  # 2^m
    stats: np.ndarray  # 2^m x n_terms
    log_psi: float
    mu: np.ndarray  # mean-value parameter E[S(Y)]
    dyads: list[tuple[int, int]] = field(repr=False, default_factory=list)


def graph_index(g: Graph, dyads: list[tuple[int, int]]) -> int:
    idx = 0
    for b, (i, j) in enumerate(dyads):
        if g.has_edge(i, j):
            idx |= 1 << b
    return idx


_ENUM_MAX_DYADS = 21


def exact_distribution(n: int, spec: StatisticSpec, theta) -> ExactDistribution:
    """Exact ERGM law by enumerating all 2^C(n,2) graphs (C(n,2) <= 21).

    Row t of the statistics table is ``stats._stat_rows`` of graph t, built
    from the bits of t, so it equals ``stat_vector`` of that graph exactly.
    """
    theta = _check_theta(theta, spec)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dyads = dyad_order(n)
    m = len(dyads)
    if m > _ENUM_MAX_DYADS:
        raise ValueError(
            f"n={n} has {m} dyads; enumeration is capped at {_ENUM_MAX_DYADS}"
        )
    n_states, chunk = 1 << m, _chunk_rows(n)
    stats = np.empty((n_states, len(spec)), dtype=np.float64)
    iu, ju = np.triu_indices(n, 1)  # dyads[b] = (iu[b], ju[b])
    for lo in range(0, n_states, chunk):
        index = np.arange(lo, min(lo + chunk, n_states))
        a = np.zeros((len(index), n, n), dtype=np.uint8)
        a[:, iu, ju] = a[:, ju, iu] = index[:, None] >> np.arange(m) & 1
        stats[lo:lo + len(index)] = _stat_rows(a, spec)

    logp = stats @ np.asarray(theta)
    top = logp.max()
    log_psi = float(top + np.log(np.exp(logp - top).sum()))
    probs = np.exp(logp - log_psi)
    mu = probs @ stats
    return ExactDistribution(n, spec, theta, probs, stats, log_psi, mu, dyads)
