"""Bayesian latent position cluster model, used as the stage-1 working model.

Ties are conditionally independent given latent node positions: the log-odds
of a tie is an intercept minus a non-negative coefficient times the Euclidean
distance between the endpoints' positions.  Positions follow a K-component
isotropic Gaussian mixture, giving soft cluster memberships.

The sampler mixes random-walk Metropolis moves (positions, coefficients)
with conjugate draws (memberships, mixture weights, component means and
variances).  Retained draws are Procrustes-aligned to the starting
configuration and rescaled to unit root-mean-square position norm; the
distance coefficient absorbs the scale, leaving the likelihood untouched.

The position block moves one node at a time, in node order, but scores all
n proposals in one array pass: the coefficients, the mixture and the
proposal scale are fixed during the block (the scale retunes after a
multiple of n proposals), so every proposal's distances and log-likelihood
row, and the dyad terms between every two proposals, are known before the
walk.  The walk over the nodes then only adds, to the later rows, the
change that each accepted move makes to them.  Distances are summed one
dimension at a time (``_distances``) and log(1 + e^eta) is taken as
max(eta, 0) + log1p(e^-|eta|) (``_softplus``), both on numpy's vectorised
paths, where ``np.logaddexp`` is a scalar loop.  Draws, order and
distances are those of a node-by-node loop (distances bit for bit up to
d = 7); a row's terms differ from ``logaddexp``'s by a few ULP and its sum
is added up in another order, so a decision could differ only where log u
falls within rounding of the log ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, Partition
from .rng import child_rng
from .sampler import check_count, check_counts
from .spectral import kmeans

__all__ = [
    "LSM_DIM",
    "LsmControls",
    "LsmPosterior",
    "lsm_mcmc",
    "membership_probabilities",
    "map_membership",
    "init_positions",
    "procrustes_align",
    "draw_memberships",
    "draw_mixture_params",
    "lsm_posterior_to_dict",
    "lsm_posterior_from_dict",
]


LSM_DIM = 2  # default latent dimension

# priors: normal coefficients, Dirichlet weights, mixture scales
BETA_MEAN = (0.0, 1.0)  # (intercept, distance coef)
BETA_VAR = (25.0, 25.0)
DIRICHLET = 1.0
MEAN_SCALE_SQ = 4.0  # omega^2, prior variance of component means
VAR_SCALE_SQ = 0.5  # sigma_0^2, scale of the variance prior
VAR_DF = 2.0  # alpha, degrees of freedom of the variance prior

# burn-in proposal tuning: rescale every TUNE_INTERVAL proposals toward
# TARGET_ACCEPT acceptance
TUNE_INTERVAL = 50
TARGET_ACCEPT = 0.25


@dataclass(frozen=True)
class LsmControls:
    burnin: int = 5000
    n_samples: int = 2000
    thin: int = 5

    def __post_init__(self):
        check_counts(self, burnin=0, n_samples=1, thin=1)


@dataclass
class LsmPosterior:
    """Retained draws plus aggregated membership summaries."""

    n_clusters: int
    dim: int
    zs: np.ndarray  # S x n x d, aligned and rescaled
    beta0s: np.ndarray  # S
    beta1s: np.ndarray  # S
    ms: np.ndarray  # S x n, relabeled membership draws
    log_posts: np.ndarray  # S
    membership_probs: np.ndarray  # n x K, averaged over relabeled draws
    acceptance: dict[str, float]
    warnings: list[str] = field(default_factory=list)
    seed: int | None = None

    @property
    def positions_mean(self) -> np.ndarray:
        return self.zs.mean(axis=0)

    @property
    def beta0_mean(self) -> float:
        return float(self.beta0s.mean())

    @property
    def beta1_mean(self) -> float:
        return float(self.beta1s.mean())


# -- small pieces ------------------------------------------------------------


def membership_probabilities(z, lam, mu, sig2) -> np.ndarray:
    """Posterior component probabilities per node for one mixture state.

    P(M_i = k) proportional to lam_k * N(z_i; mu_k, sig2_k I), normalized
    over components.
    """
    z = np.atleast_2d(z)
    n, d = z.shape
    k = len(lam)
    # log densities, n x K
    diff = z[:, None, :] - mu[None, :, :]
    log_phi = -0.5 * (diff**2).sum(axis=2) / sig2[None, :]
    log_phi -= 0.5 * d * np.log(2.0 * math.pi * sig2)[None, :]
    logw = np.log(np.maximum(lam, 1e-300))[None, :] + log_phi
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    w /= w.sum(axis=1, keepdims=True)
    return w


def map_membership(post: LsmPosterior) -> Partition:
    """Highest-probability component per node; ties go to the lowest index."""
    return Partition(post.membership_probs.argmax(axis=1), post.n_clusters)


def init_positions(g: Graph, d: int = LSM_DIM) -> np.ndarray:
    """Classical MDS of geodesic distances, the chain start and alignment target.

    Disconnected pairs are placed at (diameter + 1); the result is centered.
    """
    n = g.n
    dist = g.geodesic_distances()
    finite = np.isfinite(dist)
    dist[~finite] = dist[finite].max() + 1.0
    sq = dist**2
    jc = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * jc @ sq @ jc
    vals, vecs = np.linalg.eigh(b)
    order = np.argsort(vals)[::-1][:d]
    lam = np.clip(vals[order], 0.0, None)
    z = vecs[:, order] * np.sqrt(lam)[None, :]
    if z.shape[1] < d:
        z = np.hstack([z, np.zeros((n, d - z.shape[1]))])
    return z - z.mean(axis=0)


def procrustes_align(z: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Best rigid motion (rotation/reflection/translation) of z onto reference.

    The rotation is ``u @ vt`` from the SVD of the centred cross-product
    (Schoenemann 1966), the formula of scipy's ``orthogonal_procrustes``.
    """
    z = np.asarray(z, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if z.shape != reference.shape:
        raise ValueError(f"shape mismatch {z.shape} vs {reference.shape}")
    zm, rm = z.mean(axis=0), reference.mean(axis=0)
    u, _, vt = np.linalg.svd(((reference - rm).T @ (z - zm)).T)
    return (z - zm) @ (u @ vt) + rm


def _best_permutation(labels: np.ndarray, reference: np.ndarray, k: int):
    """Permutation perm with perm[old] = new maximizing label agreement.

    Exact: the Hungarian method (Kuhn 1955) on the K x K contingency table,
    in the shortest-augmenting-path form of Crouse (2016).  Each row joins
    the matching through one Dijkstra-like search for the cheapest
    augmenting path over reduced costs, kept non-negative by integer row and
    column potentials, so the solve is O(K^3).  Among tied matchings it returns any one; the search breaks
    ties as scipy's ``linear_sum_assignment`` does.
    """
    cont = np.zeros((k, k), dtype=np.int64)
    np.add.at(cont, (labels, reference), 1)
    cost = (-cont).tolist()
    u, v = [0] * k, [0] * k  # row and column potentials
    col4row, row4col, path = [-1] * k, [-1] * k, [-1] * k
    for cur in range(k):
        dist = [math.inf] * k  # reduced path cost to each column
        rows, cols = [], []  # rows and columns the search reached
        todo = list(range(k - 1, -1, -1))
        i, low = cur, 0
        while True:
            rows.append(i)
            best, at = math.inf, -1
            for pos, j in enumerate(todo):
                r = low + cost[i][j] - u[i] - v[j]
                if r < dist[j]:
                    path[j], dist[j] = i, r
                # on a tie prefer a free column: it ends the search
                if dist[j] < best or (dist[j] == best and row4col[j] == -1):
                    best, at = dist[j], pos
            low, j = best, todo[at]
            cols.append(j)
            todo[at] = todo[-1]
            todo.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        u[cur] += low
        for i in rows[1:]:
            u[i] += low - dist[col4row[i]]
        for c in cols:
            v[c] -= low - dist[c]
        while True:  # flip the path's matched and unmatched edges
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.int64)


# -- the sampler -------------------------------------------------------------


def _distances(a, b) -> np.ndarray:
    """Euclidean distances from each row of ``a`` to each row of ``b``.

    One outer difference per dimension, squared and added in dimension
    order; for d <= 7 these are the sums of numpy's own reduce over the
    last axis, bit for bit (from d = 8 numpy adds 8 partial sums).
    """
    out = np.subtract.outer(a[:, 0], b[:, 0])
    out *= out
    for k in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, k], b[:, k])
        diff *= diff
        out += diff
    return np.sqrt(out, out=out)


def _softplus(eta) -> np.ndarray:
    """log(1 + e^eta) as max(eta, 0) + log1p(e^-|eta|), overwriting ``eta``.

    Within a few ULP of ``np.logaddexp(0.0, eta)`` at a quarter of its cost.
    """
    t = np.abs(eta)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    np.maximum(eta, 0.0, out=eta)
    eta += t
    return eta


def _dyad_loglik_full(y_u, d_u, b0, b1) -> float:
    eta = b0 - b1 * d_u
    ties = float(y_u @ eta)
    return ties - float(_softplus(eta).sum())


def _dyad_terms(y, dist, b0, b1) -> np.ndarray:
    """Each dyad's log-likelihood term, y * eta - log(1 + e^eta), eta = b0 - b1 * dist."""
    eta = b0 - b1 * dist
    out = y * eta
    out -= _softplus(eta)
    return out


def _position_block(z, dmat, props, unif, y, b0, b1, mu, sig2, m) -> list[bool]:
    """One Metropolis move per node in node order; updates z and dmat in place.

    Node i proposes ``props[i]`` and accepts when log u_i is below the change
    in its log-likelihood row plus its mixture prior term, given the moves
    of the nodes before it.  Every proposal is scored against the block's
    starting state, and every pair of proposals against each other, in one
    array pass; the pair matrix adds about one n x n array to peak memory
    (8 MiB at n = 1,000).  An accepted
    move of node i then corrects each later node's two rows, which now see
    i at its proposal, by two slice adds: row i of ``up_old`` and column i
    of ``up_new``.  Returns the accept decisions.
    """
    dprop = _distances(props, z)
    np.fill_diagonal(dprop, 0.0)
    dpp = _distances(props, props)
    g_old = _dyad_terms(y, dmat, b0, b1)
    g_new = _dyad_terms(y, dprop, b0, b1)
    np.fill_diagonal(g_old, 0.0)
    np.fill_diagonal(g_new, 0.0)
    ll_old, ll_new = g_old.sum(axis=1), g_new.sum(axis=1)
    up_old = np.subtract(g_new, g_old, out=g_old)
    up_new = _dyad_terms(y, dpp, b0, b1)
    up_new -= g_new
    mu_m, sig2_m = mu[m], sig2[m]
    pr_old = (-0.5 * ((z - mu_m) ** 2).sum(axis=1) / sig2_m).tolist()
    pr_new = (-0.5 * ((props - mu_m) ** 2).sum(axis=1) / sig2_m).tolist()
    accepted = []
    for i, u in enumerate(unif.tolist()):
        accept = math.log(u + 1e-300) < (float(ll_new[i]) + pr_new[i]) - (
            float(ll_old[i]) + pr_old[i]
        )
        accepted.append(accept)
        if accept:
            later = slice(i + 1, None)
            ll_old[later] += up_old[i, later]
            ll_new[later] += up_new[later, i]
    moved = np.flatnonzero(accepted)
    z[moved] = props[moved]
    dmat[moved] = dprop[moved]
    dmat[:, moved] = dprop[moved].T
    dmat[np.ix_(moved, moved)] = dpp[np.ix_(moved, moved)]
    return accepted


def _log_prior(state) -> float:
    z, b0, b1, lam, mu, sig2, m = state
    n, d = z.shape
    lp = -0.5 * (b0 - BETA_MEAN[0]) ** 2 / BETA_VAR[0]
    lp += -0.5 * (b1 - BETA_MEAN[1]) ** 2 / BETA_VAR[1]
    lp += float((DIRICHLET - 1.0) * np.log(np.maximum(lam, 1e-300)).sum())
    lp += float(-0.5 * (mu**2).sum() / MEAN_SCALE_SQ)
    # scaled inverse chi-square density kernel
    a, s0 = VAR_DF, VAR_SCALE_SQ
    lp += float((-(1.0 + a / 2.0) * np.log(sig2) - a * s0 / (2.0 * sig2)).sum())
    # positions given assignments
    diff = z - mu[m]
    lp += float(
        -0.5 * ((diff**2).sum(axis=1) / sig2[m]).sum()
        - 0.5 * d * np.log(sig2[m]).sum()
    )
    lp += float(np.log(np.maximum(lam[m], 1e-300)).sum())
    return lp


def draw_memberships(z, lam, mu, sig2, rng) -> np.ndarray:
    """One conjugate draw of all node memberships."""
    w = membership_probabilities(z, lam, mu, sig2)
    cum = w.cumsum(axis=1)
    m = (rng.random(len(z))[:, None] > cum).sum(axis=1).astype(np.int64)
    return np.clip(m, 0, len(lam) - 1)


def draw_mixture_params(z, m, sig2_current, n_clusters, rng):
    """Conjugate draws of (weights, means, variances) given positions and labels.

    Two-block sweep: each component mean is drawn given the current variance,
    then the variance given the new mean.
    """
    d = z.shape[1]
    counts = np.bincount(m, minlength=n_clusters).astype(np.float64)
    lam = rng.dirichlet(DIRICHLET + counts)
    mu = np.empty((n_clusters, d))
    sig2 = np.empty(n_clusters)
    for c in range(n_clusters):
        nk = counts[c]
        var_c = 1.0 / (nk / sig2_current[c] + 1.0 / MEAN_SCALE_SQ)
        mean_c = (
            var_c * z[m == c].sum(axis=0) / sig2_current[c]
            if nk
            else np.zeros(d)
        )
        mu[c] = mean_c + math.sqrt(var_c) * rng.normal(size=d)
        ss = float(((z[m == c] - mu[c]) ** 2).sum()) if nk else 0.0
        df = VAR_DF + nk * d
        sig2[c] = (VAR_DF * VAR_SCALE_SQ + ss) / rng.chisquare(df)
    return lam, mu, sig2


class _Scale:
    """Proposal scale with burn-in tuning toward a target acceptance rate."""

    def __init__(self, value, interval):
        self.value = value
        self.interval = interval
        self.accepted = 0
        self.proposed = 0
        self.total_accepted = 0
        self.total_proposed = 0

    def record(self, accepted: int, tuning: bool, proposed: int = 1):
        """Count ``accepted`` of ``proposed`` moves made at the current value."""
        self.proposed += proposed
        self.accepted += accepted
        if not tuning:
            self.total_proposed += proposed
            self.total_accepted += accepted
        if tuning and self.proposed >= self.interval:
            rate = self.accepted / self.proposed
            self.value *= math.exp(rate - TARGET_ACCEPT)
            self.value = min(max(self.value, 1e-4), 1e4)
            self.accepted = 0
            self.proposed = 0

    def rate(self) -> float:
        return self.total_accepted / self.total_proposed


def lsm_mcmc(
    g: Graph,
    n_clusters: int,
    dim: int = LSM_DIM,
    controls: LsmControls = LsmControls(),
    seed: int = 0,
) -> LsmPosterior:
    """Fit the latent position cluster model by MCMC.

    Each iteration moves every position once, in node order, then each
    coefficient, then draws the mixture.  The position block scores all n
    proposals, and all proposal pairs, in a few n x n array passes and
    walks the nodes with scalar Metropolis decisions (``_position_block``);
    the position scale retunes only between iterations.  At d = 2 an
    iteration takes about 0.5 ms at n = 60, 2.7 ms at n = 200 and 67 ms at
    n = 1,000 (2-vCPU VM, numpy 2.4.6).  Deterministic under seed.
    Acceptance rates outside [0.1, 0.6] after burn-in are reported in
    ``warnings``, not raised.  The graph needs at least 2 nodes, and at least ``n_clusters``.
    """
    if g.n < 2:
        raise ValueError(f"lsm_mcmc needs a graph of at least 2 nodes, got {g.n}")
    if n_clusters < 1:
        raise ValueError("K must be >= 1")
    if g.n < n_clusters:
        raise ValueError(f"graph has {g.n} nodes, fewer than K={n_clusters}")
    check_count("dim", dim, 1)
    n, k, d = g.n, n_clusters, dim
    rng = child_rng(seed, "lsm")

    y = g.adjacency_matrix().astype(np.float64)
    iu = np.triu_indices(n, 1)
    y_u = y[iu]

    # initialization: geodesic MDS, k-means memberships, moment-matched mixture
    z = init_positions(g, d)
    reference = z.copy()
    m = kmeans(z, k, restarts=5, seed=int(child_rng(seed, "init").integers(2**31)))
    counts = np.bincount(m, minlength=k).astype(np.float64)
    lam = (counts + DIRICHLET) / (counts.sum() + k * DIRICHLET)
    mu = np.zeros((k, d))
    sig2 = np.full(k, 1.0)
    for c in range(k):
        pts = z[m == c]
        mu[c] = pts.mean(axis=0)
        sig2[c] = max(((pts - mu[c]) ** 2).sum() / (len(pts) * d), 1e-3)
    b1 = 1.0
    density = g.n_edges / len(y_u)
    density = min(max(density, 1.0 / (len(y_u) + 1)), 1.0 - 1.0 / (len(y_u) + 1))
    dmat = _distances(z, z)
    b0 = math.log(density / (1 - density)) + b1 * float(dmat[iu].mean())

    scale_z = _Scale(0.5, TUNE_INTERVAL * n)
    scale_b0 = _Scale(0.2, TUNE_INTERVAL)
    scale_b1 = _Scale(0.2, TUNE_INTERVAL)

    n_iters = controls.burnin + controls.n_samples * controls.thin
    s_out = 0
    zs = np.empty((controls.n_samples, n, d))
    beta0s = np.empty(controls.n_samples)
    beta1s = np.empty(controls.n_samples)
    ms = np.empty((controls.n_samples, n), dtype=np.int64)
    log_posts = np.empty(controls.n_samples)
    draw_probs = np.empty((controls.n_samples, n, k))

    for it in range(n_iters):
        tuning = it < controls.burnin

        # (a) positions, one random-walk move per node
        props = z + scale_z.value * rng.normal(size=(n, d))
        unif = rng.random(n)
        accepted = _position_block(z, dmat, props, unif, y, b0, b1, mu, sig2, m)
        scale_z.record(sum(accepted), tuning, n)

        d_u = dmat[iu]
        ll = _dyad_loglik_full(y_u, d_u, b0, b1)  # of the current state

        # (b) coefficients
        prop0 = b0 + scale_b0.value * rng.normal()
        ll_new = _dyad_loglik_full(y_u, d_u, prop0, b1)
        pr = -0.5 * (
            (prop0 - BETA_MEAN[0]) ** 2 - (b0 - BETA_MEAN[0]) ** 2
        ) / BETA_VAR[0]
        accept = math.log(rng.random() + 1e-300) < ll_new - ll + pr
        if accept:
            b0, ll = prop0, ll_new
        scale_b0.record(accept, tuning)

        prop1 = b1 * math.exp(scale_b1.value * rng.normal())
        ll_new = _dyad_loglik_full(y_u, d_u, b0, prop1)
        pr = -0.5 * (
            (prop1 - BETA_MEAN[1]) ** 2 - (b1 - BETA_MEAN[1]) ** 2
        ) / BETA_VAR[1]
        jac = math.log(prop1 / b1)  # log-scale random walk Jacobian
        accept = math.log(rng.random() + 1e-300) < ll_new - ll + pr + jac
        if accept:
            b1, ll = prop1, ll_new
        scale_b1.record(accept, tuning)

        # (c) conjugate mixture block
        m = draw_memberships(z, lam, mu, sig2, rng)
        lam, mu, sig2 = draw_mixture_params(z, m, sig2, k, rng)

        # (d) retention with alignment, rescaling, and bookkeeping
        if not tuning and (it - controls.burnin + 1) % controls.thin == 0:
            lp = ll + _log_prior((z, b0, b1, lam, mu, sig2, m))
            probs = membership_probabilities(z, lam, mu, sig2)
            z_al = procrustes_align(z, reference)
            scale = math.sqrt(float((z_al**2).sum() / n))
            if scale > 0:
                z_al = z_al / scale
                b1_al = b1 * scale
            else:
                b1_al = b1
            zs[s_out] = z_al
            beta0s[s_out] = b0
            beta1s[s_out] = b1_al
            ms[s_out] = m
            log_posts[s_out] = lp
            draw_probs[s_out] = probs
            s_out += 1

    # label alignment against the highest-posterior draw
    ref_labels = ms[int(log_posts.argmax())]
    for s in range(controls.n_samples):
        perm = _best_permutation(ms[s], ref_labels, k)
        ms[s] = perm[ms[s]]
        draw_probs[s] = draw_probs[s][:, np.argsort(perm)]
    membership_probs = draw_probs.mean(axis=0)

    acceptance = {
        "positions": scale_z.rate(),
        "beta0": scale_b0.rate(),
        "beta1": scale_b1.rate(),
    }
    warnings = [
        f"{name} acceptance rate {rate:.3f} outside [0.1, 0.6]; "
        "proposal scales are tuned during burn-in only, so try a longer burn-in"
        for name, rate in acceptance.items()
        if not 0.1 <= rate <= 0.6
    ]
    return LsmPosterior(
        n_clusters=k,
        dim=d,
        zs=zs,
        beta0s=beta0s,
        beta1s=beta1s,
        ms=ms,
        log_posts=log_posts,
        membership_probs=membership_probs,
        acceptance=acceptance,
        warnings=warnings,
        seed=seed,
    )


# -- serialization -----------------------------------------------------------


def lsm_posterior_to_dict(post: LsmPosterior) -> dict:
    """Compact JSON summary: enough to simulate from the posterior-mean model."""
    return {
        "kind": "lsm",
        "K": post.n_clusters,
        "dim": post.dim,
        "beta0_mean": post.beta0_mean,
        "beta1_mean": post.beta1_mean,
        "positions_mean": [[float(v) for v in row] for row in post.positions_mean],
        "membership_probs": [
            [float(v) for v in row] for row in post.membership_probs
        ],
        "map_partition": [int(v) for v in map_membership(post).assignments],
        "acceptance": {key: float(val) for key, val in post.acceptance.items()},
        "warnings": list(post.warnings),
        "seed": post.seed,
    }


def lsm_posterior_from_dict(data: dict) -> LsmPosterior:
    """Inverse of ``lsm_posterior_to_dict``, requiring every field it writes
    and checking the per-node array shapes and that the MAP partition is
    each node's most probable cluster.

    The posterior holds one draw, the file's posterior means, with the MAP
    partition as its memberships and an unknown (nan) log posterior, so
    writing it back gives the same summary.
    """
    probs = np.array(data["membership_probs"], dtype=np.float64)
    k, dim = int(data["K"]), int(data["dim"])
    z = np.array(data["positions_mean"], dtype=np.float64)
    part = Partition(np.array(data["map_partition"], dtype=np.int64), k)
    for key, arr, shape in (("positions_mean", z, (part.n, dim)),
                            ("membership_probs", probs, (part.n, k))):
        if arr.shape != shape:
            raise ValueError(f"{key} has shape {arr.shape}; {part.n} nodes need {shape}")
    if not np.array_equal(part.assignments, probs.argmax(axis=1)):
        raise ValueError("map_partition is not the most probable cluster of each node")
    return LsmPosterior(
        n_clusters=k,
        dim=dim,
        zs=z[None],
        beta0s=np.array([float(data["beta0_mean"])]),
        beta1s=np.array([float(data["beta1_mean"])]),
        ms=part.assignments[None],
        log_posts=np.array([math.nan]),
        membership_probs=probs,
        acceptance={key: float(val) for key, val in data["acceptance"].items()},
        warnings=list(data["warnings"]),
        seed=data["seed"],
    )
