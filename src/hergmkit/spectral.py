"""SCORE spectral clustering for degree-heterogeneous block structure.

Ratios of the leading adjacency eigenvectors cancel node-level degree
effects, so k-means on the ratio matrix recovers blocks even when hubs and
low-degree nodes share a block.  The K leading eigenpairs come from a block
Krylov iteration on the adjacency matrix (``_leading_eigenpairs``), seeded
from the clustering's seed and stopped on its Ritz residuals, so no dense
eigendecomposition of the n x n matrix is taken.  Includes a small
deterministic k-means: restarts seeded by k-means++, Lloyd distances as one
matrix product ||x||^2 - 2 x.c + ||c||^2, and a cluster that empties
re-seeded to the farthest point of a cluster that can spare one.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, Partition
from .rng import child_rng
from .sampler import check_count

__all__ = ["SCORE_RESTARTS", "kmeans", "score_cluster"]


KMEANS_MAX_ITER = 100
SCORE_RESTARTS = 10
# the Krylov iteration's stopping residual, relative to |lambda_1|
KRYLOV_RTOL = 1e-10
# a new basis column is dropped when its norm after the first
# orthogonalisation pass is below this share of its block's largest image
DROP_RTOL = 1e-12
# initial buffer columns per eigenpair
KRYLOV_COLUMNS = 32


def _sq_distances(pts: np.ndarray, sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, K) squared distances from the points to the centres, as
    ||x||^2 - 2 x.c + ||c||^2 with the points' squared norms ``sq`` given;
    rounding can leave an entry slightly below 0."""
    return sq[:, None] - 2.0 * (pts @ centers.T) + (centers ** 2).sum(axis=1)


def _centers(pts: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """The (k, d) means of the points of each label; every label must be
    in use."""
    counts = np.bincount(labels, minlength=k)
    sums = [np.bincount(labels, weights=col, minlength=k) for col in pts.T]
    return np.stack(sums, axis=1) / counts[:, None]


def _plus_plus(pts: np.ndarray, sq: np.ndarray, k: int, rng) -> np.ndarray:
    """k starting centres by k-means++: the first uniform, each next one a
    point drawn with probability proportional to its squared distance from
    the nearest centre chosen so far (uniform once every distance is 0)."""
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for c in range(1, k):
        d2 = np.minimum(d2, np.maximum(_sq_distances(pts, sq, centers[c - 1:c])[:, 0], 0.0))
        cum = np.cumsum(d2)
        u = rng.random()
        if cum[-1] > 0.0:
            i = min(int(np.searchsorted(cum, u * cum[-1], side="right")), n - 1)
        else:
            i = int(u * n)
        centers[c] = pts[i]
    return centers


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    restarts: int = SCORE_RESTARTS,
    seed: int = 0,
) -> np.ndarray:
    """Lloyd's k-means, best of ``restarts`` by within-cluster sum of squares.

    Deterministic under seed: every restart draws its starting centres by
    k-means++ (``_plus_plus``) from one ``SeedSequence(seed)`` stream, and
    runs at most ``KMEANS_MAX_ITER`` Lloyd iterations.  Each iteration takes
    the squared distances to all centres as one matrix product
    (``_sq_distances``, the points' squared norms computed once), assigns
    each point to its nearest centre (the lowest label on ties) and moves
    each centre to its points' mean, summed per dimension by ``np.bincount``.
    A cluster that empties is re-seeded to the point farthest from its
    assigned center among those whose cluster keeps another member, so
    every label stays in use.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if n_clusters > n:
        raise ValueError(f"K={n_clusters} exceeds {n} points")
    check_count("restarts", restarts, 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sq = (pts ** 2).sum(axis=1)
    best_labels = None
    best_wcss = math.inf
    for _ in range(restarts):
        centers = _plus_plus(pts, sq, n_clusters, rng)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(KMEANS_MAX_ITER):
            d2 = _sq_distances(pts, sq, centers)
            new_labels = d2.argmin(axis=1)
            counts = np.bincount(new_labels, minlength=n_clusters)
            for k in np.flatnonzero(counts == 0):
                # n >= K, so some cluster has a point to spare
                misfit = d2[np.arange(n), new_labels]
                far = int(np.where(counts[new_labels] > 1, misfit, -np.inf).argmax())
                counts[new_labels[far]] -= 1
                counts[k] = 1
                new_labels[far] = k
            centers = _centers(pts, new_labels, n_clusters)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        wcss = float(((pts - centers[labels]) ** 2).sum())
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels
    return best_labels


def _leading_eigenpairs(a: np.ndarray, k: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """k leading eigenpairs of a symmetric matrix by eigenvalue magnitude, each
    eigenvector signed so that its largest-magnitude entry (the first, on
    ties) is positive, whatever signs the solver picks.

    A block Krylov iteration with Rayleigh-Ritz.  The basis starts from an
    n x k Gaussian block drawn from ``child_rng(seed, "krylov")``, a stream
    of its own, so repeated calls agree bit for bit.  Each step appends the
    image ``a @ B`` of the last block B, orthogonalised against the basis Q
    twice (classical Gram-Schmidt, a thin QR after each pass); columns whose
    first-pass QR diagonal is negligible are dropped.  The Ritz pairs are
    ``eigh`` of the small projected matrix T = Q' a Q, built a block at a
    time.  The iteration stops once every one of the k Ritz residuals
    ``|a x - theta x|`` is at most ``KRYLOV_RTOL * |theta_1|``, read from the
    block-Lanczos relation as ``|R y|``, with R the last block's first-pass
    QR factor and y the last block's rows of the Ritz vector, or once the basis spans the whole space or an invariant
    subspace of it (every new column dropped), where the Ritz pairs are
    exact.  The residuals are checked each time the basis has grown by a
    quarter and k columns, which keeps the ``eigh`` calls few.  Q and a Q
    are held in buffers of ``KRYLOV_COLUMNS * k`` columns (at most n) that
    double when full, so they reach n x n only on a graph of at most
    ``KRYLOV_COLUMNS * k`` nodes or one whose basis grows to span the whole
    space.
    """
    n = a.shape[0]
    start = child_rng(seed, "krylov").standard_normal((n, k))
    # basis vectors and their images are the rows of these buffers
    cap = min(n, KRYLOV_COLUMNS * k)
    basis, image, t = np.empty((cap, n)), np.empty((cap, n)), np.empty((cap, cap))
    basis[:k] = np.linalg.qr(start)[0].T
    lo, m, checked = 0, k, 0
    while True:
        # the image of the last block, and its rows and columns of T
        image[lo:m] = basis[lo:m] @ a
        t[:m, lo:m] = basis[:m] @ image[lo:m].T
        t[lo:m, :lo] = t[:lo, lo:m].T
        q, r = np.linalg.qr((image[lo:m] - t[:m, lo:m].T @ basis[:m]).T)
        keep = np.abs(r.diagonal()) > DROP_RTOL * np.linalg.norm(image[lo:m], axis=1).max()
        done = m == n or not keep.any()
        if done or m >= checked + checked // 4 + k:
            checked = m
            vals, vecs = np.linalg.eigh(t[:m, :m])
            order = np.argsort(-np.abs(vals))[:k]
            residuals = np.linalg.norm(r @ vecs[lo:m, order], axis=0)
            if done or residuals.max() <= KRYLOV_RTOL * abs(vals[order[0]]):
                break
        q = q[:, keep].T
        q -= (q @ basis[:m].T) @ basis[:m]
        q = np.linalg.qr(q.T)[0].T[: n - m]
        if m + len(q) > cap:
            cap = min(n, 2 * cap)
            basis, image = (np.concatenate([b, np.empty((cap - len(b), n))]) for b in (basis, image))
            t, old = np.empty((cap, cap)), t
            t[:m, :m] = old[:m, :m]
        lo, m = m, m + len(q)
        basis[lo:m] = q
    vecs = vecs[:, order].T @ basis[:m]
    signs = np.sign(vecs[np.arange(k), np.abs(vecs).argmax(axis=1)])
    return vals[order], (vecs * signs[:, None]).T


def score_cluster(
    g: Graph, n_clusters: int, restarts: int = SCORE_RESTARTS, seed: int = 0
) -> Partition:
    """Cluster nodes by k-means on truncated eigenvector ratios.

    The ratio matrix divides eigenvectors 2..K entrywise by the leading one;
    entries are capped at +-T with T = log(n).  K-means is fit on the giant
    component's rows; nodes of smaller components are assigned to the
    nearest fitted centroid.
    """
    k = n_clusters
    if k < 2:
        raise ValueError("SCORE needs K >= 2")
    if g.n < k:
        raise ValueError(f"graph has {g.n} nodes, fewer than K={k}")
    cap = math.log(g.n)
    a = g.adjacency_matrix().astype(np.float64)
    _, vecs = _leading_eigenpairs(a, k, seed)
    lead = vecs[:, 0]
    # entries that are numerically zero (nodes invisible to the leading
    # eigenvector) would produce sign-noise ratios; pin them to the cap
    near_zero = np.abs(lead) < 1e-8 * max(float(np.abs(lead).max()), 1e-300)
    ratios = np.empty((g.n, k - 1), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(1, k):
            r = vecs[:, c] / lead
            r[near_zero | ~np.isfinite(r)] = cap
            ratios[:, c - 1] = np.clip(r, -cap, cap)

    comp = g.components()
    sizes = np.bincount(comp)
    # fit on components large enough to host a cluster; satellites are
    # assigned to the nearest centroid afterwards
    core = sizes[comp] >= k
    if core.sum() < k:
        core = np.ones(g.n, dtype=bool)
    core_labels = kmeans(ratios[core], k, restarts=restarts, seed=seed)
    centers = _centers(ratios[core], core_labels, k)
    labels = np.empty(g.n, dtype=np.int64)
    labels[core] = core_labels
    rest = ~core
    if rest.any():
        pts = ratios[rest]
        labels[rest] = _sq_distances(pts, (pts ** 2).sum(axis=1), centers).argmin(axis=1)
    return Partition(labels, k)
