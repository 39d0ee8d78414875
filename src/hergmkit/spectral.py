"""SCORE spectral clustering for degree-heterogeneous block structure.

Ratios of the leading adjacency eigenvectors cancel node-level degree
effects, so k-means on the ratio matrix recovers blocks even when hubs and
low-degree nodes share a block.  The K leading eigenpairs come from a block
Krylov iteration on the adjacency matrix (``_leading_eigenpairs``), seeded
from the clustering's seed and stopped on its Ritz residuals, so no dense
eigendecomposition of the n x n matrix is taken.  Includes a small
deterministic k-means (restarts, seeded, empty clusters re-seeded to
distinct far points).
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


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    restarts: int = SCORE_RESTARTS,
    seed: int = 0,
) -> np.ndarray:
    """Lloyd's k-means, best of ``restarts`` by within-cluster sum of squares.

    Each restart runs at most ``KMEANS_MAX_ITER`` Lloyd iterations.
    Deterministic under seed.  A cluster that empties is re-seeded to the
    point farthest from its assigned center among those whose cluster keeps
    another member, so every label stays in use.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if n_clusters > n:
        raise ValueError(f"K={n_clusters} exceeds {n} points")
    check_count("restarts", restarts, 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best_labels = None
    best_wcss = math.inf
    for _ in range(restarts):
        centers = pts[rng.choice(n, size=n_clusters, replace=False)].copy()
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(KMEANS_MAX_ITER):
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            for k in range(n_clusters):
                mask = new_labels == k
                if mask.any():
                    centers[k] = pts[mask].mean(axis=0)
                else:
                    # n >= K, so some cluster has a point to spare
                    misfit = d2[np.arange(n), new_labels]
                    spare = np.bincount(new_labels, minlength=n_clusters)[new_labels] > 1
                    far = int(np.where(spare, misfit, -1.0).argmax())
                    centers[k] = pts[far]
                    new_labels[far] = k
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        wcss = float(((pts - centers[labels]) ** 2).sum())
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels.copy()
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
    centers = np.stack([
        ratios[core][core_labels == c].mean(axis=0) for c in range(k)
    ])
    labels = np.empty(g.n, dtype=np.int64)
    labels[core] = core_labels
    rest = ~core
    if rest.any():
        d2 = ((ratios[rest][:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels[rest] = d2.argmin(axis=1)
    return Partition(labels, k)
