"""SCORE spectral clustering for degree-heterogeneous block structure.

Ratios of the leading adjacency eigenvectors cancel node-level degree
effects, so k-means on the ratio matrix recovers blocks even when hubs and
low-degree nodes share a block.  Includes a small deterministic k-means
(restarts, seeded, empty clusters re-seeded to distinct far points).

scipy (ARPACK's ``eigsh``, ``connected_components``) is imported inside the
functions that call it: every CLI command imports this module, and scipy's
import is most of a command's start-up, so only SCORE runs pay for it.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, Partition
from .sampler import check_count

__all__ = ["SCORE_RESTARTS", "kmeans", "score_cluster"]


KMEANS_MAX_ITER = 100
SCORE_RESTARTS = 10


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


def _leading_eigenpairs(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k leading eigenpairs of a symmetric matrix by eigenvalue magnitude."""
    n = a.shape[0]
    if n <= max(3 * k, 50):
        vals, vecs = np.linalg.eigh(a)
    else:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import eigsh

        # a fixed ARPACK start: its own carries state from call to call, and a
        # constant one is nearly orthogonal to balanced block eigenvectors
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        vals, vecs = eigsh(csr_matrix(a), k=min(2 * k, n - 1), which="LM", v0=v0)
    order = np.argsort(-np.abs(vals))[:k]
    return vals[order], vecs[:, order]


def score_cluster(
    g: Graph, n_clusters: int, restarts: int = SCORE_RESTARTS, seed: int = 0
) -> Partition:
    """Cluster nodes by k-means on truncated eigenvector ratios.

    The ratio matrix divides eigenvectors 2..K entrywise by the leading one;
    entries are capped at +-T with T = log(n).  K-means is fit on the giant
    component's rows; nodes of smaller components are assigned to the
    nearest fitted centroid.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    k = n_clusters
    if k < 2:
        raise ValueError("SCORE needs K >= 2")
    if g.n < k:
        raise ValueError(f"graph has {g.n} nodes, fewer than K={k}")
    cap = math.log(g.n)
    a = g.adjacency_matrix().astype(np.float64)
    _, vecs = _leading_eigenpairs(a, k)
    lead = vecs[:, 0].copy()
    # fix the global sign so ratios are reproducible
    if lead[np.abs(lead).argmax()] < 0:
        lead = -lead
    # entries that are numerically zero (nodes invisible to the leading
    # eigenvector) would produce sign-noise ratios; pin them to the cap
    near_zero = np.abs(lead) < 1e-8 * max(float(np.abs(lead).max()), 1e-300)
    ratios = np.empty((g.n, k - 1), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(1, k):
            r = vecs[:, c] / lead
            r[near_zero | ~np.isfinite(r)] = cap
            ratios[:, c - 1] = np.clip(r, -cap, cap)

    _, comp = connected_components(csr_matrix(a), directed=False)
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
