"""SCORE clustering and the small k-means underneath it."""

import math

import numpy as np
import pytest

from hergmkit import Graph, Partition, parse_spec
from hergmkit.sampler import ClusterSpec, HergmSpec, SamplerControls, simulate_hergm
from hergmkit.spectral import _leading_eigenpairs, kmeans, score_cluster
from hergmkit.twostage import misclustering_rate


def two_cliques(size):
    g = Graph(2 * size)
    for a in range(2):
        for i in range(size):
            for j in range(i + 1, size):
                g.add_edge(a * size + i, a * size + j)
    return g


def planted(blocks, p_in, p_out, seed):
    spec = parse_spec("edges")
    theta = math.log(p_in / (1 - p_in))
    hspec = HergmSpec(
        tuple(ClusterSpec(b, spec, (theta,)) for b in blocks), p_out
    )
    return simulate_hergm(hspec, seed, SamplerControls(burnin_sweeps=20))


class TestKmeans:
    def test_two_pairs(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        labels = kmeans(pts, 2, seed=0)
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_identical_points_do_not_crash(self):
        pts = np.zeros((6, 2))
        labels = kmeans(pts, 3, seed=1)
        assert labels.shape == (6,)
        assert set(labels.tolist()) == {0, 1, 2}

    def test_beats_random_labeling(self):
        rng = np.random.default_rng(2)
        pts = np.vstack([rng.normal(0, 1, (30, 2)), rng.normal(8, 1, (30, 2))])
        labels = kmeans(pts, 2, seed=3)

        def wcss(lab):
            total = 0.0
            for k in range(2):
                sel = pts[lab == k]
                if len(sel):
                    total += ((sel - sel.mean(axis=0)) ** 2).sum()
            return total

        rand = rng.integers(0, 2, size=60)
        assert wcss(labels) <= wcss(rand)

    def test_k_exceeds_points(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 3)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(40, 3))
        a = kmeans(pts, 4, seed=9)
        b = kmeans(pts, 4, seed=9)
        np.testing.assert_array_equal(a, b)


class TestScore:
    def test_two_cliques_exact(self):
        g = two_cliques(8)
        truth = Partition(np.repeat([0, 1], 8), 2)
        part = score_cluster(g, 2, seed=0)
        assert misclustering_rate(part, truth) == 0.0

    def test_planted_partition_recovery(self):
        rates = []
        for rep in range(5):
            g, truth = planted((50, 50), 0.3, 0.05, 100 + rep)
            part = score_cluster(g, 2, seed=rep)
            rates.append(misclustering_rate(part, truth))
        assert float(np.mean(rates)) < 0.05

    def test_ratio_truncation_bound(self):
        # hub-heavy graph exercises the cap
        g, _ = planted((30, 30), 0.25, 0.08, 7)
        cap = math.log(g.n)
        a = g.adjacency_matrix().astype(float)
        _, vecs = _leading_eigenpairs(a, 2)
        lead = vecs[:, 0]
        if lead[np.abs(lead).argmax()] < 0:
            lead = -lead
        with np.errstate(divide="ignore", invalid="ignore"):
            r = vecs[:, 1] / lead
        r[~np.isfinite(r)] = cap
        assert np.clip(r, -cap, cap).max() <= cap + 1e-12

    def test_eigenpair_residuals(self):
        g, _ = planted((40, 40), 0.3, 0.05, 11)
        a = g.adjacency_matrix().astype(float)
        vals, vecs = _leading_eigenpairs(a, 2)
        norm_a = np.linalg.norm(a)
        for c in range(2):
            res = np.linalg.norm(a @ vecs[:, c] - vals[c] * vecs[:, c])
            assert res <= 1e-8 * norm_a

    def test_invariant_under_relabeling(self):
        g, truth = planted((25, 25), 0.3, 0.05, 13)
        part1 = score_cluster(g, 2, seed=5)
        rng = np.random.default_rng(6)
        perm = rng.permutation(g.n)
        h = Graph(g.n)
        for i, j in g.edges():
            h.add_edge(int(perm[i]), int(perm[j]))
        part2 = score_cluster(h, 2, seed=5)
        mapped = Partition(part2.assignments[perm], 2)
        assert misclustering_rate(part1, mapped) == 0.0

    def test_small_components_assigned(self):
        g = two_cliques(8)
        # three extra isolated nodes outside the giant component
        h = Graph(19)
        for i, j in g.edges():
            h.add_edge(i, j)
        part = score_cluster(h, 2, seed=1)
        assert part.assignments.shape == (19,)
        assert part.n_clusters == 2

    def test_k_larger_than_n(self):
        with pytest.raises(ValueError):
            score_cluster(Graph(2), 3)

    def test_degree_heterogeneous_blocks(self):
        # ERGM blocks with degree terms produce hubs; SCORE should still
        # recover the split while staying seeded and deterministic
        spec = parse_spec("edges,degree(1)")
        hspec = HergmSpec(
            (
                ClusterSpec(30, spec, (math.log(0.25 / 0.75), -0.8)),
                ClusterSpec(30, spec, (math.log(0.25 / 0.75), -0.8)),
            ),
            0.03,
        )
        rates = []
        for rep in range(5):
            g, truth = simulate_hergm(hspec, 300 + rep, SamplerControls(200))
            part = score_cluster(g, 2, seed=rep)
            rates.append(misclustering_rate(part, truth))
        assert float(np.mean(rates)) < 0.15
