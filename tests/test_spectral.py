"""SCORE clustering and the small k-means underneath it."""

import math

import numpy as np
import pytest

from hergmkit import Graph, Partition, parse_spec
from hergmkit.rng import child_rng
from hergmkit.sampler import (
    BernoulliBlock,
    ClusterSpec,
    HergmSpec,
    simulate_hergm,
)
from hergmkit.spectral import (
    KRYLOV_COLUMNS,
    KRYLOV_RTOL,
    _leading_eigenpairs,
    _sq_distances,
    kmeans,
    score_cluster,
)
from hergmkit.twostage import misclustering_rate, stage1_seed


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
    return simulate_hergm(hspec, seed, 29)


def bernoulli_blocks(blocks, p_in, p_out, seed):
    hspec = HergmSpec(tuple(BernoulliBlock(b, p_in) for b in blocks), p_out)
    return simulate_hergm(hspec, seed)[0]


def adjacency(g):
    return g.adjacency_matrix().astype(np.float64)


class TestLeadingEigenpairs:
    """``_leading_eigenpairs`` against numpy's dense ``eigh`` as the oracle:
    eigenvalues, residuals, orthonormality and the span of the vectors."""

    @staticmethod
    def check(a, k, span=None):
        """The first ``span`` vectors (all k by default) must span the dense
        solver's; past them an eigenspace may be cut anywhere."""
        vals, vecs = _leading_eigenpairs(a, k)
        dense_vals, dense_vecs = np.linalg.eigh(a)
        order = np.argsort(-np.abs(dense_vals), kind="stable")
        lam1 = abs(dense_vals[order[0]])
        assert vals.shape == (k,) and vecs.shape == (a.shape[0], k)
        assert np.all(np.diff(np.abs(vals)) <= 1e-12 * max(lam1, 1.0))
        # Weyl: every Ritz value lies within its residual of an eigenvalue
        np.testing.assert_allclose(np.sort(vals), np.sort(dense_vals[order[:k]]),
                                   rtol=0.0, atol=KRYLOV_RTOL * lam1 + 1e-12)
        residuals = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert residuals.max() <= KRYLOV_RTOL * lam1 + 1e-12
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(k), rtol=0.0, atol=1e-12)
        span = k if span is None else span
        want = dense_vecs[:, order[:span]]
        got = vecs[:, :span]
        # sine of the largest principal angle between the two spans
        assert np.linalg.norm(got - want @ (want.T @ got), 2) <= 1e-8
        return vals, vecs

    @pytest.mark.parametrize("blocks, p_in, p_out", [
        ((100, 100), 0.3, 0.05),
        ((100,) * 4, 0.2, 0.02),
        ((50,) * 10, 0.3, 0.01),
        ((25,) * 20, 0.4, 0.01),
    ], ids=["K2", "K4", "K10", "K20"])
    def test_planted_blocks(self, blocks, p_in, p_out):
        g = bernoulli_blocks(blocks, p_in, p_out, len(blocks))
        self.check(adjacency(g), len(blocks))

    def test_weak_blocks(self):
        g = bernoulli_blocks((20,) * 3, 0.25, 0.05, 3)
        self.check(adjacency(g), 3)

    def test_isolated_nodes(self):
        g = bernoulli_blocks((30,) * 3, 0.08, 0.005, 9)
        assert np.any(g.degrees() == 0)
        self.check(adjacency(g), 3)

    def test_empty_graph(self):
        vals, _ = self.check(np.zeros((30, 30)), 3, span=0)
        assert not vals.any()

    def test_complete_graph(self):
        # n - 1 once, then -1 in an (n - 1)-dimensional eigenspace
        n = 30
        vals, vecs = self.check(1.0 - np.eye(n), 3, span=1)
        np.testing.assert_allclose(vals, [n - 1, -1.0, -1.0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(vecs[:, 0], np.full(n, n ** -0.5), rtol=0.0, atol=1e-12)

    def test_two_identical_cliques(self):
        # lambda_1 = 7 twice: the two leading vectors span the clique indicators
        vals, _ = self.check(adjacency(two_cliques(8)), 2)
        np.testing.assert_allclose(vals, [7.0, 7.0], rtol=0.0, atol=1e-12)

    def test_bipartite_graph(self):
        # the spectrum of a bipartite graph is symmetric, so |lambda| ties
        # in pairs +-lambda
        rng = np.random.default_rng(4)
        a = np.zeros((45, 45))
        a[:20, 20:] = rng.random((20, 25)) < 0.3
        a += a.T
        vals, _ = self.check(a, 4)
        np.testing.assert_allclose(vals[0::2], -vals[1::2], rtol=0.0, atol=1e-9)

    def test_buffers_grow(self, monkeypatch):
        # a buffer of two columns per eigenpair doubles several times
        monkeypatch.setattr("hergmkit.spectral.KRYLOV_COLUMNS", 2)
        g = bernoulli_blocks((100,) * 4, 0.2, 0.02, 4)
        self.check(adjacency(g), 4)

    def test_score_takes_no_dense_eigendecomposition(self, monkeypatch):
        g = bernoulli_blocks((200,) * 4, 0.15, 0.02, 1)
        sizes = []
        eigh = np.linalg.eigh

        def spy(a):
            sizes.append(a.shape[0])
            return eigh(a)
        monkeypatch.setattr(np.linalg, "eigh", spy)
        score_cluster(g, 4, seed=2)
        assert sizes and max(sizes) <= KRYLOV_COLUMNS * 4 < g.n


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

    def test_product_distances_match_the_broadcast(self):
        rng = np.random.default_rng(5)
        pts, centers = rng.normal(size=(50, 3)), rng.normal(size=(4, 3))
        want = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        got = _sq_distances(pts, (pts ** 2).sum(axis=1), centers)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


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

    def test_eigenpairs_repeat_bit_identically(self):
        # 400 nodes: the Krylov iteration draws its start block afresh from
        # its own seed stream on every call
        g, _ = planted((100,) * 4, 0.1, 0.02, 5)
        a = g.adjacency_matrix().astype(float)
        first = _leading_eigenpairs(a, 4)
        for _ in range(3):
            again = _leading_eigenpairs(a, 4)
            np.testing.assert_array_equal(again[0], first[0])
            np.testing.assert_array_equal(again[1], first[1])

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

    def test_partition_ignores_the_solver_eigenvector_signs(self, monkeypatch):
        # 3 x 30 sparse blocks leave 2-9 isolated nodes, which the leading
        # eigenvector misses; their ratios are pinned to +log(n), so a sign
        # flip of eigenvectors 2..K would move nodes unless the signs are fixed
        hspec = HergmSpec(tuple(BernoulliBlock(30, 0.08) for _ in range(3)), 0.005)
        graphs = [simulate_hergm(hspec, int(child_rng(9, "score", rep).integers(2**31)))[0]
                  for rep in range(6)]
        assert all(np.any(g.degrees() == 0) for g in graphs)
        expected = [score_cluster(g, 3, seed=rep).assignments
                    for rep, g in enumerate(graphs)]
        eigh = np.linalg.eigh
        for pattern in ([-1.0], [1.0, -1.0], [-1.0, 1.0]):
            def flipped(a, pattern=pattern):
                vals, vecs = eigh(a)
                return vals, vecs * np.resize(pattern, vecs.shape[1])
            monkeypatch.setattr(np.linalg, "eigh", flipped)
            for rep, g in enumerate(graphs):
                np.testing.assert_array_equal(
                    score_cluster(g, 3, seed=rep).assignments, expected[rep])

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

    @pytest.mark.parametrize("k", [10, 20])
    def test_planted_blocks_at_large_k(self, k):
        # 50-node blocks, about 5 between-block ties a node.  Uniformly drawn
        # k-means starts merged two blocks and split another, misclustering
        # 0.107 (K = 10) and 0.198 (K = 20) on average over these seeds;
        # k-means++ starts read 0 and 0.014
        n = 50 * k
        rates = []
        for seed in range(1, 6):
            g = bernoulli_blocks((50,) * k, 0.3, 5 / (n - 50), seed)
            truth = Partition(np.repeat(np.arange(k), 50), k)
            rates.append(misclustering_rate(score_cluster(g, k, seed=seed), truth))
        assert float(np.mean(rates)) < 0.05

    def test_four_easy_blocks_at_a_start_that_merged_two(self):
        # the large_mple benchmark's graph of unit 141 at workload seed 3604,
        # clustered at that unit's stage-1 seed: uniformly drawn k-means
        # starts misclustered 35.9 % of its nodes
        rng = np.random.default_rng([3604, 141])
        labels = np.repeat(np.arange(4), 200)
        p = np.where(labels[:, None] == labels[None, :], 0.15, 0.02)
        a = np.triu(rng.random(p.shape) < p, 1).astype(np.int64)
        g = Graph.from_adjacency(a + a.T)
        part = score_cluster(g, 4, seed=stage1_seed(1620356549))
        assert misclustering_rate(part, Partition(labels, 4)) == 0.0

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
            g, truth = simulate_hergm(hspec, 300 + rep, 209)
            part = score_cluster(g, 2, seed=rep)
            rates.append(misclustering_rate(part, truth))
        assert float(np.mean(rates)) < 0.15
