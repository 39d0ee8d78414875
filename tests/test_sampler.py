"""Gibbs sampler, HERGM simulator, and exact enumeration."""

import math

import numpy as np
import pytest

from hergmkit import (
    ChangeStatEngine,
    ClusterSpec,
    Graph,
    HergmSpec,
    SamplerControls,
    between_edge_counts,
    change_statistics,
    exact_distribution,
    gibbs_sample,
    parse_spec,
    simulate_hergm,
    stat_vector,
    within_subgraph,
)
from hergmkit import stats as stats_module
from hergmkit.rng import child_rng
from hergmkit.sampler import (
    BernoulliBlock,
    bernoulli_graph,
    dyad_order,
    graph_index,
    hergm_draws,
    near_degenerate,
)
from hergmkit.stats import stat_matrix

EDGES = parse_spec("edges")
ET = parse_spec("edges,triangles")


class TestControls:
    def test_invalid_controls(self):
        for field, value, lo in [("burnin_sweeps", -1, 0), ("n_samples", 0, 1),
                                 ("thin_sweeps", 0, 1), ("thin_sweeps", -4, 1)]:
            with pytest.raises(ValueError, match=f"^{field} must be >= {lo}, got {value}$"):
                SamplerControls(**{field: value})

    @pytest.mark.parametrize("field", ["burnin_sweeps", "n_samples", "thin_sweeps"])
    @pytest.mark.parametrize("value", [2.5, "abc", True, None])
    def test_non_integer_controls(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SamplerControls(**{field: value})

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            gibbs_sample(4, EDGES, (0.0, 1.0), SamplerControls(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            gibbs_sample(4, EDGES, (math.inf,), SamplerControls(), np.random.default_rng(0))


class TestGibbs:
    def test_one_node_graph_is_not_near_degenerate(self):
        # no dyad, so no density to be empty or complete about
        assert not near_degenerate(Graph(1))
        assert near_degenerate(Graph(2))

    def test_theta_zero_density_half(self):
        draws = gibbs_sample(
            20, EDGES, (0.0,), SamplerControls(100, 300, 1), np.random.default_rng(1)
        )
        n_dyads = 190
        se = math.sqrt(0.25 / (300 * n_dyads))
        assert abs(np.mean([g.n_edges for g in draws]) / n_dyads - 0.5) < 4 * se

    def test_baseline_density_low(self):
        theta = math.log(0.05 / 0.95)
        draws = gibbs_sample(
            30, EDGES, (theta,), SamplerControls(100, 300, 1), np.random.default_rng(2)
        )
        density = np.array([g.n_edges for g in draws]) / 435  # over the 30-node graph's dyads
        mc_se = density.std(ddof=1) / math.sqrt(300)
        assert abs(density.mean() - 0.05) < 4 * mc_se + 1e-3

    def test_determinism(self):
        a = gibbs_sample(8, ET, (-0.5, 0.2), SamplerControls(50, 5, 2), np.random.default_rng(9))
        b = gibbs_sample(8, ET, (-0.5, 0.2), SamplerControls(50, 5, 2), np.random.default_rng(9))
        assert len(a) == 5 and a == b

    def test_degeneracy_flag(self):
        draws = gibbs_sample(10, EDGES, (-9.0,), SamplerControls(50, 5, 1),
                             np.random.default_rng(3))
        assert near_degenerate(draws[-1])
        draws = gibbs_sample(10, EDGES, (0.0,), SamplerControls(50, 5, 1),
                             np.random.default_rng(3))
        assert not near_degenerate(draws[-1])

    def test_start_graph_is_copied_not_changed(self):
        start = Graph(6)
        for i, j in dyad_order(6):
            start.add_edge(i, j)
        before = start.copy()
        draws = gibbs_sample(6, ET, (-1.0, 0.3), SamplerControls(0, 3, 1),
                             np.random.default_rng(6), start=start)
        assert draws[-1] != start  # the chain moved, its start did not
        assert start == before and start.n_edges == 15
        with pytest.raises(ValueError, match="start graph has 6 nodes"):
            gibbs_sample(5, ET, (-1.0, 0.3), SamplerControls(0, 1, 1),
                         np.random.default_rng(6), start=start)

    def test_stats_align_with_graphs(self):
        # the statistics mcmle computes for a sample, one row per draw
        draws = gibbs_sample(7, ET, (-1.0, 0.3), SamplerControls(50, 10, 2),
                             np.random.default_rng(4))
        rows = stat_matrix(draws, ET)
        assert len(draws) == len(rows) == 10
        for g, row in zip(draws, rows):
            np.testing.assert_array_equal(stat_vector(g, ET), row)


class TestBernoulliGraph:
    @staticmethod
    def reference(n, p, rng):
        """The per-dyad fill ``bernoulli_graph`` replaces."""
        from hergmkit import Graph

        g = Graph(n)
        dyads = dyad_order(n)
        u = rng.random(len(dyads))
        for b, (i, j) in enumerate(dyads):
            if u[b] < (p if np.isscalar(p) else p[b]):
                g.add_edge(i, j)
        return g

    @pytest.mark.parametrize("n", [1, 2, 9, 70])
    def test_matches_per_dyad_fill(self, n):
        per_dyad = np.linspace(0.0, 1.0, n * (n - 1) // 2)
        for p in (0.0, 0.3, 1.0, per_dyad):
            rng_a, rng_b = np.random.default_rng(n), np.random.default_rng(n)
            g = bernoulli_graph(n, p, rng_a)
            ref = self.reference(n, p, rng_b)
            assert g == ref and g.n_edges == ref.n_edges
            assert rng_a.random() == rng_b.random()  # same draws consumed


class TestExactDistribution:
    def test_uniform_at_theta_zero(self):
        ex = exact_distribution(3, EDGES, (0.0,))
        np.testing.assert_allclose(ex.probs, np.full(8, 1 / 8), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        ex = exact_distribution(5, ET, (-1.0, 0.3))
        assert abs(ex.probs.sum() - 1.0) < 1e-10

    def test_nonfinite_theta_rejected(self):
        with pytest.raises(ValueError):
            exact_distribution(3, EDGES, (math.inf,))

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="capped"):
            exact_distribution(8, EDGES, (0.0,))

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_nodes_rejected(self, n):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            exact_distribution(n, EDGES, (0.0,))

    @pytest.mark.parametrize("n, terms, theta", [
        (2, "edges", (-1.0,)),
        (4, "edges,triangles", (-0.8, 0.4)),
        (6, "edges,triangles", (2.0, 1.5)),
        (6, "edges,kstar(2),gwesp(0.5)", (-3.0, 0.5, 4.0)),
    ])
    def test_log_psi_matches_scipy_logsumexp(self, n, terms, theta):
        from scipy.special import logsumexp

        ex = exact_distribution(n, parse_spec(terms), theta)
        want = logsumexp(ex.stats @ np.asarray(theta))
        assert ex.log_psi == pytest.approx(want, rel=1e-12)

    def test_mean_value_against_direct_sum(self):
        ex = exact_distribution(4, ET, (-0.8, 0.4))
        mu_direct = np.zeros(2)
        for idx in range(len(ex.probs)):
            mu_direct += ex.probs[idx] * ex.stats[idx]
        np.testing.assert_allclose(ex.mu, mu_direct, atol=1e-12)

    def test_stats_table_matches_fresh_evaluation(self):
        # every term kind; row t is stat_vector of graph t bit for bit
        spec = parse_spec("edges,kstar(2),triangles,gwdsp(0.5),gwesp(0.5),degree(1)")
        for n in (4, 5):
            ex = exact_distribution(n, spec, (0.1, -0.2, 0.3, 0.1, -0.1, 0.2))
            dyads = dyad_order(n)
            for idx in range(len(ex.probs)):
                g = Graph(n)
                for b, (i, j) in enumerate(dyads):
                    if (idx >> b) & 1:
                        g.add_edge(i, j)
                assert graph_index(g, dyads) == idx
                assert ex.stats[idx].tolist() == stat_vector(g, spec).tolist()

    def test_independent_of_the_change_statistic_kernel(self, monkeypatch):
        # the oracle and change_statistics must not share the sampler's arithmetic
        def fail(*args, **kwargs):
            raise AssertionError("ChangeStatEngine used")

        monkeypatch.setattr(ChangeStatEngine, "compute", fail)
        monkeypatch.setattr(ChangeStatEngine, "run", fail)
        spec = parse_spec("edges,kstar(2),triangles,gwdsp(0.5),gwesp(0.5),degree(1)")
        ex = exact_distribution(5, spec, (-1.0, 0.1, 0.2, 0.1, 0.1, 0.3))
        assert abs(ex.probs.sum() - 1.0) < 1e-10
        g = Graph(5)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert change_statistics(g, (0, 2), spec).tolist() == [1, 2, 1, 2, 3, -2]

    def test_gibbs_agrees_with_enumeration(self):
        # moderate-length chain; the acceptance suite runs the full version
        ex = exact_distribution(5, ET, (-1.0, 0.3))
        draws = gibbs_sample(
            5, ET, (-1.0, 0.3), SamplerControls(500, 20000, 1), np.random.default_rng(5)
        )
        counts = np.zeros(len(ex.probs))
        for g in draws:
            counts[graph_index(g, ex.dyads)] += 1
        tv = 0.5 * np.abs(counts / counts.sum() - ex.probs).sum()
        assert tv < 0.08

    def test_chain_from_complete_graph_agrees_with_enumeration(self):
        # no burn-in: the start is the far end of the sample space
        ex = exact_distribution(5, ET, (-1.0, 0.3))
        start = Graph(5)
        for i, j in dyad_order(5):
            start.add_edge(i, j)
        draws = gibbs_sample(
            5, ET, (-1.0, 0.3), SamplerControls(0, 30000, 1), np.random.default_rng(8),
            start=start,
        )
        counts = np.zeros(len(ex.probs))
        for g in draws:
            counts[graph_index(g, ex.dyads)] += 1
        tv = 0.5 * np.abs(counts / counts.sum() - ex.probs).sum()
        assert tv < 0.08


class TestHergm:
    def spec3(self):
        spec = parse_spec("edges,gwdsp(0.5),gwesp(0.5)")
        base = math.log(0.05 / 0.95)
        return HergmSpec(
            tuple(ClusterSpec(12, spec, (base, t, t)) for t in (0.2, 0.5, 1.0)),
            0.05,
        )

    def test_partition_layout(self):
        g, truth = simulate_hergm(self.spec3(), 1, 109)
        assert truth.sizes().tolist() == [12, 12, 12]
        assert g.n == 36

    def test_between_p_zero(self):
        hspec = HergmSpec(self.spec3().clusters, 0.0)
        g, truth = simulate_hergm(hspec, 2, 109)
        y_b, _ = between_edge_counts(g, truth)
        assert y_b == 0

    def test_between_p_one(self):
        hspec = HergmSpec(self.spec3().clusters, 1.0)
        g, truth = simulate_hergm(hspec, 3, 109)
        y_b, n_b = between_edge_counts(g, truth)
        assert y_b == n_b

    def test_deterministic_under_seed(self):
        a = simulate_hergm(self.spec3(), 7, 109)
        b = simulate_hergm(self.spec3(), 7, 109)
        assert a[0] == b[0] and a[1] == b[1]

    def test_no_statistics_of_the_draws(self, monkeypatch):
        # a simulation reads graphs only: no block chain computes the
        # statistics of its draws
        rows = []
        stat_rows = stats_module._stat_rows
        monkeypatch.setattr(stats_module, "_stat_rows",
                            lambda a, spec: rows.append(len(a)) or stat_rows(a, spec))
        g, _ = simulate_hergm(self.spec3(), 7, 21)
        assert g.n == 36 and rows == []

    def test_within_blocks_reproducible_in_isolation(self):
        # the per-cluster stream depends only on (seed, cluster), so the
        # same block reappears if other clusters change
        hspec = self.spec3()
        g1, t1 = simulate_hergm(hspec, 11, 109)
        altered = HergmSpec(hspec.clusters, 0.9)
        g2, t2 = simulate_hergm(altered, 11, 109)
        sub1 = within_subgraph(g1, t1, 0)
        sub2 = within_subgraph(g2, t2, 0)
        assert sub1 == sub2

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            HergmSpec((), 0.5)
        with pytest.raises(ValueError):
            HergmSpec(self.spec3().clusters, 1.5)

    def test_block_independence_across_replications(self):
        # within-block edge counts of different clusters should be
        # uncorrelated across replications
        spec = parse_spec("edges,gwesp(0.5)")
        hspec = HergmSpec(
            (
                ClusterSpec(10, spec, (-1.5, 0.4)),
                ClusterSpec(10, spec, (-1.5, 0.4)),
            ),
            0.05,
        )
        e0, e1 = [], []
        for rep in range(80):
            g, truth = simulate_hergm(hspec, 1000 + rep, 89)
            e0.append(within_subgraph(g, truth, 0).n_edges)
            e1.append(within_subgraph(g, truth, 1).n_edges)
        r = np.corrcoef(e0, e1)[0, 1]
        assert abs(r) < 0.25


class TestBernoulliBlock:
    def test_scalar_p_is_bernoulli_graph_on_block_stream(self):
        hspec = HergmSpec(
            (ClusterSpec(6, ET, (-0.5, 0.2)), BernoulliBlock(7, 0.3)), 0.1
        )
        g, truth = simulate_hergm(hspec, 4, 29)
        want = bernoulli_graph(7, 0.3, child_rng(4, "within", 1))
        assert within_subgraph(g, truth, 1) == want

    def test_per_dyad_p(self):
        n = 9
        p = np.linspace(0.0, 1.0, n * (n - 1) // 2)
        hspec = HergmSpec((BernoulliBlock(n, p),), 0.0)
        draws = hergm_draws(hspec, 5, SamplerControls(n_samples=3))
        rng = child_rng(5, "within", 0)
        assert draws == [bernoulli_graph(n, p, rng) for _ in range(3)]
        assert draws[0] != draws[1]

    def test_p_zero_and_one(self):
        hspec = HergmSpec((BernoulliBlock(5, 0), BernoulliBlock(4, 1)), 0.0)
        g, truth = simulate_hergm(hspec, 1)
        assert within_subgraph(g, truth, 0).n_edges == 0
        assert within_subgraph(g, truth, 1).n_edges == 6
        assert g.n_edges == 6

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, [0.5] * 5, [0.5, 2.0, 0.5]])
    def test_invalid_p(self, p):
        with pytest.raises(ValueError):
            BernoulliBlock(3, p)
