"""Two-stage pipeline, mis-clustering metric, and goodness of fit."""

import ast
import copy
import itertools
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import hergmkit
from hergmkit import (
    Graph,
    Partition,
    between_density_mle,
    cluster,
    exact_distribution,
    gof,
    misclustering_rate,
    parse_spec,
    two_stage_fit,
    within_subgraph,
)
from hergmkit import sampler, twostage
from hergmkit.experiments import sensitivity_experiment
from hergmkit.fit import ErgmFit, FitDiagnostics, McmleControls, mple
from hergmkit.rng import POOL_MIN_VISITS, child_rng, parallel_map
from hergmkit.lsm import (
    LsmControls,
    _best_permutation,
    lsm_mcmc,
    lsm_posterior_from_dict,
    lsm_posterior_to_dict,
    map_membership,
)
from hergmkit.sampler import (
    BernoulliBlock,
    ClusterSpec,
    HergmSpec,
    SamplerControls,
    dyad_order,
    gibbs_sample,
    graph_index,
    hergm_draws,
    simulate_hergm,
)
from hergmkit.spectral import score_cluster
from hergmkit.stats import stat_vector
from hergmkit.twostage import (
    TwoStageFit,
    stage1_seed,
    stage2_seed,
    two_stage_fit_from_dict,
    two_stage_fit_to_dict,
)

SPEC = parse_spec("edges,gwdsp(0.5),gwesp(0.5)")
BASE = math.log(0.05 / 0.95)
LIGHT_LSM = LsmControls(burnin=400, n_samples=150, thin=2)
LIGHT_MC = McmleControls(n_samples=512, burnin_sweeps=100)


def fig1_like(n_per=12, seed=3):
    hspec = HergmSpec(
        tuple(ClusterSpec(n_per, SPEC, (BASE, t, t)) for t in (0.2, 0.5, 1.0)),
        0.05,
    )
    return simulate_hergm(hspec, seed, SamplerControls(burnin_sweeps=300))


class TestMisclusteringRate:
    def test_identical(self):
        p = Partition(np.array([0, 1, 2, 0, 1, 2]), 3)
        assert misclustering_rate(p, p) == 0.0

    def test_label_permutation_is_zero(self):
        truth = Partition(np.array([0, 0, 1, 1, 2, 2]), 3)
        swapped = Partition((truth.assignments + 1) % 3, 3)
        assert misclustering_rate(swapped, truth) == 0.0

    def test_single_flip(self):
        truth = Partition(np.repeat([0, 1, 2], 20), 3)
        labels = truth.assignments.copy()
        labels[0] = 1
        assert misclustering_rate(Partition(labels, 3), truth) == pytest.approx(1 / 60)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = Partition(rng.integers(0, 3, 30), 3)
        b = Partition(rng.integers(0, 3, 30), 3)
        assert misclustering_rate(a, b) == pytest.approx(misclustering_rate(b, a))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            misclustering_rate(
                Partition(np.zeros(3, dtype=int), 1), Partition(np.zeros(4, dtype=int), 1)
            )

    def test_hungarian_equals_brute_force(self):
        rng = np.random.default_rng(1)
        for k in (2, 3, 4):
            for _ in range(10):
                a = Partition(rng.integers(0, k, 24), k)
                b = Partition(rng.integers(0, k, 24), k)
                got = misclustering_rate(a, b)
                best = 0
                cont = np.zeros((k, k), dtype=int)
                np.add.at(cont, (a.assignments, b.assignments), 1)
                for perm in itertools.permutations(range(k)):
                    best = max(best, sum(cont[i, perm[i]] for i in range(k)))
                assert got == pytest.approx(1 - best / 24)

    def test_many_clusters_match_an_optimal_assignment(self):
        rng = np.random.default_rng(3)
        for ka, kb in ((7, 7), (8, 5), (3, 9), (2, 5)):
            a = Partition(rng.integers(0, ka, 40), ka)
            b = Partition(rng.integers(0, kb, 40), kb)
            k = max(ka, kb)
            cont = np.zeros((k, k), dtype=int)
            np.add.at(cont, (a.assignments, b.assignments), 1)
            rows, cols = linear_sum_assignment(-cont)
            assert misclustering_rate(a, b) == 1.0 - int(cont[rows, cols].sum()) / 40

    def test_agreement_matches_a_brute_force_oracle(self):
        # the oracle scores every matching of k labels on the contingency
        # table; small n gives many tied matchings
        rng = np.random.default_rng(4)
        for k in range(2, 10):
            perms = np.array(list(itertools.permutations(range(k))))
            fewer = max(k - 2, 1)
            for n, k_est, k_truth in ((k, k, k), (3 * k, k, k), (40, k, k),
                                      (40, fewer, k), (40, k, fewer)):
                a = rng.integers(0, k_est, n)
                b = rng.integers(0, k_truth, n)
                cont = np.zeros((k, k), dtype=int)
                np.add.at(cont, (a, b), 1)
                best = int(cont[np.arange(k), perms].sum(axis=1).max())
                perm = _best_permutation(a, b, k)
                assert sorted(perm.tolist()) == list(range(k))
                assert np.count_nonzero(perm[a] == b) == best
                assert misclustering_rate(Partition(a, k), Partition(b, k)) == 1.0 - best / n

    @pytest.mark.parametrize("k", [1, 10, 15, 20, 25])
    def test_agreement_matches_scipy_assignment(self, k):
        # scipy's solver as the oracle where brute force is out of reach;
        # n = k and n = 2k give many tied matchings
        rng = np.random.default_rng(k)
        fewer = max(k // 2, 1)
        for n, k_est, k_truth in ((k, k, k), (2 * k, k, k), (10 * k, k, k),
                                  (5 * k, fewer, k), (5 * k, k, fewer)):
            a = rng.integers(0, k_est, n)
            b = rng.integers(0, k_truth, n)
            cont = np.zeros((k, k), dtype=int)
            np.add.at(cont, (a, b), 1)
            rows, cols = linear_sum_assignment(-cont)
            perm = _best_permutation(a, b, k)
            assert sorted(perm.tolist()) == list(range(k))
            assert np.count_nonzero(perm[a] == b) == int(cont[rows, cols].sum())

    def test_upper_bound(self):
        rng = np.random.default_rng(2)
        a = Partition(rng.integers(0, 3, 30), 3)
        b = Partition(rng.integers(0, 3, 30), 3)
        overlap_max = max(np.bincount(b.assignments))
        assert misclustering_rate(a, b) <= (30 - overlap_max) / 30 + 1e-12


def test_each_stage1_route_is_its_working_model():
    g, _ = fig1_like(8, seed=4)
    part, post = cluster(g, 3, "lsm", 5, lsm=LIGHT_LSM)
    direct = lsm_mcmc(g, 3, controls=LIGHT_LSM, seed=5)
    np.testing.assert_array_equal(post.zs, direct.zs)
    assert part == map_membership(direct)
    part, post = cluster(g, 3, "score", 5, restarts=3)
    assert post is None and part == score_cluster(g, 3, restarts=3, seed=5)


def _callers(names) -> set[str]:
    """``module.definition`` of every top-level definition of hergmkit that
    calls one of ``names`` or passes it to a call."""
    callers = set()
    for path in Path(hergmkit.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                for ref in [node.func, *node.args] if isinstance(node, ast.Call) else []:
                    if getattr(ref, "id", getattr(ref, "attr", None)) in names:
                        callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return callers


def test_stage1_has_one_route():
    # the working models are fitted in twostage.cluster and nowhere else
    assert _callers({"lsm_mcmc", "score_cluster"}) == {"twostage.cluster"}


def test_stage2_has_one_route():
    # every ERGM is fitted in twostage._fit_cluster, which two_stage_fit alone
    # runs; mcmle starts from the MPLE
    assert _callers({"mple", "mcmle"}) == {"twostage._fit_cluster", "fit.mcmle"}
    assert _callers({"_fit_cluster"}) == {"twostage.two_stage_fit"}


def test_graphs_from_a_block_model_have_one_route():
    # a Gibbs chain runs for a block of hergm_draws (simulate, gof) or for
    # mcmle, which continues its own chain; simulate ergm is a one-block model
    assert _callers({"gibbs_sample"}) == {"sampler._block_draws", "fit.mcmle"}
    assert _callers({"hergm_draws"}) == {"sampler.simulate_hergm", "twostage.gof",
                                         "cli._cmd_simulate_ergm"}


class TestTwoStageFit:
    def test_given_partition_equals_manual_composition(self):
        g, truth = fig1_like()
        ts = two_stage_fit(g, truth, SPEC, method="mple", seed=42)
        assert ts.stage1_method == "given"
        for k in range(3):
            sub = within_subgraph(g, truth, k)
            manual = mple(sub, SPEC)
            np.testing.assert_allclose(
                ts.cluster_fits[k].theta_hat, manual.theta_hat, atol=1e-12
            )
        p_hat, p_se = between_density_mle(g, truth)
        assert ts.between_p == p_hat and ts.between_se == p_se

    def test_mcmle_route_uses_derived_seeds(self):
        g, truth = fig1_like(10, seed=5)
        ts = two_stage_fit(g, truth, SPEC, method="mcmle", mcmle=LIGHT_MC, seed=11)
        from hergmkit.fit import mcmle

        k = 2
        sub = within_subgraph(g, truth, k)
        manual = mcmle(sub, SPEC, controls=LIGHT_MC, seed=stage2_seed(11, k))
        np.testing.assert_allclose(
            ts.cluster_fits[k].theta_hat, manual.theta_hat, atol=1e-12
        )

    def test_theta0_starts_every_cluster_mcmle(self):
        g, truth = fig1_like(8, seed=5)
        theta0, mc = (-1.0, 0.1, 0.2), McmleControls(16, 10)
        ts = two_stage_fit(g, truth, SPEC, method="mcmle", mcmle=mc, theta0=theta0, seed=11)
        from hergmkit.fit import mcmle

        for k in range(3):
            manual = mcmle(within_subgraph(g, truth, k), SPEC, theta0, controls=mc,
                           seed=stage2_seed(11, k))
            np.testing.assert_array_equal(ts.cluster_fits[k].theta_hat, manual.theta_hat)

    def test_k1_has_no_between(self):
        g, _ = fig1_like(8, seed=6)
        ts = two_stage_fit(g, Partition(np.zeros(g.n, dtype=int), 1), SPEC, method="mple", seed=1)
        assert ts.between_p is None and len(ts.cluster_fits) == 1

    def test_small_cluster_marked_unavailable(self):
        g = Graph(6)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(0, 2)
        labels = Partition(np.array([0, 0, 0, 0, 1, 1]), 2)
        ts = two_stage_fit(g, labels, SPEC, method="mple", seed=2)
        assert ts.cluster_fits[1] is None
        assert "needs at least" in ts.fit_errors[1]

    def test_unknown_stage1(self):
        g, _ = fig1_like(8, seed=7)
        with pytest.raises(ValueError, match="unknown stage-1 method 'magic'"):
            cluster(g, 2, "magic", 0)

    def test_unknown_stage2_method(self):
        g, truth = fig1_like(8, seed=7)
        with pytest.raises(ValueError, match="stage-2 method must be mcmle or mple"):
            two_stage_fit(g, truth, SPEC, method="ml", seed=0)

    def test_lsm_stage1_recovers_blocks(self):
        g, truth = fig1_like(12, seed=9)
        part, _ = cluster(g, 3, "lsm", stage1_seed(3), lsm=LIGHT_LSM)
        ts = two_stage_fit(g, part, SPEC, method="mple", seed=3, stage1="lsm")
        assert ts.stage1_method == "lsm"
        assert misclustering_rate(ts.partition, truth) <= 0.25

    def test_likelihood_factorizes_over_blocks(self):
        # enumeration check of the block decomposition at tiny size
        spec = parse_spec("edges,triangles")
        hspec = HergmSpec(
            (
                ClusterSpec(5, spec, (-0.6, 0.25)),
                ClusterSpec(4, spec, (-0.2, 0.1)),
            ),
            0.3,
        )
        g, truth = simulate_hergm(hspec, 12, SamplerControls(burnin_sweeps=200))
        total = 0.0
        for k, cl in enumerate(hspec.clusters):
            sub = within_subgraph(g, truth, k)
            ex = exact_distribution(cl.n, spec, cl.theta)
            s_obs = stat_vector(sub, spec)
            total += float(np.dot(cl.theta, s_obs)) - ex.log_psi
        from hergmkit import between_edge_counts

        y_b, n_b = between_edge_counts(g, truth)
        total += y_b * math.log(0.3) + (n_b - y_b) * math.log(0.7)

        # direct joint probability of the observed graph under the model
        direct = 0.0
        for k, cl in enumerate(hspec.clusters):
            sub = within_subgraph(g, truth, k)
            ex = exact_distribution(cl.n, spec, cl.theta)
            from hergmkit.sampler import graph_index

            direct += math.log(ex.probs[graph_index(sub, ex.dyads)])
        direct += y_b * math.log(0.3) + (n_b - y_b) * math.log(0.7)
        assert total == pytest.approx(direct, abs=1e-8)


class TestUnavailableClusters:
    def test_empty_cluster_in_fit_and_gof(self):
        g, truth = fig1_like(8, seed=8)
        labels = truth.assignments.copy()
        labels[labels == 1] = 2  # label 1 of K = 3 keeps no node
        part = Partition(labels, 3)
        ts = two_stage_fit(g, part, SPEC, method="mple", seed=1)
        assert ts.cluster_fits[1] is None
        assert ts.fit_errors[1] == "cluster is empty"
        assert ts.cluster_fits[0] is not None and ts.between_p is not None
        report = gof(g, ts, 5, seed=2, burnin_sweeps=20)
        assert report["degree"].observed.sum() == g.n

    def test_one_nonempty_cluster_has_no_between_density(self):
        g, _ = fig1_like(6, seed=6)
        part = Partition(np.zeros(g.n, dtype=np.int64), 2)
        ts = two_stage_fit(g, part, SPEC, method="mple", seed=1)
        assert ts.fit_errors[1] == "cluster is empty"
        assert ts.between_p is None
        gof(g, ts, 3, seed=2, burnin_sweeps=10)

    def test_cluster_without_an_mple_is_unavailable(self):
        # cluster 0 is the path 0-1-2-3, whose degree(0) pseudo-likelihood has
        # no maximum; cluster 1 (path 4-5-6 and the isolated node 7) has one
        g = Graph(8)
        for i, j in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]:
            g.add_edge(i, j)
        ts = two_stage_fit(g, Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2),
                           parse_spec("degree(0)"), method="mple", seed=1)
        assert ts.cluster_fits[0] is None and "no finite MPLE" in ts.fit_errors[0]
        assert ts.cluster_fits[1] is not None

    def test_nonconverging_mple_marks_cluster_unavailable(self, monkeypatch):
        monkeypatch.setattr("hergmkit.fit.MPLE_MAX_ITER", 1)
        g, truth = fig1_like(8, seed=7)
        ts = two_stage_fit(g, truth, SPEC, method="mple", seed=1)
        assert ts.cluster_fits == [None, None, None]
        assert all("did not reach" in r for r in ts.fit_errors)

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("a bug, not a fit failure")

        monkeypatch.setattr(twostage, "mple", broken)
        g, truth = fig1_like(8, seed=7)
        with pytest.raises(RuntimeError, match="a bug"):
            two_stage_fit(g, truth, SPEC, method="mple", seed=1)


class TestGof:
    def make_fit(self, seed=21):
        g, truth = fig1_like(10, seed=seed)
        ts = two_stage_fit(g, truth, SPEC, method="mple", seed=seed)
        return g, ts

    def test_nsim_zero_rejected(self):
        g, ts = self.make_fit()
        with pytest.raises(ValueError):
            gof(g, ts, 0)

    def test_report_shapes_and_bounds(self):
        g, ts = self.make_fit()
        report = gof(g, ts, 20, seed=1, burnin_sweeps=150)
        assert set(report) == {"degree", "esp", "geodesic", "stats"}
        for diag in report.values():
            assert (diag.lower <= diag.upper + 1e-12).all()
            assert 0.0 <= diag.coverage <= 1.0
        assert report["degree"].observed.sum() == g.n
        assert report["stats"].observed.shape == (3,)

    def test_self_consistency_coverage_reasonable(self):
        # simulate from the fitted model itself: observed should mostly sit
        # inside its own envelopes
        g, ts = self.make_fit(seed=22)
        hspec, _ = twostage._gof_model(ts, g)
        g_self = hergm_draws(hspec, 999, SamplerControls(burnin_sweeps=150))[0]
        report = gof(g_self, ts, 60, seed=5, burnin_sweeps=150)
        mean_cov = np.mean([d.coverage for d in report.values()])
        assert mean_cov > 0.7

    def test_unavailable_cluster_flagged_and_simulated(self):
        g = Graph(10)
        for i, j in dyad_order(6):
            if (i + j) % 2:
                g.add_edge(i, j)
        g.add_edge(6, 7)
        labels = Partition(np.array([0] * 6 + [1] * 4, dtype=int), 2)
        ts = two_stage_fit(g, labels, parse_spec("edges,kstar(5)"), method="mple", seed=4)
        assert [f is None for f in ts.cluster_fits] == [False, True]
        hspec, _ = twostage._gof_model(ts, g)
        block = hspec.clusters[1]
        assert isinstance(block, BernoulliBlock) and (block.n, block.p) == (4, 1 / 6)
        gof(g, ts, 10, seed=6, burnin_sweeps=60)

    def test_deterministic(self):
        g, ts = self.make_fit(seed=23)
        r1 = gof(g, ts, 15, seed=9, burnin_sweeps=100)
        r2 = gof(g, ts, 15, seed=9, burnin_sweeps=100)
        for name in r1:
            np.testing.assert_array_equal(r1[name].lower, r2[name].lower)
            assert r1[name].coverage == r2[name].coverage

    def test_lsm_gof_runs(self):
        from hergmkit.lsm import lsm_mcmc

        g, _ = fig1_like(10, seed=24)
        post = lsm_mcmc(g, 3, controls=LsmControls(burnin=300, n_samples=100, thin=2), seed=1)
        report = gof(g, post, 15, seed=2)
        assert set(report) == {"degree", "esp", "geodesic", "stats"}

    def test_lsm_fit_for_another_graph_rejected(self):
        post = lsm_posterior_from_dict({
            "kind": "lsm", "K": 1, "dim": 2, "beta0_mean": 0.0, "beta1_mean": 1.0,
            "positions_mean": [[0.0, 0.0]] * 5, "membership_probs": [[1.0]] * 5,
            "map_partition": [0] * 5, "acceptance": {}, "warnings": [], "seed": None,
        })
        gof(Graph(5), post, 2, burnin_sweeps=1)
        with pytest.raises(ValueError, match="latent positions for 5 nodes"):
            gof(Graph(6), post, 2)

    def test_lsm_gof_same_from_the_fit_file(self):
        # the posterior read back from its fit file gives gof the same model
        g, _ = fig1_like(6, seed=25)
        post = lsm_mcmc(g, 3, controls=LsmControls(burnin=40, n_samples=20, thin=1), seed=3)
        back = lsm_posterior_from_dict(json.loads(json.dumps(lsm_posterior_to_dict(post))))
        mine, read = gof(g, post, 12, seed=4), gof(g, back, 12, seed=4)
        assert set(mine) == set(read)
        for name, diag in mine.items():
            for part in ("observed", "lower", "upper", "inside"):
                np.testing.assert_array_equal(getattr(diag, part), getattr(read[name], part))

    def test_inside_is_the_envelope_rule_and_coverage_its_mean(self):
        g, ts = self.make_fit(seed=26)
        report = gof(g, ts, 10, seed=3, burnin_sweeps=30)
        for diag in report.values():
            assert diag.inside.dtype == bool and diag.inside.shape == diag.observed.shape
            np.testing.assert_array_equal(
                diag.inside, (diag.lower <= diag.observed) & (diag.observed <= diag.upper))
            assert diag.coverage == float(diag.inside.mean())
        assert not all(diag.inside.all() for diag in report.values())

    def test_chain_draws_match_enumeration(self):
        # GOF's draws for a whole-graph ERGM, the one-cluster fit: one chain,
        # burned in once, thinned
        spec = parse_spec("edges,triangles")
        theta = (-1.0, 0.3)
        ex = exact_distribution(5, spec, theta)
        cfit = ErgmFit(np.array(theta), np.zeros(2), FitDiagnostics())
        fit = TwoStageFit(spec, "given", Partition(np.zeros(5, np.int64), 1), [cfit], [None],
                          None, None, "mple", 0)
        n_sim = 30000
        hspec, _ = twostage._gof_model(fit, Graph(5))
        assert hspec == HergmSpec((ClusterSpec(5, spec, theta),), 0.0)
        draws = hergm_draws(
            hspec, 3, SamplerControls(burnin_sweeps=100, n_samples=n_sim)
        )
        counts = np.zeros(len(ex.probs))
        for g in draws:
            counts[graph_index(g, ex.dyads)] += 1
        tv = 0.5 * np.abs(counts / n_sim - ex.probs).sum()
        assert tv < 0.08

    def test_draw_rep_is_chain_sample_rep(self):
        g, ts = self.make_fit(seed=26)
        sim_controls = SamplerControls(burnin_sweeps=30, n_samples=4, thin_sweeps=2)
        hspec, _ = twostage._gof_model(ts, g)
        draws = hergm_draws(hspec, 8, sim_controls)
        chains = [
            gibbs_sample(cl.n, cl.spec, cl.theta, sim_controls,
                         rng=child_rng(8, "within", k)).graphs
            for k, cl in enumerate(hspec.clusters)
        ]
        for rep, draw in enumerate(draws):
            # the fitted partition is contiguous, as simulated blocks are
            for k in range(3):
                assert within_subgraph(draw, ts.partition, k) == chains[k][rep]
        # draw 0 is the network simulate_hergm draws from the same model
        assert draws[0] == simulate_hergm(hspec, 8, sim_controls)[0]
        assert chains[0][0] != chains[0][3]

    def test_single_ergm_fit_gof(self):
        rng = np.random.default_rng(3)
        g = Graph(12)
        for i, j in dyad_order(12):
            if rng.random() < 0.3:
                g.add_edge(i, j)
        fit = two_stage_fit(g, Partition(np.zeros(12, np.int64), 1), parse_spec("edges"),
                            method="mple")
        report = gof(g, fit, 20, seed=3, burnin_sweeps=50)
        assert report["stats"].observed[0] == g.n_edges
        assert fit.cluster_fits[0] is not None


class TestSerialization:
    @staticmethod
    def make_fit(method):
        # cluster 0 has a fit, the one node of cluster 1 is too few for SPEC,
        # and cluster 2 is empty
        g, _ = fig1_like(6, seed=33)
        part = Partition(np.array([0] * (g.n - 1) + [1]), 3)
        return two_stage_fit(g, part, SPEC, method=method, mcmle=McmleControls(16, 10), seed=7)

    @staticmethod
    def assert_same_fit(a: TwoStageFit, b: TwoStageFit):
        assert a.partition == b.partition and a.spec == b.spec
        assert (a.stage1_method, a.method, a.seed) == (b.stage1_method, b.method, b.seed)
        assert (a.between_p, a.between_se, a.fit_errors) == (b.between_p, b.between_se,
                                                              b.fit_errors)
        assert [f is None for f in a.cluster_fits] == [f is None for f in b.cluster_fits]
        for mine, his in zip(a.cluster_fits, b.cluster_fits):
            if mine is None:
                continue
            assert mine.seed == his.seed
            np.testing.assert_array_equal(mine.theta_hat, his.theta_hat)
            np.testing.assert_array_equal(mine.std_errors, his.std_errors)
            for name in [f.name for f in fields(FitDiagnostics)]:
                np.testing.assert_array_equal(getattr(mine.diagnostics, name),
                                              getattr(his.diagnostics, name))

    def test_round_trip(self):
        for method in ("mple", "mcmle"):
            ts = self.make_fit(method)
            assert ts.fit_errors[1:] == ["spec edges,gwdsp(0.5),gwesp(0.5) needs at least 3 "
                                         "nodes, got 1", "cluster is empty"]
            doc = json.loads(json.dumps(two_stage_fit_to_dict(ts)))
            back = two_stage_fit_from_dict(doc)
            self.assert_same_fit(back, ts)
            assert two_stage_fit_to_dict(back) == doc
            assert back.method == method
            assert (back.cluster_fits[0].seed is None) == (method == "mple")

    def test_entry_holds_only_its_own_fields(self):
        doc = two_stage_fit_to_dict(self.make_fit("mcmle"))
        assert list(doc["cluster_fits"][0]) == ["theta_hat", "std_errors", "seed",
                                                "diagnostics", "available"]
        assert list(doc["cluster_fits"][0]["diagnostics"]) == [
            f.name for f in fields(FitDiagnostics)]
        assert doc["cluster_fits"][2] == {"available": False, "reason": "cluster is empty"}

    def test_cluster_fit_holds_the_fields_of_an_entry(self):
        entry = two_stage_fit_to_dict(self.make_fit("mcmle"))["cluster_fits"][0]
        assert {f.name for f in fields(ErgmFit)} == set(entry) - {"available"}

    def test_entries_that_repeat_spec_and_method_still_read(self):
        # files written before entries held only their own fields repeat the
        # file's kind of fit, spec and method in every entry
        ts = self.make_fit("mcmle")
        doc = two_stage_fit_to_dict(ts)
        old = copy.deepcopy(doc)
        old["cluster_fits"][0] = {"kind": "ergm", "spec": doc["spec"],
                                  "method": doc["method"], **doc["cluster_fits"][0]}
        self.assert_same_fit(two_stage_fit_from_dict(old), ts)
        assert two_stage_fit_to_dict(two_stage_fit_from_dict(old)) == doc

    def test_benchmark_reference_fit_reads(self):
        # a fit file of that earlier format, kept as a benchmark input
        path = Path(__file__).parents[1] / "perfbench" / "data" / "fig3" / "ref_fit.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert all("kind" in entry for entry in doc["cluster_fits"])
        for entry in doc["cluster_fits"]:
            for key in ("kind", "spec", "method"):
                entry.pop(key)
        assert two_stage_fit_to_dict(two_stage_fit_from_dict(doc)) == doc


def _pool_min_visits(_):
    return hergmkit.rng.POOL_MIN_VISITS


class TestClusterPool:
    """Clusters and block chains run through ``rng.parallel_map``; a pool of
    two workers writes what one process writes."""

    def test_pool_only_from_two_threads_two_tasks_and_the_threshold(self, pools):
        at = POOL_MIN_VISITS
        assert parallel_map(abs, [-1, 2, -3], 2, at - 1) == [1, 2, 3]
        assert parallel_map(abs, [-1, 2, -3], 1, at) == [1, 2, 3]
        assert parallel_map(abs, [-4], 2, at) == [4]
        assert pools() == []
        assert parallel_map(abs, [-1, 2, -3], 2, at) == [1, 2, 3]
        assert parallel_map(abs, [-1, 2], 8) == [1, 2]  # no estimate: large
        assert pools() == [2, 2]

    def test_workers_are_forked_with_the_parents_state(self, monkeypatch, pools):
        # a spawned or forkserver worker would import rng afresh
        monkeypatch.setattr(hergmkit.rng, "POOL_MIN_VISITS", 7)
        assert parallel_map(_pool_min_visits, [0, 1], 2) == [7, 7]
        assert pools() == [2]

    def test_work_is_ergm_dyads_times_sweeps(self, monkeypatch):
        estimates = []

        def spy(fn, tasks, threads, visits):
            estimates.append(visits)
            return [fn(t) for t in tasks]

        monkeypatch.setattr(sampler, "parallel_map", spy)
        monkeypatch.setattr(twostage, "parallel_map", spy)
        blocks = (ClusterSpec(6, parse_spec("edges"), (-1.0,)), BernoulliBlock(30, 0.2),
                  ClusterSpec(5, parse_spec("edges"), (-1.0,)))
        hergm_draws(HergmSpec(blocks, 0.1), 1, SamplerControls(3, 2, 4))
        g, truth = simulate_hergm(HergmSpec(blocks, 0.1), 2, SamplerControls(3))
        for method in ("mple", "mcmle"):
            two_stage_fit(g, truth, parse_spec("edges"), method=method, mcmle=McmleControls(8, 5))
        # 15 + 10 ERGM dyads; Bernoulli blocks count none; an MPLE dyad counts
        # 3 visits, an MCMLE fit its burn-in and one full-size sample
        assert estimates == [25 * (3 + 2 * 4), 25 * (3 + 1 * 10),
                             (15 + 435 + 10) * 3, (15 + 435 + 10) * (5 + 2 * 8)]

    def test_draws_identical_in_a_pool(self, pools):
        hspec = HergmSpec(tuple(ClusterSpec(20, SPEC, (BASE, t, t)) for t in (0.2, 0.5))
                          + (BernoulliBlock(20, 0.1),), 0.05)
        # 2 x C(20, 2) x (130 + 2 x 1) = 50,160 dyad visits
        controls = SamplerControls(burnin_sweeps=130, n_samples=2, thin_sweeps=1)
        serial, pooled = (hergm_draws(hspec, 5, controls, threads) for threads in (1, 2))
        assert pools() == [2]
        assert [d.adjacency_matrix().tolist() for d in serial] \
            == [d.adjacency_matrix().tolist() for d in pooled]

    @pytest.mark.parametrize("method, mc", [
        ("mple", McmleControls()), ("mcmle", McmleControls(n_samples=64, burnin_sweeps=30)),
    ])
    def test_fit_identical_in_a_pool(self, pools, method, mc):
        if method == "mple":  # 4 x C(100, 2) x 3 = 59,400 dyad visits
            g, truth = simulate_hergm(HergmSpec((BernoulliBlock(100, 0.05),) * 4, 0.01), 3)
            spec = parse_spec("edges,triangles")
        else:  # 3 x C(20, 2) x (30 + 2 x 64) = 90,060 dyad visits
            (g, truth), spec = fig1_like(n_per=20), SPEC
        fits = [two_stage_fit_to_dict(two_stage_fit(g, truth, spec, method=method, mcmle=mc,
                                                    seed=9, threads=threads))
                for threads in (1, 2)]
        assert pools() == [2]
        assert fits[0] == fits[1]
        assert all(c["available"] for c in fits[0]["cluster_fits"])

    def test_gof_identical_in_a_pool(self, pools):
        g, truth = fig1_like(n_per=20)
        fit = two_stage_fit(g, truth, SPEC, method="mple")
        # 3 x C(20, 2) x (70 + 5 x 10) = 68,400 dyad visits
        reports = [gof(g, fit, 5, seed=4, burnin_sweeps=70, threads=threads)
                   for threads in (1, 2)]
        assert pools() == [2]
        for name, diag in reports[0].items():
            other = reports[1][name]
            for field in ("observed", "lower", "upper"):
                assert getattr(diag, field).tobytes() == getattr(other, field).tobytes()

    def test_no_pool_inside_experiment_workers(self, pools, monkeypatch):
        # any nested call given threads > 1 would now start a pool
        monkeypatch.setattr(hergmkit.rng, "POOL_MIN_VISITS", 0)
        config = {
            "clusters": [{"n": 6, "theta": [-1.0, 0.3]}, {"n": 6, "theta": [-1.2, 0.4]}],
            "stats": "edges,gwesp(0.5)", "rho_grid": [0.0, 0.25], "replications": 1,
            "seed": 3, "nsim_gof": 2, "sim": {"burnin_sweeps": 5},
        }
        rows = sensitivity_experiment(config, threads=2)
        assert pools() == [2]
        assert rows == sensitivity_experiment(config, threads=1)
