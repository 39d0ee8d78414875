"""Estimators against closed forms and enumeration oracles."""

import math

import numpy as np
import pytest

from hergmkit import (
    Graph,
    Partition,
    SamplerControls,
    between_density_mle,
    exact_distribution,
    gibbs_sample,
    mcmle,
    mple,
    parse_spec,
    stat_vector,
)
from hergmkit.fit import (
    MOMENT_BAND,
    MPLE_GRAD_TOL,
    McmleControls,
    MpleNotConvergedError,
    NonFiniteMleError,
    SamplesDegenerateError,
    _batch_se,
    _weighted_newton,
)
from hergmkit.sampler import dyad_order
from hergmkit.stats import ChangeStatEngine, stat_matrix

EDGES = parse_spec("edges")
ET = parse_spec("edges,triangles")


def random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n)
    for i, j in dyad_order(n):
        if rng.random() < density:
            g.add_edge(i, j)
    return g


def graph_with_edges(n, n_edges, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n)
    dyads = dyad_order(n)
    for b in rng.choice(len(dyads), size=n_edges, replace=False):
        g.add_edge(*dyads[b])
    return g


def irls_logistic(x, y, iters=60):
    """Independent oracle: textbook IRLS on an explicit design matrix."""
    beta = np.zeros(x.shape[1])
    for _ in range(iters):
        eta = x @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        w = np.clip(p * (1 - p), 1e-12, None)
        zvar = eta + (y - p) / w
        wx = x * w[:, None]
        beta = np.linalg.solve(x.T @ wx, x.T @ (w * zvar))
    return beta


class TestMple:
    def test_edges_only_is_logit_density(self):
        # closed form: the logistic intercept of a constant design
        g = graph_with_edges(20, 19, 0)
        fit = mple(g, EDGES)
        assert fit.theta_hat[0] == pytest.approx(-2.1972245773362196, abs=1e-8)

    def test_half_density_gives_zero(self):
        g = graph_with_edges(9, 18, 1)  # 18 of 36 dyads
        fit = mple(g, EDGES)
        assert abs(fit.theta_hat[0]) < 1e-8

    def test_matches_independent_irls(self):
        g = random_graph(7, 0.5, 2)
        spec = ET
        # materialize the design by explicit toggles, not the engine
        rows, ys = [], []
        for d in dyad_order(7):
            g1 = g.copy()
            g1.add_edge(*d)
            g0 = g.copy()
            g0.remove_edge(*d)
            rows.append(stat_vector(g1, spec) - stat_vector(g0, spec))
            ys.append(1.0 if g.has_edge(*d) else 0.0)
        oracle = irls_logistic(np.array(rows), np.array(ys))
        fit = mple(g, spec)
        np.testing.assert_allclose(fit.theta_hat, oracle, atol=1e-6)

    def test_score_is_zero_at_optimum(self):
        g = random_graph(8, 0.45, 3)
        spec = parse_spec("edges,kstar(2),triangles")
        fit = mple(g, spec)
        x, y = ChangeStatEngine(spec, g.n).design(g)
        p = 1.0 / (1.0 + np.exp(-(x @ fit.theta_hat)))
        score = x.T @ (y - p)
        assert np.linalg.norm(score) < 1e-6

    def test_empty_graph_separation(self):
        with pytest.raises(NonFiniteMleError) as err:
            mple(Graph(6), EDGES)
        assert err.value.direction.shape == (1,)
        assert err.value.direction[0] < 0  # likelihood improves toward -inf

    @pytest.mark.parametrize("stats, direction", [
        ("degree(0)", [-1.0]),
        ("edges,degree(0)", [0.0, -1.0]),
    ])
    def test_quasi_complete_separation(self, stats, direction):
        # on the path 0-1-2-3 only the end edges change the isolate count,
        # and both are ties: the pseudo-likelihood rises without bound as the
        # degree(0) parameter falls, while the other four dyads never move
        g = Graph(4)
        for i, j in [(0, 1), (1, 2), (2, 3)]:
            g.add_edge(i, j)
        with pytest.raises(NonFiniteMleError) as err:
            mple(g, parse_spec(stats))
        np.testing.assert_allclose(err.value.direction, direction, atol=1e-6)

    def test_finite_mple_of_a_nearly_collinear_design(self):
        # on a dense Bernoulli graph every dyad has many shared partners, so
        # the gwesp column is nearly constant, nearly collinear with edges,
        # and the MPLE is finite but far from the origin.  The
        # pseudo-likelihood is strictly concave, so a stationary point is its
        # maximizer; textbook IRLS gets no higher
        a = np.triu(np.random.default_rng(0).random((150, 150)) < 0.4, 1)
        g = Graph.from_adjacency(a | a.T)
        spec = parse_spec("edges,gwdsp(0.5),gwesp(0.5)")
        x, y = ChangeStatEngine(spec, g.n).design(g)
        assert np.ptp(x[:, 2]) < 0.01
        fit = mple(g, spec)
        assert np.linalg.norm(fit.theta_hat) > 50.0
        assert fit.diagnostics.grad_norm < MPLE_GRAD_TOL

        def log_pl(beta):
            eta = x @ beta
            return float(y @ eta - np.logaddexp(0.0, eta).sum())

        p = 1.0 / (1.0 + np.exp(-(x @ fit.theta_hat)))
        assert np.linalg.norm(x.T @ (y - p)) < 1e-6
        assert log_pl(fit.theta_hat) >= log_pl(irls_logistic(x, y)) - 1e-9

    def test_complete_graph_separation(self):
        g = Graph(5)
        for d in dyad_order(5):
            g.add_edge(*d)
        with pytest.raises(NonFiniteMleError):
            mple(g, EDGES)

    @pytest.mark.parametrize("estimator", [mple, mcmle])
    def test_graph_smaller_than_spec_rejected(self, estimator):
        # degree(9) is always 0 on 4 nodes: no estimate exists, so neither
        # estimator may return one
        with pytest.raises(ValueError, match="needs at least 10 nodes, got 4"):
            estimator(random_graph(4, 0.5, 1), parse_spec("edges,degree(9)"))

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr("hergmkit.fit.MPLE_MAX_ITER", 1)
        g = random_graph(10, 0.3, 5)
        with pytest.raises(MpleNotConvergedError, match="did not reach"):
            mple(g, ET)

    def test_std_errors_invariant_under_relabeling(self):
        g = random_graph(8, 0.4, 4)
        perm = np.random.default_rng(5).permutation(8)
        h = Graph(8)
        for i, j in g.edges():
            h.add_edge(int(perm[i]), int(perm[j]))
        spec = parse_spec("edges,triangles")
        np.testing.assert_allclose(
            mple(g, spec).std_errors, mple(h, spec).std_errors, atol=1e-8
        )


def exact_mle(n, spec, s_obs, max_norm=15.0):
    """Newton on the exact likelihood from full enumeration.

    Returns None when the MLE is non-finite (observed statistics on the
    boundary of the convex hull).
    """
    table = exact_distribution(n, spec, np.zeros(len(spec))).stats
    theta = np.zeros(len(spec))
    for _ in range(300):
        logp = table @ theta
        logp -= logp.max()
        p = np.exp(logp)
        p /= p.sum()
        mu = p @ table
        diff = table - mu
        cov = diff.T @ (diff * p[:, None])
        try:
            step = np.linalg.solve(cov + 1e-12 * np.eye(len(theta)), s_obs - mu)
        except np.linalg.LinAlgError:
            return None
        norm = np.linalg.norm(step)
        if norm > 2.0:
            step *= 2.0 / norm
        theta = theta + step
        if np.linalg.norm(theta) > max_norm:
            return None
        if norm < 1e-10:
            return theta
    return None


def interior_instance():
    """A 6-node graph with an interior MLE under ``edges,triangles``."""
    draws = gibbs_sample(
        6, ET, (-1.0, 0.3), SamplerControls(500, 1, 1), np.random.default_rng(7)
    )
    return draws[-1]


def spy_samples(monkeypatch, alter=None):
    """Record the statistics of each sample ``mcmle`` draws; ``alter`` may
    edit them in place before ``mcmle`` sees them."""
    samples = []

    def spy(graphs, spec):
        stats = stat_matrix(graphs, spec)
        if alter is not None:
            alter(stats)
        samples.append(stats.copy())
        return stats

    monkeypatch.setattr("hergmkit.fit.stat_matrix", spy)
    return samples


class TestMcmle:
    def test_edges_only_agrees_with_mple(self):
        g = graph_with_edges(12, 20, 6)
        pseudo = mple(g, EDGES)
        fit = mcmle(
            g,
            EDGES,
            controls=McmleControls(n_samples=4096, burnin_sweeps=100),
            seed=1,
        )
        assert abs(fit.theta_hat[0] - pseudo.theta_hat[0]) < 1e-3 * 10
        # dyad-independent model: the two estimators share the fixed point
        assert abs(fit.theta_hat[0] - pseudo.theta_hat[0]) < 0.05

    def test_matches_exact_mle_single_instance(self):
        draws = gibbs_sample(
            6, ET, (-1.0, 0.3), SamplerControls(500, 1, 1), np.random.default_rng(7)
        )
        g = draws[-1]
        s_obs = stat_vector(g, ET)
        oracle = exact_mle(6, ET, s_obs)
        assert oracle is not None, "instance should be interior for this seed"
        fit = mcmle(
            g,
            ET,
            controls=McmleControls(n_samples=4096, burnin_sweeps=200),
            seed=7,
        )
        assert fit.diagnostics.converged
        np.testing.assert_allclose(fit.theta_hat, oracle, atol=0.05)

    def test_self_consistent_from_exact_start(self):
        draws = gibbs_sample(
            6, ET, (-1.0, 0.3), SamplerControls(500, 1, 1), np.random.default_rng(7)
        )
        g = draws[-1]
        oracle = exact_mle(6, ET, stat_vector(g, ET))
        fit = mcmle(
            g,
            ET,
            theta0=oracle,
            controls=McmleControls(n_samples=4096, burnin_sweeps=200),
            seed=8,
        )
        assert fit.diagnostics.iterations <= 2

    def test_moment_condition_holds(self):
        g = random_graph(7, 0.4, 9)
        fit = mcmle(
            g,
            ET,
            controls=McmleControls(n_samples=2048, burnin_sweeps=200),
            seed=2,
        )
        assert fit.diagnostics.converged
        gap = np.abs(fit.diagnostics.mu_hat - stat_vector(g, ET))
        assert np.all(gap <= 3.0 * fit.diagnostics.mc_se + 0.15)

    def test_std_errors_match_exact(self):
        # the exact SEs invert the covariance of the statistics at the exact
        # MLE.  The tolerance comes from seeds 0-19 of the MCMLE that drew
        # every sample from a new chain: relative SE errors at most 0.014,
        # RMS 0.008 and 0.007, so 0.04 is about five RMS errors (the warm
        # chain: at most 0.017, RMS 0.008 and 0.007)
        g = interior_instance()
        oracle = exact_mle(6, ET, stat_vector(g, ET))
        ex = exact_distribution(6, ET, oracle)
        centered = ex.stats - ex.mu
        cov = centered.T @ (centered * ex.probs[:, None])
        exact_se = np.sqrt(np.diag(np.linalg.inv(cov)))
        fit = mcmle(
            g,
            ET,
            controls=McmleControls(n_samples=4096, burnin_sweeps=200),
            seed=3,
        )
        assert fit.diagnostics.converged
        np.testing.assert_allclose(fit.std_errors, exact_se, rtol=0.04)

    def test_unconverged_mple_start_falls_back_to_zero(self, monkeypatch):
        monkeypatch.setattr("hergmkit.fit.MPLE_MAX_ITER", 1)
        g = random_graph(12, 0.3, 1)
        controls = McmleControls(n_samples=64, burnin_sweeps=20)
        fit = mcmle(g, ET, controls=controls, seed=1)
        zero = mcmle(g, ET, theta0=(0.0, 0.0), controls=controls, seed=1)
        assert fit.diagnostics.converged
        np.testing.assert_array_equal(fit.theta_hat, zero.theta_hat)

    def test_converged_fit_is_the_sample_mle(self, monkeypatch):
        # a trust radius far below the polish step must not stop the polish
        # short of the sample MLE, where the weighted mean statistic equals
        # the observed one
        monkeypatch.setattr("hergmkit.fit.TRUST_RADIUS", 0.005)
        g = interior_instance()
        oracle = exact_mle(6, ET, stat_vector(g, ET))
        fit = mcmle(
            g,
            ET,
            theta0=oracle,
            controls=McmleControls(n_samples=1024, burnin_sweeps=200),
            seed=4,
        )
        assert fit.diagnostics.converged
        assert fit.diagnostics.grad_norm < 1e-6
        assert max(fit.diagnostics.step_sizes) > 0.005

    def test_collapsed_polish_counts_as_a_step(self, monkeypatch):
        g = interior_instance()
        controls = McmleControls(n_samples=1024, burnin_sweeps=200)
        plain = mcmle(g, ET, controls=controls, seed=5)
        polishes = []

        def first_polish_collapses(s_centered, s_obs_c, radius):
            if radius == math.inf and not polishes:
                polishes.append(radius)
                return np.zeros(s_centered.shape[1]), True, False
            return _weighted_newton(s_centered, s_obs_c, radius)

        monkeypatch.setattr("hergmkit.fit._weighted_newton", first_polish_collapses)
        fit = mcmle(g, ET, controls=controls, seed=5)
        assert polishes == [math.inf]
        assert fit.diagnostics.iterations > plain.diagnostics.iterations
        assert fit.diagnostics.converged and fit.diagnostics.grad_norm < 1e-6

    def test_chain_schedule(self, monkeypatch):
        # one warm chain: burn-in once, then a draw on every sweep; walk
        # samples of 2 * n_samples // 8 draws, then full samples of
        # 2 * n_samples
        calls = []

        def spy(n, spec, theta, controls, rng, start=None):
            calls.append(controls)
            return gibbs_sample(n, spec, theta, controls, rng, start=start)

        monkeypatch.setattr("hergmkit.fit.gibbs_sample", spy)
        n = 256
        fit = mcmle(interior_instance(), ET, controls=McmleControls(n, 100), seed=1)
        assert fit.diagnostics.converged
        assert [c.burnin_sweeps for c in calls] == [100] + [0] * (len(calls) - 1)
        assert all(c.thin_sweeps == 1 for c in calls)
        sizes = [c.n_samples for c in calls]
        walks = sizes.index(2 * n)
        assert walks > 0
        assert sizes == [max(2 * n // 8, 4)] * walks + [2 * n] * (len(sizes) - walks)
        assert fit.diagnostics.mc_samples == 2 * n

    def test_polished_exit_on_an_out_of_band_sample(self, monkeypatch):
        # the second full-size sample misses the moment band (3.1 MC SEs on
        # edges), but its importance weights keep an ESS of at least
        # POLISH_MIN_ESS * m at the polished theta, so the fit ends on it
        samples = spy_samples(monkeypatch)
        g = interior_instance()
        fit = mcmle(g, ET, controls=McmleControls(256, 100), seed=6)
        d = fit.diagnostics
        assert [len(s) for s in samples] == [64] * 3 + [512] * 2
        last = samples[-1]
        gap = np.abs(last.mean(axis=0) - stat_vector(g, ET))
        assert np.any(gap > MOMENT_BAND * _batch_se(last))
        assert (d.converged, d.iterations, d.mc_samples) == (True, 5, 512)
        assert d.grad_norm < 1e-6

    def test_polished_exit_needs_effective_weights(self, monkeypatch):
        # with no ESS high enough, only in-band samples end the fit: the
        # schedule and estimate of the rule without the ESS exit
        monkeypatch.setattr("hergmkit.fit.POLISH_MIN_ESS", 1.01)
        samples = spy_samples(monkeypatch)
        fit = mcmle(interior_instance(), ET, controls=McmleControls(256, 100), seed=6)
        assert [len(s) for s in samples] == [64] * 3 + [512] * 4
        assert fit.diagnostics.converged
        assert fit.theta_hat.tolist() == [-1.541504548597011, 1.2763523686188374]

    def test_constant_statistic_with_a_gap_does_not_end_the_fit(self, monkeypatch):
        # the sample that ends the fit above, with triangles held at a count
        # the observed graph does not have: edges alone keep the importance
        # weights effective, but the polish cannot settle, so the fit takes a
        # step and samples again
        g = interior_instance()
        s_obs = stat_vector(g, ET)

        def constant_triangles(stats):
            if len(samples) == 4:
                stats[:, 1] = s_obs[1] + 1.0

        samples = spy_samples(monkeypatch, constant_triangles)
        fit = mcmle(g, ET, controls=McmleControls(256, 100), seed=6)
        assert np.all(samples[4][:, 1] == s_obs[1] + 1.0)
        assert len(samples) > 5
        assert fit.diagnostics.converged and fit.diagnostics.grad_norm < 1e-6
        assert np.all(np.abs(fit.theta_hat) < 10.0)

    def test_unconverged_exit_reports_last_walk_sample(self, monkeypatch):
        # one outer iteration ends in the walk: the fit is reported as not
        # converged, on the walk sample (2 * 64 // 8 draws), with SEs from the
        # inverse sample covariance
        monkeypatch.setattr("hergmkit.fit.MCMLE_MAX_OUTER", 1)
        g = Graph(7)
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 2), (2, 4)]:
            g.add_edge(i, j)
        fit = mcmle(g, ET, controls=McmleControls(64, 20), seed=1)
        d = fit.diagnostics
        assert (d.converged, d.iterations, d.mc_samples) == (False, 1, 16)
        np.testing.assert_allclose(fit.theta_hat, [-1.58890263, 1.04251968], rtol=1e-8)
        np.testing.assert_allclose(fit.std_errors, [0.08600261, 0.43001307], rtol=1e-6)

    def test_frozen_boundary_exit_reports_start(self):
        # empty graph, chain frozen at the empty graph: in band with no
        # variation, so the start is reported with zero gradient and SEs
        fit = mcmle(Graph(6), EDGES, theta0=(-30.0,), controls=McmleControls(16, 5), seed=1)
        d = fit.diagnostics
        assert (d.converged, d.degenerate, d.iterations, d.mc_samples) == (True, True, 2, 32)
        assert d.grad_norm == 0.0
        assert fit.std_errors.tolist() == [0.0]
        assert fit.theta_hat.tolist() == [-30.0]

    def test_contraction_recovers_from_a_frozen_chain(self):
        # a 3-edge path, far start: the frozen chain is out of band, so theta
        # is halved until the samples vary, then the fit converges
        g = Graph(6)
        for i, j in [(0, 1), (1, 2), (2, 3)]:
            g.add_edge(i, j)
        fit = mcmle(g, EDGES, theta0=(-30.0,), controls=McmleControls(16, 5), seed=1)
        d = fit.diagnostics
        assert (d.converged, d.degenerate, d.iterations, d.mc_samples) == (True, True, 7, 32)
        assert d.step_sizes[:3] == [15.0, 7.5, 3.75]
        assert d.grad_norm < 1e-6

    def test_contraction_that_fails_raises(self):
        g = Graph(6)
        for i, j in [(0, 1), (1, 2), (2, 3)]:
            g.add_edge(i, j)
        with pytest.raises(SamplesDegenerateError, match="stay constant"):
            mcmle(g, EDGES, theta0=(-3000.0,), controls=McmleControls(16, 5), seed=1)

    def test_bad_theta0_rejected(self):
        g = random_graph(6, 0.5, 10)
        with pytest.raises(ValueError):
            mcmle(g, ET, theta0=(1.0,))

    @pytest.mark.parametrize("field, value, message", [
        ("n_samples", 3, "n_samples must be >= 4"),
        ("n_samples", 64.0, "n_samples must be an integer, got 64.0"),
        ("n_samples", True, "n_samples must be an integer, got True"),
        ("burnin_sweeps", -1, "burnin_sweeps must be >= 0"),
        ("burnin_sweeps", "10", "burnin_sweeps must be an integer, got '10'"),
        ("n_samples", 0, "^n_samples must be >= 4, got 0$"),
        ("burnin_sweeps", -7, "^burnin_sweeps must be >= 0, got -7$"),
    ])
    def test_controls_validated(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            McmleControls(**{field: value})


class TestBetweenDensity:
    def test_no_between_edges(self):
        g = Graph(4)
        p = Partition(np.array([0, 0, 1, 1]), 2)
        p_hat, se = between_density_mle(g, p)
        assert p_hat == 0.0 and se == 0.0

    def test_all_between_dyads_filled(self):
        g = Graph(4)
        for i in (0, 1):
            for j in (2, 3):
                g.add_edge(i, j)
        p = Partition(np.array([0, 0, 1, 1]), 2)
        p_hat, _ = between_density_mle(g, p)
        assert p_hat == 1.0

    def test_requires_two_clusters(self):
        g = Graph(4)
        with pytest.raises(ValueError):
            between_density_mle(g, Partition(np.zeros(4, dtype=int), 1))

    def test_counts(self):
        g = Graph(4)
        g.add_edge(0, 2)
        g.add_edge(0, 1)  # within, ignored
        p = Partition(np.array([0, 0, 1, 1]), 2)
        p_hat, se = between_density_mle(g, p)
        assert p_hat == 0.25
        assert se == pytest.approx(math.sqrt(0.25 * 0.75 / 4))

