"""Latent position cluster model: conjugacy, alignment, membership recovery."""

import json
import math

import numpy as np
import pytest

from hergmkit import Graph, Partition
from hergmkit.lsm import (
    DIRICHLET,
    LsmControls,
    LsmPosterior,
    draw_memberships,
    draw_mixture_params,
    init_positions,
    lsm_mcmc,
    lsm_posterior_from_dict,
    lsm_posterior_to_dict,
    map_membership,
    membership_probabilities,
    procrustes_align,
)
from hergmkit.sampler import dyad_order
from hergmkit.twostage import misclustering_rate

LIGHT = LsmControls(burnin=400, n_samples=150, thin=2)


def two_cliques(size=10, gap_edges=0):
    g = Graph(2 * size)
    for a in range(2):
        for i in range(size):
            for j in range(i + 1, size):
                g.add_edge(a * size + i, a * size + j)
    return g


class TestMembershipProbabilities:
    def test_single_component_is_one(self):
        z = np.random.default_rng(0).normal(size=(5, 2))
        probs = membership_probabilities(
            z, np.array([1.0]), np.zeros((1, 2)), np.array([1.0])
        )
        np.testing.assert_allclose(probs, 1.0)

    def test_symmetric_midpoint(self):
        mu = np.array([[-1.0, 0.0], [1.0, 0.0]])
        probs = membership_probabilities(
            np.zeros((1, 2)), np.array([0.5, 0.5]), mu, np.array([1.0, 1.0])
        )
        np.testing.assert_allclose(probs[0], [0.5, 0.5], atol=1e-12)

    def test_degenerate_weight(self):
        mu = np.array([[-1.0, 0.0], [1.0, 0.0]])
        probs = membership_probabilities(
            np.array([[5.0, 5.0]]), np.array([1.0, 0.0]), mu, np.array([1.0, 1.0])
        )
        np.testing.assert_allclose(probs[0], [1.0, 0.0], atol=1e-12)

    def test_density_ratio_at_component_mean(self):
        # direct density-ratio oracle: z at mu_1, components 4 sigma apart
        sigma = 0.7
        mu = np.array([[0.0, 0.0], [4.0 * sigma, 0.0]])
        sig2 = np.array([sigma**2, sigma**2])
        z = np.array([[0.0, 0.0]])
        phi0 = math.exp(0.0)
        phi4 = math.exp(-0.5 * 16.0)
        expected = phi0 / (phi0 + phi4)
        probs = membership_probabilities(z, np.array([0.5, 0.5]), mu, sig2)
        assert probs[0, 0] == pytest.approx(expected, abs=1e-10)

    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(1)
        probs = membership_probabilities(
            rng.normal(size=(40, 3)),
            np.array([0.2, 0.5, 0.3]),
            rng.normal(size=(3, 3)),
            np.array([0.5, 1.0, 2.0]),
        )
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestConjugateDraws:
    def test_dirichlet_posterior_mean(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(30, 2))
        m = np.array([0] * 18 + [1] * 12)
        sig2 = np.array([1.0, 1.0])
        draws = np.array(
            [draw_mixture_params(z, m, sig2, 2, rng)[0] for _ in range(4000)]
        )
        counts = np.array([18.0, 12.0])
        expected = (DIRICHLET + counts) / (DIRICHLET + counts).sum()
        np.testing.assert_allclose(draws.mean(axis=0), expected, atol=0.01)

    def test_mean_posterior_concentrates(self):
        rng = np.random.default_rng(3)
        true_mu = np.array([2.0, -1.0])
        z = true_mu + 0.1 * rng.normal(size=(200, 2))
        m = np.zeros(200, dtype=np.int64)
        draws = np.array(
            [
                draw_mixture_params(z, m, np.array([0.01]), 1, rng)[1][0]
                for _ in range(500)
            ]
        )
        np.testing.assert_allclose(draws.mean(axis=0), true_mu, atol=0.05)

    def test_memberships_match_probabilities(self):
        rng = np.random.default_rng(4)
        z = np.vstack([rng.normal(-3, 0.3, size=(50, 2)), rng.normal(3, 0.3, size=(50, 2))])
        lam = np.array([0.5, 0.5])
        mu = np.array([[-3.0, -3.0], [3.0, 3.0]])
        sig2 = np.array([0.5, 0.5])
        m = draw_memberships(z, lam, mu, sig2, rng)
        assert (m[:50] == 0).mean() > 0.95
        assert (m[50:] == 1).mean() > 0.95


class TestInitPositions:
    def test_two_cliques_separate(self):
        g = Graph(12)
        for a in range(2):
            for i in range(6):
                for j in range(i + 1, 6):
                    g.add_edge(a * 6 + i, a * 6 + j)
        z = init_positions(g, 2)
        c0, c1 = z[:6].mean(axis=0), z[6:].mean(axis=0)
        spread = max(
            np.linalg.norm(z[:6] - c0, axis=1).max(),
            np.linalg.norm(z[6:] - c1, axis=1).max(),
        )
        assert np.linalg.norm(c0 - c1) > spread

    def test_complete_graph_near_degenerate(self):
        g = Graph(8)
        for i, j in dyad_order(8):
            g.add_edge(i, j)
        z = init_positions(g, 2)
        # all geodesics are 1; MDS spread stays tiny relative to that scale
        assert np.linalg.norm(z, axis=1).std() < 0.3

    def test_single_node(self):
        np.testing.assert_array_equal(init_positions(Graph(1), 2), np.zeros((1, 2)))

    def test_centered(self):
        g = two_cliques(5)
        z = init_positions(g, 2)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)


class TestProcrustes:
    def test_identity(self):
        z = np.random.default_rng(5).normal(size=(10, 2))
        aligned = procrustes_align(z, z)
        np.testing.assert_allclose(aligned, z, atol=1e-10)

    def test_rotation_recovered(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(10, 2))
        angle = 1.1
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        moved = z @ rot + np.array([3.0, -2.0])
        aligned = procrustes_align(moved, z)
        assert np.linalg.norm(aligned - z) < 1e-9

    def test_reflection_recovered(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(8, 2))
        moved = z * np.array([-1.0, 1.0])
        aligned = procrustes_align(moved, z)
        assert np.linalg.norm(aligned - z) < 1e-9

    def test_noisy_rotation_matches_grid_search(self):
        # oracle: best residual over a fine rotation/reflection grid
        rng = np.random.default_rng(8)
        z = rng.normal(size=(12, 2))
        angle = 0.63
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        noise = 0.01 * rng.normal(size=z.shape)
        moved = (z + noise) @ rot + 1.5
        aligned = procrustes_align(moved, z)
        got = np.linalg.norm(aligned - z)

        zc = moved - moved.mean(axis=0)
        ref = z - z.mean(axis=0)
        best = np.inf
        for theta in np.linspace(0, 2 * math.pi, 20000, endpoint=False):
            c, s = math.cos(theta), math.sin(theta)
            for refl in (1.0, -1.0):
                r = np.array([[c, -s * refl], [s, c * refl]])
                best = min(best, np.linalg.norm(zc @ r - ref))
        assert got <= best + 1e-6

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_scipy_orthogonal_procrustes(self, d):
        from scipy.linalg import orthogonal_procrustes

        rng = np.random.default_rng(9 + d)
        for n in (1, 2, 5, 30):
            z = 3.0 * rng.normal(size=(n, d)) + 1.0
            ref = rng.normal(size=(n, d))
            rot, _ = orthogonal_procrustes(z - z.mean(axis=0), ref - ref.mean(axis=0))
            expected = (z - z.mean(axis=0)) @ rot + ref.mean(axis=0)
            np.testing.assert_allclose(procrustes_align(z, ref), expected,
                                       rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((3, 2)), np.zeros((4, 2)))


class TestLsmMcmc:
    def test_k1_membership_all_ones(self):
        g = two_cliques(5)
        post = lsm_mcmc(g, 1, controls=LIGHT, seed=1)
        np.testing.assert_allclose(post.membership_probs, 1.0)
        assert map_membership(post).n_clusters == 1

    def test_two_cliques_perfect_split(self):
        g = two_cliques(10)
        truth = Partition(np.repeat([0, 1], 10), 2)
        post = lsm_mcmc(g, 2, controls=LIGHT, seed=2)
        assert misclustering_rate(map_membership(post), truth) == 0.0

    def test_reproducible(self):
        g = two_cliques(6)
        a = lsm_mcmc(g, 2, controls=LIGHT, seed=3)
        b = lsm_mcmc(g, 2, controls=LIGHT, seed=3)
        np.testing.assert_array_equal(a.zs, b.zs)
        np.testing.assert_array_equal(a.ms, b.ms)
        np.testing.assert_allclose(a.membership_probs, b.membership_probs)

    def test_posterior_membership_rows_normalized(self):
        g = two_cliques(6)
        post = lsm_mcmc(g, 2, controls=LIGHT, seed=4)
        probs = post.membership_probs
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_posterior_membership_single_state(self):
        z = np.zeros((3, 2))
        probs = membership_probabilities(
            z, np.array([0.5, 0.5]), np.zeros((2, 2)), np.array([1.0, 1.0])
        )
        np.testing.assert_allclose(probs, 0.5)

    def test_map_tie_break_lowest_index(self):
        g = two_cliques(6)
        post = lsm_mcmc(g, 2, controls=LIGHT, seed=5)
        post.membership_probs[:] = 0.5
        part = map_membership(post)
        assert (part.assignments == 0).all()

    def test_rescaled_positions_unit_rms(self):
        g = two_cliques(8)
        post = lsm_mcmc(g, 2, controls=LIGHT, seed=6)
        for s in range(0, post.zs.shape[0], 37):
            rms = math.sqrt(float((post.zs[s] ** 2).sum() / g.n))
            assert rms == pytest.approx(1.0, abs=1e-9)

    def test_likelihood_invariant_under_rigid_motion(self):
        from hergmkit.lsm import _dyad_loglik_full

        rng = np.random.default_rng(9)
        g = two_cliques(6)
        y = g.adjacency_matrix().astype(float)
        iu = np.triu_indices(12, 1)
        z = rng.normal(size=(12, 2))
        angle = 0.77
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        z2 = z @ rot + np.array([5.0, -1.0])
        d1 = np.sqrt(((z[:, None] - z[None]) ** 2).sum(-1))[iu]
        d2 = np.sqrt(((z2[:, None] - z2[None]) ** 2).sum(-1))[iu]
        assert _dyad_loglik_full(y[iu], d1, 0.3, 1.2) == pytest.approx(
            _dyad_loglik_full(y[iu], d2, 0.3, 1.2), abs=1e-10
        )

    def test_three_likelihood_evaluations_per_iteration(self, monkeypatch):
        # one for the state after the position block, one per beta proposal;
        # the retained log-posterior reuses the state's value
        from hergmkit import lsm

        full = lsm._dyad_loglik_full
        calls = []

        def spy(*args):
            calls.append(None)
            return full(*args)

        monkeypatch.setattr(lsm, "_dyad_loglik_full", spy)
        controls = LsmControls(burnin=7, n_samples=5, thin=3)
        lsm_mcmc(two_cliques(4), 2, controls=controls, seed=1)
        assert len(calls) == 3 * (7 + 5 * 3)

    def test_position_scale_retunes_only_between_iterations(self, monkeypatch):
        # the position block draws all n proposals at one scale and records
        # them in one call, so the scale changes only after burn-in
        # iterations 50 and 100
        from hergmkit import lsm

        g = Graph(7)
        for i in range(6):
            g.add_edge(i, i + 1)
        changed = []
        record = lsm._Scale.record

        def spy(self, accepted, tuning, proposed=1):
            before = self.value
            record(self, accepted, tuning, proposed)
            if self.interval == lsm.TUNE_INTERVAL * g.n:
                assert proposed == g.n and 0 <= accepted <= g.n
                changed.append(self.value != before)

        monkeypatch.setattr(lsm._Scale, "record", spy)
        lsm_mcmc(g, 2, controls=LsmControls(burnin=120, n_samples=5, thin=1), seed=2)
        assert len(changed) == 125
        at = [k for k, c in enumerate(changed) if c]
        assert at == [49, 99]

    def test_acceptance_rates_are_floats(self):
        post = lsm_mcmc(two_cliques(4), 2, controls=LIGHT, seed=1)
        assert sorted(post.acceptance) == ["beta0", "beta1", "positions"]
        assert all(type(rate) is float for rate in post.acceptance.values())

    def test_acceptance_warning_names_a_longer_burnin(self):
        post = lsm_mcmc(
            two_cliques(4), 2, controls=LsmControls(burnin=0, n_samples=20, thin=1), seed=1
        )
        assert post.warnings == [
            f"{name} acceptance rate {post.acceptance[name]:.3f} outside [0.1, 0.6]; "
            "proposal scales are tuned during burn-in only, so try a longer burn-in"
            for name in ("beta0", "beta1")
        ]

    def test_one_node_graph_rejected(self):
        with pytest.raises(ValueError, match="needs a graph of at least 2 nodes, got 1"):
            lsm_mcmc(Graph(1), 1, controls=LIGHT)

    def test_invalid_args(self):
        g = two_cliques(4)
        with pytest.raises(ValueError):
            lsm_mcmc(g, 0, controls=LIGHT)
        with pytest.raises(ValueError):
            lsm_mcmc(g, 2, dim=0, controls=LIGHT)
        for field, value, lo in [("burnin", -1, 0), ("n_samples", 0, 1), ("thin", 0, 1)]:
            with pytest.raises(ValueError, match=f"^{field} must be >= {lo}, got {value}$"):
                LsmControls(**{field: value})
        for field in ("burnin", "n_samples", "thin"):
            for value in (2.5, "x", False):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    LsmControls(**{field: value})


def _read_back(post):
    """``post`` written as a fit file and read back."""
    return lsm_posterior_from_dict(json.loads(json.dumps(lsm_posterior_to_dict(post))))


class TestSerialization:
    def test_round_trip(self):
        post = lsm_mcmc(two_cliques(6), 2, controls=LIGHT, seed=10)
        back = _read_back(post)
        assert isinstance(back, LsmPosterior)
        assert back.n_clusters == 2 and back.dim == 2 and back.seed == 10
        np.testing.assert_array_equal(back.positions_mean, post.positions_mean)
        np.testing.assert_array_equal(back.membership_probs, post.membership_probs)
        assert (back.beta0_mean, back.beta1_mean) == (post.beta0_mean, post.beta1_mean)
        assert map_membership(back) == map_membership(post)
        assert back.acceptance == post.acceptance and back.warnings == post.warnings == []
        assert lsm_posterior_to_dict(back) == lsm_posterior_to_dict(post)

    def test_round_trip_keeps_the_warnings(self):
        # a chain with no burn-in accepts outside [0.1, 0.6], so it warns
        post = lsm_mcmc(two_cliques(6), 2, controls=LsmControls(0, 10, 1), seed=10)
        back = _read_back(post)
        assert post.warnings and back.warnings == post.warnings
        assert back.acceptance == post.acceptance
        assert lsm_posterior_to_dict(back) == lsm_posterior_to_dict(post)

    def test_read_back_is_one_draw_of_the_means(self):
        post = lsm_mcmc(two_cliques(4), 2, controls=LIGHT, seed=3)
        back = _read_back(post)
        assert back.zs.shape == (1, 8, 2) and back.beta0s.shape == back.beta1s.shape == (1,)
        np.testing.assert_array_equal(back.ms[0], map_membership(post).assignments)
        assert np.isnan(back.log_posts).all() and back.log_posts.shape == (1,)


def _single_site_block(z, dmat, props, unif, y, b0, b1, mu, sig2, m):
    """The node-by-node position loop that ``_position_block`` replaced.

    Each node recomputes its own distance row and both log-likelihood rows
    against the current state; kept as the block's oracle.
    """

    def row_ll(i, drow):
        eta = b0 - b1 * drow
        self_term = np.logaddexp(0.0, eta[i])
        return float(y[i] @ eta - (np.logaddexp(0.0, eta).sum() - self_term))

    accepted = []
    for i in range(len(z)):
        prop = props[i]
        dnew = np.sqrt(((z - prop) ** 2).sum(axis=1))
        dnew[i] = 0.0
        ll_old = row_ll(i, dmat[i])
        ll_new = row_ll(i, dnew)
        c = m[i]
        pr_old = -0.5 * ((z[i] - mu[c]) ** 2).sum() / sig2[c]
        pr_new = -0.5 * ((prop - mu[c]) ** 2).sum() / sig2[c]
        accept = bool(math.log(unif[i] + 1e-300) < (ll_new + pr_new) - (ll_old + pr_old))
        if accept:
            z[i] = prop
            dmat[i, :] = dnew
            dmat[:, i] = dnew
        accepted.append(accept)
    return accepted


class TestPositionBlock:
    @staticmethod
    def _state(n, d, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "edgeless":
            y = np.zeros((n, n))
        elif kind == "complete":
            y = 1.0 - np.eye(n)
        else:
            y = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
            y = y + y.T
        z = rng.normal(size=(n, d))
        dmat = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2))
        k = 3
        m = rng.integers(k, size=n)
        mu = rng.normal(size=(k, d))
        sig2 = rng.uniform(0.3, 2.0, size=k)
        b0, b1 = float(rng.normal()), float(rng.uniform(0.2, 2.0))
        return z, dmat, y, b0, b1, mu, sig2, m, rng

    @pytest.mark.parametrize("kind", ["edgeless", "complete", "random"])
    @pytest.mark.parametrize("scale", [1e-4, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 12, 40])
    def test_matches_single_site_loop(self, n, d, scale, kind):
        from hergmkit.lsm import _position_block

        z, dmat, y, b0, b1, mu, sig2, m, rng = self._state(n, d, kind, seed=n * 100 + d)
        for _ in range(3):  # later blocks start from states the walk wrote
            props = z + scale * rng.normal(size=(n, d))
            unif = rng.random(n)
            z_ref, dmat_ref = z.copy(), dmat.copy()
            expected = _single_site_block(z_ref, dmat_ref, props, unif, y, b0, b1, mu, sig2, m)
            got = _position_block(z, dmat, props, unif, y, b0, b1, mu, sig2, m)
            assert got == expected
            assert all(type(a) is bool for a in got)
            np.testing.assert_array_equal(z, z_ref)
            np.testing.assert_array_equal(dmat, dmat_ref)

    @pytest.mark.parametrize("scale, low, high", [(1e-4, 0.9, 1.0), (10.0, 0.0, 0.1)])
    def test_scales_span_accept_all_to_none(self, scale, low, high):
        # the oracle cases above cover both ends of the acceptance range
        from hergmkit.lsm import _position_block

        z, dmat, y, b0, b1, mu, sig2, m, rng = self._state(40, 2, "random", seed=1)
        got = _position_block(z, dmat, z + scale * rng.normal(size=(40, 2)),
                              rng.random(40), y, b0, b1, mu, sig2, m)
        assert low <= sum(got) / len(got) <= high


class TestHelpers:
    """``_softplus`` against ``np.logaddexp`` and ``_distances`` against the
    broadcast form it replaced."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 300.0])
    def test_softplus_within_4_ulp_of_logaddexp(self, scale):
        from hergmkit.lsm import _softplus

        x = scale * np.random.default_rng(int(scale * 1000)).normal(size=100_000)
        np.testing.assert_array_max_ulp(_softplus(x.copy()), np.logaddexp(0.0, x), maxulp=4)

    def test_softplus_equals_logaddexp_at_edge_values(self):
        from hergmkit.lsm import _softplus

        pos = np.array([0.0, 1e-300, 37.0, 709.0, 710.0, 1e4, np.inf])
        x = np.concatenate([pos, -pos])
        np.testing.assert_array_equal(_softplus(x.copy()), np.logaddexp(0.0, x))

    def test_softplus_maps_nan_to_nan(self):
        # every warning is an error here, so a warning would fail the test
        from hergmkit.lsm import _softplus

        out = _softplus(np.array([np.nan, -np.nan, 1.0]))
        assert np.isnan(out[:2]).all() and out[2] == np.logaddexp(0.0, 1.0)

    @staticmethod
    def _broadcast(a, b):
        return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
    def test_distances_bit_equal_to_broadcast_below_dim_8(self, d, m):
        from hergmkit.lsm import _distances

        rng = np.random.default_rng(10 * d + m)
        a, b = 3.0 * rng.normal(size=(9, d)), rng.normal(size=(m, d))
        got = _distances(a, b)
        assert got.shape == (9, m)
        np.testing.assert_array_equal(got, self._broadcast(a, b))
        np.testing.assert_array_equal(_distances(a, a), self._broadcast(a, a))

    @pytest.mark.parametrize("d", [8, 9])
    def test_distances_close_to_broadcast_from_dim_8(self, d):
        # numpy reduces 8 or more terms in partial sums, so the order differs
        from hergmkit.lsm import _distances

        rng = np.random.default_rng(d)
        a, b = rng.normal(size=(9, d)), rng.normal(size=(4, d))
        np.testing.assert_allclose(_distances(a, b), self._broadcast(a, b), rtol=1e-14)
