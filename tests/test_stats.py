"""Sufficient statistics against independent brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hergmkit import (
    ChangeStatEngine,
    Graph,
    StatisticSpec,
    Term,
    change_statistics,
    degree_count,
    dsp_histogram,
    edges,
    esp_histogram,
    gwdsp,
    gwesp,
    k_stars,
    parse_spec,
    shared_partners,
    stat_vector,
    triangles,
)
from hergmkit.sampler import _expit, dyad_order

FULL_SPEC = parse_spec("edges,kstar(2),triangles,gwdsp(0.5),gwesp(0.5)")


def random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n)
    for i, j in dyad_order(n):
        if rng.random() < density:
            g.add_edge(i, j)
    return g


def complete_graph(n):
    g = Graph(n)
    for i, j in dyad_order(n):
        g.add_edge(i, j)
    return g


def star_graph(leaves):
    g = Graph(leaves + 1)
    for leaf in range(1, leaves + 1):
        g.add_edge(0, leaf)
    return g


def path3():
    g = Graph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    return g


def triangle_graph():
    g = complete_graph(3)
    return g


class TestSpecParsing:
    def test_round_trip(self):
        text = "edges,kstar(2),triangles,gwdsp(0.5),gwesp(0.5),degree(1)"
        assert parse_spec(text).to_string() == text

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            StatisticSpec(())

    def test_bad_terms(self):
        with pytest.raises(ValueError):
            parse_spec("sparkles")
        with pytest.raises(ValueError):
            Term("kstar", 1)
        with pytest.raises(ValueError):
            Term("gwesp", -0.1)
        with pytest.raises(ValueError):
            Term("gwesp", math.inf)
        with pytest.raises(ValueError):
            Term("degree", -1)


class TestCountStatistics:
    def test_edges(self):
        assert edges(Graph(4)) == 0
        assert edges(complete_graph(4)) == 6

    def test_kstar_examples(self):
        assert k_stars(path3(), 2) == 1
        assert k_stars(star_graph(3), 2) == 3
        assert k_stars(star_graph(3), 3) == 1
        with pytest.raises(ValueError):
            k_stars(path3(), 1)

    def test_kstar_matches_subset_enumeration(self):
        # oracle: count k-subsets of each neighborhood explicitly
        g = random_graph(7, 0.5, 10)
        for k in (2, 3, 4):
            expected = sum(
                sum(
                    1
                    for _ in itertools.combinations(sorted(g.neighbors(i)), k)
                )
                for i in range(g.n)
            )
            assert k_stars(g, k) == expected

    def test_triangles_examples(self):
        assert triangles(complete_graph(4)) == 4
        assert triangles(path3()) == 0
        assert triangles(star_graph(5)) == 0

    def test_triangles_matches_triple_loop(self):
        g = random_graph(7, 0.5, 11)
        expected = sum(
            1
            for i, j, h in itertools.combinations(range(g.n), 3)
            if g.has_edge(i, j) and g.has_edge(i, h) and g.has_edge(j, h)
        )
        assert triangles(g) == expected

    def test_shared_partners(self):
        assert shared_partners(triangle_graph(), (0, 1)) == 1
        assert shared_partners(star_graph(3), (1, 2)) == 1
        g = random_graph(7, 0.5, 12)
        for d in dyad_order(7):
            expected = len(
                set(g.neighbors(d[0])) & set(g.neighbors(d[1]))
            )
            assert shared_partners(g, d) == expected

    def test_degree_count(self):
        assert degree_count(Graph(6), 0) == 6
        assert degree_count(complete_graph(4), 3) == 4
        g = random_graph(7, 0.4, 13)
        degs = [g.degree(i) for i in range(7)]
        for k in range(7):
            assert degree_count(g, k) == degs.count(k)
        with pytest.raises(ValueError):
            degree_count(g, 7)


class TestHistograms:
    def test_triangle_histograms(self):
        assert esp_histogram(triangle_graph()).tolist() == [0, 3]
        assert dsp_histogram(triangle_graph()).tolist() == [0, 3]

    def test_empty_graph_histograms(self):
        n = 6
        esp = esp_histogram(Graph(n))
        dsp = dsp_histogram(Graph(n))
        assert esp.sum() == 0
        assert dsp[0] == n * (n - 1) // 2 and dsp[1:].sum() == 0

    def test_histograms_match_dyad_loop(self):
        g = random_graph(7, 0.5, 14)
        esp = np.zeros(6, dtype=int)
        dsp = np.zeros(6, dtype=int)
        for i, j in dyad_order(7):
            sp = shared_partners(g, (i, j))
            dsp[sp] += 1
            if g.has_edge(i, j):
                esp[sp] += 1
        assert esp_histogram(g).tolist() == esp.tolist()
        assert dsp_histogram(g).tolist() == dsp.tolist()

    def test_histogram_totals(self):
        g = random_graph(8, 0.45, 15)
        assert esp_histogram(g).sum() == g.n_edges
        assert dsp_histogram(g).sum() == 28


class TestGeometricWeights:
    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 1.3])
    def test_triangle_gwesp_is_three(self, tau):
        # hand evaluation: each edge has one shared partner, weight
        # e^tau * (1 - (1 - e^-tau)) = 1
        assert gwesp(triangle_graph(), tau) == pytest.approx(3.0)

    def test_tau_zero_counts_supported_edges(self):
        g = random_graph(8, 0.5, 16)
        supported = sum(
            1 for i, j in g.edges() if shared_partners(g, (i, j)) >= 1
        )
        assert gwesp(g, 0.0) == pytest.approx(supported)

    def test_empty_graph_zero(self):
        assert gwesp(Graph(5), 0.7) == 0.0
        assert gwdsp(Graph(5), 0.7) == 0.0

    def test_gwesp_monotone_in_decay(self):
        g = random_graph(8, 0.5, 17)
        taus = [0.0, 0.2, 0.5, 1.0, 2.0]
        vals = [gwesp(g, t) for t in taus]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= math.exp(2.0) * g.n_edges + 1e-9

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            gwesp(triangle_graph(), -0.5)


class TestChangeStatistics:
    def test_edges_term_always_one(self):
        g = random_graph(6, 0.5, 18)
        spec = parse_spec("edges")
        for d in dyad_order(6):
            assert change_statistics(g, d, spec)[0] == 1.0

    def test_triangle_change_is_shared_partners(self):
        g = random_graph(7, 0.5, 19)
        spec = parse_spec("triangles")
        for d in dyad_order(7):
            assert change_statistics(g, d, spec)[0] == shared_partners(g, d)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_toggle_and_recompute(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        g = random_graph(n, float(rng.uniform(0.15, 0.7)), seed + 100)
        spec = parse_spec("edges,kstar(2),kstar(3),triangles,gwdsp(0.5),gwesp(0.7),degree(0),degree(2)")
        for d in dyad_order(n):
            present = g.copy()
            present.add_edge(*d)
            absent = g.copy()
            absent.remove_edge(*d)
            oracle = stat_vector(present, spec) - stat_vector(absent, spec)
            got = change_statistics(g, d, spec)
            np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_out_of_range_dyad(self):
        with pytest.raises(ValueError):
            change_statistics(Graph(3), (0, 5), FULL_SPEC)


class TestPermutationInvariance:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_stat_vector_invariant_under_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        g = random_graph(n, 0.5, seed % 1000)
        perm = rng.permutation(n)
        h = Graph(n)
        for i, j in g.edges():
            h.add_edge(int(perm[i]), int(perm[j]))
        spec = parse_spec("edges,kstar(2),triangles,gwdsp(0.5),gwesp(0.5),degree(1)")
        np.testing.assert_allclose(
            stat_vector(g, spec), stat_vector(h, spec), atol=1e-10
        )

    def test_kstar2_identity_and_triangle_bounds(self):
        g = random_graph(8, 0.5, 21)
        assert k_stars(g, 2) == sum(
            math.comb(g.degree(i), 2) for i in range(8)
        )
        assert 3 * triangles(g) == sum(
            shared_partners(g, (i, j)) for i, j in g.edges()
        )


def reference_sweep(engine, g, theta, rng):
    """One Gibbs sweep the per-dyad way: ``compute``, dot product, logistic,
    ``toggle_edge``.  The oracle for ``ChangeStatEngine.sweep``."""
    dyads = dyad_order(g.n)
    u = rng.random(len(dyads))
    for b, (i, j) in enumerate(dyads):
        c = engine.compute(g, i, j)
        logit = 0.0
        for t, cv in zip(theta, c):
            logit += t * cv
        present = u[b] < _expit(logit)
        if present != g.has_edge(i, j):
            g.toggle_edge(i, j)


SWEEP_SPECS = [
    "edges",
    "edges,kstar(2),kstar(3)",
    "edges,triangles",
    "edges,degree(0),degree(2)",
    "edges,gwesp(0.5),gwdsp(0.5)",
    "gwdsp(1.5),gwesp(0.1),edges",
    "edges,kstar(2),kstar(3),triangles,degree(1),degree(3),"
    "gwesp(0.25),gwdsp(0.75),gwesp(1.2),gwdsp(0.0)",
]


class TestFusedSweep:
    @pytest.mark.parametrize("text", SWEEP_SPECS)
    @pytest.mark.parametrize("n", [5, 12, 25])
    @pytest.mark.parametrize("density", [0.03, 0.5, 0.97])
    def test_matches_reference_sweep(self, text, n, density):
        spec = parse_spec(text)
        rng = np.random.default_rng(n * 1000 + int(density * 100))
        # small dependence terms, so the chain stays near the start density
        theta = [
            math.log(density / (1 - density)) if t.kind == "edges"
            else 0.05 * float(rng.standard_normal())
            for t in spec
        ]
        g_ref = random_graph(n, density, n + len(text))
        g_fused = g_ref.copy()
        engine = ChangeStatEngine(spec, n)
        rng_ref = np.random.default_rng(7)
        rng_fused = np.random.default_rng(7)
        for _ in range(4):
            reference_sweep(engine, g_ref, theta, rng_ref)
            engine.sweep(g_fused, theta, 1, rng_fused)
            assert g_fused._adj == g_ref._adj
            assert g_fused.n_edges == g_ref.n_edges
        assert g_fused.n_edges == sum(g_fused.degrees()) // 2
        # several sweeps in one call walk the same chain
        engine.sweep(g_fused, theta, 3, rng_fused)
        for _ in range(3):
            reference_sweep(engine, g_ref, theta, rng_ref)
        assert g_fused._adj == g_ref._adj

    def test_strong_dependence_chain(self):
        spec = parse_spec("edges,gwdsp(0.5),gwesp(0.5),triangles")
        theta = (-2.0, 0.5, 0.5, 0.3)
        g_ref = random_graph(20, 0.3, 4)
        g_fused = g_ref.copy()
        engine = ChangeStatEngine(spec, 20)
        rng_ref, rng_fused = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(30):
            reference_sweep(engine, g_ref, theta, rng_ref)
        engine.sweep(g_fused, theta, 30, rng_fused)
        assert g_fused == g_ref and g_fused.n_edges == g_ref.n_edges

    def test_zero_sweeps_leave_graph(self):
        g = random_graph(6, 0.5, 1)
        before = g.copy()
        ChangeStatEngine(FULL_SPEC, 6).sweep(g, [0.1] * 5, 0, np.random.default_rng(0))
        assert g == before

    def test_disagreement_with_compute_raises(self):
        class Drifted(ChangeStatEngine):
            def compute(self, g, i, j):
                return [c + 1e-9 for c in super().compute(g, i, j)]

        engine = Drifted(FULL_SPEC, 6)
        with pytest.raises(RuntimeError, match="differs from compute"):
            engine.sweep(
                random_graph(6, 0.5, 2), [0.1] * 5, 1, np.random.default_rng(0)
            )

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChangeStatEngine(FULL_SPEC, 6).sweep(
                Graph(5), [0.0] * 5, 1, np.random.default_rng(0)
            )
