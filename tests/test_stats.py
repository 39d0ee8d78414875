"""Sufficient statistics against independent brute-force oracles."""

import itertools
import math
import re

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
    dsp_histogram,
    esp_histogram,
    parse_spec,
    stat_vector,
)
from hergmkit import stats as stats_module
from hergmkit.sampler import SamplerControls, _expit, dyad_order, gibbs_sample
from hergmkit.stats import GW_DECAY_MAX, _histograms, stat_matrix

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


def stat(g, term):
    """One statistic, through a one-term ``stat_vector`` spec."""
    return stat_vector(g, parse_spec(term))[0]


def _shared_partners(g):
    """Each dyad's shared partners and tie flag, from the statistics core."""
    sp, tie, _, _ = _histograms(g.adjacency_matrix()[None])
    return sp[0], tie[0]


def common_neighbors(g, i, j):
    """Oracle: size of the intersection of the two neighbour sets."""
    return len(set(g.neighbors(i)) & set(g.neighbors(j)))


class TestSpecParsing:
    def test_round_trip(self):
        text = "edges,kstar(2),triangles,gwdsp(0.5),gwesp(0.5),degree(1)"
        assert parse_spec(text).to_string() == text

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            StatisticSpec(())

    @pytest.mark.parametrize("text, label", [
        ("edges,edges", "edges"),
        ("edges,gwesp(0.5),gwesp(0.50)", "gwesp(0.5)"),
        ("kstar(2),triangles,kstar(2)", "kstar(2)"),
    ])
    def test_repeated_term_rejected(self, text, label):
        with pytest.raises(ValueError, match=re.escape(f"term {label} appears twice")):
            parse_spec(text)

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

    @pytest.mark.parametrize("text, need", [
        ("edges", 2), ("degree(0)", 2), ("degree(1)", 2), ("edges,triangles", 3),
        ("gwdsp(0.5)", 3), ("gwesp(0.5)", 3), ("kstar(2)", 3), ("edges,degree(9)", 10),
        ("kstar(4),gwesp(0.5)", 5),
    ])
    def test_min_nodes(self, text, need):
        # one dyad at least; a 2-path needs three nodes, a k-star k + 1
        assert parse_spec(text).min_nodes() == need


class TestCountStatistics:
    def test_edges(self):
        assert stat(Graph(4), "edges") == 0
        assert stat(complete_graph(4), "edges") == 6

    def test_kstar_examples(self):
        assert stat(path3(), "kstar(2)") == 1
        assert stat(star_graph(3), "kstar(2)") == 3
        assert stat(star_graph(3), "kstar(3)") == 1
        with pytest.raises(ValueError):
            parse_spec("kstar(1)")

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
            assert stat(g, f"kstar({k})") == expected

    def test_triangles_examples(self):
        assert stat(complete_graph(4), "triangles") == 4
        assert stat(path3(), "triangles") == 0
        assert stat(star_graph(5), "triangles") == 0

    def test_triangles_matches_triple_loop(self):
        g = random_graph(7, 0.5, 11)
        expected = sum(
            1
            for i, j, h in itertools.combinations(range(g.n), 3)
            if g.has_edge(i, j) and g.has_edge(i, h) and g.has_edge(j, h)
        )
        assert stat(g, "triangles") == expected

    def test_shared_partners(self):
        sp, tie = _shared_partners(triangle_graph())
        assert sp.tolist() == [1, 1, 1] and tie.all()
        sp, tie = _shared_partners(star_graph(3))
        assert sp.tolist() == [0, 0, 0, 1, 1, 1]
        assert tie.tolist() == [True, True, True, False, False, False]
        g = random_graph(7, 0.5, 12)
        sp, tie = _shared_partners(g)
        for b, (i, j) in enumerate(dyad_order(7)):
            assert sp[b] == common_neighbors(g, i, j)
            assert tie[b] == g.has_edge(i, j)

    def test_degree_count(self):
        assert stat(Graph(6), "degree(0)") == 6
        assert stat(complete_graph(4), "degree(3)") == 4
        g = random_graph(7, 0.4, 13)
        degs = [g.degree(i) for i in range(7)]
        for k in range(7):
            assert stat(g, f"degree({k})") == degs.count(k)
        with pytest.raises(ValueError, match=r"degree 7 out of range 0\.\.6"):
            stat(g, "degree(7)")

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_degree_beyond_n_minus_1_rejected(self, n):
        g = complete_graph(n)
        assert stat(g, f"degree({n - 1})") == n
        for k in (n, n + 5):
            with pytest.raises(ValueError, match="out of range"):
                stat_vector(g, parse_spec(f"edges,degree({k})"))


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
            sp = common_neighbors(g, i, j)
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
    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 1.3, GW_DECAY_MAX])
    def test_triangle_gwesp_is_three(self, tau):
        # hand evaluation: each edge has one shared partner, weight
        # e^tau * (1 - (1 - e^-tau)) = 1; at the decay cap rounding moves it
        # by 2e-8
        assert stat(triangle_graph(), f"gwesp({tau})") == pytest.approx(3.0)

    def test_tau_zero_counts_supported_edges(self):
        g = random_graph(8, 0.5, 16)
        supported = sum(
            1 for i, j in g.edges() if common_neighbors(g, i, j) >= 1
        )
        assert stat(g, "gwesp(0)") == pytest.approx(supported)

    def test_empty_graph_zero(self):
        assert stat(Graph(5), "gwesp(0.7)") == 0.0
        assert stat(Graph(5), "gwdsp(0.7)") == 0.0

    def test_gwesp_monotone_in_decay(self):
        g = random_graph(8, 0.5, 17)
        taus = [0.0, 0.2, 0.5, 1.0, 2.0]
        vals = [stat(g, f"gwesp({t})") for t in taus]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= math.exp(2.0) * g.n_edges + 1e-9

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("gwesp(-0.5)")

    @pytest.mark.parametrize("text", ["gwesp(20.001)", "gwdsp(37)", "gwesp(1e3)",
                                      "gwdsp(nan)"])
    def test_decay_above_cap_rejected(self, text):
        with pytest.raises(ValueError, match=r"needs a decay in \[0, 20\], got"):
            parse_spec(text)


def gw_weight(decay, sp):
    return math.exp(decay) * (1.0 - (1.0 - math.exp(-decay)) ** sp)


class TestDenseAgainstLoops:
    """The shared-partner matrix path against brute-force loops, on sizes that
    are and are not a multiple of 8 (the bit packing) and densities from empty
    to complete."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 40])
    @pytest.mark.parametrize("density", [0.0, 0.03, 0.5, 0.97, 1.0])
    def test_every_term_and_histogram(self, n, density):
        g = random_graph(n, density, 1000 * n + int(100 * density))
        nbrs = [set(g.neighbors(v)) for v in range(n)]
        degs = [len(s) for s in nbrs]
        esp = [0] * max(n - 1, 0)
        dsp = [0] * max(n - 1, 0)
        for i, j in itertools.combinations(range(n), 2):
            sp = len(nbrs[i] & nbrs[j])
            dsp[sp] += 1
            if j in nbrs[i]:
                esp[sp] += 1
        assert esp_histogram(g).tolist() == esp
        assert dsp_histogram(g).tolist() == dsp

        triangles = sum(
            1 for i, j, h in itertools.combinations(range(n), 3)
            if j in nbrs[i] and h in nbrs[i] and h in nbrs[j]
        )
        ks = sorted({0, 1, n - 1} & set(range(n)))
        terms = ["edges", "kstar(2)", "kstar(3)", "triangles", "gwdsp(0.5)",
                 "gwesp(0.5)", "gwesp(0)", "gwdsp(1.7)"] + [f"degree({k})" for k in ks]
        expected = [
            sum(degs) // 2,
            sum(math.comb(d, 2) for d in degs),
            sum(math.comb(d, 3) for d in degs),
            triangles,
            sum(gw_weight(0.5, k) * c for k, c in enumerate(dsp)),
            sum(gw_weight(0.5, k) * c for k, c in enumerate(esp)),
            sum(c for k, c in enumerate(esp) if k >= 1),
            sum(gw_weight(1.7, k) * c for k, c in enumerate(dsp)),
        ] + [degs.count(k) for k in ks]
        got = stat_vector(g, parse_spec(",".join(terms)))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
        # the counting terms are exact
        assert got[:4].tolist() == expected[:4]
        assert got[8:].tolist() == expected[8:]


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
            assert change_statistics(g, d, spec)[0] == common_neighbors(g, *d)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_toggle_and_recompute(self, seed):
        # change_statistics is this difference, so the kernel is what is pinned
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        g = random_graph(n, float(rng.uniform(0.15, 0.7)), seed + 100)
        spec = parse_spec("edges,kstar(2),kstar(3),triangles,gwdsp(0.5),gwesp(0.7),degree(0),degree(2)")
        engine = ChangeStatEngine(spec, n)
        for d in dyad_order(n):
            present = g.copy()
            present.add_edge(*d)
            absent = g.copy()
            absent.remove_edge(*d)
            oracle = stat_vector(present, spec) - stat_vector(absent, spec)
            got = engine.compute(g, *d)
            np.testing.assert_allclose(got, oracle, atol=1e-12)
            assert change_statistics(g, d, spec).tolist() == oracle.tolist()

    @pytest.mark.parametrize("kind", ["gwesp", "gwdsp"])
    @pytest.mark.parametrize("decay", [0, 0.5, 1.7, GW_DECAY_MAX])
    def test_kernel_matches_whole_graph_difference_at_every_decay(self, kind, decay):
        # at decay 20 the weights 1 - (1 - e^-20)^s cancel to a few digits, so
        # the kernel and the whole-graph statistics agree only on one table;
        # change_statistics is a difference of two whole-graph values, so its
        # rounding scales with the larger one
        spec = parse_spec(f"{kind}({decay:g})")
        for seed, (n, density) in enumerate([(3, 0.6), (6, 0.3), (9, 0.5),
                                             (12, 0.8), (15, 0.2), (20, 0.45)]):
            g = random_graph(n, density, 300 + seed)
            engine = ChangeStatEngine(spec, n)
            for d in dyad_order(n):
                expected = change_statistics(g, d, spec)
                present = g.copy()
                present.add_edge(*d)
                scale = float(stat_vector(present, spec)[0])
                np.testing.assert_allclose(engine.compute(g, *d), expected,
                                           rtol=1e-12, atol=1e-12 * scale)

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
        assert stat(g, "kstar(2)") == sum(
            math.comb(g.degree(i), 2) for i in range(8)
        )
        assert 3 * stat(g, "triangles") == sum(
            common_neighbors(g, i, j) for i, j in g.edges()
        )


def reference_sweep(engine, g, theta, rng):
    """One Gibbs sweep the per-dyad way: ``compute``, dot product, logistic,
    ``toggle_edge``.  The oracle for ``ChangeStatEngine.run``."""
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
            engine.run(g_fused, theta, rng_fused, 1)
            assert g_fused._adj == g_ref._adj
            assert g_fused.n_edges == g_ref.n_edges
        assert g_fused.n_edges == sum(g_fused.degrees()) // 2
        # several sweeps in one call walk the same chain
        engine.run(g_fused, theta, rng_fused, 3)
        for _ in range(3):
            reference_sweep(engine, g_ref, theta, rng_ref)
        assert g_fused._adj == g_ref._adj

    @pytest.mark.parametrize("text, n, density", [
        *((text, n, density) for text in SWEEP_SPECS if "gw" in text
          for n, density in ((60, 0.1), (60, 0.5))),
        ("edges,gwesp(0.5),gwdsp(0.5)", 200, 0.05),
        ("edges,gwesp(0.5),gwdsp(0.5)", 200, 0.3),
    ])
    def test_wide_masks_match_reference_sweep(self, text, n, density):
        # masks wider than 64 bits, where the shared-partner table pays; two
        # sweeps in one call carry the table from one sweep to the next
        spec = parse_spec(text)
        rng = np.random.default_rng(n * 1000 + int(density * 100))
        theta = [
            math.log(density / (1 - density)) if t.kind == "edges"
            else 0.05 * float(rng.standard_normal())
            for t in spec
        ]
        g_ref = random_graph(n, density, n + len(text))
        g_fused = g_ref.copy()
        engine = ChangeStatEngine(spec, n)
        rng_ref, rng_fused = np.random.default_rng(7), np.random.default_rng(7)
        engine.run(g_fused, theta, rng_fused, 2)
        for _ in range(2):
            reference_sweep(engine, g_ref, theta, rng_ref)
        assert g_fused == g_ref and g_fused.n_edges == g_ref.n_edges

    @pytest.mark.parametrize("text", SWEEP_SPECS)
    def test_gibbs_sample_is_repeated_sweeps(self, text):
        # one kernel state for the whole chain walks the chain of one sweep
        # call per draw, and the batch statistics are stat_vector's
        spec = parse_spec(text)
        n = 11
        theta = [-1.0 if t.kind == "edges" else 0.05 * (k + 1) for k, t in enumerate(spec)]
        start = random_graph(n, 0.3, 5)
        controls = SamplerControls(burnin_sweeps=3, n_samples=5, thin_sweeps=2)
        res = gibbs_sample(n, spec, theta, controls, np.random.default_rng(9), start=start)
        g, rng = start.copy(), np.random.default_rng(9)
        engine = ChangeStatEngine(spec, n)
        engine.run(g, theta, rng, controls.burnin_sweeps)
        assert len(res.graphs) == controls.n_samples
        for draw, row in zip(res.graphs, res.stats):
            engine.run(g, theta, rng, controls.thin_sweeps)
            assert draw == g and draw.n_edges == g.n_edges
            assert row.tolist() == stat_vector(g, spec).tolist()

    def test_strong_dependence_chain(self):
        spec = parse_spec("edges,gwdsp(0.5),gwesp(0.5),triangles")
        theta = (-2.0, 0.5, 0.5, 0.3)
        g_ref = random_graph(20, 0.3, 4)
        g_fused = g_ref.copy()
        engine = ChangeStatEngine(spec, 20)
        rng_ref, rng_fused = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(30):
            reference_sweep(engine, g_ref, theta, rng_ref)
        engine.run(g_fused, theta, rng_fused, 30)
        assert g_fused == g_ref and g_fused.n_edges == g_ref.n_edges

    def test_zero_sweeps_leave_graph(self):
        g = random_graph(6, 0.5, 1)
        before = g.copy()
        ChangeStatEngine(FULL_SPEC, 6).run(g, [0.1] * 5, np.random.default_rng(0), 0)
        assert g == before

    def test_disagreement_with_compute_raises(self):
        class Drifted(ChangeStatEngine):
            def compute(self, g, i, j):
                return [c + 1e-9 for c in super().compute(g, i, j)]

        engine = Drifted(FULL_SPEC, 6)
        with pytest.raises(RuntimeError, match="differs from compute"):
            engine.run(
                random_graph(6, 0.5, 2), [0.1] * 5, np.random.default_rng(0), 1
            )

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChangeStatEngine(FULL_SPEC, 6).run(
                Graph(5), [0.0] * 5, np.random.default_rng(0), 1
            )


class TestStatMatrix:
    KINDS = "edges,kstar(2),kstar(3),triangles,gwesp(0.5),gwdsp(0.75),degree(0),degree(2)"

    @pytest.mark.parametrize("chunk_entries", [1, 200, 1 << 16])
    def test_rows_equal_stat_vector(self, monkeypatch, chunk_entries):
        # one graph a chunk, partial chunks, and everything in one chunk
        monkeypatch.setattr(stats_module, "_CHUNK_ENTRIES", chunk_entries)
        spec = parse_spec(self.KINDS)
        graphs = [random_graph(9, density, seed)
                  for seed, density in enumerate([0.0, 0.1, 0.3, 0.5, 0.7, 1.0] * 2)]
        rows = stat_matrix(graphs, spec)
        assert rows.shape == (len(graphs), len(spec))
        for g, row in zip(graphs, rows):
            assert row.tolist() == stat_vector(g, spec).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_graphs(self, n):
        spec = parse_spec("edges,kstar(2),triangles,gwesp(0.5),gwdsp(0.5),degree(0)")
        graphs = [Graph(n), complete_graph(n)]
        for g, row in zip(graphs, stat_matrix(graphs, spec)):
            assert row.tolist() == stat_vector(g, spec).tolist()

    def test_degree_out_of_range_rejected_alike(self):
        spec = parse_spec("edges,degree(5)")
        graphs = [random_graph(5, 0.5, 1), random_graph(5, 0.5, 2)]
        message = re.escape("degree 5 out of range 0..4")
        with pytest.raises(ValueError, match=message):
            stat_matrix(graphs, spec)
        with pytest.raises(ValueError, match=message):
            stat_vector(graphs[0], spec)
        # degree(n - 1) is in range, and only the complete graph has it
        assert stat_matrix([Graph(6), complete_graph(6)], spec).tolist() == [[0, 0], [15, 6]]

    def test_empty_list_and_mixed_sizes(self):
        spec = parse_spec("edges,triangles")
        assert stat_matrix([], spec).shape == (0, 2)
        with pytest.raises(ValueError, match="same number of nodes"):
            stat_matrix([Graph(4), Graph(5)], spec)
