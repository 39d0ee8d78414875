"""Graph container, partitions, and file round trips."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hergmkit
from hergmkit import (
    Graph,
    Partition,
    between_edge_counts,
    dyad,
    read_edge_list,
    read_partition,
    within_subgraph,
    write_edge_list,
    write_partition,
)
from hergmkit import graph
from hergmkit.sampler import dyad_order


def random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n)
    for i, j in dyad_order(n):
        if rng.random() < density:
            g.add_edge(i, j)
    return g


class TestGraphBasics:
    def test_new_graph_empty(self):
        g = Graph(5)
        assert g.n_edges == 0
        assert all(g.degree(i) == 0 for i in range(5))

    def test_single_node_graph_is_valid(self):
        g = Graph(1)
        assert g.n == 1 and g.n_edges == 0

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_toggle_adds_then_removes(self):
        g = Graph(3)
        g.toggle_edge(0, 1)
        assert g.n_edges == 1 and g.has_edge(0, 1) and g.has_edge(1, 0)
        g.toggle_edge(0, 1)
        assert g.n_edges == 0

    def test_toggle_out_of_range(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.toggle_edge(0, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            dyad(2, 2)

    def test_dyad_normalizes_order(self):
        assert dyad(4, 1) == (1, 4)

    def test_neighbors_and_common(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(1, 2)
        assert sorted(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(3)) == []

    def test_edges_iterates_canonically(self):
        g = random_graph(7, 0.5, 0)
        edges = list(g.edges())
        assert edges == sorted(edges)
        assert all(i < j for i, j in edges)
        assert len(edges) == g.n_edges

    def test_adjacency_matrix_symmetric(self):
        g = random_graph(6, 0.4, 1)
        a = g.adjacency_matrix()
        assert (a == a.T).all()
        assert a.trace() == 0
        assert a.sum() == 2 * g.n_edges

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 40])
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_adjacency_round_trip(self, n, density):
        # sizes off a multiple of 8 leave padding bits in the packed rows
        g = random_graph(n, density, n)
        a = g.adjacency_matrix()
        assert a.dtype == np.uint8 and a.shape == (n, n)
        assert all(a[i, j] == g.has_edge(i, j) for i, j in dyad_order(n))
        h = Graph.from_adjacency(a)
        assert h == g and h.n_edges == g.n_edges
        assert list(h.edges()) == list(g.edges())
        assert Graph.from_adjacency(a.astype(bool)) == g

    @pytest.mark.parametrize("a", [
        np.zeros((2, 3)),
        np.eye(3),
        np.triu(np.ones((3, 3)), 1),
    ])
    def test_from_adjacency_rejects_non_graphs(self, a):
        with pytest.raises(ValueError):
            Graph.from_adjacency(a)

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_toggle_involution_and_degree_sum(self, n, data):
        g = Graph(n)
        moves = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda t: t[0] != t[1]
                ),
                max_size=30,
            )
        )
        for i, j in moves:
            before = g.has_edge(i, j)
            count = g.n_edges
            g.toggle_edge(i, j)
            assert g.has_edge(i, j) != before
            assert abs(g.n_edges - count) == 1
            assert sum(g.degree(v) for v in range(n)) == 2 * g.n_edges


class TestPartition:
    def test_sizes_sum_to_n(self):
        p = Partition(np.array([0, 1, 1, 2, 0]), 3)
        assert p.sizes().tolist() == [2, 2, 1]
        assert p.sizes().sum() == p.n

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 3]), 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_cluster_count_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=f"n_clusters must be >= 1, got {k}"):
            Partition(np.array([0, 0]), k)

    def test_cluster_count_is_required(self):
        with pytest.raises(TypeError):
            Partition(np.array([0, 1]))

    def test_members(self):
        p = Partition(np.array([1, 0, 1]), 2)
        assert p.members(1).tolist() == [0, 2]
        with pytest.raises(ValueError):
            p.members(5)


class TestSubgraphs:
    def test_single_cluster_is_whole_graph(self):
        g = random_graph(6, 0.5, 2)
        p = Partition(np.zeros(6, dtype=int), 1)
        assert within_subgraph(g, p, 0) == g

    def test_size_one_cluster(self):
        g = random_graph(5, 0.5, 3)
        labels = np.array([0, 1, 1, 1, 1])
        sub = within_subgraph(g, Partition(labels, 2), 0)
        assert sub.n == 1 and sub.n_edges == 0

    def test_subgraph_matches_direct_filter(self):
        # oracle: filter the full edge list by membership
        from hergmkit import parse_spec
        from hergmkit.sampler import ClusterSpec, HergmSpec, SamplerControls, simulate_hergm

        spec = parse_spec("edges,gwdsp(0.5),gwesp(0.5)")
        base = -2.9444389791664403
        hspec = HergmSpec(
            tuple(ClusterSpec(20, spec, (base, t, t)) for t in (0.2, 0.5, 1.0)), 0.05
        )
        g, truth = simulate_hergm(hspec, 5, SamplerControls(burnin_sweeps=300))
        sub, node_map = within_subgraph(g, truth, 0), truth.members(0)
        members = set(node_map.tolist())
        expected = {
            (i, j) for i, j in g.edges() if i in members and j in members
        }
        back = {(int(node_map[i]), int(node_map[j])) for i, j in sub.edges()}
        assert back == expected

    def test_edge_partition_identity(self):
        g = random_graph(12, 0.3, 4)
        labels = np.array([i % 3 for i in range(12)])
        p = Partition(labels, 3)
        y_b, n_b = between_edge_counts(g, p)
        within_total = sum(
            within_subgraph(g, p, k).n_edges for k in range(3)
        )
        assert within_total + y_b == g.n_edges

    def test_between_counts(self):
        g = Graph(2)
        g.add_edge(0, 1)
        p = Partition(np.array([0, 1]), 2)
        assert between_edge_counts(g, p) == (1, 1)

    def test_between_counts_single_cluster(self):
        g = random_graph(5, 0.5, 6)
        p = Partition(np.zeros(5, dtype=int), 1)
        assert between_edge_counts(g, p) == (0, 0)

    def test_between_dyad_count_three_blocks(self):
        g = Graph(60)
        labels = np.repeat([0, 1, 2], 20)
        _, n_b = between_edge_counts(g, Partition(labels, 3))
        assert n_b == 1200


class TestFileFormats:
    def test_read_edge_list_path_graph(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n 3\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.n == 3 and g.n_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)

    def test_edge_list_round_trip(self, tmp_path):
        g = random_graph(9, 0.4, 7)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header comment\nn 3\n\n0 2\n# done\n")
        assert read_edge_list(path).n_edges == 1

    def test_self_loop_in_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n 3\n2 2\n")
        with pytest.raises(ValueError, match="self-loop"):
            read_edge_list(path)

    def test_duplicate_edge_in_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n 3\n0 1\n1 0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_edge_list(path)

    def test_node_id_beyond_n(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n 3\n0 3\n")
        with pytest.raises(ValueError, match="node id"):
            read_edge_list(path)

    @pytest.mark.parametrize("body, line", [
        ("n x\n", 2), ("n 0\n", 2), ("n 3\n0 a\n", 3), ("n 3\n-1 2\n", 3), ("n 3\n0 0\n", 3),
    ], ids=["count-x", "count-0", "node-a", "node-negative", "self-loop"])
    def test_every_edge_list_error_names_file_and_line(self, tmp_path, body, line):
        path = tmp_path / "g.edges"
        path.write_text("# comment\n" + body)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
            read_edge_list(path)

    def test_isolated_nodes_survive_round_trip(self, tmp_path):
        g = Graph(10)
        g.add_edge(0, 1)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path).n == 10

    def test_partition_round_trip(self, tmp_path):
        p = Partition(np.array([2, 0, 1, 1, 2]), 3)
        path = tmp_path / "p.csv"
        write_partition(p, path)
        assert read_partition(path) == p

    def test_partition_basic_read(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("node,cluster\n0,0\n1,1\n")
        p = read_partition(path)
        assert p.n_clusters == 2 and p.assignments.tolist() == [0, 1]

    def test_partition_gap_labels_compacted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("node,cluster\n0,0\n1,2\n")
        p = read_partition(path)
        assert p.assignments.tolist() == [0, 1] and p.n_clusters == 2

    def test_partition_duplicate_node(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("node,cluster\n0,0\n0,1\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_partition(path)

    @pytest.mark.parametrize("row", ["1", "1,0,2", "1,x"])
    def test_partition_malformed_row_names_the_line(self, tmp_path, row):
        path = tmp_path / "p.csv"
        path.write_text(f"node,cluster\n0,0\n{row}\n")
        with pytest.raises(ValueError, match=f"p.csv:3: expected 'node,cluster'"):
            read_partition(path)

    def test_partition_missing_node(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("node,cluster\n0,0\n2,1\n")
        with pytest.raises(ValueError, match="missing"):
            read_partition(path)


class TestBulkEdgeListRead:
    """``read_edge_list`` against ``_read_edge_lines``, the line-by-line
    reader, as the reference: the same graph from every file it reads, and
    the same error from every file it refuses."""

    @staticmethod
    def read_both(tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_text(text, newline="")
        return path, read_edge_list(path), graph._read_edge_lines(path)

    @pytest.mark.parametrize("n, density", [(1, 0.0), (2, 1.0), (9, 0.4), (64, 0.1), (200, 0.05)])
    def test_written_graphs(self, tmp_path, n, density):
        g = random_graph(n, density, n)
        write_edge_list(g, tmp_path / "w.edges")
        _, got, want = self.read_both(tmp_path, (tmp_path / "w.edges").read_text())
        assert got == want == g and got.n_edges == want.n_edges == g.n_edges

    @pytest.mark.parametrize("text", [
        "# c\n\n  n 4  \n0 1\n\n \t\n3  2\t\n",
        "n 4\r\n0 1\r\n2 3\r\n",
        "n 4\n+0 01\n2 3",
        "n 4\n0 1\n# a comment in the body\n1 2\n",
        "n 40\n1_0 3\n",
        "n 4\n\u0663 0\n",
        "n 4\n0 1\x0c\n",
        "n 3\n",
        "n 3\n\n  \n",
    ], ids=["blank-lines", "crlf", "signs-zeros-no-newline", "body-comment",
            "underscore", "arabic-digit", "form-feed", "header-only", "blank-body"])
    def test_unusual_files(self, tmp_path, text):
        _, got, want = self.read_both(tmp_path, text)
        assert got == want and got.n_edges == want.n_edges

    def test_fig3_benchmark_graph(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "fig3" / "graph.edges"
        got, want = read_edge_list(path), graph._read_edge_lines(path)
        assert got == want and got.n_edges == want.n_edges > 0

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "n\n", "m 3\n", "n x\n", "n 0\n", "n -2\n",
        "n 4\n0 1\n1 2 3\n", "n 4\n0 1\n2\n", "n 4\n0 x\n", "n 4\n0 1.0\n",
        "n 4\n0 1\n2 2\n", "n 4\n0 1\n-1 2\n", "n 4\n-1 -1\n", "n 4\n0 1\n1 4\n",
        "n 4\n0 1\n1 0\n", "n 4\n0 1 # inline\n", "n 4\n0 1\n0 99999999999999999999\n",
        "n 4\n1 2\n0 9\n2 1\n3 3\n",
    ])
    def test_same_errors(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(ValueError) as got:
            read_edge_list(path)
        with pytest.raises(ValueError) as want:
            graph._read_edge_lines(path)
        assert str(got.value) == str(want.value)


class TestGeodesics:
    """``geodesic_distances`` against scipy's shortest paths as the oracle:
    equal values, ``inf`` between components, shape and dtype."""

    @staticmethod
    def check(g):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        want = shortest_path(csr_matrix(g.adjacency_matrix()), method="D",
                             directed=False, unweighted=True)
        got = g.geodesic_distances()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("n", [1, 2, 8, 9, 200])
    def test_empty_graph(self, n):
        d = self.check(Graph(n))
        assert np.array_equal(d, np.where(np.eye(n, dtype=bool), 0.0, np.inf))

    @pytest.mark.parametrize("n", [2, 5, 64, 65])
    def test_complete_graph(self, n):
        d = self.check(Graph.from_adjacency(~np.eye(n, dtype=bool)))
        assert np.array_equal(d, 1.0 - np.eye(n))

    @pytest.mark.parametrize("n", [3, 200])
    def test_path(self, n):
        g = Graph(n)
        for i in range(n - 1):
            g.add_edge(i, i + 1)
        d = self.check(g)
        ids = np.arange(n)
        assert np.array_equal(d, np.abs(ids[:, None] - ids[None, :]).astype(float))

    def test_components(self):
        from scipy.linalg import block_diag

        # two dense blocks, a path, a lone edge and two isolated nodes
        blocks = [random_graph(m, 0.5, m).adjacency_matrix() for m in (20, 15)]
        path = np.eye(6, k=1) + np.eye(6, k=-1)
        edge = np.array([[0, 1], [1, 0]])
        a = block_diag(blocks[0], path, [[0]], blocks[1], edge, [[0]])
        d = self.check(Graph.from_adjacency(a))
        assert np.isinf(d[0, 20]) and d[20, 25] == 5.0

    @pytest.mark.parametrize("n", [3, 7, 30, 120, 200])
    @pytest.mark.parametrize("density", [0.01, 0.05, 0.2, 0.6])
    def test_random_graphs(self, n, density):
        self.check(random_graph(n, density, 1000 * n + int(100 * density)))


class TestComponents:
    """``components`` against scipy's connected components as the oracle:
    the same labels, numbered in the order of each component's lowest node."""

    @staticmethod
    def check(g):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        _, want = connected_components(csr_matrix(g.adjacency_matrix()), directed=False)
        got = g.components()
        assert got.dtype == np.int64 and np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("n", [1, 2, 9, 200])
    def test_edgeless_graph(self, n):
        assert np.array_equal(self.check(Graph(n)), np.arange(n))

    def test_complete_graph(self):
        assert not self.check(Graph.from_adjacency(~np.eye(65, dtype=bool))).any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_components(self, seed):
        from scipy.linalg import block_diag

        # two dense blocks, a path, a lone edge and isolated nodes, with the
        # node ids shuffled so that no component is a run of ids
        blocks = [random_graph(m, 0.5, m + seed).adjacency_matrix() for m in (20, 15)]
        path = np.eye(6, k=1) + np.eye(6, k=-1)
        edge = np.array([[0, 1], [1, 0]])
        a = block_diag(blocks[0], [[0]], path, [[0]], blocks[1], edge, [[0]])
        perm = np.random.default_rng(seed).permutation(a.shape[0])
        labels = self.check(Graph.from_adjacency(a[np.ix_(perm, perm)]))
        assert np.bincount(labels).tolist().count(1) == 3

    @pytest.mark.parametrize("n", [3, 30, 120, 200])
    @pytest.mark.parametrize("density", [0.005, 0.02, 0.1])
    def test_random_graphs(self, n, density):
        self.check(random_graph(n, density, 1000 * n + int(1000 * density)))


def test_only_graph_and_kernel_touch_the_bitmasks():
    # every other module goes through Graph's methods and its numpy bridge
    src = Path(hergmkit.__file__).parent
    offenders = sorted(
        path.name for path in src.glob("*.py")
        if path.name not in ("graph.py", "stats.py")
        and re.search(r"\._(adj|n_edges)\b", path.read_text(encoding="utf-8"))
    )
    assert offenders == []
