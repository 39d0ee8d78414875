"""Undirected binary graphs, node partitions, and their file formats.

Nodes are contiguous integers 0..n-1.  Adjacency is stored as one Python
integer bitmask per node, which gives O(1) edge lookup, cheap common-neighbor
counts via ``&`` + ``bit_count``, and fast copies.  Dyads are canonical with
i < j; every public function normalizes order.

Whole-graph work goes through numpy: ``adjacency_matrix`` and
``from_adjacency`` convert to and from an n x n matrix by bit (un)packing,
``geodesic_distances`` runs shortest paths on it, and subgraphs and
between-cluster counts are slices and masks of it.  Only this module and the
kernel ``stats.ChangeStatEngine`` touch the bitmasks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

__all__ = [
    "Graph",
    "Partition",
    "dyad",
    "within_subgraph",
    "between_edge_counts",
    "read_edge_list",
    "write_edge_list",
    "read_partition",
    "write_partition",
]


def dyad(i: int, j: int) -> tuple[int, int]:
    """Canonical dyad (i, j) with i < j.  Rejects self-loops."""
    if i == j:
        raise ValueError(f"self-loop dyad ({i}, {j}) is not allowed")
    if i < 0 or j < 0:
        raise ValueError(f"negative node id in dyad ({i}, {j})")
    return (i, j) if i < j else (j, i)


def _bits(mask: int):
    """Yield the set bit positions of an integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph on n labeled nodes, no self-loops."""

    __slots__ = ("n", "_adj", "_n_edges")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"graph needs at least one node, got n={n}")
        self.n = n
        self._adj = [0] * n
        self._n_edges = 0

    # -- queries ---------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self._adj[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self._adj[i].bit_count()

    def degrees(self) -> np.ndarray:
        return np.array([m.bit_count() for m in self._adj], dtype=np.int64)

    def neighbors(self, i: int):
        return _bits(self._adj[i])

    def edges(self):
        """Iterate canonical (i, j) edges, i < j, ascending."""
        rows, cols = np.nonzero(np.triu(self.adjacency_matrix(), 1))
        return zip(rows.tolist(), cols.tolist())

    def adjacency_matrix(self) -> np.ndarray:
        """The n x n 0/1 adjacency matrix, dtype uint8."""
        width = (self.n + 7) // 8
        packed = b"".join(m.to_bytes(width, "little") for m in self._adj)
        rows = np.frombuffer(packed, dtype=np.uint8).reshape(self.n, width)
        return np.unpackbits(rows, axis=1, count=self.n, bitorder="little")

    def geodesic_distances(self) -> np.ndarray:
        """The n x n shortest-path lengths in edges; ``inf`` between components."""
        return shortest_path(
            csr_matrix(self.adjacency_matrix()), method="D", directed=False, unweighted=True
        )

    @classmethod
    def from_adjacency(cls, a) -> "Graph":
        """Graph of a symmetric matrix with a zero diagonal; nonzero is a tie."""
        a = np.asarray(a, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
        if a.diagonal().any() or not np.array_equal(a, a.T):
            raise ValueError("adjacency matrix must be symmetric with a zero diagonal")
        g = cls(a.shape[0])
        g._adj = [int.from_bytes(row.tobytes(), "little")
                  for row in np.packbits(a, axis=1, bitorder="little")]
        g._n_edges = int(np.count_nonzero(a)) // 2
        return g

    # -- mutation (single-owner; see module docstring) ---------------------

    def _set(self, i: int, j: int, present: bool | None) -> bool:
        """Make the dyad present or absent, or flip it for None."""
        i, j = dyad(i, j)
        if j >= self.n:
            raise ValueError(f"node id out of range for n={self.n}: ({i}, {j})")
        was = bool((self._adj[i] >> j) & 1)
        present = not was if present is None else present
        if present != was:
            self._adj[i] ^= 1 << j
            self._adj[j] ^= 1 << i
            self._n_edges += 1 if present else -1
        return present

    def add_edge(self, i: int, j: int):
        self._set(i, j, True)

    def remove_edge(self, i: int, j: int):
        self._set(i, j, False)

    def toggle_edge(self, i: int, j: int) -> bool:
        """Flip the dyad; returns True if the edge is present afterwards."""
        return self._set(i, j, None)

    # -- misc --------------------------------------------------------------

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g.n = self.n
        g._adj = list(self._adj)
        g._n_edges = self._n_edges
        return g

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.n, tuple(self._adj)))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self._n_edges})"


@dataclass(frozen=True)
class Partition:
    """Node -> cluster assignment for K clusters, labels 0..K-1."""

    assignments: np.ndarray
    n_clusters: int = field(default=0)

    def __post_init__(self):
        arr = np.asarray(self.assignments, dtype=np.int64)
        object.__setattr__(self, "assignments", arr)
        k = self.n_clusters if self.n_clusters else int(arr.max()) + 1
        object.__setattr__(self, "n_clusters", k)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("assignments must be a non-empty 1-d vector")
        if arr.min() < 0 or arr.max() >= k:
            raise ValueError(
                f"cluster labels must lie in 0..{k - 1}, got range "
                f"[{arr.min()}, {arr.max()}]"
            )

    @property
    def n(self) -> int:
        return int(self.assignments.size)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.n_clusters)

    def members(self, k: int) -> np.ndarray:
        if not 0 <= k < self.n_clusters:
            raise ValueError(f"cluster id {k} out of range for K={self.n_clusters}")
        return np.flatnonzero(self.assignments == k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.n_clusters == other.n_clusters
            and np.array_equal(self.assignments, other.assignments)
        )


def within_subgraph(g: Graph, p: Partition, k: int) -> tuple[Graph, np.ndarray]:
    """Subgraph induced by cluster k, relabeled 0..n_k-1.

    Returns (subgraph, node_map) where node_map[v] is the original id of
    subgraph node v (ascending order).
    """
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} nodes, graph has {g.n}")
    node_map = p.members(k)
    a = g.adjacency_matrix()
    return Graph.from_adjacency(a[np.ix_(node_map, node_map)]), node_map


def between_edge_counts(g: Graph, p: Partition) -> tuple[int, int]:
    """(y_B, n_B): between-cluster edge count and dyad count."""
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} nodes, graph has {g.n}")
    labels = p.assignments
    between = labels[:, None] != labels[None, :]
    y_b = int(np.count_nonzero(g.adjacency_matrix()[between])) // 2
    return y_b, int(np.count_nonzero(between)) // 2


# -- file formats ----------------------------------------------------------
#
# Edge list: line 1 "n <count>", then "i j" per edge with i < j; "#" starts
# a comment line.  Partition: CSV with header node,cluster, every node
# exactly once; labels are compacted to 0..K-1 on read.


def write_edge_list(g: Graph, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"n {g.n}\n")
        for i, j in g.edges():
            fh.write(f"{i} {j}\n")


def read_edge_list(path) -> Graph:
    """Read ``n <count>`` then one ``i j`` line per edge; every error names
    the file and line."""
    g = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) != 2 or (g is None and parts[0] != "n"):
                    want = "header 'n <count>'" if g is None else "'i j'"
                    raise ValueError(f"expected {want}, got {line!r}")
                if g is None:
                    g = Graph(int(parts[1]))
                    continue
                i, j = dyad(int(parts[0]), int(parts[1]))
                if j >= g.n:
                    raise ValueError(f"node id >= n={g.n} in {line!r}")
                if g.has_edge(i, j):
                    raise ValueError(f"duplicate edge {(i, j)}")
                g.add_edge(i, j)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if g is None:
        raise ValueError(f"{path}: empty edge-list file")
    return g


def write_partition(p: Partition, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node", "cluster"])
        for node, label in enumerate(p.assignments):
            writer.writerow([node, int(label)])


def read_partition(path) -> Partition:
    rows: dict[int, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["node", "cluster"]:
            raise ValueError(f"{path}: expected header 'node,cluster', got {header}")
        for row in reader:
            if not row:
                continue
            try:
                node, label = (int(v) for v in row)
            except ValueError:
                raise ValueError(
                    f"{path}:{reader.line_num}: expected 'node,cluster', got {row!r}"
                ) from None
            if node in rows:
                raise ValueError(f"{path}:{reader.line_num}: duplicate row for node {node}")
            rows[node] = label
    n = len(rows)
    if n == 0:
        raise ValueError(f"{path}: no assignment rows")
    missing = set(range(n)) - set(rows)
    if missing:
        raise ValueError(f"{path}: missing nodes {sorted(missing)[:5]} (n={n})")
    raw = np.array([rows[i] for i in range(n)], dtype=np.int64)
    # compact labels to 0..K-1 in the order of the sorted labels
    uniq, labels = np.unique(raw, return_inverse=True)
    return Partition(labels, len(uniq))
