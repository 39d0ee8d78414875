"""Undirected binary graphs, node partitions, and their file formats.

Nodes are contiguous integers 0..n-1.  Adjacency is stored as one Python
integer bitmask per node, which gives O(1) edge lookup, cheap common-neighbor
counts via ``&`` + ``bit_count``, and fast copies.  Dyads are canonical with
i < j; every public function normalizes order.

Whole-graph work goes through numpy: ``adjacency_matrix`` and
``from_adjacency`` convert to and from an n x n matrix by bit (un)packing,
and subgraphs and between-cluster counts are slices and masks of it.
``geodesic_distances`` and ``components`` are breadth-first searches on the
bitmasks.  Only this module and the kernel ``stats.ChangeStatEngine`` touch
the bitmasks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain

import numpy as np

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


def _unpack(masks, n: int) -> np.ndarray:
    """The 0/1 rows of n-bit masks, one row of n columns each, dtype uint8."""
    width = (n + 7) // 8
    packed = b"".join(m.to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(-1, width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


def _or_all(masks: list[int], idx) -> int:
    """OR of ``masks[i]`` over ``i`` in ``idx``."""
    out = 0
    for i in idx:
        out |= masks[i]
    return out


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
        return Graph.adjacency_stack([self])[0]

    @staticmethod
    def adjacency_stack(graphs) -> np.ndarray:
        """The (len(graphs), n, n) 0/1 adjacency matrices of graphs on the
        same n nodes, dtype uint8."""
        n = graphs[0].n
        masks = chain.from_iterable(g._adj for g in graphs)
        return _unpack(masks, n).reshape(len(graphs), n, n)

    def geodesic_distances(self) -> np.ndarray:
        """The n x n shortest-path lengths in edges; ``inf`` between components.

        A breadth-first search from every node at once: ``reach[v]`` is the
        mask of nodes within d edges of v, and each level ORs in the masks
        of v's neighbours.  The bits a level adds get distance d.
        """
        n = self.n
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        neighbors = [list(_bits(m)) for m in self._adj]
        reach = [1 << v for v in range(n)]
        for d in range(1, n):
            new = [r | _or_all(reach, nbrs) for r, nbrs in zip(reach, neighbors)]
            if new == reach:
                break
            fresh = _unpack((m ^ r for m, r in zip(new, reach)), n)
            dist[fresh.view(bool)] = d
            reach = new
        return dist

    def components(self) -> np.ndarray:
        """Connected-component label of each node, dtype int64; components
        are numbered from 0 in the order of their lowest node.

        A breadth-first search on the bitmasks from the lowest unlabelled
        node: each level ORs in the masks of the frontier's nodes.
        """
        labels = np.empty(self.n, dtype=np.int64)
        unseen = (1 << self.n) - 1
        c = 0
        while unseen:
            seen = frontier = unseen & -unseen
            while frontier:
                frontier = _or_all(self._adj, _bits(frontier)) & ~seen
                seen |= frontier
            labels[list(_bits(seen))] = c
            unseen ^= seen
            c += 1
        return labels

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
    n_clusters: int

    def __post_init__(self):
        arr = np.asarray(self.assignments, dtype=np.int64)
        object.__setattr__(self, "assignments", arr)
        k = self.n_clusters
        if k < 1:
            raise ValueError(f"n_clusters must be >= 1, got {k}")
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


def within_subgraph(g: Graph, p: Partition, k: int) -> Graph:
    """Subgraph induced by cluster k; its node v is ``p.members(k)[v]``."""
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} nodes, graph has {g.n}")
    members = p.members(k)
    return Graph.from_adjacency(g.adjacency_matrix()[np.ix_(members, members)])


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
    the file and line.

    The body after the header is parsed by one ``np.loadtxt`` call, and
    self-loops, negative ids, ids >= n and repeated dyads are found by
    array operations.  A file whose header does not parse, whose body holds
    a ``#`` or refuses the bulk parse, or in which those checks find a bad
    row, is read line by line by ``_read_edge_lines``; it names the first
    bad line, and reads the ids ``int`` accepts and ``np.loadtxt`` does not.
    """
    head = ""
    with open(path, encoding="utf-8") as fh:
        for raw in iter(fh.readline, ""):
            head = raw.strip()
            if head and not head.startswith("#"):
                break
        body = fh.read()
    header = head.split()
    if len(header) != 2 or header[0] != "n" or not header[1].isdecimal() or "#" in body:
        return _read_edge_lines(path)
    n = int(header[1])
    try:
        ij = (np.loadtxt(body.split("\n"), dtype=np.int64, ndmin=2, comments=None)
              if body.strip() else np.empty((0, 2), dtype=np.int64))
    except ValueError:
        return _read_edge_lines(path)
    if n < 1 or ij.shape[1] != 2:
        return _read_edge_lines(path)
    i, j = np.minimum(ij[:, 0], ij[:, 1]), np.maximum(ij[:, 0], ij[:, 1])
    if np.any((i == j) | (i < 0) | (j >= n)):
        return _read_edge_lines(path)
    codes = np.sort(i * n + j)
    if np.any(codes[1:] == codes[:-1]):
        # a repeated dyad
        return _read_edge_lines(path)
    # row i's bit j, in from_adjacency's packing
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, (rows, cols >> 3), np.left_shift(1, cols & 7).astype(np.uint8))
    g = Graph(n)
    g._adj = [int.from_bytes(row.tobytes(), "little") for row in packed]
    g._n_edges = len(i)
    return g


def _read_edge_lines(path) -> Graph:
    """``read_edge_list`` one line at a time, raising at the first bad line."""
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
