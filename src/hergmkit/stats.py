"""Network sufficient statistics and their change statistics.

Supported terms: edges, k-stars, triangles, geometrically weighted
dyadwise/edgewise shared partners (fixed decay), and exact-degree counts.
A ``StatisticSpec`` is an ordered term list; it fixes the coordinate order
of every statistic vector and parameter vector in the package.

Every whole-graph statistic comes from ``_stat_rows``, which takes an
(M, n, n) stack of adjacency matrices A: one shared-partner product ``A @ A``
per graph gives every dyad's shared-partner count, and so the ESP/DSP
histograms, the gw terms and the triangle count; the other terms come from
the degree vector.  ``stat_matrix`` (and its one-graph case ``stat_vector``),
the histograms, ``change_statistics`` (two rows: dyad present and absent)
and ``sampler.exact_distribution`` are all built on it.

``ChangeStatEngine`` is the change-statistic kernel for the millions of dyad
updates a sampler makes.  Its ``run`` is a whole Gibbs chain (burn-in and
draws) on one kernel state, which keeps a shared-partner table up to date
across edge toggles; its ``compute`` evaluates one dyad from the adjacency
bitmasks for the MPLE design and for ``run``'s once-per-call recheck.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass

import numpy as np

from .graph import Graph, dyad

__all__ = [
    "Term",
    "StatisticSpec",
    "parse_spec",
    "esp_histogram",
    "dsp_histogram",
    "stat_vector",
    "stat_matrix",
    "change_statistics",
    "ChangeStatEngine",
]

_KINDS = ("edges", "kstar", "triangles", "gwdsp", "gwesp", "degree")
_GW_KINDS = ("gwdsp", "gwesp")

# largest gw decay: the one-partner weight e^d (1 - (1 - e^-d)), exactly 1,
# rounds to 1 + 2e-8 at d = 20, 1 + 1.7e-4 at 30, 1.3 at 37 and 0 from 38
GW_DECAY_MAX = 20.0


@dataclass(frozen=True)
class Term:
    """One model term: a kind plus its parameter (star size, decay, degree).

    A gw decay lies in [0, ``GW_DECAY_MAX``] = [0, 20], where its weights hold.
    """

    kind: str
    param: float | int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.kind in ("edges", "triangles"):
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        elif self.kind == "kstar":
            if not isinstance(self.param, int) or self.param < 2:
                raise ValueError(f"kstar needs integer k >= 2, got {self.param!r}")
        elif self.kind == "degree":
            if not isinstance(self.param, int) or self.param < 0:
                raise ValueError(f"degree needs integer k >= 0, got {self.param!r}")
        else:  # gwdsp / gwesp
            p = self.param
            if not isinstance(p, (int, float)) or not 0 <= p <= GW_DECAY_MAX:
                raise ValueError(f"{self.kind} needs a decay in [0, {GW_DECAY_MAX:g}], "
                                 f"got {p!r}; larger decays round the weights away")
            object.__setattr__(self, "param", float(p))

    def label(self) -> str:
        if self.param is None:
            return self.kind
        if isinstance(self.param, int):
            return f"{self.kind}({self.param})"
        return f"{self.kind}({self.param:g})"


@dataclass(frozen=True)
class StatisticSpec:
    """Ordered, validated list of terms."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a statistic spec needs at least one term")
        for i, t in enumerate(terms):
            if t in terms[:i]:
                raise ValueError(f"term {t.label()} appears twice")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def labels(self) -> list[str]:
        return [t.label() for t in self.terms]

    def to_string(self) -> str:
        return ",".join(t.label() for t in self.terms)

    def min_nodes(self) -> int:
        """Smallest graph the spec can be fitted on: two nodes (one dyad), a
        2-path needs three, a k-star or degree(k) needs k + 1."""
        need = 2
        for t in self.terms:
            if t.kind in ("triangles", "gwdsp", "gwesp"):
                need = max(need, 3)
            elif t.kind in ("kstar", "degree"):
                need = max(need, t.param + 1)
        return need

    def check_degrees(self, n: int) -> None:
        """Reject a degree(k) term with k > n - 1 on an n-node graph."""
        for t in self.terms:
            if t.kind == "degree" and t.param > n - 1:
                raise ValueError(f"degree {t.param} out of range 0..{n - 1}")

    def edges_index(self) -> int | None:
        for idx, t in enumerate(self.terms):
            if t.kind == "edges":
                return idx
        return None


_TERM_RE = re.compile(r"^([a-z]+)(?:\(([^)]*)\))?$")


def parse_spec(text: str) -> StatisticSpec:
    """Parse the textual form, e.g. ``edges,kstar(2),gwesp(0.5)``."""
    terms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in spec string {text!r}")
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"cannot parse term {chunk!r}")
        kind, arg = m.group(1), m.group(2)
        if arg is None:
            terms.append(Term(kind))
        elif kind in ("kstar", "degree"):
            terms.append(Term(kind, int(arg)))
        else:
            terms.append(Term(kind, float(arg)))
    return StatisticSpec(tuple(terms))


# -- whole-graph statistics --------------------------------------------------

# adjacency entries per stacked chunk of ``_chunk_rows(n)`` graphs (at least
# one): 64 KiB float64 stacks, a bound on the memory of any number of graphs
_CHUNK_ENTRIES = 1 << 13


def _chunk_rows(n: int) -> int:
    return max(_CHUNK_ENTRIES // (n * n), 1)


def _partners(a: np.ndarray) -> np.ndarray:
    """Shared-partner counts ``A @ A`` of one or a stack of adjacency
    matrices, exact in float64."""
    a = a.astype(np.float64)
    return a @ a


def _histograms(a: np.ndarray):
    """Each dyad's shared partners and tie flag, in ``dyad_order``, and the
    ESP and DSP histograms (bins 0..n-2 partners) of each graph of the
    (M, n, n) adjacency stack ``a``, one row per graph."""
    n = a.shape[-1]
    i, j = np.triu_indices(n, 1)
    sp, tie = _partners(a)[:, i, j].astype(np.int64), a[:, i, j] != 0
    rows, size = len(a), max(n - 1, 0)
    # row r's counts go to bins r*size .. r*size + size - 1
    binned = sp + size * np.arange(rows)[:, None]
    esp = np.bincount(binned[tie], minlength=rows * size).reshape(rows, size)
    dsp = np.bincount(binned.ravel(), minlength=rows * size).reshape(rows, size)
    return sp, tie, esp, dsp


def esp_histogram(g: Graph) -> np.ndarray:
    """counts[k] = number of edges whose endpoints share exactly k partners."""
    return _histograms(Graph.adjacency_stack([g]))[2][0]


def dsp_histogram(g: Graph) -> np.ndarray:
    """counts[k] = number of dyads (edge or not) sharing exactly k partners."""
    return _histograms(Graph.adjacency_stack([g]))[3][0]


def _gw_weights(decay: float, size: int) -> np.ndarray:
    ks = np.arange(size)
    return math.exp(decay) * (1.0 - (1.0 - math.exp(-decay)) ** ks)


def _stat_rows(a: np.ndarray, spec: StatisticSpec) -> np.ndarray:
    """The spec's statistics of each graph in the (M, n, n) 0/1 adjacency
    stack ``a``, one row per graph.  Each gw value is the dot product of the
    weights with its own row's histogram, so no row depends on the others."""
    n = a.shape[-1]
    spec.check_degrees(n)
    out = np.empty((len(a), len(spec)), dtype=np.float64)
    degrees = a.sum(axis=2, dtype=np.int64)
    if any(t.kind in ("triangles", *_GW_KINDS) for t in spec):
        sp, tie, esp, dsp = _histograms(a)
    for pos, t in enumerate(spec):
        if t.kind == "edges":
            out[:, pos] = degrees.sum(axis=1) // 2
        elif t.kind == "kstar":
            stars = [math.comb(d, t.param) for d in range(n)]
            for r, row in enumerate(degrees.tolist()):
                out[r, pos] = sum(map(stars.__getitem__, row))
        elif t.kind == "triangles":
            # each triangle is counted once per edge
            out[:, pos] = (sp * tie).sum(axis=1) // 3
        elif t.kind in _GW_KINDS:
            weights = _gw_weights(t.param, max(n - 1, 0))
            hist = (esp if t.kind == "gwesp" else dsp).astype(np.float64)
            out[:, pos] = [weights.dot(h) for h in hist]
        else:
            out[:, pos] = np.count_nonzero(degrees == t.param, axis=1)
    return out


def stat_matrix(graphs, spec: StatisticSpec) -> np.ndarray:
    """Evaluate the spec on each of several graphs on the same nodes, one
    row per graph in spec order, through ``_stat_rows`` in stacks of
    ``_chunk_rows(n)`` graphs: memory stays bounded however many there are."""
    graphs = list(graphs)
    out = np.empty((len(graphs), len(spec)), dtype=np.float64)
    if not graphs:
        return out
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("stat_matrix needs graphs on the same number of nodes")
    chunk = _chunk_rows(n)
    for lo in range(0, len(graphs), chunk):
        part = graphs[lo:lo + chunk]
        out[lo:lo + len(part)] = _stat_rows(Graph.adjacency_stack(part), spec)
    return out


def stat_vector(g: Graph, spec: StatisticSpec) -> np.ndarray:
    """Evaluate all terms of the spec on g, in spec order: the one-graph
    case of ``stat_matrix``."""
    return stat_matrix([g], spec)[0]


class ChangeStatEngine:
    """Evaluates change statistics for one spec with precomputed tables.

    ``compute(g, i, j)`` returns the statistic difference between the graph
    with edge {i,j} present and absent, as a plain float list.  The present
    state of {i,j} in g is irrelevant: the edge is masked out of the
    adjacency before any neighbor scans.  Its callers are the MPLE design
    and ``run``'s recheck of its own inline copy of the arithmetic.

    ``run`` is the Gibbs chain: one kernel state for a burn-in and all the
    draws that follow it.  The state is the adjacency masks, ascending
    neighbour lists and, for a spec with a gw term, the shared-partner table
    ``sp[u][v] = |N(u) & N(v)|`` (``A @ A`` with a zero diagonal), built once
    and moved by +-1 on the rows and columns of i and j when {i,j} toggles.
    The gw scans read counts from the table instead of counting mask bits;
    for a dyad with tie ``a``, the count of shared partners with {i,j}
    forced absent is ``sp - a``, which the increment tables absorb by a
    shift of ``a``.  Other terms read the masks: a table costs O(degree) a
    toggle, which only the gw scans earn back.
    """

    def __init__(self, spec: StatisticSpec, n: int):
        self.spec = spec
        self.n = n
        self._keeps_sp = any(t.kind in _GW_KINDS for t in spec)
        # geometric weight increments: dw[s] = w(s+1) - w(s), w(s) the weight
        # of a dyad/edge with s shared partners, from the whole-graph
        # statistics' own table so that the two agree at every decay
        self._tables = []
        for t in spec:
            if t.kind in _GW_KINDS:
                w = _gw_weights(t.param, n + 1).tolist()
                dw = [w[s + 1] - w[s] for s in range(n)]
                self._tables.append((w, dw))
            elif t.kind == "kstar":
                self._tables.append(
                    [math.comb(d, t.param - 1) for d in range(n + 1)]
                )
            else:
                self._tables.append(None)

    def compute(self, g: Graph, i: int, j: int) -> list[float]:
        adj = g._adj
        # adjacency with the focal edge forced absent (the y0 basis)
        mi = adj[i] & ~(1 << j)
        mj = adj[j] & ~(1 << i)
        common = mi & mj
        out = []
        for t, table in zip(self.spec.terms, self._tables):
            kind = t.kind
            if kind == "edges":
                out.append(1.0)
            elif kind == "triangles":
                out.append(float(common.bit_count()))
            elif kind == "kstar":
                out.append(float(table[mi.bit_count()] + table[mj.bit_count()]))
            elif kind == "degree":
                k = t.param
                di, dj = mi.bit_count(), mj.bit_count()
                delta = (di + 1 == k) - (di == k) + (dj + 1 == k) - (dj == k)
                out.append(float(delta))
            elif kind == "gwesp":
                # the new edge enters with esp = |common|; each edge from i or
                # j to a common neighbor gains one shared partner
                w, dw = table
                delta = w[common.bit_count()]
                rest = common
                while rest:
                    low = rest & -rest
                    mv = adj[low.bit_length() - 1]
                    rest ^= low
                    delta += dw[(mi & mv).bit_count()] + dw[(mj & mv).bit_count()]
                out.append(delta)
            else:  # gwdsp
                # dyads {i,v} for v adjacent to j gain partner j, and vice versa
                w, dw = table
                delta = 0.0
                rest = mj
                while rest:
                    low = rest & -rest
                    delta += dw[(mi & adj[low.bit_length() - 1]).bit_count()]
                    rest ^= low
                rest = mi
                while rest:
                    low = rest & -rest
                    delta += dw[(mj & adj[low.bit_length() - 1]).bit_count()]
                    rest ^= low
                out.append(delta)
        return out

    def run(self, g: Graph, theta, rng: np.random.Generator, burnin: int,
            n_draws: int = 0, thin: int = 1) -> list[Graph]:
        """Run ``burnin + n_draws * thin`` systematic Gibbs sweeps over g's
        dyads in place, and return a copy of g after each of the last
        ``n_draws`` blocks of ``thin`` sweeps.

        Each sweep draws ``rng.random(C(n, 2))`` and visits the dyads in
        canonical order (0,1), (0,2), ..., setting dyad b present iff
        ``u[b] < expit(theta . compute(g, i, j))``.  The change statistics,
        the logit and the logistic are computed inline with the same
        floating-point operations, in the same order, as ``compute`` followed
        by a left-to-right dot product, so chains match the per-dyad path bit
        for bit.  The kernel state (see the class docstring) lives for the
        whole call.
        """
        n = self.n
        if g.n != n:
            raise ValueError(f"engine built for n={n}, graph has n={g.n}")
        adj = g._adj
        # ascending neighbour lists, kept in step with adj; a list walks
        # faster than the set bits of a mask, in the same order
        nbrs = [list(g.neighbors(v)) for v in range(n)]
        sp = None
        if self._keeps_sp:
            counts = _partners(g.adjacency_matrix())
            np.fill_diagonal(counts, 0.0)
            sp = counts.astype(np.int64).tolist()
        n_edges = g._n_edges
        tanh = math.tanh
        insort = bisect.insort
        terms = []  # (kind, theta_k, table) in spec order
        for t, table, th in zip(self.spec.terms, self._tables, theta):
            if t.kind in _GW_KINDS:
                # increments by tie a of the dyad: dws[a][s] = dw[s - a]; a
                # count s = 0 under a = 1 is only ever the zero diagonal,
                # read when v = i is a neighbour of j, and adds exactly 0.0
                w, dw = table
                dws = (dw, [0.0] + dw[:-1])
                table = (w, dws) if t.kind == "gwesp" else dws
            elif t.kind == "degree":
                table = t.param
            terms.append((t.kind, float(th), table))
        n_dyads = n * (n - 1) // 2
        n_sweeps = burnin + n_draws * thin
        draws = []
        for sweep in range(1, n_sweeps + 1):
            u = rng.random(n_dyads).tolist()
            b = 0
            for i in range(n - 1):
                bit_i = 1 << i
                nbrs_i = nbrs[i]
                sp_i = sp[i] if sp is not None else None
                for j in range(i + 1, n):
                    bit_j = 1 << j
                    ai = adj[i]
                    aj = adj[j]
                    a = ai >> j & 1
                    logit = 0.0
                    for kind, th, table in terms:
                        if kind == "gwdsp":
                            # dyads {i,v}, v ~ j, gain partner j, and vice versa
                            dw = table[a]
                            sp_j = sp[j]
                            delta = 0.0
                            for v in nbrs[j]:
                                delta += dw[sp_i[v]]
                            for v in nbrs_i:
                                delta += dw[sp_j[v]]
                            logit += th * delta
                        elif kind == "gwesp":
                            w, dws = table
                            dw = dws[a]
                            sp_j = sp[j]
                            delta = w[sp_i[j]]
                            rest = ai & aj
                            while rest:
                                low = rest & -rest
                                v = low.bit_length() - 1
                                rest ^= low
                                delta += dw[sp_i[v]] + dw[sp_j[v]]
                            logit += th * delta
                        elif kind == "edges":
                            logit += th * 1.0
                        elif kind == "triangles":
                            logit += th * float((ai & aj).bit_count())
                        elif kind == "kstar":
                            stars = (table[ai.bit_count() - a]
                                     + table[aj.bit_count() - a])
                            logit += th * float(stars)
                        else:  # degree(k)
                            di = ai.bit_count() - a
                            dj = aj.bit_count() - a
                            delta = ((di + 1 == table) - (di == table)
                                     + (dj + 1 == table) - (dj == table))
                            logit += th * float(delta)
                    if u[b] < 0.5 * (1.0 + tanh(0.5 * logit)):
                        if not a:
                            if sp is not None:
                                # i gains shared partner j with each
                                # neighbour of j, and j gains i with each
                                # neighbour of i; a removal takes them back
                                sp_j = sp[j]
                                for v in nbrs[j]:
                                    sp_i[v] += 1
                                    sp[v][i] += 1
                                for v in nbrs_i:
                                    sp_j[v] += 1
                                    sp[v][j] += 1
                            adj[i] = ai | bit_j
                            adj[j] = aj | bit_i
                            insort(nbrs_i, j)
                            insort(nbrs[j], i)
                            n_edges += 1
                    elif a:
                        adj[i] = ai ^ bit_j
                        adj[j] = aj ^ bit_i
                        nbrs_i.remove(j)
                        nbrs[j].remove(i)
                        if sp is not None:
                            sp_j = sp[j]
                            for v in nbrs[j]:
                                sp_i[v] -= 1
                                sp[v][i] -= 1
                            for v in nbrs_i:
                                sp_j[v] -= 1
                                sp[v][j] -= 1
                        n_edges -= 1
                    b += 1
            if sweep > burnin and (sweep - burnin) % thin == 0:
                g._n_edges = n_edges
                draws.append(g.copy())
        g._n_edges = n_edges
        if n_sweeps and n > 1:
            # compute() is the reference for the arithmetic above.  Recheck
            # the last dyad: its own update is the only change since its
            # logit was taken, and compute() masks the focal dyad out.
            expected = 0.0
            for th, c in zip(theta, self.compute(g, n - 2, n - 1)):
                expected += th * c
            if expected != logit:
                raise RuntimeError(
                    f"fused sweep logit {logit!r} differs from compute()'s "
                    f"{expected!r} on dyad ({n - 2}, {n - 1})"
                )
        return draws


def change_statistics(g: Graph, d: tuple[int, int], spec: StatisticSpec) -> np.ndarray:
    """Change statistic vector of dyad d under spec: ``stat_vector`` of the
    graph with d present minus with d absent."""
    i, j = dyad(*d)
    if j >= g.n:
        raise ValueError(f"node id out of range for n={g.n}: ({i}, {j})")
    a = Graph.adjacency_stack([g, g])
    a[0, i, j] = a[0, j, i] = 1
    a[1, i, j] = a[1, j, i] = 0
    present, absent = _stat_rows(a, spec)
    return present - absent
