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
updates a sampler makes and for the MPLE design.  Its ``run`` is a whole
Gibbs chain (burn-in and draws) on one kernel state, which keeps a
shared-partner table up to date across edge toggles; its ``design`` is every
dyad's row of change statistics on a fixed graph, in dense algebra on A and
the shared partners ``A @ A``.

A sweep of ``run`` is one Python loop put together for the spec's tuple of
term kinds and compiled once per process (``_sweep_loop``), from one
``_SNIPPETS`` entry per term kind: the lines that compute its change
statistic ``c{k}``.  The kinds fix the loop's lines: one snippet per term,
in spec order, and whether the neighbour lists and the shared-partner table
are kept.  The sweep adds ``th{k} * c{k}`` to the logit.  Everything else,
theta, the degree targets, the star counts and the gw increment tables, is
passed as values, so one loop serves every theta and every decay.  The
hand-written ``compute`` evaluates one dyad from the adjacency bitmasks; it
is the reference for the snippets' arithmetic and for the design's, which
``run`` and ``design`` each recheck on one dyad per call and the tests check
dyad by dyad.
"""

from __future__ import annotations

import bisect
import functools
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

# relative tolerance of the design's recheck against ``compute``: its gw
# columns sum in BLAS's order, a few ulps from ``compute``'s
DESIGN_RTOL = 1e-12

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
    a = a.astype(np.float64, copy=False)
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
    """Change statistics of one spec on n-node graphs, with precomputed tables.

    ``compute(g, i, j)`` returns the statistic difference between the graph
    with edge {i,j} present and absent, as a plain float list.  The present
    state of {i,j} in g is irrelevant: the edge is masked out of the
    adjacency before any neighbor scans.  It is the hand-written reference
    for the generated sweep loop and for the dense design: ``run`` and
    ``design`` each recheck one dyad against it per call, and the tests and
    the benchmark's kernel check compare it with ``stat_vector``.

    ``run`` (the Gibbs chain) is one call of a loop generated for the spec's
    term kinds from the ``_SNIPPETS`` entries, reading the kernel state
    (``_state``): the adjacency masks and, for a spec with a gw term,
    ascending neighbour lists and the shared-partner table
    ``sp[u][v] = |N(u) & N(v)|`` (``A @ A`` with a zero diagonal).  ``run``
    builds the state once for a burn-in and all the draws that follow it,
    and moves the table by +-1 on the rows and columns of i and j when {i,j}
    toggles.  The gw scans read
    counts from the table instead of counting mask bits; for a dyad with tie
    ``a``, the count of shared partners with {i,j} forced absent is
    ``sp - a``, which the increment tables absorb by a shift of ``a``.
    Other terms read the masks: a table costs O(degree) a toggle, which only
    the gw scans earn back.  ``design`` (the MPLE design) reads no kernel
    state: its graph is fixed, so it takes every dyad at once from A and
    ``A @ A``.
    """

    def __init__(self, spec: StatisticSpec, n: int):
        self.spec = spec
        self.n = n
        self._kinds = tuple(t.kind for t in spec)
        self._keeps_sp = any(kind in _GW_KINDS for kind in self._kinds)
        # each term's table as its snippet unpacks it.  gw: w[s] the weight
        # of a dyad/edge with s shared partners, from the whole-graph
        # statistics' own table so that the two agree at every decay, and
        # its increments by tie a of the dyad, dws[a][s] = w(s+1-a) - w(s-a);
        # a count s = 0 under a = 1 is only ever the zero diagonal, read when
        # v = i is a neighbour of j, and adds exactly 0.0
        self._tables = []
        for t in spec:
            if t.kind in _GW_KINDS:
                w = _gw_weights(t.param, n + 1).tolist()
                dw = [w[s + 1] - w[s] for s in range(n)]
                dws = (dw, [0.0] + dw[:-1])
                self._tables.append((w, dws) if t.kind == "gwesp" else dws)
            elif t.kind == "kstar":
                self._tables.append(
                    [math.comb(d, t.param - 1) for d in range(n + 1)]
                )
            elif t.kind == "degree":
                self._tables.append(t.param)
            else:
                self._tables.append(None)

    def compute(self, g: Graph, i: int, j: int) -> list[float]:
        adj = g._adj
        # adjacency with the focal edge forced absent (the y0 basis)
        mi = adj[i] & ~(1 << j)
        mj = adj[j] & ~(1 << i)
        common = mi & mj
        out = []
        for kind, table in zip(self._kinds, self._tables):
            if kind == "edges":
                out.append(1.0)
            elif kind == "triangles":
                out.append(float(common.bit_count()))
            elif kind == "kstar":
                out.append(float(table[mi.bit_count()] + table[mj.bit_count()]))
            elif kind == "degree":
                di, dj = mi.bit_count(), mj.bit_count()
                delta = (di + 1 == table) - (di == table) + (dj + 1 == table) - (dj == table)
                out.append(float(delta))
            elif kind == "gwesp":
                # the new edge enters with esp = |common|; each edge from i or
                # j to a common neighbor gains one shared partner
                w, (dw, _) = table
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
                dw = table[0]
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

    def _check_size(self, g: Graph) -> None:
        if g.n != self.n:
            raise ValueError(f"engine built for n={self.n}, graph has n={g.n}")

    def _state(self, g: Graph):
        """g's kernel state (see the class docstring) as the sweep loop reads
        it: ``(adj, nbrs, sp)``, where ``adj`` is g's own mask list, which a
        sweep moves, and ``nbrs`` and ``sp`` are None unless a gw term reads
        them."""
        self._check_size(g)
        nbrs = sp = None
        if self._keeps_sp:
            # ascending neighbour lists, kept in step with adj; a list walks
            # faster than the set bits of a mask, in the same order
            nbrs = [list(g.neighbors(v)) for v in range(self.n)]
            counts = _partners(g.adjacency_matrix())
            np.fill_diagonal(counts, 0.0)
            sp = counts.astype(np.int64).tolist()
        return g._adj, nbrs, sp

    def design(self, g: Graph) -> tuple[np.ndarray, np.ndarray]:
        """The MPLE design of g: X, one row of change statistics per dyad in
        canonical order (0,1), (0,2), ..., and y, the dyads' tie flags as
        1.0/0.0.

        Each column is dense algebra on the adjacency A and the shared
        partners SP = A @ A, read on the upper triangle.  With dyad {i,j}
        of tie a forced absent, its endpoints have degrees d - a, and a
        neighbour v of j (v != i) shares SP[i,v] - a partners with i.
        edges is 1 and triangles SP; kstar and degree(k) read the degrees
        d - a.  gwesp is ``w[SP] + M + M.T`` with ``M = (A * dw[SP - a]) @ A``:
        the new edge's own weight, and one partner more for each edge from i
        or j to a common neighbour.  gwdsp is ``G + G.T`` with
        ``G = dw[SP - a] @ A`` taken with a zero diagonal, which drops the
        own-tie term v = i of a present dyad.  Each gw product is taken at
        a = 0 and a = 1, and a dyad reads the one of its tie.

        The Markov columns are integer-exact and equal ``compute``'s byte for
        byte.  The gw columns add the same nonnegative increments as
        ``compute`` in BLAS's order, so they agree up to rounding; each call
        rechecks the last row within ``DESIGN_RTOL``.
        """
        self._check_size(g)
        n = self.n
        a = g.adjacency_matrix().astype(np.float64)
        # partner counts, degrees and dyad indices are below n * n: int32 up
        # to n = 46,340, where one n x n float matrix already takes 17 GB
        itype = np.int32 if n * n < 1 << 31 else np.int64
        counts = _partners(a).astype(itype)
        # each dyad's entry of an n x n matrix, and its transpose's; the
        # triangle indices and each gw product are freed after their last use
        i, j = np.triu_indices(n, 1)
        upper, lower = (i * n + j).astype(itype), (j * n + i).astype(itype)
        tie = a.take(upper).astype(bool)
        if {"kstar", "degree"} & set(self._kinds):  # degrees with the dyad absent
            degrees = counts.diagonal()
            di, dj = degrees[i] - tie, degrees[j] - tie
        del i, j
        x = np.empty((len(upper), len(self._kinds)))
        for c, (kind, table) in enumerate(zip(self._kinds, self._tables)):
            if kind == "edges":
                x[:, c] = 1.0
            elif kind == "triangles":
                x[:, c] = counts.take(upper)
            elif kind == "kstar":
                # object entries once a count outgrows int64, summed exactly
                # and rounded once, as ``compute`` does
                stars = np.array(table, dtype=None if table[-1] < 1 << 62 else object)
                x[:, c] = (stars[di] + stars[dj]).astype(np.float64)
            elif kind == "degree":
                x[:, c] = ((di + 1 == table) * 1.0 - (di == table)
                           + (dj + 1 == table) - (dj == table))
            else:
                w, dws = table if kind == "gwesp" else (None, table)
                for shift in (0, 1):
                    d = np.array(dws[shift])[counts]
                    if kind == "gwesp":
                        d *= a
                    else:
                        np.fill_diagonal(d, 0.0)
                    m = d @ a
                    del d
                    # an absent dyad reads the product at a = 0, a tie at a = 1
                    pair = m.take(upper)
                    pair += m.take(lower)
                    del m
                    np.copyto(x[:, c], pair, where=tie if shift else True)
                    del pair
                if kind == "gwesp":
                    x[:, c] += np.array(w)[counts.take(upper)]
        if len(upper):
            got, expected = x[-1], self.compute(g, n - 2, n - 1)
            if not np.allclose(got, expected, rtol=DESIGN_RTOL, atol=0.0):
                raise RuntimeError(
                    f"design row {got.tolist()!r} differs from compute()'s "
                    f"{expected!r} on dyad ({n - 2}, {n - 1})"
                )
        return x, tie.astype(np.float64)

    def run(self, g: Graph, theta, rng: np.random.Generator, burnin: int,
            n_draws: int = 0, thin: int = 1) -> list[Graph]:
        """Run ``burnin + n_draws * thin`` systematic Gibbs sweeps over g's
        dyads in place, and return a copy of g after each of the last
        ``n_draws`` blocks of ``thin`` sweeps.

        Each sweep draws ``rng.random(C(n, 2))`` and visits the dyads in
        canonical order (0,1), (0,2), ..., setting dyad b present iff
        ``u[b] < expit(theta . compute(g, i, j))``.  A sweep is one call of
        the loop built for the spec's term kinds (see the module docstring),
        given theta and the terms' tables as values.  The loop computes the
        change statistics, the logit and the logistic with the same
        floating-point operations, in the same order, as ``compute``
        followed by a left-to-right dot product, so chains match the
        per-dyad path bit for bit; each call rechecks one dyad against
        ``compute``, the reference.  The kernel state (see the class
        docstring) lives for the whole call.
        """
        n = self.n
        adj, nbrs, sp = self._state(g)
        sweep = _sweep_loop(self._kinds)
        thetas = [float(th) for th in theta]
        n_dyads = n * (n - 1) // 2
        n_sweeps = burnin + n_draws * thin
        n_edges = g._n_edges
        draws = []
        for sweep_no in range(1, n_sweeps + 1):
            u = rng.random(n_dyads).tolist()
            n_edges, logit = sweep(n, adj, nbrs, sp, u, n_edges, thetas, self._tables)
            if sweep_no > burnin and (sweep_no - burnin) % thin == 0:
                g._n_edges = n_edges
                draws.append(g.copy())
        g._n_edges = n_edges
        if n_sweeps and n > 1:
            # compute() is the reference for the loop's arithmetic.  Recheck
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


# -- the generated loops -------------------------------------------------------

# Per term kind: the name its loop table unpacks to (see
# ``ChangeStatEngine.__init__``), the tags of the loop lines it reads, and
# the lines that set ``c{k}``, its change statistic at the dyad, with the
# arithmetic of ``compute`` on the kernel state.  ``{k}`` is the term's
# position in the spec.  The sweep adds ``th{k} * c{k}`` to the logit.
_SNIPPETS = {
    # th * 1.0 is th exactly
    "edges": ("_", set(), ["c{k} = 1.0"]),
    "kstar": ("stars{k}", {"degrees"}, ["c{k} = stars{k}[di] + stars{k}[dj]"]),
    "triangles": ("_", {"common"}, ["c{k} = common.bit_count()"]),
    "degree": ("deg{k}", {"degrees"}, [
        "c{k} = ((di + 1 == deg{k}) - (di == deg{k})",
        "        + (dj + 1 == deg{k}) - (dj == deg{k}))",
    ]),
    # dyads {i,v}, v ~ j, gain partner j, and vice versa
    "gwdsp": ("dws{k}", {"sp"}, [
        "dw = dws{k}[a]",
        "c{k} = 0.0",
        "for v in nbrs[j]:",
        "    c{k} += dw[sp_i[v]]",
        "for v in nbrs_i:",
        "    c{k} += dw[sp_j[v]]",
    ]),
    # the edge enters with esp = sp[i][j]; each edge from i or j to a common
    # neighbour gains one shared partner
    "gwesp": ("(w{k}, dws{k})", {"sp", "common"}, [
        "dw = dws{k}[a]",
        "c{k} = w{k}[sp_i[j]]",
        "rest = common",
        "while rest:",
        "    low = rest & -rest",
        "    v = low.bit_length() - 1",
        "    rest ^= low",
        "    c{k} += dw[sp_i[v]] + dw[sp_j[v]]",
    ]),
}

# One systematic sweep over the dyads in canonical order, returning the edge
# count and the last dyad's logit; ``tanh`` and ``insort`` are defaults so
# that the loop reads them as locals.  A line tagged ``#:tag`` is kept only
# for a spec whose kinds read it: at dyad (i, j), ``common`` and ``di``,
# ``dj`` are its common neighbours and its endpoints' degrees with the dyad
# forced absent.  The ``sp`` lines after the draw keep the neighbour lists
# and the shared-partner table in step with a toggle: i gains shared partner
# j with each neighbour of j, and j gains i with each neighbour of i; a
# removal takes them back.
_SWEEP = """\
def sweep(n, adj, nbrs, sp, u, n_edges, theta, tables, tanh=tanh, insort=insort):
    [{thetas}] = theta
    [{tables}] = tables
    logit = 0.0
    draws = iter(u)
    for i in range(n - 1):
        ai = adj[i]
        bit_i = 1 << i
        nbrs_i = nbrs[i]  #:sp
        sp_i = sp[i]  #:sp
        for j, x in zip(range(i + 1, n), draws):
            aj = adj[j]
            a = ai >> j & 1
            sp_j = sp[j]  #:sp
            common = ai & aj  #:common
            di = ai.bit_count() - a  #:degrees
            dj = aj.bit_count() - a  #:degrees
{terms}
            logit = {logit}
            if x < 0.5 * (1.0 + tanh(0.5 * logit)):
                if not a:
                    ai |= 1 << j
                    adj[i] = ai
                    adj[j] = aj | bit_i
                    for v in nbrs[j]:  #:sp
                        sp_i[v] += 1  #:sp
                        sp[v][i] += 1  #:sp
                    for v in nbrs_i:  #:sp
                        sp_j[v] += 1  #:sp
                        sp[v][j] += 1  #:sp
                    insort(nbrs_i, j)  #:sp
                    insort(nbrs[j], i)  #:sp
                    n_edges += 1
            elif a:
                ai ^= 1 << j
                adj[i] = ai
                adj[j] = aj ^ bit_i
                nbrs_i.remove(j)  #:sp
                nbrs[j].remove(i)  #:sp
                for v in nbrs[j]:  #:sp
                    sp_i[v] -= 1  #:sp
                    sp[v][i] -= 1  #:sp
                for v in nbrs_i:  #:sp
                    sp_j[v] -= 1  #:sp
                    sp[v][j] -= 1  #:sp
                n_edges -= 1
    return n_edges, logit
"""


def _loop_source(kinds: tuple[str, ...]) -> str:
    """Source of the sweep loop for a spec whose term kinds are ``kinds``."""
    tags = set().union(*(_SNIPPETS[kind][1] for kind in kinds))
    terms = "\n".join(" " * 12 + line.format(k=k) for k, kind in enumerate(kinds)
                      for line in _SNIPPETS[kind][2])
    source = _SWEEP.format(
        terms=terms,
        thetas=", ".join(f"th{k}" for k in range(len(kinds))),
        tables=", ".join(_SNIPPETS[kind][0].format(k=k) for k, kind in enumerate(kinds)),
        logit=" + ".join(f"th{k} * c{k}" for k in range(len(kinds))),
    )
    return "\n".join(line for line in source.splitlines()
                     if "#:" not in line or line.split("#:")[1] in tags)


@functools.cache
def _sweep_loop(kinds: tuple[str, ...]):
    """The sweep loop of ``kinds``, compiled on its first use in a process,
    which keeps one loop per tuple of kinds it runs; the filename in its
    tracebacks names the kinds."""
    namespace = {"tanh": math.tanh, "insort": bisect.insort}
    exec(compile(_loop_source(kinds), f"<sweep {','.join(kinds)}>", "exec"), namespace)
    return namespace["sweep"]


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
