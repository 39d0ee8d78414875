"""Network sufficient statistics and their change statistics.

Supported terms: edges, k-stars, triangles, geometrically weighted
dyadwise/edgewise shared partners (fixed decay), and exact-degree counts.
A ``StatisticSpec`` is an ordered term list; it fixes the coordinate order
of every statistic vector and parameter vector in the package.

Whole-graph statistics (``stat_vector`` and the ESP/DSP histograms) come
from the adjacency matrix A: one shared-partner matrix ``A @ A`` gives every
dyad's shared-partner count, and so the histograms, the gw terms and the
triangle count; k-stars and degree counts come from the degree vector.

The change statistic of a dyad is the difference in the statistic vector
between the graph with that edge present and absent, evaluated without
recomputing global statistics.  ``ChangeStatEngine`` precomputes per-spec
lookup tables (binomials, geometric weights); its ``compute`` evaluates one
dyad and its ``sweep`` runs whole Gibbs sweeps with the same arithmetic
inline, for the millions of dyad updates a sampler makes.
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
    "change_statistics",
    "ChangeStatEngine",
]

_KINDS = ("edges", "kstar", "triangles", "gwdsp", "gwesp", "degree")

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


def _shared_partners(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Each dyad's shared partners (``A @ A``, exact in float64) and tie flag."""
    a = g.adjacency_matrix().astype(np.float64)
    upper = np.triu_indices(g.n, 1)
    return (a @ a)[upper].astype(np.int64), a[upper] != 0


def esp_histogram(g: Graph) -> np.ndarray:
    """counts[k] = number of edges whose endpoints share exactly k partners."""
    sp, tie = _shared_partners(g)
    return np.bincount(sp[tie], minlength=max(g.n - 1, 0))


def dsp_histogram(g: Graph) -> np.ndarray:
    """counts[k] = number of dyads (edge or not) sharing exactly k partners."""
    sp, _ = _shared_partners(g)
    return np.bincount(sp, minlength=max(g.n - 1, 0))


def _gw_value(hist: np.ndarray, decay: float) -> float:
    if hist.size == 0:
        return 0.0
    ks = np.arange(hist.size)
    weights = math.exp(decay) * (1.0 - (1.0 - math.exp(-decay)) ** ks)
    return float(weights @ hist)


def stat_vector(g: Graph, spec: StatisticSpec) -> np.ndarray:
    """Evaluate all terms of the spec on g, in spec order.

    A triangle is counted once per edge: triangles = sum_k k * esp[k] / 3.
    """
    out = np.empty(len(spec), dtype=np.float64)
    degrees = g.degrees()
    esp = dsp = None
    for pos, t in enumerate(spec):
        if t.kind in ("triangles", "gwesp", "gwdsp") and esp is None:
            sp, tie = _shared_partners(g)
            esp = np.bincount(sp[tie], minlength=max(g.n - 1, 0))
            dsp = np.bincount(sp, minlength=max(g.n - 1, 0))
        if t.kind == "edges":
            out[pos] = g.n_edges
        elif t.kind == "kstar":
            out[pos] = sum(math.comb(d, t.param) for d in degrees.tolist())
        elif t.kind == "triangles":
            out[pos] = int(np.arange(esp.size) @ esp) // 3
        elif t.kind == "gwesp":
            out[pos] = _gw_value(esp, t.param)
        elif t.kind == "gwdsp":
            out[pos] = _gw_value(dsp, t.param)
        else:
            if t.param > g.n - 1:
                raise ValueError(f"degree {t.param} out of range 0..{g.n - 1}")
            out[pos] = np.count_nonzero(degrees == t.param)
    return out


class ChangeStatEngine:
    """Evaluates change statistics for one spec with precomputed tables.

    ``compute(g, i, j)`` returns the statistic difference between the graph
    with edge {i,j} present and absent, as a plain float list.  The present
    state of {i,j} in g is irrelevant: the edge is masked out of the
    adjacency before any neighbor scans.
    """

    def __init__(self, spec: StatisticSpec, n: int):
        self.spec = spec
        self.n = n
        # geometric weight increments: dw[s] = w(s+1) - w(s), w(s) the weight
        # of a dyad/edge with s shared partners
        self._tables = []
        for t in spec:
            if t.kind in ("gwesp", "gwdsp"):
                w = [
                    math.exp(t.param) * (1.0 - (1.0 - math.exp(-t.param)) ** s)
                    for s in range(n + 1)
                ]
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

    def sweep(self, g: Graph, theta, n_sweeps: int, rng: np.random.Generator):
        """Run ``n_sweeps`` systematic Gibbs sweeps over g's dyads in place.

        Each sweep draws ``rng.random(C(n, 2))`` and visits the dyads in
        canonical order (0,1), (0,2), ..., setting dyad b present iff
        ``u[b] < expit(theta . compute(g, i, j))``.  The change statistics,
        the logit and the logistic are computed inline with the same
        floating-point operations, in the same order, as ``compute`` followed
        by a left-to-right dot product, so chains match the per-dyad path bit
        for bit.
        """
        n = self.n
        if g.n != n:
            raise ValueError(f"engine built for n={n}, graph has n={g.n}")
        adj = g._adj
        # ascending neighbour lists, kept in step with adj; a list walks
        # faster than the set bits of a mask, in the same order
        nbrs = [list(g.neighbors(v)) for v in range(n)]
        n_edges = g._n_edges
        tanh = math.tanh
        insort = bisect.insort
        terms = []  # (kind, theta_k, table) in spec order
        for t, table, th in zip(self.spec.terms, self._tables, theta):
            if t.kind == "gwdsp":
                table = table[1]  # only the increments dw
            elif t.kind == "degree":
                table = t.param
            terms.append((t.kind, float(th), table))
        n_dyads = n * (n - 1) // 2
        for _ in range(n_sweeps):
            u = rng.random(n_dyads).tolist()
            b = 0
            for i in range(n - 1):
                bit_i = 1 << i
                for j in range(i + 1, n):
                    bit_j = 1 << j
                    ai = adj[i]
                    # adjacency with the focal edge forced absent
                    mi = ai & ~bit_j
                    mj = adj[j] & ~bit_i
                    common = mi & mj
                    logit = 0.0
                    for kind, th, table in terms:
                        if kind == "gwdsp":
                            delta = 0.0
                            for v in nbrs[j]:
                                if v != i:
                                    delta += table[(mi & adj[v]).bit_count()]
                            for v in nbrs[i]:
                                if v != j:
                                    delta += table[(mj & adj[v]).bit_count()]
                            logit += th * delta
                        elif kind == "gwesp":
                            w, dw = table
                            delta = w[common.bit_count()]
                            rest = common
                            while rest:
                                low = rest & -rest
                                mv = adj[low.bit_length() - 1]
                                rest ^= low
                                delta += (dw[(mi & mv).bit_count()]
                                          + dw[(mj & mv).bit_count()])
                            logit += th * delta
                        elif kind == "edges":
                            logit += th * 1.0
                        elif kind == "triangles":
                            logit += th * float(common.bit_count())
                        elif kind == "kstar":
                            stars = table[mi.bit_count()] + table[mj.bit_count()]
                            logit += th * float(stars)
                        else:  # degree(k)
                            di, dj = mi.bit_count(), mj.bit_count()
                            delta = ((di + 1 == table) - (di == table)
                                     + (dj + 1 == table) - (dj == table))
                            logit += th * float(delta)
                    if u[b] < 0.5 * (1.0 + tanh(0.5 * logit)):
                        if not ai & bit_j:
                            adj[i] = ai | bit_j
                            adj[j] |= bit_i
                            insort(nbrs[i], j)
                            insort(nbrs[j], i)
                            n_edges += 1
                    elif ai & bit_j:
                        adj[i] = mi
                        adj[j] = mj
                        nbrs[i].remove(j)
                        nbrs[j].remove(i)
                        n_edges -= 1
                    b += 1
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


def change_statistics(g: Graph, d: tuple[int, int], spec: StatisticSpec) -> np.ndarray:
    """Change statistic vector of dyad d under spec.

    Equals ``stat_vector`` of the graph with d present minus with d absent.
    For repeated evaluation construct a ``ChangeStatEngine`` once instead.
    """
    i, j = dyad(*d)
    if j >= g.n:
        raise ValueError(f"node id out of range for n={g.n}: ({i}, {j})")
    engine = ChangeStatEngine(spec, g.n)
    return np.array(engine.compute(g, i, j), dtype=np.float64)
