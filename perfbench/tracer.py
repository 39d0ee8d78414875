"""Out-of-tree span tracer for hergmkit's layers.

``Tracer.install()`` wraps the public functions of each hergmkit module (its
``__all__``; ``main`` and ``build_parser`` for the CLI) in every hergmkit
namespace that bound them, plus ``ChangeStatEngine.compute`` on the class.
Nothing under ``src/`` changes; ``uninstall()`` puts the originals back.

Each wrapped call becomes a span (name, start, end, parent) kept in memory
and written out by ``write()``.  Two hot leaves, ``ChangeStatEngine.compute``
(once per dyad update, up to millions per unit) and ``graph.dyad`` (once per
edge read), are counted and timed in aggregate instead of as spans; their
time is still charged to the enclosing span, so self times stay exact.
Counts (sweeps, dyad updates, outer iterations, LSM iterations) come from
call arguments and returned diagnostics, so they repeat exactly for a seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# modules whose public functions form the measured layers; rng and svgplot
# are left out (rng is trivial, svgplot only runs with --svg)
LAYERS = (
    "graph", "stats", "sampler", "fit", "lsm", "spectral", "twostage",
    "experiments", "cli",
)
_CLI_PUBLIC = ("main", "build_parser")
_AGGREGATE = {"stats.ChangeStatEngine.compute", "graph.dyad"}
_IO = {"read_edge_list", "write_edge_list", "read_partition", "write_partition"}


class Tracer:
    """Records spans of hergmkit calls made while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, t0, t1, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, name, t0, child seconds]
        self._leaves: dict[str, list] = {}  # aggregate leaves: [calls, seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"hergmkit.{m}") for m in LAYERS]
        namespaces = [sys.modules["hergmkit"]] + modules
        for layer, mod in zip(LAYERS, modules):
            public = _CLI_PUBLIC if layer == "cli" else mod.__all__
            for attr in public:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._set(ns, key, wrapper)
        engine = sys.modules["hergmkit.stats"].ChangeStatEngine
        self._set(engine, "compute",
                  self._wrap(engine.compute, "stats.ChangeStatEngine.compute"))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _set(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name):
        stack = self._stack
        counts = self.counts
        if name in _AGGREGATE:
            acc = self._leaves.setdefault(name, [0, 0.0])  # calls, seconds

            @functools.wraps(fn)
            def counted(*args):
                t0 = perf_counter()
                out = fn(*args)
                dt = perf_counter() - t0
                acc[0] += 1
                acc[1] += dt
                if stack:
                    stack[-1][3] += dt
                return out

            return counted

        observe = _OBSERVERS.get(name)
        sig = inspect.signature(fn) if observe else None
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), name, perf_counter(), 0.0]
            spans.append(None)  # reserve the id so children see their parent
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - frame[2]
                spans[frame[0]] = (name, frame[2], t1, parent)
                counts[name + ".calls"] += 1
                counts[name + ".s"] += dur
                counts[name + ".self_s"] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, out, dur)
            return out

        return traced

    def within(self, name: str) -> bool:
        """True when a span called ``name`` is open on the stack."""
        return any(frame[1] == name for frame in self._stack)

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def write(self, path):
        """Write the recorded spans as JSON lines (times relative to the first)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent,
                    "start": t0 - base, "end": t1 - base,
                }) + "\n")

    def totals(self) -> dict[str, float]:
        """All counts, with each aggregate leaf's calls and seconds."""
        out = dict(self.counts)
        for name, (calls, secs) in self._leaves.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = secs
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer; aggregate leaves count toward their layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for key, val in self.counts.items():
            if key.endswith(".self_s"):
                out[key.split(".", 1)[0]] += val
        for name, (_, secs) in self._leaves.items():
            out[name.split(".", 1)[0]] += secs
        return out


# -- observers: counts derived from arguments and results -------------------


def _obs_gibbs(tr: Tracer, a, out, dur):
    c = a["controls"]
    n = a["n"]
    burnin = c.burnin_sweeps
    sweeps = burnin + c.n_samples * c.thin_sweeps
    k = tr.counts
    k["sampler.sweeps"] += sweeps
    k["sampler.burnin_sweeps"] += burnin
    k["sampler.dyad_updates"] += sweeps * n * (n - 1) // 2
    if tr.within("fit.mcmle"):
        k["fit.mcmle_sweeps"] += sweeps
    if tr.within("twostage.gof"):
        k["twostage.gof_sweeps"] += sweeps
        k["twostage.gof_sampling_s"] += dur


def _obs_stat_vector(tr: Tracer, a, out, dur):
    if tr.parent_name() == "sampler.gibbs_sample":
        tr.counts["sampler.retained_stats_s"] += dur


def _obs_mcmle(tr: Tracer, a, out, dur):
    d = out.diagnostics
    k = tr.counts
    k["fit.mcmle_outer_iters"] += d.iterations
    k["fit.mcmle_final_m_sum"] += d.mc_samples or 0
    k["fit.mcmle_unconverged"] += 0 if d.converged else 1


def _obs_two_stage_fit(tr: Tracer, a, out, dur):
    tr.counts["twostage.clusters_unavailable"] += sum(
        f is None for f in out.cluster_fits)


def _obs_gof(tr: Tracer, a, out, dur):
    tr.counts["twostage.gof_draws"] += a["n_sim"]


def _obs_lsm(tr: Tracer, a, out, dur):
    c = a["controls"]
    if c is None:
        c = sys.modules["hergmkit.lsm"].LsmControls()
    tr.counts["lsm.iterations"] += c.burnin + c.n_samples * c.thin
    tr.counts["lsm.accept_positions_sum"] += out.acceptance["positions"]


def _obs_misrate(tr: Tracer, a, out, dur):
    tr.counts["experiments.replications"] += sum(
        r["replication"] != "mean" for r in out)


def _obs_io(tr: Tracer, a, out, dur):
    tr.counts["graph.io_s"] += dur


_OBSERVERS = {
    "sampler.gibbs_sample": _obs_gibbs,
    "stats.stat_vector": _obs_stat_vector,
    "fit.mcmle": _obs_mcmle,
    "twostage.two_stage_fit": _obs_two_stage_fit,
    "twostage.gof": _obs_gof,
    "lsm.lsm_mcmc": _obs_lsm,
    "experiments.misrate_experiment": _obs_misrate,
    **{f"graph.{name}": _obs_io for name in _IO},
}


# -- per-layer metrics -------------------------------------------------------


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tr: Tracer, n_units: int) -> dict[str, float]:
    """Per-layer metrics, each a per-unit mean over ``n_units`` traced units."""
    k = defaultdict(float, {key: val / n_units for key, val in tr.totals().items()})
    compute_calls = k["stats.ChangeStatEngine.compute.calls"]
    updates = k["sampler.dyad_updates"]
    sweeps = k["sampler.sweeps"]
    mcmle_calls = k["fit.mcmle.calls"]
    lsm_calls = k["lsm.lsm_mcmc.calls"]
    gibbs_s = k["sampler.gibbs_sample.s"]
    gof_s = k["twostage.gof.s"]
    self_s = {layer: s / n_units for layer, s in tr.layer_self_s().items()}
    out = {
        "stats.compute_calls": compute_calls,
        "stats.compute_us": _ratio(
            k["stats.ChangeStatEngine.compute.s"], compute_calls, 1e6),
        "stats.stat_vector_calls": k["stats.stat_vector.calls"],
        "stats.stat_vector_s": k["stats.stat_vector.s"],
        "stats.esp_histogram_s": k["stats.esp_histogram.s"],
        "sampler.gibbs_calls": k["sampler.gibbs_sample.calls"],
        "sampler.gibbs_s": gibbs_s,
        "sampler.sweeps": sweeps,
        "sampler.dyad_updates": updates,
        # per update: chain time less the statistics of retained samples
        "sampler.update_us": _ratio(
            gibbs_s - k["sampler.retained_stats_s"], updates, 1e6),
        "sampler.burnin_frac": _ratio(k["sampler.burnin_sweeps"], sweeps),
        "sampler.simulate_hergm_s": k["sampler.simulate_hergm.s"],
        "fit.mcmle_calls": mcmle_calls,
        "fit.mcmle_s": k["fit.mcmle.s"],
        "fit.mcmle_self_s": k["fit.mcmle.self_s"],
        "fit.mcmle_outer_iters": k["fit.mcmle_outer_iters"],
        "fit.mcmle_sweeps": k["fit.mcmle_sweeps"],
        "fit.mcmle_final_m": _ratio(k["fit.mcmle_final_m_sum"], mcmle_calls),
        "fit.mcmle_unconverged": k["fit.mcmle_unconverged"],
        "fit.mple_calls": k["fit.mple.calls"],
        "fit.mple_s": k["fit.mple.s"],
        "twostage.fit_s": k["twostage.two_stage_fit.s"],
        "twostage.fit_self_s": k["twostage.two_stage_fit.self_s"],
        "twostage.gof_s": gof_s,
        "twostage.gof_draws": k["twostage.gof_draws"],
        "twostage.gof_sweeps": k["twostage.gof_sweeps"],
        "twostage.gof_sampling_s": k["twostage.gof_sampling_s"],
        # everything in gof that is not a Gibbs chain: histograms, geodesics,
        # envelopes and the Bernoulli between-block fill
        "twostage.gof_diag_s": gof_s - k["twostage.gof_sampling_s"],
        "twostage.clusters_unavailable": k["twostage.clusters_unavailable"],
        "lsm.mcmc_s": k["lsm.lsm_mcmc.s"],
        "lsm.iterations": k["lsm.iterations"],
        "lsm.iter_ms": _ratio(
            k["lsm.lsm_mcmc.s"], k["lsm.iterations"], 1e3),
        "lsm.accept_positions": _ratio(k["lsm.accept_positions_sum"], lsm_calls),
        "lsm.map_membership_s": k["lsm.map_membership.s"],
        "spectral.score_s": k["spectral.score_cluster.s"],
        "spectral.kmeans_calls": k["spectral.kmeans.calls"],
        "spectral.kmeans_s": k["spectral.kmeans.s"],
        "graph.within_subgraph_s": k["graph.within_subgraph.s"],
        "graph.io_s": k["graph.io_s"],
        "experiments.misrate_s": k["experiments.misrate_experiment.s"],
        "experiments.replications": k["experiments.replications"],
        "cli.main_s": k["cli.main.s"],
        "cli.self_s": self_s["cli"],
    }
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_s"] = self_s[layer]
    out["trace.self_sum_s"] = sum(self_s.values())
    out["trace.spans"] = len(tr.spans) / n_units
    return out
