"""The benchmark's workloads: inputs, timed CLI stages and output checks.

Every timed stage is one in-process ``hergmkit.cli.main([...])`` call, the
path a user takes.  A workload runs in *units*; unit ``u`` of workload seed
``s`` always does the same work, so a unit can be rerun under the tracer.
Output checks run after the timed calls and outside the tracer.

* ``fig3_mcmle``: ``simulate hergm`` of the fig3 model, ``fit twostage
  --stage1 given --method mcmle`` on the frozen fig3 graph and its true
  partition, and ``gof`` of the frozen graph against the frozen long-chain
  reference fit.  Gibbs sampler, change statistics, MCMLE and GOF.
* ``misrate_cell``: one ``experiment misrate --threads 1`` cell, 3 x 20
  nodes, LSM controls of ``fig2.json``.  LSM MCMC and ``simulate_hergm``.
* ``large_mple``: ``fit twostage --stage1 score --method mple`` on a 4 x
  200-node block-model graph drawn by this file's own numpy generator.
  Change statistics over every dyad (the MPLE design), SCORE, no chain.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

SPEC = "edges,gwdsp(0.5),gwesp(0.5)"
DECAY = 0.5
FIG3_DATA = os.path.join("perfbench", "data", "fig3")
# dyads per input graph on which the change-statistic kernel is checked
KERNEL_DYADS = 6
# reported times are scaled to a machine on which one round of speed_loop()
# takes this long
REFERENCE_ROUND_S = 2e-7
CALIBRATION_ROUNDS = 500_000  # before and after a call made in another process
PROBE_ROUNDS = 20_000  # every PROBE_PERIOD_S during an in-process call
PROBE_PERIOD_S = 0.1


def speed_loop(rounds: int) -> float:
    """Seconds per round of a fixed pure-Python loop of the program's kind of
    work (bit counts, list lookups, float sums); it shares no code with hergmkit.

    The machine this benchmark was built on changes speed by up to 2x within
    seconds, in CPU time as in wall time, and the loop slows with it; a time
    divided by the loop's time tracks the program's work, not the machine's.
    """
    masks = [(k * 0x9E3779B1) & 0xFFFFF for k in range(256)]
    weights = [1.0 - 0.6**s for s in range(21)]
    acc = 0.0
    t0 = perf_counter()
    for r in range(rounds):
        a = masks[r & 255]
        b = masks[(r * 7 + 3) & 255]
        acc += weights[(a & b).bit_count()] - weights[(a ^ b).bit_count() // 2]
    return (perf_counter() - t0) / rounds


def timed(fn, *args):
    """(fn's result, raw wall seconds, seconds scaled to the reference speed),
    the speed measured just before and after the call."""
    before = speed_loop(CALIBRATION_ROUNDS)
    t0 = perf_counter()
    out = fn(*args)
    dt = perf_counter() - t0
    return out, dt, dt * REFERENCE_ROUND_S / (0.5 * (before + speed_loop(CALIBRATION_ROUNDS)))


def probed(fn, *args):
    """As ``timed``, but the speed is sampled every PROBE_PERIOD_S during the
    call, from a SIGALRM handler in this process; the samples' own time is
    taken out of the call's.  On a fixed-work ``gof`` call this halved the
    run-to-run spread of the scaled time against sampling at the edges only.
    """
    samples = [speed_loop(PROBE_ROUNDS)]
    inside = []

    def tick(signum, frame):
        t0 = perf_counter()
        samples.append(speed_loop(PROBE_ROUNDS))
        inside.append(perf_counter() - t0)

    old = signal.signal(signal.SIGALRM, tick)
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        out = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        dt = perf_counter() - t0 - sum(inside)
        signal.signal(signal.SIGALRM, old)
    samples.append(speed_loop(PROBE_ROUNDS))
    return out, dt, dt * REFERENCE_ROUND_S / statistics.fmean(samples)


def sub_seed(seed: int, *path: int) -> int:
    """Seed handed to the program for one unit of one workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] % 2**31)


@dataclass
class UnitResult:
    """What one unit measured and what its checks found."""

    stage_s: dict[str, float] = field(default_factory=dict)  # at reference speed
    stage_raw_s: dict[str, float] = field(default_factory=dict)  # wall seconds
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failed output checks
    # named shares of the unit's answer that are right, each in [0, 1]
    scores: dict[str, float] = field(default_factory=dict)
    errors: list[float] = field(default_factory=list)  # workload's error values

    @property
    def total_s(self) -> float:
        return sum(self.stage_s.values())

    @property
    def total_raw_s(self) -> float:
        return sum(self.stage_raw_s.values())

    def check(self, ok: bool, what: str):
        """Record an output check; a failure also counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Workload:
    """Base: runs CLI stages in-process and times them."""

    name = ""
    # nominal seconds of one untraced plus one traced unit, which fixes the
    # number of traced units (and so their counts) from --seconds alone
    trace_pair_s = 1.0

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.tracer = None

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def run_cli(self, res: UnitResult, stage: str, argv: list[str]) -> bool:
        """Run one timed CLI stage; False (and a failed operation) on non-zero exit."""
        from hergmkit import cli

        err = io.StringIO()
        # probes inside a traced call would add to the spans' self times
        clock = probed if self.tracer is None else timed
        if self.tracer is not None:
            self.tracer.install()
        try:
            with contextlib.redirect_stderr(err):
                code, res.stage_raw_s[stage], res.stage_s[stage] = clock(cli.main, argv)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        res.attempted += 1
        if code != 0:
            res.failed += 1
            res.problems.append(f"{stage}: exit {code}: {err.getvalue().strip()}")
        return code == 0

    def setup_argv(self) -> list[str]:
        raise NotImplementedError

    def unit(self, u: int) -> UnitResult:
        raise NotImplementedError

    def run_checks(self) -> UnitResult:
        """Checks made once per run rather than per unit."""
        return UnitResult()

    def summary(self, results: list[UnitResult]) -> dict[str, tuple[float, str]]:
        """Workload-specific accuracy figures for the human-readable report."""
        return {}


# -- shared checks ------------------------------------------------------------


def read_edges(path: str) -> tuple[int, list[tuple[int, int]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    return int(lines[0][1]), [(int(a), int(b)) for a, b in lines[1:]]


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in edges:
        a[i, j] = a[j, i] = 1
    return a


def partition_ok(labels, n: int, k: int) -> bool:
    """Covers nodes 0..n-1 once each and uses exactly the labels 0..k-1."""
    return len(labels) == n and sorted(set(labels)) == list(range(k))


def read_partition_csv(path: str) -> list[int]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    nodes = [int(r[0]) for r in rows]
    if nodes != list(range(len(nodes))):
        return []
    return [int(r[1]) for r in rows]


def misclustered(labels, truth, k: int) -> float:
    """Share of nodes outside their true cluster under the best label matching."""
    labels, truth = np.asarray(labels), np.asarray(truth)
    cont = np.zeros((k, k), dtype=np.int64)
    np.add.at(cont, (labels, truth), 1)
    best = max(sum(cont[a, p[a]] for a in range(k))
               for p in itertools.permutations(range(k)))
    return 1.0 - best / len(labels)


def misclustering_summary(results: list[UnitResult]) -> dict[str, tuple[float, str]]:
    rates = [e for r in results for e in r.errors]
    return {"misclustering_rate": (float(np.mean(rates)) if rates else math.nan, "fraction")}


def fit_thetas(doc: dict, res: UnitResult, n: int, k: int) -> list[np.ndarray | None]:
    """Check a two-stage fit JSON; returns each cluster's theta (None if unusable)."""
    res.check(partition_ok(doc["stage1"]["partition"], n, k) and doc["stage1"]["K"] == k,
              "fit: stage-1 partition")
    out = []
    for c, entry in enumerate(doc["cluster_fits"]):
        res.attempted += 1
        usable = entry.get("available") and entry["diagnostics"].get("converged", True)
        if not usable:
            res.failed += 1  # an unavailable or non-converged fit is a failure
            out.append(None)
            continue
        theta = np.array(entry["theta_hat"], dtype=np.float64)
        se = np.array(entry["std_errors"], dtype=np.float64)
        res.check(bool(np.all(np.isfinite(theta)) and np.all(np.isfinite(se))),
                  f"fit: cluster {c} theta/SE not finite")
        out.append(theta)
    return out


def kernel_check(res: UnitResult, a: np.ndarray, rng, n_dyads: int, what: str):
    """ChangeStatEngine.compute equals the stat_vector difference on sampled dyads."""
    from hergmkit.graph import Graph
    from hergmkit.stats import ChangeStatEngine, parse_spec, stat_vector

    n = len(a)
    spec = parse_spec(SPEC)
    g = Graph(n)
    for i, j in zip(*np.nonzero(np.triu(a, 1))):
        g.add_edge(int(i), int(j))
    engine = ChangeStatEngine(spec, n)
    for _ in range(n_dyads):
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        delta = np.array(engine.compute(g, i, j))
        had = g.has_edge(i, j)
        if had:
            g.remove_edge(i, j)
        without = stat_vector(g, spec)
        g.add_edge(i, j)
        with_edge = stat_vector(g, spec)
        if not had:
            g.remove_edge(i, j)
        res.check(np.allclose(delta, with_edge - without, rtol=1e-9, atol=1e-9),
                  f"{what}: change statistics of dyad ({i}, {j})")


# -- fig3_mcmle ----------------------------------------------------------------


# A theta component scores 1 - (error / THETA_TOL_SE)^2, error in reference
# standard errors, and 0 from THETA_TOL_SE on.  The square makes the score
# move with the error's variance: MCMLE noise twice as large costs four
# times as much score.  At Fig3Sizes the mean squared error of a run's nine
# components ranged over 0.0003-0.013 SE^2 (median 0.0034) in 25 runs, so
# the score is about 0.96; twice the noise lowers it by about 0.11 and
# fig3_mcmle's hit_frac by about 6 %, more than that metric's bound.
THETA_TOL_SE = 0.3


@dataclass(frozen=True)
class Fig3Sizes:
    # Simulate at 500 burn-in sweeps; MCMLE at 256 samples and the CLI's
    # default 200 burn-in sweeps (thinning 5, so burn-in is 13 % of a chain's
    # sweeps against 4 % at the CLI's 1024 samples); GOF at 20 draws of 100
    # burn-in sweeps.  One unit takes about 2 + 18 + 10 s on a 2-vCPU Xeon
    # virtual machine, so a 30 s run holds one unit.
    sim_burnin: int = 500
    mc_samples: int = 256
    mc_burnin: int = 200
    gof_nsim: int = 20
    gof_burnin: int = 100


class Fig3Mcmle(Workload):
    name = "fig3_mcmle"
    trace_pair_s = 64.0

    def __init__(self, seed: int, work: str, sizes: Fig3Sizes = Fig3Sizes()):
        super().__init__(seed, work)
        self.sizes = sizes
        self.graph = os.path.join(FIG3_DATA, "graph.edges")
        self.truth = os.path.join(FIG3_DATA, "truth.csv")
        self.ref_fit = os.path.join(FIG3_DATA, "ref_fit.json")
        with open(os.path.join(FIG3_DATA, "model.json"), encoding="utf-8") as fh:
            model = json.load(fh)
        model["burnin_sweeps"] = sizes.sim_burnin
        self.model = self.path("model.json")
        with open(self.model, "w", encoding="utf-8") as fh:
            json.dump(model, fh)
        self.k = len(model["clusters"])
        self.n = sum(c["n"] for c in model["clusters"])
        with open(self.ref_fit, encoding="utf-8") as fh:
            ref = json.load(fh)["cluster_fits"]
        self.theta_ref = np.array([c["theta_hat"] for c in ref])
        self.se_ref = np.array([c["std_errors"] for c in ref])

    def fit_argv(self, seed: int) -> list[str]:
        s = self.sizes
        return [
            "fit", "twostage", "--graph", self.graph, "--K", str(self.k),
            "--stats", SPEC, "--stage1", "given", "--partition", self.truth,
            "--method", "mcmle", "--mc-samples", str(s.mc_samples),
            "--mc-burnin", str(s.mc_burnin), "--seed", str(seed),
            "--out", self.path("fit.json"),
        ]

    def setup_argv(self) -> list[str]:
        return self.fit_argv(0)

    def unit(self, u: int) -> UnitResult:
        s = self.sizes
        seed = sub_seed(self.seed, u)
        res = UnitResult()
        sim_edges, sim_truth = self.path("sim.edges"), self.path("sim_truth.csv")
        gof_csv = self.path("gof.csv")
        sim_ok = self.run_cli(res, "simulate", [
            "simulate", "hergm", "--config", self.model, "--seed", str(seed),
            "--out", sim_edges, "--truth", sim_truth,
        ])
        fit_ok = self.run_cli(res, "fit", self.fit_argv(seed))
        gof_ok = self.run_cli(res, "gof", [
            "gof", "--graph", self.graph, "--fit", self.ref_fit,
            "--nsim", str(s.gof_nsim), "--burnin", str(s.gof_burnin),
            "--seed", str(seed), "--out", gof_csv,
        ])
        if sim_ok:
            n, edges = read_edges(sim_edges)
            res.check(n == self.n and all(0 <= i < j < n for i, j in edges),
                      "simulate: edge list")
            res.check(partition_ok(read_partition_csv(sim_truth), self.n, self.k),
                      "simulate: truth partition")
        if fit_ok:
            with open(self.path("fit.json"), encoding="utf-8") as fh:
                thetas = fit_thetas(json.load(fh), res, self.n, self.k)
            for c, theta in enumerate(thetas):
                if theta is not None:
                    err = (theta - self.theta_ref[c]) / self.se_ref[c]
                    res.errors.extend(float(v) for v in err)
            if res.errors:
                res.scores["theta_closeness"] = float(np.mean(
                    np.clip(1.0 - (np.array(res.errors) / THETA_TOL_SE) ** 2, 0.0, 1.0)))
        if gof_ok:
            res.scores["gof_coverage"] = self.check_gof(gof_csv, res)
        return res

    def check_gof(self, path: str, res: UnitResult) -> float:
        """Envelopes ordered, inside flags and coverages consistent; mean coverage."""
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        coverages = []
        for name in ("degree", "esp", "geodesic", "stats"):
            bins = [r for r in rows if r["diagnostic"] == name and r["bin"] != "coverage"]
            cover = [r for r in rows if r["diagnostic"] == name and r["bin"] == "coverage"]
            ordered = all(float(r["lower"]) <= float(r["upper"]) for r in bins)
            flags = all(
                int(r["inside"])
                == int(float(r["lower"]) <= float(r["observed"]) <= float(r["upper"]))
                for r in bins
            )
            res.check(bool(bins) and ordered, f"gof: {name} envelope lower <= upper")
            res.check(flags, f"gof: {name} inside flags")
            cov = float(cover[0]["observed"]) if len(cover) == 1 else math.nan
            res.check(bool(bins) and math.isclose(
                cov, sum(int(r["inside"]) for r in bins) / max(len(bins), 1)),
                f"gof: {name} coverage")
            coverages.append(cov)
        return float(np.mean(coverages))

    def run_checks(self) -> UnitResult:
        res = UnitResult()
        n, edges = read_edges(self.graph)
        kernel_check(res, adjacency(n, edges), np.random.default_rng([self.seed, 1]),
                     KERNEL_DYADS, "fig3 graph")
        return res

    def summary(self, results):
        errs = np.array([e for r in results for e in r.errors])
        out = {"theta_err_se": (float(np.sqrt(np.mean(errs**2))) if errs.size else math.nan,
                                "SE")}
        for name in ("theta_closeness", "gof_coverage"):
            vals = [r.scores[name] for r in results if name in r.scores]
            out[name] = (float(np.mean(vals)) if vals else math.nan, "fraction")
        return out


# -- misrate_cell ----------------------------------------------------------------


# at 0.4 the LSM misplaces a few percent of nodes; at 0.3 it either finds the
# clusters or merges two, too bimodal for a few replications a run; at 0.2 it
# is at chance level and at 0.5 it is perfect
TRANSITIVITY = 0.4


@dataclass(frozen=True)
class MisrateSizes:
    n_per_cluster: int = 20
    replications: int = 1
    lsm_burnin: int = 1000  # LSM and simulation controls of fig2.json
    lsm_samples: int = 400
    lsm_thin: int = 2
    sim_burnin: int = 500


class MisrateCell(Workload):
    name = "misrate_cell"
    trace_pair_s = 12.0

    def __init__(self, seed: int, work: str, sizes: MisrateSizes = MisrateSizes()):
        super().__init__(seed, work)
        self.sizes = sizes

    def config(self, seed: int) -> dict:
        s = self.sizes
        return {
            "n_per_cluster": [s.n_per_cluster],
            "transitivity": [TRANSITIVITY],
            "replications": s.replications,
            "n_clusters": 3,
            "baseline_theta": -2.9444389791664403,
            "between_p": 0.05,
            "decay": DECAY,
            "stage1": "lsm",
            "dim": 2,
            "seed": seed,
            "lsm": {"burnin": s.lsm_burnin, "samples": s.lsm_samples, "thin": s.lsm_thin},
            "sim": {"burnin_sweeps": s.sim_burnin},
        }

    def argv(self, seed: int, threads: int = 1, out: str = "misrate.csv") -> list[str]:
        path = self.path(f"cell-{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.config(seed), fh)
        return ["experiment", "misrate", "--config", path, "--threads", str(threads),
                "--out", self.path(out)]

    def setup_argv(self) -> list[str]:
        return self.argv(0)

    def unit(self, u: int) -> UnitResult:
        res = UnitResult()
        if self.run_cli(res, "experiment", self.argv(sub_seed(self.seed, u))):
            rates = self.check_rows(self.path("misrate.csv"), res)
            res.errors.extend(rates)
            if rates:
                res.scores["placed"] = 1.0 - float(np.mean(rates))
        return res

    def check_rows(self, path: str, res: UnitResult) -> list[float]:
        """One row per replication plus a mean row; rates in [0, 1]."""
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        reps = [r for r in rows if r["replication"] != "mean"]
        means = [r for r in rows if r["replication"] == "mean"]
        rates = [float(r["rate"]) for r in reps]
        res.attempted += len(reps)  # each replication is an operation
        res.check(len(reps) == self.sizes.replications and len(means) == 1,
                  "experiment: row count")
        res.check(all(0.0 <= v <= 1.0 for v in rates), "experiment: rate range")
        res.check(bool(means) and bool(rates)
                  and math.isclose(float(means[0]["rate"]), float(np.mean(rates)),
                                   rel_tol=1e-12, abs_tol=1e-15),
                  "experiment: mean row")
        return rates

    def run_checks(self) -> UnitResult:
        res = UnitResult()
        rng = np.random.default_rng([self.seed, 1])
        n = 3 * self.sizes.n_per_cluster
        a = np.triu(rng.random((n, n)) < 0.15, 1).astype(np.int64)
        kernel_check(res, a + a.T, rng, KERNEL_DYADS, "random graph")
        return res

    def summary(self, results):
        return misclustering_summary(results)


# -- large_mple ----------------------------------------------------------------


P_OUT = 0.02  # tie probability between blocks of the large graphs
# dyads per large graph on which the kernel is checked; stat_vector scans
# the whole 200-node block, so fewer than on the small graphs
LARGE_KERNEL_DYADS = 2


@dataclass(frozen=True)
class LargeSizes:
    blocks: tuple[int, ...] = (200, 200, 200, 200)
    p_in: float = 0.15


def block_graph(rng, sizes, p_in: float, p_out: float):
    """Bernoulli block model drawn with numpy; returns (adjacency, labels)."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    p = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    a = np.triu(rng.random(p.shape) < p, 1).astype(np.int64)
    return a + a.T, labels


def write_edges(path: str, a: np.ndarray):
    rows, cols = np.nonzero(np.triu(a, 1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {len(a)}\n")
        fh.writelines(f"{i} {j}\n" for i, j in zip(rows.tolist(), cols.tolist()))


def dense_mple(a: np.ndarray, decay: float = DECAY):
    """Reference MPLE of edges + gwdsp + gwesp, from dense numpy algebra.

    The change statistics of every dyad come from the shared-partner matrix
    instead of per-dyad neighbour scans, so this shares no code with the
    program.  Returns (theta, standard errors) by Newton's method.
    """
    n = len(a)
    sp = a @ a
    s = np.arange(n + 2)
    w = math.exp(decay) * (1.0 - (1.0 - math.exp(-decay)) ** s)
    dw = np.diff(w)
    iu = np.triu_indices(n, 1)
    e = a[iu]
    deg = np.diag(sp)
    cols = {}
    for present in (0, 1):
        d = dw[np.clip(sp - present, 0, None)]
        # esp: the new edge's own weight plus one partner more for each edge
        # from i or j to a common neighbour; dsp: dyads {i, v} with v ~ j
        m_esp = (a * d) @ a
        m_dsp = d @ a
        esp = w[sp] + m_esp + m_esp.T
        dsp = m_dsp + m_dsp.T
        if present:
            # with the edge present, i is a neighbour of j (and j of i); the
            # dsp sums must skip v = i and v = j
            own = dw[np.clip(deg - 1, 0, None)]
            dsp = dsp - own[:, None] - own[None, :]
        cols[present] = (dsp[iu], esp[iu])
    x = np.column_stack([
        np.ones(len(e)),
        np.where(e == 1, cols[1][0], cols[0][0]),
        np.where(e == 1, cols[1][1], cols[0][1]),
    ])
    y = e.astype(np.float64)
    beta = np.zeros(3)
    for _ in range(100):
        p = 0.5 * (1.0 + np.tanh(0.5 * (x @ beta)))
        grad = x.T @ (y - p)
        hess = x.T @ (x * (p * (1.0 - p))[:, None])
        beta = beta + np.linalg.solve(hess, grad)
        if np.linalg.norm(grad) < 1e-10:
            break
    p = 0.5 * (1.0 + np.tanh(0.5 * (x @ beta)))
    hess = x.T @ (x * (p * (1.0 - p))[:, None])
    return beta, np.sqrt(np.diag(np.linalg.inv(hess)))


class LargeMple(Workload):
    name = "large_mple"
    trace_pair_s = 4.0

    def __init__(self, seed: int, work: str, sizes: LargeSizes = LargeSizes()):
        super().__init__(seed, work)
        self.sizes = sizes
        self.k = len(sizes.blocks)
        self.graph = self.path("large.edges")
        self.adj = self.labels = None
        self._drawn = None

    def draw(self, u: int):
        """Draw (once) and write unit u's graph; the seed alone decides it."""
        if self._drawn != u:
            s = self.sizes
            self.adj, self.labels = block_graph(
                np.random.default_rng([self.seed, u]), s.blocks, s.p_in, P_OUT)
            write_edges(self.graph, self.adj)
            self._drawn = u

    def fit_argv(self, seed: int) -> list[str]:
        return [
            "fit", "twostage", "--graph", self.graph, "--K", str(self.k),
            "--stats", SPEC, "--stage1", "score", "--method", "mple",
            "--seed", str(seed), "--out", self.path("large_fit.json"),
        ]

    def setup_argv(self) -> list[str]:
        self.draw(0)
        return self.fit_argv(0)

    def unit(self, u: int) -> UnitResult:
        self.draw(u)
        res = UnitResult()
        if not self.run_cli(res, "fit", self.fit_argv(sub_seed(self.seed, u))):
            return res
        with open(self.path("large_fit.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        labels = doc["stage1"]["partition"]
        thetas = fit_thetas(doc, res, len(self.adj), self.k)
        if not partition_ok(labels, len(self.adj), self.k):
            return res
        rate = misclustered(labels, self.labels, self.k)
        res.errors.append(rate)
        res.scores["placed"] = 1.0 - rate
        labels = np.asarray(labels)
        rng = np.random.default_rng([self.seed, u, 1])
        for c, entry in enumerate(doc["cluster_fits"]):
            if thetas[c] is None:
                continue
            idx = np.flatnonzero(labels == c)
            block = self.adj[np.ix_(idx, idx)]
            theta, se = dense_mple(block)
            res.check(np.allclose(thetas[c], theta, rtol=1e-6, atol=1e-8)
                      and np.allclose(entry["std_errors"], se, rtol=1e-6, atol=1e-8),
                      f"fit: cluster {c} MPLE {thetas[c]} vs reference {theta}")
            if c == 0:
                kernel_check(res, block, rng, LARGE_KERNEL_DYADS, f"graph {u} block 0")
        return res

    def summary(self, results):
        return misclustering_summary(results)


WORKLOADS = {w.name: w for w in (Fig3Mcmle, MisrateCell, LargeMple)}
