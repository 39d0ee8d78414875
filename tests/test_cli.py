"""Command-line exit codes, flags, and the bundled configs."""

import argparse
import ast
import copy
import csv
import inspect
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import hergmkit
from hergmkit import cli, experiments, twostage
from hergmkit.fit import McmleControls
from hergmkit.lsm import LSM_DIM, LsmControls
from hergmkit.sampler import (ClusterSpec, HergmSpec, SamplerControls, hergm_draws,
                              near_degenerate)
from hergmkit.stats import stat_matrix
from hergmkit.spectral import SCORE_RESTARTS
from hergmkit.twostage import GOF_BURNIN_SWEEPS, stage1_seed

SENSITIVITY = {
    "clusters": [{"n": 8, "theta": [-1.0, 0.3]}, {"n": 8, "theta": [-1.2, 0.4]}],
    "stats": "edges,gwesp(0.5)",
    "rho_grid": [0.0, 0.25],
    "replications": 2,
    "seed": 3,
    "nsim_gof": 5,
    "method": "mple",
    "sim": {"burnin_sweeps": 20},
}

MISRATE = {
    "n_per_cluster": [6],
    "transitivity": [0.5],
    "replications": 1,
    "seed": 1,
    "lsm": {"burnin": 10, "samples": 5, "thin": 1},
    "sim": {"burnin_sweeps": 5},
}


# a well-formed LSM fit of four nodes
LSM_FIT = {
    "kind": "lsm", "K": 2, "dim": 2, "beta0_mean": 0.0, "beta1_mean": 1.0,
    "positions_mean": [[0, 0], [1, 0], [2, 0], [3, 0]],
    "membership_probs": [[1, 0], [1, 0], [0, 1], [0, 1]],
    "map_partition": [0, 0, 1, 1],
    "acceptance": {"positions": 0.3}, "warnings": [], "seed": 1,
}


def _write_config(tmp_path, cfg: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _svg_panel_titles(path) -> list[str]:
    """Panel titles of an SVG written by ``render_panels``; parsing must succeed."""
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.parse(path).getroot()
    assert root.tag == ns + "svg"
    n_panels = sum(r.get("fill") == "white" for r in root.iter(ns + "rect"))
    titles = [t.text for t in root.iter(ns + "text") if t.get("font-size") == "12"]
    assert len(titles) == n_panels
    return titles


def _simulate(tmp_path, n_per: int) -> tuple[str, str]:
    """A 3-block edges-only graph and its partition, written to tmp_path."""
    cfg = tmp_path / f"sim{n_per}.json"
    cfg.write_text(json.dumps({
        "clusters": [{"n": n_per, "stats": "edges", "theta": [-1.0]}] * 3,
        "between_p": 0.05,
        "burnin_sweeps": 5,
    }))
    graph, truth = str(tmp_path / f"g{n_per}.edges"), str(tmp_path / f"t{n_per}.csv")
    assert cli.main(["simulate", "hergm", "--config", str(cfg), "--seed", "1",
                     "--out", graph, "--truth", truth]) == 0
    return graph, truth


def _with_inputs(tmp_path, argv: list[str]) -> list[str]:
    """``argv`` plus the inputs its command reads, written to tmp_path, and
    ``--out`` tmp_path/out."""
    graph, truth = _simulate(tmp_path, 6)
    if argv[0] != "simulate":
        argv = argv + ["--graph", graph]
    if argv[0] == "gof":
        argv = argv + ["--fit", _fit(tmp_path, graph, truth)]
    if "given" in argv:
        argv = argv + ["--partition", truth]
    return argv + ["--out", str(tmp_path / "out")]


def _fit(tmp_path, graph: str, truth: str) -> str:
    out = str(tmp_path / "fit.json")
    assert cli.main(["fit", "twostage", "--graph", graph, "--K", "3",
                     "--stats", "edges", "--stage1", "given", "--partition", truth,
                     "--method", "mple", "--out", out]) == 0
    return out


# a fresh interpreter runs CLI commands in-process, then the Python code
# given, then lists the scipy modules it has loaded; with ``block`` it first
# maps scipy to None in sys.modules, so that any import of scipy raises
_SCIPY_PROBE = """
import json, sys
runs, block, code = json.loads(sys.argv[1])
if block:
    sys.modules["scipy"] = None
from hergmkit import cli
for argv in runs:
    assert cli.main(argv) == 0, argv
exec(code)
print(json.dumps(sorted(m for m, mod in sys.modules.items()
                        if mod is not None and m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(tmp_path, runs, block=False, code="") -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``runs``
    and then ``code``, with scipy blocked if ``block``."""
    src = os.path.dirname(os.path.dirname(hergmkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                          json.dumps([runs, block, code])],
                         env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_fig3_stages_load_no_scipy(tmp_path):
    # simulate, fit on the true partition by MCMLE, and gof: the fig3
    # pipeline needs no scipy, which is most of a command's start-up
    cfg = _write_config(tmp_path, {
        "clusters": [{"n": 8, "stats": "edges,gwesp(0.5)", "theta": [-1.0, 0.3]}] * 2,
        "between_p": 0.05, "burnin_sweeps": 20,
    })
    g, t, fit = (str(tmp_path / name) for name in ("g.edges", "t.csv", "fit.json"))
    runs = [
        ["simulate", "hergm", "--config", cfg, "--seed", "1", "--out", g, "--truth", t],
        ["fit", "twostage", "--graph", g, "--K", "2", "--stats", "edges,gwesp(0.5)",
         "--stage1", "given", "--partition", t, "--method", "mcmle",
         "--mc-samples", "16", "--mc-burnin", "10", "--out", fit],
        ["gof", "--graph", g, "--fit", fit, "--nsim", "3", "--burnin", "5",
         "--out", str(tmp_path / "gof.csv")],
    ]
    assert _scipy_modules_after(tmp_path, runs) == []


def test_commands_without_a_pool_load_no_pool_modules(tmp_path):
    # the pool modules load only where a pool starts, so SCORE and the MPLE
    # fits of small clusters start up without them
    g, _ = _simulate(tmp_path, 6)
    runs = [
        ["cluster", "score", "--graph", g, "--K", "3", "--out", str(tmp_path / "score.csv")],
        ["fit", "twostage", "--graph", g, "--K", "3", "--stats", "edges", "--stage1",
         "score", "--method", "mple", "--threads", "2", "--out", str(tmp_path / "fit.json")],
    ]
    code = ("loaded = [m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
            "or m.startswith('concurrent.futures')]\nassert not loaded, loaded")
    assert _scipy_modules_after(tmp_path, runs, code=code) == []


def test_lsm_stage_loads_no_scipy(tmp_path):
    # the LSM's Procrustes alignment and label matching are numpy and Python,
    # so the paper's default stage 1 never pays scipy's import either
    g, _ = _simulate(tmp_path, 6)
    runs = [
        ["cluster", "lsm", "--graph", g, "--K", "3", "--burnin", "10",
         "--samples", "5", "--thin", "1", "--out", str(tmp_path / "lsm.csv")],
        ["fit", "twostage", "--graph", g, "--K", "3", "--stats", "edges",
         "--stage1", "lsm", "--lsm-burnin", "10", "--lsm-samples", "5",
         "--lsm-thin", "1", "--method", "mple", "--out", str(tmp_path / "fit.json")],
        ["experiment", "misrate", "--config", _write_config(tmp_path, MISRATE),
         "--threads", "1", "--out", str(tmp_path / "misrate.csv")],
    ]
    assert _scipy_modules_after(tmp_path, runs) == []


def test_score_and_exact_enumeration_run_with_scipy_blocked(tmp_path):
    # SCORE, up to the bundled score.json's 100 nodes, and exact
    # enumeration run with every import of scipy failing
    g, _ = _simulate(tmp_path, 6)
    runs = [
        ["cluster", "score", "--graph", g, "--K", "3", "--out", str(tmp_path / "s.csv")],
        ["fit", "twostage", "--graph", g, "--K", "3", "--stats", "edges",
         "--stage1", "score", "--method", "mple", "--out", str(tmp_path / "fit.json")],
        ["experiment", "score", "--config", "score.json", "--threads", "1",
         "--out", str(tmp_path / "score.csv")],
    ]
    code = ("import hergmkit\n"
            "d = hergmkit.exact_distribution(4, hergmkit.parse_spec('edges,triangles'),"
            " (-0.5, 0.3))\n"
            "assert abs(d.probs.sum() - 1.0) < 1e-12")
    assert _scipy_modules_after(tmp_path, runs, block=True, code=code) == []


def test_no_module_imports_scipy():
    # the CLI test modules, and the fixtures they load, also run on the
    # installed package with scipy absent
    tests = Path(__file__).parent
    importers = set()
    for path in [*Path(hergmkit.__file__).parent.glob("*.py"), tests / "conftest.py",
                 tests / "test_cli.py", tests / "test_cli_golden.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.stem)
    assert importers == set()


class TestGofGraphMismatch:
    @pytest.mark.parametrize("fit_n, graph_n", [(10, 20), (20, 10)])
    def test_fit_for_another_graph_exits_2(self, tmp_path, capsys, fit_n, graph_n):
        fit = _fit(tmp_path, *_simulate(tmp_path, fit_n))
        graph, _ = _simulate(tmp_path, graph_n)
        code = cli.main(["gof", "--graph", graph, "--fit", fit, "--nsim", "2",
                         "--burnin", "2", "--out", str(tmp_path / "gof.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"partition covers {3 * fit_n} nodes; the graph has {3 * graph_n}" in err


class TestExitCodes:
    def test_linalg_error_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("hergmkit.twostage.score_cluster", singular)
        graph, _ = _simulate(tmp_path, 10)
        code = cli.main(["cluster", "score", "--graph", graph, "--K", "3",
                         "--out", str(tmp_path / "part.csv")])
        assert code == 3
        assert "numerical failure: Eigenvalues" in capsys.readouterr().err

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_score_restarts_below_one_exit_2(self, tmp_path, capsys, restarts):
        graph, _ = _simulate(tmp_path, 10)
        code = cli.main(["cluster", "score", "--graph", graph, "--K", "3",
                         "--restarts", restarts, "--out", str(tmp_path / "part.csv")])
        assert code == 2
        assert f"--restarts: restarts must be >= 1, got {restarts}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("burnin_sweeps", "abc"), ("burnin_sweeps", 2.5), ("burnin_sweeps", True),
    ])
    def test_non_integer_chain_length_exits_2(self, tmp_path, capsys, key, value):
        config = _write_config(tmp_path, {
            "clusters": [{"n": 6, "stats": "edges", "theta": [-1.0]}],
            "between_p": 0.1,
            key: value,
        })
        code = cli.main(["simulate", "hergm", "--config", config,
                         "--out", str(tmp_path / "g.edges"),
                         "--truth", str(tmp_path / "t.csv")])
        assert code == 2
        assert f"'{key}' must be an integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, extra", [
        ("twostage", ["--K", "3", "--stage1", "given", "--method", "mcmle"]),
        ("ergm", []),
    ])
    def test_too_few_mc_samples_exit_2(self, tmp_path, capsys, mode, extra):
        graph, truth = _simulate(tmp_path, 6)
        if mode == "twostage":
            extra = extra + ["--partition", truth]
        code = cli.main(["fit", mode, "--graph", graph, "--stats", "edges",
                         "--mc-samples", "2", "--out", str(tmp_path / "fit.json")]
                        + extra)
        assert code == 2
        assert "n_samples must be >= 4, got 2" in capsys.readouterr().err

    def test_k_must_match_a_given_partition(self, tmp_path, capsys):
        graph, truth = _simulate(tmp_path, 6)
        code = cli.main(["fit", "twostage", "--graph", graph, "--K", "2",
                         "--stats", "edges", "--stage1", "given", "--partition", truth,
                         "--method", "mple", "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert "--K 2 but --partition has 3 clusters" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("stats, message", [
        ("edges,edges", "term edges appears twice"),
        ("edges,gwesp(0.5),gwesp(0.50)", "term gwesp(0.5) appears twice"),
        ("edges,gwesp(37)", "gwesp needs a decay in [0, 20], got 37.0"),
    ])
    def test_ill_posed_spec_exits_2(self, tmp_path, capsys, stats, message):
        graph = tmp_path / "g.edges"
        graph.write_text("n 6\n0 1\n1 2\n0 2\n3 4\n")
        code = cli.main(["fit", "ergm", "--graph", str(graph), "--stats", stats,
                         "--method", "mple", "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_overflowing_decay_exits_2(self, tmp_path, capsys):
        code = cli.main(["simulate", "ergm", "--n", "6", "--stats", "edges,gwesp(1e3)",
                         "--theta=-1,0.1", "--out", str(tmp_path / "g.edges")])
        assert code == 2
        assert "gwesp needs a decay in [0, 20], got 1000.0" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["ergm", "hergm"])
    def test_degree_out_of_range_exits_2_before_any_sweep(self, tmp_path, capsys,
                                                          monkeypatch, model):
        def no_chain(*args, **kwargs):
            raise AssertionError("chain started")

        monkeypatch.setattr("hergmkit.stats.ChangeStatEngine.run", no_chain)
        out = str(tmp_path / "g.edges")
        if model == "ergm":
            argv = ["simulate", "ergm", "--n", "6", "--stats", "edges,degree(9)",
                    "--theta=-1,0.1", "--burnin", "200000", "--out", out]
        else:
            config = _write_config(tmp_path, {
                "clusters": [{"n": 6, "stats": "edges,degree(9)", "theta": [-1, 0.1]}],
                "between_p": 0.05, "burnin_sweeps": 200000,
            })
            argv = ["simulate", "hergm", "--config", config, "--out", out,
                    "--truth", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 2
        assert "degree 9 out of range 0..5" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mple", "mcmle"])
    def test_spec_too_large_for_the_graph_exits_2(self, tmp_path, capsys, method):
        graph = tmp_path / "g.edges"
        graph.write_text("n 4\n0 1\n1 2\n")
        code = cli.main(["fit", "ergm", "--graph", str(graph), "--stats", "edges,degree(9)",
                         "--method", method, "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert "spec edges,degree(9) needs at least 10 nodes, got 4" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_one_node_cluster_is_unavailable_not_fatal(self, tmp_path, capsys):
        graph, part = tmp_path / "g.edges", tmp_path / "p.csv"
        graph.write_text("n 5\n0 1\n1 2\n")
        part.write_text("node,cluster\n0,0\n1,0\n2,0\n3,0\n4,1\n")
        out = tmp_path / "fit.json"
        code = cli.main(["fit", "twostage", "--graph", str(graph), "--K", "2",
                         "--stats", "degree(0)", "--stage1", "given", "--partition", str(part),
                         "--method", "mple", "--out", str(out)])
        assert code == 0
        clusters = json.loads(out.read_text())["cluster_fits"]
        assert clusters[0]["available"]
        assert clusters[1] == {"available": False,
                               "reason": "spec degree(0) needs at least 2 nodes, got 1"}
        assert ("warning: cluster 1 fit unavailable: spec degree(0) needs at least 2 nodes, "
                "got 1") in capsys.readouterr().err.splitlines()

    def test_gof_on_a_one_node_graph_exits_2(self, tmp_path, capsys):
        graph, part = tmp_path / "g.edges", tmp_path / "p.csv"
        graph.write_text("n 1\n")
        part.write_text("node,cluster\n0,0\n")
        fit, out = str(tmp_path / "fit.json"), tmp_path / "gof.csv"
        assert cli.main(["fit", "twostage", "--graph", str(graph), "--K", "1",
                         "--stats", "edges", "--stage1", "given", "--partition", str(part),
                         "--method", "mple", "--out", fit]) == 0
        code = cli.main(["gof", "--graph", str(graph), "--fit", fit, "--nsim", "2",
                         "--burnin", "2", "--out", str(out)])
        assert code == 2
        assert "gof needs a graph of at least 2 nodes, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cluster", "lsm", "--K", "1"],
        ["fit", "twostage", "--K", "1", "--stats", "edges", "--stage1", "lsm"],
    ])
    def test_lsm_on_a_one_node_graph_exits_2(self, tmp_path, capsys, argv):
        graph, out = tmp_path / "g.edges", tmp_path / "out"
        graph.write_text("n 1\n")
        code = cli.main(argv + ["--graph", str(graph), "--out", str(out)])
        assert code == 2
        assert "lsm_mcmc needs a graph of at least 2 nodes, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cluster", "lsm"],
        ["fit", "twostage", "--stats", "edges", "--stage1", "lsm"],
    ])
    def test_lsm_with_more_clusters_than_nodes_exits_2(self, tmp_path, capsys, argv):
        graph, out = tmp_path / "g.edges", tmp_path / "out"
        graph.write_text("n 30\n0 1\n")
        code = cli.main(argv + ["--K", "40", "--graph", str(graph), "--out", str(out)])
        assert code == 2
        assert "graph has 30 nodes, fewer than K=40" in capsys.readouterr().err
        assert not out.exists()

    def test_stage1_given_without_partition_exits_2(self, tmp_path, capsys):
        graph, _ = _simulate(tmp_path, 6)
        code = cli.main(["fit", "twostage", "--graph", graph, "--K", "3", "--stats", "edges",
                         "--stage1", "given", "--method", "mple",
                         "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert "--stage1 given needs --partition" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("stage1", ["lsm", "score"])
    def test_partition_without_stage1_given_exits_2(self, tmp_path, capsys, stage1):
        graph, truth = _simulate(tmp_path, 6)
        out = tmp_path / "fit.json"
        code = cli.main(["fit", "twostage", "--graph", graph, "--K", "3",
                         "--stats", "edges", "--stage1", stage1, "--partition", truth,
                         "--method", "mple", "--out", str(out)])
        assert code == 2
        assert "--partition read only with --stage1 given" in capsys.readouterr().err
        assert not out.exists()

    def test_partition_for_another_node_count_exits_2_naming_both(self, tmp_path, capsys):
        _, truth = _simulate(tmp_path, 20)
        graph = tmp_path / "g.edges"
        graph.write_text("n 10\n0 1\n")
        code = cli.main(["fit", "twostage", "--graph", str(graph), "--K", "3",
                         "--stats", "edges", "--stage1", "given", "--partition", truth,
                         "--method", "mple", "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert "--partition covers 60 nodes but --graph has 10" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_malformed_partition_row_exits_2(self, tmp_path, capsys):
        graph, truth = _simulate(tmp_path, 6)
        with open(truth, "a", encoding="utf-8") as fh:
            fh.write("1\n")
        code = cli.main(["fit", "twostage", "--graph", graph, "--K", "3",
                         "--stats", "edges", "--stage1", "given", "--partition", truth,
                         "--method", "mple", "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert f"{truth}:20: expected 'node,cluster', got ['1']" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        # a whole-graph ERGM is a one-cluster twostage fit, so a file of the
        # former ergm kind, well-formed or not, must be refitted
        ({"kind": "ergm"}, "unknown fit kind 'ergm'"),
        ({"kind": "ergm", "spec": "edges", "theta_hat": [0.0], "std_errors": [0.0],
          "method": "mple"}, "unknown fit kind 'ergm'"),
        ({"kind": "twostage", "spec": "edges"}, "twostage fit is missing field 'stage1'"),
        ({"kind": "twostage", "spec": "edges", "cluster_fits": [],
          "stage1": {"partition": ["a"], "K": 1, "method": "given"}},
         "malformed twostage fit"),
        ({"kind": "lsm", "K": 3}, "lsm fit is missing field 'membership_probs'"),
        ({"kind": "lsm", "K": "three", "membership_probs": [], "dim": 2}, "malformed lsm fit"),
        ({"kind": ["ergm"]}, "unknown fit kind ['ergm']"),
        ([1, 2], "expected a JSON object"),
        ({**LSM_FIT, "positions_mean": [1, 2, 3, 4]},
         "malformed lsm fit: positions_mean has shape (4,); 4 nodes need (4, 2)"),
        ({**LSM_FIT, "positions_mean": [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]},
         "malformed lsm fit: positions_mean has shape (4, 3); 4 nodes need (4, 2)"),
        ({**LSM_FIT, "membership_probs": [[1.0]] * 4},
         "malformed lsm fit: membership_probs has shape (4, 1); 4 nodes need (4, 2)"),
        ({**LSM_FIT, "map_partition": [0, 0, 1]},
         "malformed lsm fit: positions_mean has shape (4, 2); 3 nodes need (3, 2)"),
        ({**LSM_FIT, "map_partition": [0, 1, 1, 1]},
         "malformed lsm fit: map_partition is not the most probable cluster of each node"),
        # the reader restates no default of the writer's fields
        *[({k: v for k, v in LSM_FIT.items() if k != key},
           f"lsm fit is missing field '{key}'") for key in ("acceptance", "warnings", "seed")],
    ])
    def test_malformed_fit_file_exits_2(self, tmp_path, capsys, doc, field):
        graph, _ = _simulate(tmp_path, 6)
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(doc))
        code = cli.main(["gof", "--graph", graph, "--fit", str(fit), "--nsim", "2",
                         "--burnin", "2", "--out", str(tmp_path / "gof.csv")])
        assert code == 2
        assert f"{fit}: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["cluster_fits"].pop(), "malformed twostage fit: 2 cluster fits for K=3"),
        (lambda doc: doc["cluster_fits"].append({"available": False}),
         "malformed twostage fit: 4 cluster fits for K=3"),
        (lambda doc: doc["cluster_fits"][0].update(theta_hat=[0.0, 0.0], std_errors=[0.0]),
         "malformed twostage fit: theta_hat has shape (2,) for a 1-term spec"),
        (lambda doc: doc["cluster_fits"][0].update(theta_hat=[0.0], std_errors=[[0.0]]),
         "malformed twostage fit: std_errors has shape (1, 1) for a 1-term spec"),
        (lambda doc: doc["stage1"].update(K=0), "malformed twostage fit: n_clusters must be >= 1"),
        # the reader restates no default of the writer's fields
        (lambda doc: doc["cluster_fits"][0]["diagnostics"].pop("converged"),
         "twostage fit is missing field 'converged'"),
        (lambda doc: doc.pop("method"), "twostage fit is missing field 'method'"),
    ], ids=["fit-missing", "fit-extra", "theta-long", "se-nested", "K-zero",
            "converged-missing", "method-missing"])
    def test_inconsistent_fit_file_exits_2(self, tmp_path, capsys, edit, message):
        graph, truth = _simulate(tmp_path, 6)
        fit = tmp_path / "fit.json"
        with open(_fit(tmp_path, graph, truth), encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        fit.write_text(json.dumps(doc))
        code = cli.main(["gof", "--graph", graph, "--fit", str(fit), "--nsim", "2",
                         "--burnin", "2", "--out", str(tmp_path / "gof.csv")])
        assert code == 2
        assert f"{fit}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "ergm", "--n", "6", "--stats", "edges", "--theta=-1", "--out", "g.edges",
         "--threads", "2"],
        ["experiment", "misrate", "--config", "fig2.json", "--out", "m.csv",
         "--seed", "1"],
    ])
    def test_unread_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-2", "x"])
    def test_threads_below_one_rejected(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["experiment", "score", "--config", "score.json",
                                           "--out", "s.csv", "--threads", threads])
        assert exc.value.code == 2
        assert f"--threads: must be an integer >= 1, got {threads!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "hergm", "--config", "fig1.json", "--out", "g.edges", "--truth", "t.csv"],
        ["fit", "twostage", "--graph", "g.edges", "--K", "3", "--stats", "edges",
         "--out", "f.json"],
        ["gof", "--graph", "g.edges", "--fit", "f.json", "--nsim", "2", "--out", "gof.csv"],
    ], ids=["simulate", "fit", "gof"])
    def test_threads_below_one_rejected_by_every_reader(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv + ["--threads", "0"])
        assert exc.value.code == 2
        assert "--threads: must be an integer >= 1, got '0'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3", "x"])
    def test_n_below_one_rejected(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["simulate", "ergm", "--n", n, "--stats", "edges",
                                           "--theta=-1", "--out", "g.edges"])
        assert exc.value.code == 2
        assert f"--n: must be an integer >= 1, got {n!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["cluster", "lsm"], ["cluster", "score"], ["fit", "twostage", "--stats", "edges"],
    ], ids=["lsm", "score", "twostage"])
    @pytest.mark.parametrize("k", ["0", "-3", "x"])
    def test_K_below_one_rejected(self, capsys, command, k):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(command + ["--graph", "g.edges", "--K", k,
                                                     "--out", "out"])
        assert exc.value.code == 2
        assert f"--K: must be an integer >= 1, got {k!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("nsim", ["0", "-2", "x"])
    def test_nsim_below_one_rejected(self, capsys, nsim):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["gof", "--graph", "g.edges", "--fit", "f.json",
                                           "--out", "gof.csv", "--nsim", nsim])
        assert exc.value.code == 2
        assert f"--nsim: must be an integer >= 1, got {nsim!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_seed_below_zero_rejected(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["cluster", "score", "--graph", "g.edges", "--K", "2",
                                           "--out", "p.csv", "--seed", seed])
        assert exc.value.code == 2
        assert f"--seed: must be an integer >= 0, got {seed!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "ergm", "--n", "6", "--stats", "edges", "--out", "g.edges"], "--theta"),
        (["fit", "ergm", "--graph", "g.edges", "--stats", "edges", "--out", "f.json"],
         "--theta0"),
    ])
    @pytest.mark.parametrize("theta", ["abc", "1,,2"])
    def test_non_numeric_theta_rejected(self, capsys, argv, flag, theta):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv + [flag, theta])
        assert exc.value.code == 2
        assert f"{flag}: must be comma-separated numbers, got {theta!r}" in capsys.readouterr().err

    def test_negative_first_theta_in_equals_form(self, tmp_path):
        out = tmp_path / "g.edges"
        stats = tmp_path / "s.csv"
        code = cli.main(["simulate", "ergm", "--n", "6", "--stats", "edges,gwesp(0.5)",
                         "--theta=-1,0.1", "--burnin", "3", "--samples", "2", "--thin", "1",
                         "--out", str(out), "--stats-out", str(stats)])
        assert code == 0 and out.read_text().startswith("n 6")
        assert len(stats.read_text().splitlines()) == 3

    @pytest.mark.parametrize("argv, flag, reader", [
        pytest.param(["fit", "twostage", "--K", "3", "--stage1", mode, "--method", method],
                     flag, reader, id=f"twostage-{mode}-{method}{flag.split('=')[0]}")
        for mode, method, flags, reader in [
            ("score", "mcmle", ["--dim=2", "--lsm-burnin=10"], "--stage1 lsm"),
            ("given", "mple", ["--lsm-samples=5", "--lsm-thin=1"], "--stage1 lsm"),
            ("score", "mple", ["--mc-samples=16", "--mc-burnin=10"], "--method mcmle"),
        ]
        for flag in flags
    ] + [
        pytest.param(["fit", "ergm", "--method", "mple"], flag, "--method mcmle",
                     id=f"ergm{flag.split('=')[0]}")
        for flag in ["--mc-samples=16", "--mc-burnin=10", "--theta0=-1,0.1"]
    ])
    def test_flag_its_mode_does_not_read_exits_2(self, tmp_path, capsys, argv, flag, reader):
        assert cli.main(_with_inputs(tmp_path, argv + ["--stats", "edges,triangles", flag])) == 2
        assert f"{flag.split('=')[0]} read only with {reader}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["fit", "twostage", "--K", "3", "--stats", "edges", "--lsm-burnin", "-1"],
         "--lsm-burnin: burnin must be >= 0, got -1"),
        (["fit", "twostage", "--K", "3", "--stats", "edges", "--lsm-samples", "0"],
         "--lsm-samples: n_samples must be >= 1, got 0"),
        (["fit", "twostage", "--K", "3", "--stats", "edges", "--lsm-thin", "0"],
         "--lsm-thin: thin must be >= 1, got 0"),
        (["fit", "twostage", "--K", "3", "--stats", "edges", "--dim", "0"],
         "--dim: dim must be >= 1"),
        (["fit", "ergm", "--stats", "edges", "--mc-burnin", "-1"],
         "--mc-burnin: burnin_sweeps must be >= 0, got -1"),
        (["simulate", "ergm", "--n", "6", "--stats", "edges", "--theta=-1", "--burnin", "-1"],
         "--burnin: burnin_sweeps must be >= 0, got -1"),
        (["simulate", "ergm", "--n", "6", "--stats", "edges", "--theta=-1", "--samples", "0"],
         "--samples: n_samples must be >= 1, got 0"),
        (["simulate", "ergm", "--n", "6", "--stats", "edges", "--theta=-1", "--thin", "0"],
         "--thin: thin_sweeps must be >= 1, got 0"),
        (["cluster", "lsm", "--K", "3", "--burnin", "-1"], "--burnin: burnin must be >= 0, got -1"),
        (["cluster", "lsm", "--K", "3", "--samples", "0"],
         "--samples: n_samples must be >= 1, got 0"),
        (["cluster", "lsm", "--K", "3", "--thin", "0"], "--thin: thin must be >= 1, got 0"),
        (["gof", "--nsim", "2", "--burnin", "-1"],
         "--burnin: burnin_sweeps must be >= 0, got -1"),
    ])
    def test_chain_length_error_names_its_flag(self, tmp_path, capsys, argv, message):
        assert cli.main(_with_inputs(tmp_path, argv)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_theta0_of_the_wrong_length_exits_2_naming_it(self, tmp_path, capsys):
        graph = tmp_path / "g.edges"
        graph.write_text("n 6\n0 1\n1 2\n0 2\n3 4\n")
        code = cli.main(["fit", "ergm", "--graph", str(graph), "--stats", "edges,triangles",
                         "--method", "mcmle", "--theta0=-1", "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert "theta0 has 1 entries for a 2-term spec" in capsys.readouterr().err


# -- each flag reaches the code that reads it ----------------------------------


class Spied(Exception):
    """Raised by a spy in place of the call it recorded."""


SIMULATE_ERGM = ["simulate", "ergm", "--n", "6", "--stats", "edges", "--theta=-1"]
LSM_FLAGS = ["--dim", "3", "--lsm-burnin", "7", "--lsm-samples", "8", "--lsm-thin", "9"]
MC_FLAGS = ["--mc-samples", "16", "--mc-burnin", "11"]


@pytest.mark.parametrize("argv, reader, expected", [
    (["fit", "twostage", "--K", "3", "--stats", "edges", "--stage1", "given"], "two_stage_fit",
     {"theta0": None, "mcmle": McmleControls()}),
    (["fit", "twostage", "--K", "3", "--stats", "edges", "--stage1", "given", *MC_FLAGS],
     "two_stage_fit", {"theta0": None, "mcmle": McmleControls(16, 11)}),
    (["fit", "ergm", "--stats", "edges"], "two_stage_fit",
     {"theta0": None, "mcmle": McmleControls()}),
    (["fit", "ergm", "--stats", "edges", "--theta0=-1", *MC_FLAGS], "two_stage_fit",
     {"theta0": (-1.0,), "mcmle": McmleControls(16, 11)}),
    (["cluster", "lsm", "--K", "3"], "cluster", {"dim": LSM_DIM, "lsm": LsmControls()}),
    (["cluster", "lsm", "--K", "3", "--dim", "3", "--burnin", "7", "--samples", "8",
      "--thin", "9"], "cluster", {"dim": 3, "lsm": LsmControls(7, 8, 9)}),
    (["cluster", "score", "--K", "3"], "cluster", {"restarts": SCORE_RESTARTS}),
    (["cluster", "score", "--K", "3", "--restarts", "4"], "cluster", {"restarts": 4}),
    (SIMULATE_ERGM, "hergm_draws", {"controls": SamplerControls()}),
    (SIMULATE_ERGM + ["--burnin", "7", "--samples", "8", "--thin", "9"], "hergm_draws",
     {"controls": SamplerControls(7, 8, 9)}),
    (["gof", "--nsim", "2"], "gof", {"burnin_sweeps": GOF_BURNIN_SWEEPS}),
    (["gof", "--nsim", "2", "--burnin", "7"], "gof", {"burnin_sweeps": 7}),
    (["fit", "twostage", "--K", "3", "--stats", "edges"], "cluster",
     {"dim": LSM_DIM, "lsm": LsmControls()}),
    (["fit", "twostage", "--K", "3", "--stats", "edges", *LSM_FLAGS], "cluster",
     {"dim": 3, "lsm": LsmControls(7, 8, 9)}),
])
def test_flag_reaches_its_reader_and_absent_flag_leaves_its_default(
        tmp_path, monkeypatch, argv, reader, expected):
    argv = _with_inputs(tmp_path, argv)
    real, calls = getattr(cli, reader), []

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        raise Spied

    monkeypatch.setattr(cli, reader, spy)
    with pytest.raises(Spied):
        cli.main(argv)
    assert {key: calls[0][key] for key in expected} == expected


def _command_paths(parser, path=()):
    """The argv prefix of the parser and of each of its subcommands."""
    yield list(path)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_paths(sub, path + (name,))


@pytest.mark.parametrize("path", _command_paths(cli.build_parser()),
                         ids=lambda path: "-".join(["hergm-kit", *path]))
def test_help_renders(capsys, path):
    with pytest.raises(SystemExit) as exc:
        cli.main(path + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: hergm-kit", *path]))


class TestMalformedExperimentConfigs:
    @pytest.mark.parametrize("kind, cfg, field", [
        ("sensitivity",
         {**SENSITIVITY, "clusters": [SENSITIVITY["clusters"][0], {"theta": [-1.0, 0.3]}]},
         "clusters[1].n"),
        ("sensitivity",
         {**SENSITIVITY, "clusters": [{"n": 8}, SENSITIVITY["clusters"][1]]},
         "clusters[0].theta"),
        ("sensitivity", {**SENSITIVITY, "sim": [20]}, "'sim'"),
        ("misrate", {**MISRATE, "lsm": [1, 2]}, "'lsm'"),
        ("misrate", {**MISRATE, "sim": 5}, "'sim'"),
        ("misrate", {**MISRATE, "lsm": {**MISRATE["lsm"], "burnin": "x"}},
         "'lsm.burnin' must be an integer, got 'x'"),
        ("misrate", {**MISRATE, "sim": {"burnin_sweeps": 2.5}},
         "'sim.burnin_sweeps' must be an integer, got 2.5"),
        ("sensitivity", {**SENSITIVITY, "sim": {"burnin_sweeps": True}},
         "'sim.burnin_sweeps' must be an integer, got True"),
        ("misrate", {**MISRATE, "stage1": "score"},
         "config field 'lsm' is read only with stage1 'lsm'"),
        ("misrate", {**{k: v for k, v in MISRATE.items() if k != "lsm"},
                     "stage1": "score", "dim": 2},
         "config field 'dim' is read only with stage1 'lsm'"),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, kind, cfg, field):
        code = cli.main(["experiment", kind, "--threads", "1",
                         "--config", _write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("kind, cfg, values", [
        ("misrate", {**MISRATE, "transitivity": [0.5, 0.5004]}, ("0.5", "0.5004")),
        ("misrate", {**MISRATE, "n_per_cluster": [6, 6]}, ("6", "6")),
        ("sensitivity", {**SENSITIVITY, "rho_grid": [0.1, 0.1001]}, ("0.1", "0.1001")),
    ])
    def test_grid_values_sharing_a_seed_exit_2(self, tmp_path, capsys, kind, cfg, values):
        code = cli.main(["experiment", kind, "--threads", "1",
                         "--config", _write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"values {values[0]} and {values[1]} share the seed key" in err


class TestExperimentOutputs:
    def test_sensitivity_table_identical_across_thread_counts(self, tmp_path):
        config = _write_config(tmp_path, SENSITIVITY)
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"sens{threads}.csv"
            assert cli.main(["experiment", "sensitivity", "--threads", threads,
                             "--config", config, "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        lines = tables[0].decode().splitlines()
        assert lines[0] == (
            "rho,replication,cluster,theta[edges],theta[gwesp(0.5)],"
            "bias[edges],bias[gwesp(0.5)],esp_coverage,degree_coverage"
        )
        # rho x replication x cluster rows, then one mean row per (rho, cluster)
        assert len(lines) == 1 + 2 * 2 * 2 + 2 * 2

    def test_score_table_identical_across_thread_counts(self, tmp_path):
        # four replications of SCORE on two 30-node blocks
        config = _write_config(tmp_path, {
            "blocks": [30, 30], "p_in": 0.3, "p_out": 0.05, "replications": 4, "seed": 2,
        })
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"score{threads}.csv"
            assert cli.main(["experiment", "score", "--threads", threads,
                             "--config", config, "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_score_svg_has_one_panel(self, tmp_path):
        config = _write_config(tmp_path, {
            "blocks": [8, 8], "p_in": 0.5, "p_out": 0.05, "replications": 2, "seed": 1,
        })
        svg = tmp_path / "score.svg"
        assert cli.main(["experiment", "score", "--threads", "1", "--config", config,
                         "--out", str(tmp_path / "score.csv"), "--svg", str(svg)]) == 0
        assert _svg_panel_titles(svg) == ["SCORE mis-clustering rate per replication"]


def test_cluster_score_finds_twenty_planted_blocks(tmp_path):
    # 50-node blocks, p_in 0.3, about 5 between-block ties a node; SCORE's
    # k-means++ starts keep every block whole, where uniform ones merged two
    truth = np.repeat(np.arange(20), 50)
    p = np.where(truth[:, None] == truth[None, :], 0.3, 5 / 950)
    a = np.triu(np.random.default_rng(1).random(p.shape) < p, 1)
    graph, out = tmp_path / "g.edges", tmp_path / "p.csv"
    hergmkit.write_edge_list(hergmkit.Graph.from_adjacency(a | a.T), graph)
    assert cli.main(["cluster", "score", "--graph", str(graph), "--K", "20", "--seed", "1",
                     "--out", str(out)]) == 0
    found = hergmkit.read_partition(out).assignments
    # the same partition up to labels: 20 distinct (found, planted) pairs
    assert len(set(zip(found.tolist(), truth.tolist()))) == 20


class TestThreads:
    """``--threads`` runs the clusters of ``simulate hergm``, ``fit twostage``
    and ``gof`` in a process pool, which changes no byte of their outputs."""

    def test_outputs_identical_across_thread_counts(self, tmp_path, pools, monkeypatch):
        # 3 x C(20, 2) = 570 ERGM dyads: simulate 570 x (100 + 10), fit at least
        # 570 x (30 + 16 + 2 x 64) and gof 570 x (70 + 5 x 10) dyad visits, all
        # above POOL_MIN_VISITS
        config = _write_config(tmp_path, {
            "clusters": [{"n": 20, "stats": "edges,gwesp(0.5)", "theta": [-2.0, t]}
                         for t in (0.2, 0.5, 1.0)],
            "between_p": 0.05, "burnin_sweeps": 100,
        })
        outputs = []
        # --threads 2 of 4 cores takes two workers for the three clusters; a
        # --threads that covers the cores takes a worker per cluster
        for threads, n_cores in (("1", 4), ("2", 4), ("2", 2), ("3", 2)):
            monkeypatch.setattr(hergmkit.rng, "cores", lambda: n_cores)
            out = {name: str(tmp_path / f"{name}{len(outputs)}") for name in
                   ("g.edges", "t.csv", "fit.json", "gof.csv")}
            runs = [
                ["simulate", "hergm", "--config", config, "--seed", "3",
                 "--out", out["g.edges"], "--truth", out["t.csv"]],
                ["fit", "twostage", "--graph", out["g.edges"], "--K", "3",
                 "--stats", "edges,gwesp(0.5)", "--stage1", "given", "--partition",
                 out["t.csv"], "--method", "mcmle", "--mc-samples", "64", "--mc-burnin", "30",
                 "--seed", "4", "--out", out["fit.json"]],
                ["gof", "--graph", out["g.edges"], "--fit", out["fit.json"], "--nsim", "5",
                 "--burnin", "70", "--seed", "5", "--out", out["gof.csv"]],
            ]
            for argv in runs:
                assert cli.main(argv + ["--threads", threads]) == 0
            outputs.append([Path(path).read_bytes() for path in out.values()])
        assert pools() == [2, 2, 2] + [3, 3, 3] * 2
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
        fits = json.loads(outputs[0][2])["cluster_fits"]
        assert all(c["available"] and c["diagnostics"]["converged"] for c in fits)

    def test_every_term_kind_sweeps_in_forked_workers(self, tmp_path, pools):
        # the two specs hold all six term kinds; 154 burn-in sweeps and one
        # more of two 20-node blocks are 58,900 dyad visits, above
        # POOL_MIN_VISITS
        specs = ["edges,kstar(2),triangles,degree(1)", "gwdsp(0.75),gwesp(0.25),edges"]
        config = _write_config(tmp_path, {
            "clusters": [{"n": 20, "stats": specs[0], "theta": [-1.5, 0.02, 0.3, 0.5]},
                         {"n": 20, "stats": specs[1], "theta": [-0.1, 0.4, -1.5]}],
            "between_p": 0.05, "burnin_sweeps": 154,
        })
        outputs = []
        for threads in ("1", "2"):
            graph, truth = tmp_path / f"g{threads}.edges", tmp_path / f"t{threads}.csv"
            assert cli.main(["simulate", "hergm", "--config", config, "--seed", "5",
                             "--threads", threads, "--out", str(graph),
                             "--truth", str(truth)]) == 0
            outputs.append([graph.read_bytes(), truth.read_bytes()])
        assert pools() == [2]
        assert outputs[0] == outputs[1]
        # every kind's column of the MPLE design, on the cluster drawn from
        # its spec; under the gw spec cluster 0 has no finite MPLE
        for k, spec in enumerate(specs):
            out = tmp_path / f"fit{k}.json"
            assert cli.main(["fit", "twostage", "--graph", str(graph), "--K", "2",
                             "--stats", spec, "--stage1", "given", "--partition", str(truth),
                             "--method", "mple", "--out", str(out)]) == 0
            assert json.loads(out.read_text())["cluster_fits"][k]["available"]

    def test_score_and_pooled_mple_on_four_360_node_blocks(self, tmp_path, pools):
        # at 1,440 nodes the Krylov basis of SCORE's eigenpairs does not span
        # the whole space; the MPLE fits count 0.2 x 4 x C(360, 2) = 51,696
        # dyad visits, so they run in a pool
        config = _write_config(tmp_path, {
            "clusters": [{"n": 360, "stats": "edges", "theta": [-1.7]}] * 4,
            "between_p": 0.01, "burnin_sweeps": 0,
        })
        graph, truth = str(tmp_path / "big.edges"), str(tmp_path / "big.csv")
        assert cli.main(["simulate", "hergm", "--config", config, "--seed", "6",
                         "--threads", "1", "--out", graph, "--truth", truth]) == 0
        outs = []
        for run in (1, 2):
            out = tmp_path / f"bigscore{run}.csv"
            assert cli.main(["cluster", "score", "--graph", graph, "--K", "4", "--seed", "3",
                             "--out", str(out)]) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        part = hergmkit.read_partition(outs[0])
        assert twostage.misclustering_rate(part, hergmkit.read_partition(truth)) == 0.0
        fits = []
        for threads in ("1", "2"):
            out = tmp_path / f"bigmple{threads}.json"
            assert cli.main(["fit", "twostage", "--graph", graph, "--K", "4",
                             "--stats", "edges,gwdsp(0.5),gwesp(0.5)", "--stage1", "given",
                             "--partition", truth, "--method", "mple", "--threads", threads,
                             "--out", str(out)]) == 0
            fits.append(out.read_bytes())
        assert pools() == [2]
        assert fits[0] == fits[1]

    def test_worker_runtime_error_exits_3(self, tmp_path, capsys, monkeypatch, pools):
        def failing(*args, **kwargs):
            raise RuntimeError("chain failed")

        # the workers are forked, so they see the patched function
        monkeypatch.setattr(twostage, "mcmle", failing)
        graph, truth = _simulate(tmp_path, 20)
        # 3 x C(20, 2) x (100 + 2 x 128) = 202,920 dyad visits: a pool is made
        code = cli.main(_pooled_fit(tmp_path, graph, truth))
        assert code == 3 and pools() == [2]
        assert "numerical failure: chain failed" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_dead_worker_exits_1_as_a_pool_failure(self, tmp_path, capsys, monkeypatch,
                                                    pools):
        parent = os.getpid()

        def killed(*args, **kwargs):
            assert os.getpid() != parent, "the fit ran outside a worker"
            os._exit(9)  # as the kernel's out-of-memory killer would end it

        monkeypatch.setattr(twostage, "mcmle", killed)
        graph, truth = _simulate(tmp_path, 20)
        code = cli.main(_pooled_fit(tmp_path, graph, truth))
        assert code == 1 and pools() == [2]
        assert "pool failure: a worker process died" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_default_is_the_cores_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        args = cli.build_parser().parse_args(["gof", "--graph", "g.edges", "--fit", "f.json",
                                              "--nsim", "2", "--out", "gof.csv"])
        assert args.threads == 1


def _pooled_fit(tmp_path, graph, truth) -> list[str]:
    """``fit twostage`` argv whose three 20-node MCMLE fits take a pool of 2."""
    return ["fit", "twostage", "--graph", graph, "--K", "3", "--stats", "edges",
            "--stage1", "given", "--partition", truth, "--method", "mcmle",
            "--mc-samples", "128", "--mc-burnin", "100", "--threads", "2",
            "--out", str(tmp_path / "fit.json")]


def test_gof_svg_has_one_panel_per_diagnostic(tmp_path):
    graph, truth = _simulate(tmp_path, 6)
    svg = tmp_path / "gof.svg"
    assert cli.main(["gof", "--graph", graph, "--fit", _fit(tmp_path, graph, truth),
                     "--nsim", "3", "--burnin", "2", "--out", str(tmp_path / "gof.csv"),
                     "--svg", str(svg)]) == 0
    titles = _svg_panel_titles(svg)
    assert [t.split(" ")[0] for t in titles] == ["degree", "esp", "geodesic", "stats"]


# -- every key of every bundled config is read by its command ----------------


class Recording(dict):
    """A config dict that records which keys were read by [], get or in."""

    def __init__(self, data):
        super().__init__({k: _record(v) for k, v in data.items()})
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def unread(self, path=()):
        for key, val in dict.items(self):
            if key not in self.read:
                yield path + (key,)
            for sub in val if isinstance(val, list) else [val]:
                if isinstance(sub, Recording):
                    yield from sub.unread(path + (key,))


def _record(val):
    if isinstance(val, dict):
        return Recording(val)
    if isinstance(val, list):
        return [_record(v) for v in val]
    return val


def _shrunk(cfg: dict, **small) -> Recording:
    """The config with some values made small; its keys stay the same."""
    assert set(small) <= set(cfg)
    for key, val in small.items():
        if isinstance(val, dict):
            assert set(val) == set(cfg[key]), key
    return Recording({**cfg, **small})


# the command that loads each config, and toy sizes that make it one task
BUNDLED = {
    "fig1.json": (cli._parse_hergm_config, {}),
    "fig2.json": (experiments.misrate_experiment, {
        "n_per_cluster": [6], "transitivity": [0.5], "replications": 1,
        "lsm": {"burnin": 10, "samples": 5, "thin": 1},
        "sim": {"burnin_sweeps": 5},
    }),
    "fig3.json": (cli._parse_hergm_config, {}),
    "score.json": (experiments.score_experiment, {"blocks": [8, 8], "replications": 1, "restarts": 1}),
}


def test_bundled_configs_are_all_listed():
    configs = resources.files("hergmkit").joinpath("configs")
    assert sorted(p.name for p in configs.iterdir() if p.name.endswith(".json")) == (
        sorted(BUNDLED)
    )


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_every_bundled_config_key_is_read(name):
    run, small = BUNDLED[name]
    cfg = _shrunk(cli._load_config(name), **small)
    run(cfg)
    assert list(cfg.unread()) == []


def _simulated_bytes(tmp_path, cfg: dict) -> tuple[bytes, bytes]:
    graph, truth = tmp_path / "g.edges", tmp_path / "t.csv"
    assert cli.main(["simulate", "hergm", "--config", _write_config(tmp_path, cfg),
                     "--seed", "3", "--threads", "1", "--out", str(graph),
                     "--truth", str(truth)]) == 0
    return graph.read_bytes(), truth.read_bytes()


def test_unread_simulate_keys_are_ignored(tmp_path):
    # the unread keys of the fig3 benchmark model; a refused key would fail
    # that benchmark's simulate stage
    cfg = {"clusters": [{"n": 7, "stats": "edges,gwesp(0.5)", "theta": [-1.0, 0.3]}] * 2,
           "between_p": 0.1, "burnin_sweeps": 12}
    leftover = {"thin_sweeps": 10, "K": 2, "stage1": "lsm", "method": "mcmle", "nsim": 100,
                "seed": 20260809}
    assert _simulated_bytes(tmp_path, {**cfg, **leftover}) == _simulated_bytes(tmp_path, cfg)


def test_bundled_fig3_config_reproduces_the_benchmark_inputs(tmp_path, monkeypatch):
    # the simulate command of perfbench/data/fig3/commands.txt, on the
    # installed fig3.json
    data = Path(__file__).parent.parent / "perfbench" / "data" / "fig3"
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "hergm", "--config", "fig3.json", "--seed", "20260809",
                     "--threads", "1", "--out", "graph.edges", "--truth", "truth.csv"]) == 0
    for name in ("graph.edges", "truth.csv"):
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name


# -- no config field can crash the CLI ----------------------------------------


def _run_config(tmp_path, command: list[str], cfg: dict) -> int:
    argv = command + ["--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
    if command[0] == "simulate":
        return cli.main(argv + ["--truth", str(tmp_path / "truth.csv")])
    return cli.main(argv + ["--threads", "1"])


def _toy_configs():
    """(name, command, config) for every bundled config, shrunk as in
    ``BUNDLED``, and the toy sensitivity config."""
    for name, (run, small) in sorted(BUNDLED.items()):
        if run is cli._parse_hergm_config:
            command = ["simulate", "hergm"]
        else:
            command = ["experiment", run.__name__.removesuffix("_experiment")]
        yield name, command, {**cli._load_config(name), **small}
    yield "sensitivity", ["experiment", "sensitivity"], SENSITIVITY


def _wrong_fields(cfg, path=()):
    """(path, value of the wrong type) for every field under ``cfg``: a
    string for a number, a number for a string, an object for a list and a
    list for an object."""
    for key, val in cfg.items() if isinstance(cfg, dict) else enumerate(cfg):
        here = path + (key,)
        if isinstance(val, (dict, list)):
            yield here, [val] if isinstance(val, dict) else {"x": val}
            yield from _wrong_fields(val, here)
        else:
            yield here, 7 if isinstance(val, str) else str(val)


def _named(path) -> str:
    """How the error names the field at ``path``."""
    name = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return f"'{name.lstrip('.')}' must"


WRONG_FIELDS = [
    pytest.param(command, cfg, path, value, id=f"{name}:{'.'.join(map(str, path))}")
    for name, command, cfg in _toy_configs()
    for path, value in _wrong_fields(cfg)
]


@pytest.mark.parametrize("command, cfg, path, value", WRONG_FIELDS)
def test_ill_typed_config_field_exits_2_naming_it(tmp_path, capsys, command, cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert _run_config(tmp_path, command, cfg) == 2
    assert _named(path) in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, message", [
    (["experiment", "misrate"], {**MISRATE, "transitivity": [-0.5]},
     "'transitivity[0]' must be >= 0, got -0.5"),
    (["experiment", "misrate"], {**MISRATE, "stage1": "nope"},
     "'stage1' must be 'lsm' or 'score', got 'nope'"),
    (["experiment", "misrate"], {**MISRATE, "replications": 0},
     "'replications' must be >= 1, got 0"),
    (["experiment", "misrate"], {**MISRATE, "n_per_cluster": []},
     "'n_per_cluster' must be a non-empty list"),
    (["experiment", "misrate"], {**MISRATE, "decay": float("nan")},
     "'decay' must be finite, got nan"),
    (["experiment", "sensitivity"], {**SENSITIVITY, "rho_grid": [0.5, 2.0]},
     "'rho_grid[1]' must be in [0, 1], got 2.0"),
    (["experiment", "sensitivity"], {**SENSITIVITY, "stats": "edges,bogus"},
     "'stats': unknown term kind 'bogus'"),
    (["experiment", "score"], {"blocks": [8], "p_in": 0.5, "p_out": 0.1,
                               "replications": 1, "seed": 1},
     "'blocks': SCORE needs K >= 2"),
    (["simulate", "hergm"], {"clusters": [{"n": 6, "stats": "edges", "theta": [-1.0, 2.0]}],
                             "between_p": 0.1},
     "'clusters[0].theta' has 2 values for a 1-term spec"),
    (["simulate", "hergm"], {"clusters": [{"n": 6, "stats": "edges", "theta": [-1.0]}],
                             "between_p": 1.5},
     "'between_p' must be in [0, 1], got 1.5"),
    (["simulate", "hergm"], {"clusters": [{"n": 6, "stats": "edges", "theta": [-1.0]}],
                             "between_p": 10**400},
     "'between_p' must be finite, got inf"),
    (["simulate", "hergm"], {"clusters": [{"n": 6, "stats": "edges", "theta": [-1.0]}],
                             "between_p": 0.1, "burnin_sweeps": -3},
     "'burnin_sweeps' must be >= 0, got -3"),
    (["experiment", "misrate"], {**MISRATE, "sim": {"burnin_sweeps": -1}},
     "'sim.burnin_sweeps' must be >= 0, got -1"),
    (["experiment", "misrate"], {**MISRATE, "lsm": {"samples": 0}},
     "'lsm.samples' must be >= 1, got 0"),
    (["experiment", "misrate"], {**MISRATE, "decay": 1000},
     "'decay': gwdsp needs a decay in [0, 20], got 1000.0"),
    (["simulate", "hergm"],
     {"clusters": [{"n": 6, "stats": "edges,edges", "theta": [-1.0, 0.0]}], "between_p": 0.1},
     "'clusters[0].stats': term edges appears twice"),
    (["simulate", "hergm"],
     {"clusters": [{"n": 6, "stats": "edges,degree(9)", "theta": [-1.0, 0.1]}],
      "between_p": 0.1},
     "'clusters[0].stats': degree 9 out of range 0..5"),
    (["experiment", "sensitivity"],
     {**SENSITIVITY, "stats": "edges,degree(8)",
      "clusters": [{"n": 9, "theta": [-1.0, 0.3]}, {"n": 8, "theta": [-1.2, 0.4]}]},
     "'clusters[1].n': degree 8 out of range 0..7"),
])
def test_out_of_range_config_field_exits_2_naming_it(tmp_path, capsys, command, cfg, message):
    assert _run_config(tmp_path, command, cfg) == 2
    assert message in capsys.readouterr().err


class TestOneStage2Path:
    """``fit ergm`` is ``fit twostage`` on the one-cluster partition."""

    @pytest.mark.parametrize("method", [["--method", "mple"],
                                        ["--method", "mcmle", "--mc-samples", "16",
                                         "--mc-burnin", "10"]], ids=["mple", "mcmle"])
    def test_fit_ergm_writes_the_one_cluster_twostage_file(self, tmp_path, method):
        graph, _ = _simulate(tmp_path, 6)
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("node,cluster\n" + "".join(f"{v},0\n" for v in range(18)))
        flags = ["--graph", graph, "--stats", "edges,triangles", "--seed", "5", *method]
        ergm, twostage_out = tmp_path / "ergm.json", tmp_path / "twostage.json"
        assert cli.main(["fit", "ergm", *flags, "--out", str(ergm)]) == 0
        assert cli.main(["fit", "twostage", "--K", "1", "--stage1", "given",
                         "--partition", str(zeros), *flags, "--out", str(twostage_out)]) == 0
        assert ergm.read_bytes() == twostage_out.read_bytes()
        doc = json.loads(ergm.read_text())
        assert doc["kind"] == "twostage" and doc["between"] is None
        assert doc["stage1"] == {"method": "given", "partition": [0] * 18, "K": 1}

    def test_theta0_starts_the_one_cluster_mcmle(self, tmp_path):
        graph, _ = _simulate(tmp_path, 6)
        out, want = tmp_path / "fit.json", tmp_path / "want.json"
        assert cli.main(["fit", "ergm", "--graph", graph, "--stats", "edges,triangles",
                         "--seed", "5", "--method", "mcmle", "--theta0=-1,0.1",
                         "--mc-samples", "16", "--mc-burnin", "10", "--out", str(out)]) == 0
        g = hergmkit.read_edge_list(graph)
        fit = twostage.two_stage_fit(g, hergmkit.Partition(np.zeros(18, np.int64), 1),
                                     hergmkit.parse_spec("edges,triangles"),
                                     mcmle=McmleControls(16, 10), theta0=(-1.0, 0.1), seed=5)
        cli._write_json(want, twostage.two_stage_fit_to_dict(fit))
        assert out.read_bytes() == want.read_bytes()

    def test_fit_ergm_without_a_fit_exits_3_naming_the_reason_once(self, tmp_path, capsys):
        graph, out = tmp_path / "g.edges", tmp_path / "fit.json"
        graph.write_text("n 6\n")
        capsys.readouterr()
        code = cli.main(["fit", "ergm", "--graph", str(graph), "--stats", "edges",
                         "--method", "mple", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: pseudo-likelihood is monotone along a direction (perfect "
            "separation); no finite MPLE exists"]
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["twostage", "ergm"])
    def test_each_unconverged_cluster_is_warned_of(self, tmp_path, capsys, monkeypatch, mode):
        # one outer iteration only walks toward the MLE, so no cluster converges
        monkeypatch.setattr("hergmkit.fit.MCMLE_MAX_OUTER", 1)
        graph, truth = _simulate(tmp_path, 6)
        out, n_clusters = tmp_path / "fit.json", 3 if mode == "twostage" else 1
        given = ["--K", "3", "--stage1", "given", "--partition", truth]
        capsys.readouterr()
        assert cli.main(["fit", mode, "--graph", graph, "--stats", "edges", "--method", "mcmle",
                         "--mc-samples", "16", "--mc-burnin", "10", "--out", str(out)]
                        + (given if mode == "twostage" else [])) == 0
        clusters = json.loads(out.read_text())["cluster_fits"]
        assert [c["diagnostics"]["converged"] for c in clusters] == [False] * n_clusters
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning: ")]
        assert warned == [f"warning: cluster {k}: moment condition not met within iteration "
                          "budget" for k in range(n_clusters)]


class TestOneBlockSimulation:
    """``simulate ergm`` is ``simulate hergm`` on one block."""

    def test_simulate_ergm_writes_the_one_block_hergm_graph(self, tmp_path, capsys):
        stats, theta = "edges,kstar(2),gwesp(0.5)", [-1.0, 0.1, 0.4]
        cfg = _write_config(tmp_path, {"clusters": [{"n": 9, "stats": stats, "theta": theta}],
                                       "between_p": 0.0, "burnin_sweeps": 9})
        ergm, hergm = tmp_path / "ergm.edges", tmp_path / "hergm.edges"
        assert cli.main(["simulate", "ergm", "--n", "9", "--stats", stats,
                         "--theta=" + ",".join(map(str, theta)), "--samples", "1",
                         "--burnin", "9", "--thin", "1", "--seed", "4", "--out", str(ergm)]) == 0
        assert cli.main(["simulate", "hergm", "--config", cfg, "--seed", "4", "--threads", "1",
                         "--out", str(hergm), "--truth", str(tmp_path / "t.csv")]) == 0
        assert ergm.read_bytes() == hergm.read_bytes()

    def test_stats_out_rows_are_the_statistics_of_the_draws(self, tmp_path):
        spec = hergmkit.parse_spec("edges,triangles")
        out, stats_out = tmp_path / "g.edges", tmp_path / "s.csv"
        assert cli.main(["simulate", "ergm", "--n", "8", "--stats", "edges,triangles",
                         "--theta=-0.5,0.2", "--burnin", "5", "--samples", "4", "--thin", "2",
                         "--seed", "3", "--out", str(out), "--stats-out", str(stats_out)]) == 0
        draws = hergm_draws(HergmSpec((ClusterSpec(8, spec, (-0.5, 0.2)),), 0.0), 3,
                            SamplerControls(5, 4, 2))
        with open(stats_out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["sample"]) for r in rows] == [0, 1, 2, 3]
        np.testing.assert_array_equal([[float(r[label]) for label in spec.labels()]
                                       for r in rows], stat_matrix(draws, spec))
        assert hergmkit.read_edge_list(str(out)) == draws[-1]

    @pytest.mark.parametrize("theta, warned", [("-8", True), ("-1", False), ("8", True)])
    def test_near_degenerate_warning_is_the_samplers_rule(self, tmp_path, capsys, theta,
                                                          warned):
        out = tmp_path / "g.edges"
        capsys.readouterr()
        assert cli.main(["simulate", "ergm", "--n", "10", "--stats", "edges",
                         f"--theta={theta}", "--burnin", "20", "--seed", "1",
                         "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert near_degenerate(hergmkit.read_edge_list(str(out))) == warned
        assert ("warning: chain ended near a degenerate" in err) == warned

    def test_one_node_chain_is_not_near_degenerate(self, tmp_path, capsys):
        # a one-node graph has no dyad to be empty or complete
        capsys.readouterr()
        assert cli.main(["simulate", "ergm", "--n", "1", "--stats", "edges",
                         "--theta=-1", "--burnin", "2", "--out", str(tmp_path / "g.edges")]) == 0
        assert "warning" not in capsys.readouterr().err


class TestStage1AndGofMessages:
    def test_fit_twostage_prints_the_lsm_chain_warnings(self, tmp_path, capsys):
        # a chain with no burn-in can accept outside [0.1, 0.6]; the fit's
        # stage 1 is cluster lsm at the seed stage1_seed(seed)
        graph = str(tmp_path / "g.edges")
        assert cli.main(["simulate", "hergm", "--config", "fig1.json", "--seed", "3",
                         "--out", graph, "--truth", str(tmp_path / "t.csv")]) == 0
        capsys.readouterr()
        assert cli.main(["cluster", "lsm", "--graph", graph, "--K", "3", "--burnin", "0",
                         "--samples", "10", "--thin", "1", "--seed", str(stage1_seed(3)),
                         "--out", str(tmp_path / "p.csv")]) == 0
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning: ")]
        assert warned == ["warning: beta0 acceptance rate 0.700 outside [0.1, 0.6]; proposal "
                          "scales are tuned during burn-in only, so try a longer burn-in"]
        assert cli.main(["fit", "twostage", "--graph", graph, "--K", "3", "--stats", "edges",
                         "--stage1", "lsm", "--lsm-burnin", "0", "--lsm-samples", "10",
                         "--lsm-thin", "1", "--method", "mple", "--seed", "3",
                         "--out", str(tmp_path / "fit.json")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "acceptance rate" in line] == warned

    def test_experiment_misrate_prints_the_lsm_chain_warnings(self, tmp_path, capsys):
        # each replication's short LSM chain warns; the warnings are written
        # in replication order, so a pool of two prints the same text
        config = _write_config(tmp_path, {**MISRATE, "replications": 2})
        out = tmp_path / "misrate.csv"
        errs, tables = [], []
        for threads in ("1", "2"):
            assert cli.main(["experiment", "misrate", "--config", config,
                             "--threads", threads, "--out", str(out)]) == 0
            errs.append(capsys.readouterr().err)
            tables.append(out.read_bytes())
        assert errs[0] == errs[1] and tables[0] == tables[1]
        warned = [line for line in errs[0].splitlines() if line.startswith("warning: ")]
        assert warned == [
            f"warning: n_per_cluster=6 transitivity=0.5 replication {rep}: {name} acceptance "
            f"rate {rate} outside [0.1, 0.6]; proposal scales are tuned during burn-in only, "
            "so try a longer burn-in"
            for rep, name, rate in ((0, "beta0", "0.800"), (1, "positions", "0.633"))
        ]

    @pytest.mark.parametrize("stage1", ["lsm", "score"])
    def test_fit_twostage_is_stage2_on_the_stage1_partition(self, tmp_path, capsys, stage1):
        # the fit file is two_stage_fit on cluster's partition at stage1_seed,
        # and the printed warnings are that posterior's
        graph, _ = _simulate(tmp_path, 6)
        out, want = tmp_path / "fit.json", tmp_path / "want.json"
        lsm = ["--lsm-burnin", "7", "--lsm-samples", "8", "--lsm-thin", "9"]
        capsys.readouterr()
        assert cli.main(["fit", "twostage", "--graph", graph, "--K", "3", "--stats", "edges",
                         "--stage1", stage1, "--method", "mple", "--seed", "4",
                         "--out", str(out)] + (lsm if stage1 == "lsm" else [])) == 0
        g = hergmkit.read_edge_list(graph)
        part, post = twostage.cluster(g, 3, stage1, stage1_seed(4), lsm=LsmControls(7, 8, 9))
        fit = twostage.two_stage_fit(g, part, hergmkit.parse_spec("edges"), method="mple",
                                     seed=4, stage1=stage1)
        cli._write_json(want, twostage.two_stage_fit_to_dict(fit))
        assert out.read_bytes() == want.read_bytes()
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if "acceptance" in line]
        assert warned == [f"warning: {w}" for w in (post.warnings if post else [])]

    def test_gof_tells_empty_clusters_from_bernoulli_ones(self, tmp_path, capsys):
        # cluster 2 is emptied into cluster 0, and cluster 1 loses its fit
        graph, truth = _simulate(tmp_path, 6)
        fit = Path(_fit(tmp_path, graph, truth))
        doc = json.loads(fit.read_text())
        doc["stage1"]["partition"] = [0 if k == 2 else k for k in doc["stage1"]["partition"]]
        doc["cluster_fits"][1] = {"available": False, "reason": "no finite fit"}
        doc["cluster_fits"][2] = {"available": False, "reason": "cluster is empty"}
        fit.write_text(json.dumps(doc))
        tables = []
        for run in (1, 2):
            out = tmp_path / f"gof{run}.csv"
            capsys.readouterr()
            assert cli.main(["gof", "--graph", graph, "--fit", str(fit), "--nsim", "2",
                             "--burnin", "2", "--out", str(out)]) == 0
            warned = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("warning: ")]
            assert warned == ["warning: clusters simulated as Bernoulli fallback: [1]",
                              "warning: empty clusters without a fit, so not simulated: [2]"]
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_gof_warns_of_each_unconverged_cluster(self, tmp_path, capsys, monkeypatch):
        # the CSV is that of the same fit with every cluster converged
        monkeypatch.setattr("hergmkit.fit.MCMLE_MAX_OUTER", 1)
        graph, truth = _simulate(tmp_path, 6)
        fit, converged = tmp_path / "fit.json", tmp_path / "converged.json"
        assert cli.main(["fit", "twostage", "--graph", graph, "--K", "3", "--stats", "edges",
                         "--stage1", "given", "--partition", truth, "--method", "mcmle",
                         "--mc-samples", "16", "--mc-burnin", "10", "--out", str(fit)]) == 0
        doc = json.loads(fit.read_text())
        for entry in doc["cluster_fits"]:
            entry["diagnostics"]["converged"] = True
        converged.write_text(json.dumps(doc))
        gof = ["gof", "--graph", graph, "--nsim", "3", "--burnin", "5", "--seed", "2"]
        assert cli.main(gof + ["--fit", str(converged), "--out", str(tmp_path / "c.csv")]) == 0
        capsys.readouterr()
        assert cli.main(gof + ["--fit", str(fit), "--out", str(tmp_path / "u.csv")]) == 0
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning: ")]
        assert warned == [f"warning: cluster {k}: moment condition not met within iteration "
                          "budget" for k in range(3)]
        assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    def test_gof_csv_writes_the_report(self, tmp_path):
        # the inside column is GofDiagnostic.inside and each coverage row its mean
        graph, truth = _simulate(tmp_path, 6)
        fit, out = _fit(tmp_path, graph, truth), tmp_path / "gof.csv"
        assert cli.main(["gof", "--graph", graph, "--fit", fit, "--nsim", "6",
                         "--burnin", "5", "--seed", "2", "--threads", "1",
                         "--out", str(out)]) == 0
        report = twostage.gof(hergmkit.read_edge_list(graph), cli._load_fit(fit), 6, seed=2,
                              burnin_sweeps=5)
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for name, diag in report.items():
            mine = [r for r in rows if r["diagnostic"] == name]
            assert [int(r["inside"]) for r in mine[:-1]] == diag.inside.astype(int).tolist()
            assert mine[-1]["bin"] == "coverage"
            assert float(mine[-1]["observed"]) == diag.coverage == diag.inside.mean()
        assert len(rows) == sum(len(d.inside) + 1 for d in report.values())
