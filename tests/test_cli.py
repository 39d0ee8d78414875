"""Command-line exit codes, flags, and the bundled configs."""

import copy
import json
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest

from hergmkit import cli, experiments

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


def _fit(tmp_path, graph: str, truth: str) -> str:
    out = str(tmp_path / "fit.json")
    assert cli.main(["fit", "twostage", "--graph", graph, "--K", "3",
                     "--stats", "edges", "--stage1", "given", "--partition", truth,
                     "--method", "mple", "--out", out]) == 0
    return out


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

        monkeypatch.setattr(cli, "score_cluster", singular)
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
        assert f"restarts >= 1, got {restarts}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("burnin_sweeps", "abc"), ("burnin_sweeps", 2.5), ("thin_sweeps", True),
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
        assert "K=2 but the given partition has 3 clusters" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

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
                               "reason": "cluster has 1 nodes; spec needs at least 2"}

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
        ({"kind": "ergm"}, "ergm fit is missing field 'spec'"),
        ({"kind": "ergm", "spec": 5, "theta_hat": [0.0], "std_errors": [0.0],
          "method": "mple"}, "malformed ergm fit"),
        ({"kind": "twostage", "spec": "edges"}, "twostage fit is missing field 'stage1'"),
        ({"kind": "twostage", "spec": "edges", "cluster_fits": [],
          "stage1": {"partition": ["a"], "K": 1, "method": "given"}},
         "malformed twostage fit"),
        ({"kind": "lsm", "K": 3}, "lsm fit is missing field 'membership_probs'"),
        ({"kind": "lsm", "K": "three", "membership_probs": [], "dim": 2}, "malformed lsm fit"),
        ({"kind": ["ergm"]}, "unknown fit kind ['ergm']"),
        ([1, 2], "expected a JSON object"),
    ])
    def test_malformed_fit_file_exits_2(self, tmp_path, capsys, doc, field):
        graph, _ = _simulate(tmp_path, 6)
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(doc))
        code = cli.main(["gof", "--graph", graph, "--fit", str(fit), "--nsim", "2",
                         "--burnin", "2", "--out", str(tmp_path / "gof.csv")])
        assert code == 2
        assert f"{fit}: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "hergm", "--config", "fig1.json", "--out", "g.edges",
         "--truth", "t.csv", "--threads", "2"],
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

    def test_score_svg_has_one_panel(self, tmp_path):
        config = _write_config(tmp_path, {
            "blocks": [8, 8], "p_in": 0.5, "p_out": 0.05, "replications": 2, "seed": 1,
        })
        svg = tmp_path / "score.svg"
        assert cli.main(["experiment", "score", "--threads", "1", "--config", config,
                         "--out", str(tmp_path / "score.csv"), "--svg", str(svg)]) == 0
        assert _svg_panel_titles(svg) == ["SCORE mis-clustering rate per replication"]


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
    (["experiment", "misrate"], {**MISRATE, "sim": {"thin_sweeps": 0}},
     "'sim.thin_sweeps' must be >= 1, got 0"),
    (["experiment", "misrate"], {**MISRATE, "lsm": {"samples": 0}},
     "'lsm.samples' must be >= 1, got 0"),
])
def test_out_of_range_config_field_exits_2_naming_it(tmp_path, capsys, command, cfg, message):
    assert _run_config(tmp_path, command, cfg) == 2
    assert message in capsys.readouterr().err
