"""Command-line exit codes, flags, and the bundled configs."""

import json
from importlib import resources

import numpy as np
import pytest

from hergmkit import cli, experiments

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
