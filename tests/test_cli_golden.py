"""Golden output hashes of toy-size CLI runs.

The simulate, cluster, fit, gof and experiment commands promise
byte-identical output for a given seed.  These hashes pin that promise
across changes to the sampler kernel, the Bernoulli fill and the stage-2
fitting code: a change that moves any random stream or any floating-point
operation order shows up here.  The GOF envelopes are those of MPLE fits,
so a change to MCMLE alone leaves them in place.

To regenerate after an intended stream change, run
``python tests/test_cli_golden.py`` from the repository root with
``PYTHONPATH=src`` and paste the printed table.
"""

import hashlib
import json
import os
import tempfile

import pytest

from hergmkit import cli

SIM_CONFIG = {
    "clusters": [
        {"n": 8, "stats": "edges,gwdsp(0.5),gwesp(0.5)", "theta": [-1.0, 0.2, 0.5]},
        {"n": 8, "stats": "edges,kstar(2),triangles", "theta": [-0.5, -0.2, 0.4]},
        {"n": 8, "stats": "edges,degree(1),gwesp(0.25)", "theta": [-0.8, 0.3, 0.6]},
    ],
    "between_p": 0.1,
    "burnin_sweeps": 34,
}

MISRATE_CONFIG = {
    "n_per_cluster": [8],
    "transitivity": [0.5],
    "replications": 2,
    "n_clusters": 3,
    "between_p": 0.05,
    "decay": 0.5,
    "stage1": "lsm",
    "dim": 2,
    "seed": 11,
    "lsm": {"burnin": 40, "samples": 20, "thin": 1},
    "sim": {"burnin_sweeps": 20},
}

SENSITIVITY_CONFIG = {
    "clusters": [{"n": 8, "theta": [-1.0, 0.2, 0.5]}, {"n": 9, "theta": [-1.2, 0.1, 0.4]}],
    "stats": "edges,gwdsp(0.5),gwesp(0.5)",
    "rho_grid": [0.0, 0.25],
    "replications": 2,
    "seed": 13,
    "nsim_gof": 5,
    "method": "mple",
    "sim": {"burnin_sweeps": 20},
}

SCORE_CONFIG = {
    "blocks": [8, 10],
    "p_in": 0.4,
    "p_out": 0.15,
    "replications": 3,
    "restarts": 3,
    "seed": 17,
}

GOLDEN = {
    "cluster_lsm.csv":
        "bda78ed05cc6b52d02a4ceb311ec04f772245f8e97a7b41c64e8eec1ddde23ea",
    "cluster_lsm_positions.csv":
        "08db3c4991f24216c0d19fb287e969d7b5f1a4602760da9736dfbed70fdb5c94",
    "cluster_lsm_posterior.json":
        "4497527b5fb03cc32595c6b3123d27e66fd3d7300e8719b79df3b94a11504b9e",
    "cluster_lsm_retune_d1.csv":
        "8f52007220a542e09625ccc23505c2de233db630326187b8b339d412d26d3c6f",
    "cluster_lsm_retune_d1_positions.csv":
        "36a07fc4cb10a6fba5e1dc4b987973fff71af00816f77a0acdc3fdecf5081d6b",
    "cluster_lsm_retune_d3.csv":
        "b7ac541340996a4dd2b51a8475c9b5e5a0b1f26b9b4b9874f240b80c0223e9bd",
    "cluster_lsm_retune_d3_positions.csv":
        "b6488c230b68a50667cc3c4446f04f2591d592318807df61280276e49c0a7213",
    "cluster_score.csv":
        "0386bcee457596dbbc8ac99cfdb28406e88379709a9a6b347abe394142dc2440",
    "experiment_misrate.csv":
        "8d76f07823afd4258a3cdc546f9acc9465118d34891632f73c8e7ddfb7428446",
    "experiment_score.csv":
        "d61858812327b2926ff425503af41913e7730109fddad459c65de6269938036d",
    "experiment_sensitivity.csv":
        "96b60734db2b298097aeb5d7d34748aefe633d987421e04d5de0a6374c04f075",
    "fit_mcmle.json":
        "022c80e48c90803078d330221847e43442c2d16c9ae635085e8b56412ac20cac",
    "fit_lsm.json":
        "2ec4b3e776287fe56d9ccfe38b285d09bad73d0528e36da699ab0d061cadb79e",
    "fit_mple.json":
        "4a43463350eeea522435ac0e772ec41505e0fa8eb9946b74a65c3c544c39cd46",
    "fit_mple_markov.json":
        "e6bf687191ecd31c05bec41a2b3b37d23a3a7988018d52274043611ec5011005",
    "fit_score.json":
        "72e9bbf1279c376fd24e320b6691a9dd7d76ff9781770de056de734546ad83da",
    "gof_lsm.csv":
        "fc0abfef8203710a9d589462d6c10e61b798b1f47f83c5b9c32e6b988024f51c",
    "gof_ergm.csv":
        "1bd6e8c02e797dc857341000ebde320fc545fac3e84f2947b6b70f2c1fbd70e6",
    "gof_mple.csv":
        "8342603fdd23237d341633459370a1b1d688a45c1b1400257cd6222ed62eed5b",
    "sim_ergm.edges":
        "dc1082021915d08339876c6309281c65447ebee412bc3cd9ef3686f3989baf96",
    "sim_ergm_stats.csv":
        "b489cf2bc0bb27be2bb410069d5a479cc71472b378eccecc61c703bc885782d0",
    "sim_graph.edges":
        "1e88b7644bf2fd3eb9f18ac746b606661ecf1eeb13f75e19bffd659a449748d3",
    "sim_stats.csv":
        "6e06ec120ccb86f0aa9715bb53b774c44d48f8dac4b71d4e7625d23c01b6b95d",
    "sim_truth.csv":
        "334aaf78e903d72a5eda46db50bee5766c3c5e290247a7100ee1c82d8f4b25e2",
}


def _run(argv):
    code = cli.main(argv)
    assert code == 0, f"{argv[0]} exited with {code}"


def _outputs(work: str) -> dict[str, str]:
    """Run the toy pipeline in ``work``; sha256 of every output file."""

    def p(name):
        return os.path.join(work, name)

    with open(p("sim.json"), "w", encoding="utf-8") as fh:
        json.dump(SIM_CONFIG, fh)
    with open(p("misrate.json"), "w", encoding="utf-8") as fh:
        json.dump(MISRATE_CONFIG, fh)
    with open(p("sensitivity.json"), "w", encoding="utf-8") as fh:
        json.dump(SENSITIVITY_CONFIG, fh)
    with open(p("score.json"), "w", encoding="utf-8") as fh:
        json.dump(SCORE_CONFIG, fh)
    _run(["simulate", "hergm", "--config", p("sim.json"), "--seed", "5",
          "--out", p("sim_graph.edges"), "--truth", p("sim_truth.csv"),
          "--stats-out", p("sim_stats.csv")])
    fit_args = ["fit", "twostage", "--graph", p("sim_graph.edges"), "--K", "3",
                "--stats", "edges,gwdsp(0.5),gwesp(0.5)", "--seed", "3"]
    given = ["--stage1", "given", "--partition", p("sim_truth.csv")]
    _run(fit_args + given + ["--method", "mcmle", "--mc-samples", "64", "--mc-burnin", "20",
                             "--out", p("fit_mcmle.json")])
    _run(fit_args + given + ["--method", "mple", "--out", p("fit_mple.json")])
    # the kstar, triangles and degree columns of the MPLE design, on the
    # one-cluster partition: the triangles term separates cluster 1 alone
    with open(p("sim_truth.csv"), encoding="utf-8") as src, \
            open(p("one_cluster.csv"), "w", encoding="utf-8") as dst:
        header, *rows = src.read().splitlines()
        dst.write("\n".join([header] + [row.split(",")[0] + ",0" for row in rows]) + "\n")
    _run(["fit", "twostage", "--graph", p("sim_graph.edges"), "--K", "1",
          "--stats", "edges,kstar(3),triangles,degree(2)", "--stage1", "given",
          "--partition", p("one_cluster.csv"), "--method", "mple",
          "--out", p("fit_mple_markov.json")])
    _run(fit_args + ["--stage1", "score", "--method", "mple", "--out", p("fit_score.json")])
    # the LSM partition leaves cluster 0 four nodes and no finite MPLE
    _run(fit_args + ["--stage1", "lsm", "--lsm-burnin", "40", "--lsm-samples", "20",
                     "--lsm-thin", "1", "--method", "mple", "--out", p("fit_lsm.json")])
    _run(["gof", "--graph", p("sim_graph.edges"), "--fit", p("fit_mple.json"),
          "--nsim", "5", "--burnin", "10", "--seed", "4", "--out", p("gof_mple.csv")])
    _run(["fit", "ergm", "--graph", p("sim_graph.edges"), "--stats",
          "edges,gwdsp(0.5),gwesp(0.5)", "--method", "mple", "--seed", "3",
          "--out", p("fit_ergm.json")])
    _run(["gof", "--graph", p("sim_graph.edges"), "--fit", p("fit_ergm.json"),
          "--nsim", "5", "--burnin", "10", "--seed", "4", "--out", p("gof_ergm.csv")])
    _run(["simulate", "ergm", "--n", "10", "--stats", "edges,kstar(2),gwesp(0.5)",
          "--theta=-1,0.1,0.4", "--burnin", "30", "--samples", "4", "--thin", "5",
          "--seed", "9", "--out", p("sim_ergm.edges"), "--stats-out", p("sim_ergm_stats.csv")])
    _run(["cluster", "score", "--graph", p("sim_graph.edges"), "--K", "3", "--seed", "6",
          "--out", p("cluster_score.csv")])
    _run(["cluster", "lsm", "--graph", p("sim_graph.edges"), "--K", "3", "--seed", "7",
          "--burnin", "40", "--samples", "20", "--thin", "1",
          "--out", p("cluster_lsm.csv"), "--positions", p("cluster_lsm_positions.csv"),
          "--posterior", p("cluster_lsm_posterior.json")])
    # one Bernoulli block at the posterior-mean tie probabilities
    _run(["gof", "--graph", p("sim_graph.edges"), "--fit", p("cluster_lsm_posterior.json"),
          "--nsim", "5", "--burnin", "10", "--seed", "4", "--out", p("gof_lsm.csv")])
    # 120 burn-in iterations cross two retunes of the position proposal scale
    for dim in ("1", "3"):
        _run(["cluster", "lsm", "--graph", p("sim_graph.edges"), "--K", "3", "--seed", "8",
              "--dim", dim, "--burnin", "120", "--samples", "20", "--thin", "1",
              "--out", p(f"cluster_lsm_retune_d{dim}.csv"),
              "--positions", p(f"cluster_lsm_retune_d{dim}_positions.csv")])
    _run(["experiment", "misrate", "--config", p("misrate.json"), "--threads", "1",
          "--out", p("experiment_misrate.csv")])
    _run(["experiment", "sensitivity", "--config", p("sensitivity.json"), "--threads", "1",
          "--out", p("experiment_sensitivity.csv")])
    _run(["experiment", "score", "--config", p("score.json"), "--threads", "1",
          "--out", p("experiment_score.csv")])
    out = {}
    for name in GOLDEN:
        with open(p(name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return _outputs(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_hash(hashes, name):
    assert hashes[name] == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, val in sorted(_outputs(tmp).items()):
            print(f'    "{key}":\n        "{val}",')
