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
    "burnin_sweeps": 30,
    "thin_sweeps": 5,
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
        "575097af34b02611803fad934dd3a8479ded34dd4b9ab1bdbd666a71785968bc",
    "cluster_lsm_positions.csv":
        "df429bab2a1acb024f5cc534f21b43dab13377cfcde4f73b9e65156f93c7d1af",
    "cluster_lsm_posterior.json":
        "a2f166cf7eb8b2be1d084eadef134114c0eaa1a27ac6d48e3681a2a9509065cd",
    "cluster_lsm_retune_d1.csv":
        "65aee5c7f8cdf016bbe25abc79c54aa225ac4714bda3b093888c45f18b47dafe",
    "cluster_lsm_retune_d1_positions.csv":
        "8c8ddef5f082f25c2b72c5a8fb73fcf7583bd2e43582c3e8c582e57fc2881202",
    "cluster_lsm_retune_d3.csv":
        "1c8e074b6462a8466619365586c273f2b00ec9b3ecd6444224864cb8474d0315",
    "cluster_lsm_retune_d3_positions.csv":
        "ef67919a81eb2794b5f3d92e68aeceb30cdefea2983835ad321fc8b56ebda74c",
    "cluster_score.csv":
        "e131c21e52e598ae5812347bb52d83e028da8f6410cdd9131a77b5b17704de09",
    "experiment_misrate.csv":
        "ff130a7ecf5267866088fb3c1973fee956fe1d01431de15c57707e5dee10169c",
    "experiment_score.csv":
        "d61858812327b2926ff425503af41913e7730109fddad459c65de6269938036d",
    "experiment_sensitivity.csv":
        "f4982540da2f5fcd936b01217b56fa652cc7553ca48ff2b38bc890956092e0c1",
    "fit_mcmle.json":
        "022c80e48c90803078d330221847e43442c2d16c9ae635085e8b56412ac20cac",
    "fit_lsm.json":
        "649bdd7da6870c7e408840f0488ca65857c69bb6d3ca9f19ed873664d36da6be",
    "fit_mple.json":
        "4a43463350eeea522435ac0e772ec41505e0fa8eb9946b74a65c3c544c39cd46",
    "fit_mple_markov.json":
        "e6bf687191ecd31c05bec41a2b3b37d23a3a7988018d52274043611ec5011005",
    "fit_score.json":
        "cc41ebdae54d6d0b657ebe3f176793a1f8f0832a017cab0790144ccedd6be427",
    "gof_lsm.csv":
        "57d3105441ffd8744cfd90dce25a04e73f164e334ee9ed34a7851aa848383d6e",
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
    # the LSM partition leaves one cluster a singleton and another empty
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
