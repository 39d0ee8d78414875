"""Regenerate the frozen inputs of the ``fig3_mcmle`` workload.

Run from the repository root::

    python3 perfbench/make_inputs.py

It writes ``perfbench/data/fig3/``: a copy of the bundled ``fig3.json``
model (``model.json``), the observed graph and its true
partition (``simulate hergm`` on the bundled ``fig3.json`` model at the
config's own seed and 2000 burn-in sweeps), and a long-chain reference fit
(``fit twostage --stage1 given --method mcmle`` with 8192 Monte Carlo
samples).  The reference fit supplies theta_ref / SE_ref for the benchmark's
theta error and the ``--fit`` of its ``gof`` stage.  ``commands.txt`` lists
the exact commands.  The files are committed, so a change to the sampler's
random streams cannot change what the benchmark's fit and gof stages see.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join("perfbench", "data", "fig3")

SPEC = "edges,gwdsp(0.5),gwesp(0.5)"
COMMANDS = [
    [
        "simulate", "hergm", "--config", "fig3.json", "--seed", "20260809",
        "--out", f"{OUT}/graph.edges", "--truth", f"{OUT}/truth.csv",
    ],
    [
        "fit", "twostage", "--graph", f"{OUT}/graph.edges", "--K", "3",
        "--stats", SPEC, "--stage1", "given", "--partition", f"{OUT}/truth.csv",
        "--method", "mcmle", "--mc-samples", "8192", "--mc-burnin", "2000",
        "--seed", "1", "--out", f"{OUT}/ref_fit.json",
    ],
]


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hergmkit import cli

    os.makedirs(OUT, exist_ok=True)
    # the fig3 model itself, frozen; the benchmark lowers its burn-in
    bundled = os.path.join(ROOT, "src", "hergmkit", "configs", "fig3.json")
    with open(bundled, encoding="utf-8") as src, \
            open(os.path.join(OUT, "model.json"), "w", encoding="utf-8") as dst:
        dst.write(src.read())
    with open(os.path.join(OUT, "commands.txt"), "w", encoding="utf-8") as fh:
        fh.write("# run from the repository root with PYTHONPATH=src\n")
        for argv in COMMANDS:
            fh.write("python3 -m hergmkit.cli " + " ".join(
                f"'{a}'" if "(" in a else a for a in argv) + "\n")
    for argv in COMMANDS:
        t0 = time.perf_counter()
        code = cli.main(argv)
        print(f"{' '.join(argv[:2])}: exit {code}, "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
