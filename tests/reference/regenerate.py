"""Rewrite the reference traces of ``tests/test_cli.py``: ``trace.csv`` of
each solver on the shipped ``configs/power_model_free.json``, Hewer's
method started from the stabilizing ``HEWER_K0``.

    python tests/reference/regenerate.py [OUT_DIR]

writes ``power_model_free_<solver>_trace.csv`` for every solver into
``OUT_DIR``, by default this directory.  Run it, with ``spilqr``
importable (installed, or ``PYTHONPATH=src``), when a change moves the
numerics on purpose, and say by how much the files moved.
"""

import json
import pathlib
import shutil
import sys
import tempfile

from spilqr import cli

HERE = pathlib.Path(__file__).resolve().parent
CONFIG = HERE.parents[1] / "configs" / "power_model_free.json"
SOLVERS = ("vi", "spi-model-based", "spi-model-free", "hewer")
# Hewer's method needs a stabilizing start, which the shipped K0 is not
HEWER_K0 = [[0.2, 0.4, 0.6]]


def trace_name(solver):
    """File name of ``solver``'s reference trace."""
    return f"power_model_free_{solver}_trace.csv"


def solve(solver, out):
    """``spilqr solve`` of ``solver`` on the shipped config, outputs (and
    Hewer's config) in directory ``out``; returns the exit code."""
    config = CONFIG
    if solver == "hewer":
        cfg = json.loads(CONFIG.read_text())
        cfg["params"]["K0"] = HEWER_K0
        config = pathlib.Path(out) / "hewer.json"
        config.write_text(json.dumps(cfg))
    return cli.main(["solve", "--config", str(config), "--solver", solver,
                     "--out", str(out)])


def main(out_dir=HERE):
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for solver in SOLVERS:
            work = pathlib.Path(tmp) / solver
            work.mkdir()
            if solve(solver, work) != 0:
                sys.exit(f"spilqr solve --solver {solver} failed")
            shutil.copyfile(work / "trace.csv", out_dir / trace_name(solver))


if __name__ == "__main__":
    main(*sys.argv[1:])
