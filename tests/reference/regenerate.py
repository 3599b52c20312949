"""Rewrite the reference outputs of ``tests/test_cli.py``: ``trace.csv`` of
each solver on the shipped ``configs/power_model_free.json``, Hewer's
method started from the stabilizing ``HEWER_K0``, and the table of
``compare`` on ``compare_all_config()``, the shipped
``configs/power_compare.json`` with every solver and 10 trials, without
its wall-time column.

    python tests/reference/regenerate.py [OUT_DIR]

writes ``power_model_free_<solver>_trace.csv`` for every solver and
``power_compare_all_comparison.csv`` into ``OUT_DIR``, by default this
directory.  Run it, with ``spilqr`` importable (installed, or
``PYTHONPATH=src``), when a change moves the numerics on purpose, and say
by how much the files moved.
"""

import json
import pathlib
import shutil
import sys
import tempfile

from spilqr import cli

HERE = pathlib.Path(__file__).resolve().parent
CONFIG = HERE.parents[1] / "configs" / "power_model_free.json"
COMPARE_CONFIG = HERE.parents[1] / "configs" / "power_compare.json"
SOLVERS = ("vi", "spi-model-based", "spi-model-free", "hewer")
# Hewer's method needs a stabilizing start, which the shipped K0 is not
HEWER_K0 = [[0.2, 0.4, 0.6]]
COMPARISON = "power_compare_all_comparison.csv"


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


def compare_all_config():
    """The shipped compare config with every solver and 10 trials."""
    cfg = json.loads(COMPARE_CONFIG.read_text())
    cfg["compare"].update(solvers=list(cli.SOLVERS), trials=10)
    return cfg


def compare_all(out):
    """``spilqr compare`` of :func:`compare_all_config`, outputs (and the
    config) in directory ``out``; returns the exit code."""
    config = pathlib.Path(out) / "compare-all.json"
    config.write_text(json.dumps(compare_all_config()))
    return cli.main(["compare", "--config", str(config), "--out", str(out)])


def table(path):
    """The text of the ``comparison.csv`` at ``path`` without its last
    column, ``mean_wall_time_s``, one ``\\n``-ended line per row."""
    with open(path, newline="") as f:
        return "".join(line.rsplit(",", 1)[0] + "\n"
                       for line in f.read().splitlines())


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
        work = pathlib.Path(tmp) / "compare-all"
        work.mkdir()
        if compare_all(work) != 0:
            sys.exit("spilqr compare on the compare-all config failed")
        (out_dir / COMPARISON).write_text(table(work / "comparison.csv"))


if __name__ == "__main__":
    main(*sys.argv[1:])
