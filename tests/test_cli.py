import csv
import json
import logging
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest

import spilqr
from spilqr import cli, matkit, model_based, model_free, riccati
from spilqr.exceptions import ConfigError

from conftest import POWER_K_REF, POWER_P_REF
from reference import regenerate

POWER_AC = [[-12.5, 0.0, 5.0], [10.0, -10.0, 0.0], [0.0, 6.0, -0.05]]
POWER_BC = [[0.0], [12.5], [0.0]]
SYSTEM_CONT = {"A_c": POWER_AC, "B_c": POWER_BC, "sample_time": 0.01}
WEIGHTS = {"Q": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], "R": [[1.0]]}
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
INF = float("inf")
DATA = {"l": 30, "x0": [0.1, 0.1, 0.2],
        "noise": {"num_terms": 100, "freq_low": -10.0, "freq_high": 10.0}}


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return str(path)


def model_based_config():
    return {"system": SYSTEM_CONT, "weights": WEIGHTS,
            "solver": "spi-model-based",
            "params": {"K0": [[0.0, 0.0, 0.0]], "beta": 1.0, "lambda": 0.5,
                       "tol": 1e-05, "i_max": 500}}


# Plant with an uncontrollable unstable mode that the cost does not see:
# value iteration converges to a gain that leaves that mode unstable, and
# no gain stabilizes the plant, so the DARE has no stabilizing solution.
UNSTABILIZABLE = {
    "system": {"A": [[1.5, 0.0], [0.0, 0.5]], "B": [[0.0], [1.0]]},
    "weights": {"Q": [[0.0, 0.0], [0.0, 1.0]], "R": [[1.0]]}}


def model_free_config():
    return {"system": SYSTEM_CONT, "weights": WEIGHTS,
            "solver": "spi-model-free", "seed": 7,
            "params": {"K0": [[0.0, 0.0, 0.0]], "b_init": 1.0, "delta": 0.1,
                       "tol": 1e-05, "data": DATA}}


def test_discretize_power_plant(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"system": SYSTEM_CONT})
    assert cli.main(["discretize", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "discrete_system.json").read_text())
    A = np.asarray(payload["A"])
    B = np.asarray(payload["B"])
    assert np.abs(A - [[0.8825, 0.0014, 0.0470],
                       [0.0894, 0.9049, 0.0023],
                       [0.0028, 0.0571, 0.9995]]).max() < 5e-5
    assert np.abs(B - [[0.0001], [0.1190], [0.0036]]).max() < 5e-5


def test_discretize_idempotent(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"system": SYSTEM_CONT})
    cli.main(["discretize", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["discretize", "--config", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "discrete_system.json").read_bytes() == \
        (tmp_path / "b" / "discrete_system.json").read_bytes()


def test_discretize_vanishing_sample_time(tmp_path):
    system = dict(SYSTEM_CONT, sample_time=1e-8)
    cfg = write_config(tmp_path / "c.json", {"system": system})
    cli.main(["discretize", "--config", cfg, "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "discrete_system.json").read_text())
    assert np.abs(np.asarray(payload["A"]) - np.eye(3)).max() < 1e-6
    assert np.abs(np.asarray(payload["B"])).max() < 1e-6


def test_discretize_requires_continuous_system(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"system": {"A": [[1.0]], "B": [[1.0]]}})
    assert cli.main(["discretize", "--config", cfg,
                     "--out", str(tmp_path)]) == 2


def test_solve_model_based_reference(tmp_path):
    cfg = write_config(tmp_path / "c.json", model_based_config())
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert np.abs(np.asarray(report["P"]) - POWER_P_REF).max() < 1e-3
    assert np.abs(np.asarray(report["K"]) - POWER_K_REF).max() < 1e-3
    # config echo: the report round-trips the parsed input exactly
    assert report["config"] == json.loads((tmp_path / "c.json").read_text())
    assert (tmp_path / "trace.csv").exists()


def test_solve_trace_radii(tmp_path):
    # rows carry rho(A - B K) and rho_scaled = cum rho_closed, filled in
    # by the row builder for the data-driven solver, which does not know A
    for solver in ("spi-model-free", "vi"):
        out = tmp_path / solver
        cfg = write_config(tmp_path / "c.json", model_free_config())
        assert cli.main(["solve", "--config", cfg, "--out", str(out),
                         "--solver", solver]) == 0
        report = json.loads((out / "report.json").read_text())
        sys_d = cli.build_system(report["config"])
        for row in report["trace"]:
            A_cl = sys_d.A - sys_d.B @ np.asarray(row["K"])
            rho = np.abs(np.linalg.eigvals(A_cl)).max()
            assert abs(row["rho_closed"] - rho) <= 1e-12 * rho
            assert row["rho_scaled"] == row["cum"] * row["rho_closed"]


def test_solve_rejects_negative_seed_override(tmp_path):
    cfg = write_config(tmp_path / "c.json", model_free_config())
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "-3"]) == 2


def test_solve_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path / "c.json", model_free_config())
    cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
        (tmp_path / "b" / "trace.csv").read_bytes()
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    ra.pop("wall_time_s")
    rb.pop("wall_time_s")
    assert ra == rb


def test_solve_seed_override_changes_data(tmp_path):
    cfg = write_config(tmp_path / "c.json", model_free_config())
    cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "b"),
              "--seed", "99"])
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["seed"] == 7 and rb["seed"] == 99
    # both converge to the same optimum from different data
    assert np.abs(np.asarray(ra["P"]) - np.asarray(rb["P"])).max() < 1e-4


def test_solve_hewer_nonstabilizing_exit_code(tmp_path):
    cfg_dict = model_based_config()
    cfg_dict["solver"] = "hewer"
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"]["type"] == "NotStabilizingError"


def test_solve_solver_override(tmp_path):
    cfg_dict = model_based_config()
    cfg_dict["params"]["tol"] = 1e-09
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path),
                     "--solver", "vi"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["solver"] == "vi"
    assert np.abs(np.asarray(report["P"]) - POWER_P_REF).max() < 1e-3


def test_solve_rejects_schema_violation(tmp_path):
    cfg_dict = model_based_config()
    cfg_dict["params"]["tol"] = -1.0
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("config, key", [
    (model_free_config, "b_init"), (model_free_config, "delta"),
    (model_free_config, "tol"), (model_based_config, "beta"),
])
def test_solve_rejects_nan_parameter(tmp_path, capsys, config, key):
    # json accepts NaN and the schema's bounds compare false against it,
    # so the schema's "number" refuses it by name
    cfg_dict = config()
    cfg_dict["params"][key] = float("nan")
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    assert "NaN" in (tmp_path / "c.json").read_text()
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"{cfg}: field $.params.{key}: nan is not " \
        in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_solve_rejects_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2


def test_solve_rejects_dimension_mismatch(tmp_path):
    cfg_dict = model_based_config()
    cfg_dict["weights"] = {"Q": [[1.0]], "R": [[1.0]]}
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_solve_model_free_requires_seed(tmp_path):
    cfg_dict = model_free_config()
    del cfg_dict["seed"]
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_simulate_closed_loop_settles(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "system": SYSTEM_CONT,
        "simulate": {"x0": [0.1, 0.1, 0.2], "steps": 2000,
                     "gain": POWER_K_REF.tolist()}})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == "k,x1,x2,x3,u1"
    assert len(rows) == 2002
    last = rows[-1].split(",")
    assert np.linalg.norm([float(v) for v in last[1:4]]) < 1e-6
    assert last[4] == ""  # no input beyond the final state


@pytest.mark.parametrize("command, section", [
    ("simulate", {"simulate": {"x0": [0.1, 0.1, 0.2], "steps": 5}}),
    ("discretize", {}),
])
def test_seed_flag_rejected_where_it_does_nothing(tmp_path, capsys, command,
                                                  section):
    cfg = write_config(tmp_path / "c.json", {"system": SYSTEM_CONT,
                                             **section})
    args = [command, "--config", cfg, "--out", str(tmp_path)]
    assert cli.main(args) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_simulate_open_loop_grows(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "system": SYSTEM_CONT,
        "simulate": {"x0": [0.1, 0.1, 0.2], "steps": 500, "gain": None}})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    first = np.array([float(v) for v in rows[1].split(",")[1:4]])
    last = np.array([float(v) for v in rows[-1].split(",")[1:4]])
    assert np.linalg.norm(last) > 10 * np.linalg.norm(first)


def test_simulate_open_loop_window_then_feedback(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "system": SYSTEM_CONT,
        "simulate": {"x0": [0.1, 0.1, 0.2], "steps": 1500,
                     "open_loop_steps": 500,
                     "gain": POWER_K_REF.tolist()}})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    u_open = float(rows[1].split(",")[4])
    u_closed = float(rows[502].split(",")[4])
    assert u_open == 0.0
    assert u_closed != 0.0
    last = np.array([float(v) for v in rows[-1].split(",")[1:4]])
    mid = np.array([float(v) for v in rows[501].split(",")[1:4]])
    assert np.linalg.norm(last) < np.linalg.norm(mid)


def test_simulate_zero_initial_state(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "system": SYSTEM_CONT,
        "simulate": {"x0": [0.0, 0.0, 0.0], "steps": 50,
                     "gain": POWER_K_REF.tolist()}})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    values = [float(v) for row in rows[1:] for v in row.split(",")[1:]
              if v != ""]
    assert max(abs(v) for v in values) == 0.0


def test_simulate_divergence_truncates(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "system": {"A": [[2.0]], "B": [[0.0]]},
        "simulate": {"x0": [1.0], "steps": 100, "gain": None}})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path)]) == 4
    rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert 2 < len(rows) < 102  # truncated before the requested horizon


def test_simulate_gain_file(tmp_path):
    cfg = write_config(tmp_path / "solve.json", model_based_config())
    cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    sim_cfg = write_config(tmp_path / "sim.json", {
        "system": SYSTEM_CONT,
        "simulate": {"x0": [0.1, 0.1, 0.2], "steps": 1000,
                     "gain_file": str(tmp_path / "report.json")}})
    assert cli.main(["simulate", "--config", sim_cfg,
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    last = np.array([float(v) for v in rows[-1].split(",")[1:4]])
    assert np.linalg.norm(last) < 1e-3


def test_simulate_rejects_nan_gain_file(tmp_path, capsys):
    # the matrix rule refuses NaN in the gain file, so no trajectory of
    # NaN rows is written
    gain_file = tmp_path / "gain.json"
    gain_file.write_text('{"K": [[NaN, 0.0, 0.0]]}')
    cfg = json.loads((CONFIGS / "power_simulate_closed_loop.json").read_text())
    cfg["simulate"]["gain"] = None
    cfg["simulate"]["gain_file"] = str(gain_file)
    cfg = write_config(tmp_path / "sim.json", cfg)
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path)]) == 2
    assert f"gain in {gain_file} has non-finite entries" \
        in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_simulate_refuses_steps_it_cannot_allocate(tmp_path, capsys):
    # a step count numpy cannot allocate is the library's refusal, a solver
    # error that names the setting, before any file but error.json
    cfg = json.loads((CONFIGS / "power_simulate_open_loop.json").read_text())
    cfg["simulate"]["steps"] = 10**15
    cfg = write_config(tmp_path / "sim.json", cfg)
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path)]) == 3
    error = json.loads((tmp_path / "error.json").read_text())["error"]
    assert error["type"] == "InvalidProblemError"
    assert error["message"].startswith(f"steps = {10**15} too large: ")
    assert "InvalidProblemError" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def _set(path, value):
    """Config edit: set the entry at ``path`` (a tuple of keys)."""
    def edit(cfg, tmp_path):
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return edit


def _drop(*path):
    """Config edit: delete the entry at ``path``."""
    def edit(cfg, tmp_path):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


def _gain_file(text, **inline):
    """Config edit: a simulate section whose gain comes from a file, and
    from the ``gain`` of ``inline`` too if it names one."""
    def edit(cfg, tmp_path):
        path = tmp_path / "gain.json"
        if text is not None:
            path.write_text(text)
        cfg["simulate"] = {"x0": [0.1, 0.1, 0.2], "steps": 10,
                           "gain_file": str(path), **inline}
    return edit


@pytest.mark.parametrize("command, edit, message", [
    ("solve", _set(("weights", "R"), [[1.0, 0.0], [0.0, 1.0]]),
     "R must be 1 x 1"),
    ("solve", _set(("params", "K0"), [[0.0, 0.0]]), "params.K0 must be 1 x 3"),
    ("solve", _set(("params", "P0"), [[1.0]]), "params.P0 must be 3 x 3"),
    ("solve", _set(("params", "data", "x0"), [0.1]),
     "params.data.x0 must have length 3"),
    ("solve", _drop("weights"), "missing the 'weights' section"),
    ("solve", _drop("params", "data", "x0"), "params.data.x0 is required"),
    ("solve", _drop("solver"), "no solver selected"),
    ("simulate", lambda cfg, tmp_path: None,
     "missing the 'simulate' section"),
    ("simulate", _set(("simulate",), {"x0": [0.1, 0.1, 0.2], "steps": 10,
                                      "gain": [[1.0, 2.0]]}),
     "gain must be 1 x 3"),
    ("simulate", _gain_file(None), "cannot read gain file"),
    ("simulate", _gain_file('{"P": [[1.0]]}'), "has no 'K' entry"),
    # the inline gain ran and the file's went unread, without a word
    ("simulate", _gain_file('{"K": [[0.0, 0.0, 0.0]]}',
                            gain=[[1.0, 2.0, 3.0]]),
     "simulate takes gain or gain_file, not both"),
    ("solve", _set(("system",), {"A": [[0.5, 0.0]], "B": [[1.0]]}),
     "invalid system: A must be square"),
    ("solve", _set(("weights", "Q"), [[1.0, 0.5, 0], [0, 1.0, 0], [0, 0, 1]]),
     "invalid weights: Q is not symmetric"),
    ("solve", _set(("weights", "Q"), [[1.0, 0, 0], [0, 1.0], [0, 0, 1.0]]),
     "Q is not a numeric matrix"),
    ("simulate", _gain_file("3"), "has no 'K' entry"),
    ("simulate", _gain_file('{"K": [[1.0, 2.0]]}'), "must be 1 x 3"),
    ("simulate", _gain_file('{"K": [[1.0], [2.0, 3.0]]}'),
     "is not a numeric matrix"),
    # each row would claim its trials yet average the repeats' runs
    ("compare", _set(("compare",), {"solvers": ["vi", "vi"], "trials": 2}),
     "field $.compare.solvers: ['vi', 'vi'] has non-unique elements"),
    # a range too wide for a double ended in numpy's OverflowError
    ("solve", _set(("params", "data", "noise"),
                   {"freq_low": -1e308, "freq_high": 1e308}),
     "invalid params.data.noise: freq_low and freq_high must bound a "
     "finite range"),
    # JSON integers have no size limit; these ended in numpy's
    # OverflowError and exit 1
    ("solve", _set(("params", "K0"), [[10**400, 0.0, 0.0]]),
     "config error: params.K0 is not a numeric matrix\n"),
    ("solve", _set(("system", "sample_time"), 10**400),
     "invalid system: sample time T must be positive and finite, got 1000"),
    # 1e400 parses to infinity: the solve exited 4 on a diverged
    # recording, the rollout wrote a trajectory of inf, and compare
    # counted every first gain as within gain_tol
    ("solve", _set(("params", "data", "x0"), [INF, 0.1, 0.2]),
     "field $.params.data.x0[0]: inf is not of type 'number'"),
    ("simulate", _set(("simulate",), {"x0": [INF, 0.1, 0.2], "steps": 10}),
     "field $.simulate.x0[0]: inf is not of type 'number'"),
    ("compare", _set(("compare",), {"gain_tol": INF, "trials": 2}),
     "field $.compare.gain_tol: inf is not of type 'number'"),
    # the schema admits it, but numpy cannot allocate the frequencies
    ("solve", _set(("params", "data", "noise", "num_terms"), 10**15),
     f"invalid params.data.noise: num_terms = {10**15} too large for m = 1: "),
], ids=["R-shape", "K0-shape", "P0-shape", "x0-length", "no-weights",
        "no-x0", "no-solver", "no-simulate", "gain-shape", "no-gain-file",
        "gain-file-without-K", "gain-and-gain-file", "A-not-square",
        "Q-not-symmetric", "Q-ragged", "gain-file-not-an-object",
        "gain-file-K-shape", "gain-file-K-ragged", "repeated-compare-solver",
        "noise-frequency-range-overflows", "K0-huge-integer",
        "sample-time-huge-integer", "data-x0-1e400", "simulate-x0-1e400",
        "gain_tol-1e400", "num-terms-unallocatable"])
def test_config_errors_exit_2_and_write_nothing(tmp_path, capsys, command,
                                                edit, message):
    cfg = json.loads(json.dumps(model_free_config()))   # a deep copy
    edit(cfg, tmp_path)
    out = tmp_path / "out"
    # json.dumps writes infinity as Infinity; write the overflowing 1e400
    (tmp_path / "c.json").write_text(
        json.dumps(cfg).replace("Infinity", "1e400"))
    assert cli.main([command, "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(out) == []


def _number_fields(node, path=()):
    """The path (keys, ``0`` for an array entry) of every number-typed
    entry of the config schema ``node``."""
    if "$ref" in node:
        node = cli._load_schema()["$defs"][node["$ref"].split("/")[-1]]
    if node.get("type") == "number":
        yield path
    for key, sub in node.get("properties", {}).items():
        yield from _number_fields(sub, path + (key,))
    if "items" in node:
        yield from _number_fields(node["items"], path + (0,))
    for sub in node.get("oneOf", []):
        yield from _number_fields(sub, path)


NUMBER_FIELDS = list(_number_fields(cli._load_schema()))


def test_number_fields_cover_the_schema():
    # the walk follows $refs, oneOf branches, array items and nesting
    assert {("system", "A_c", 0, 0), ("system", "sample_time"),
            ("weights", "R", 0, 0), ("params", "delta"),
            ("params", "delta", "rate"), ("params", "lambda"),
            ("params", "data", "x0", 0), ("params", "data", "noise",
                                          "freq_high"),
            ("simulate", "gain", 0, 0), ("compare", "gain_tol")} \
        <= set(NUMBER_FIELDS)


def _every_section_config(path):
    """A schema-valid config with every section and every number-typed
    field set, holding ``path``: a discrete plant for ``system.A`` and
    ``system.B``, a growing ``delta`` schedule for ``delta.rate``."""
    cfg = model_free_config()
    cfg["params"].update({"P0": WEIGHTS["Q"], "beta": 1.0, "lambda": 0.5})
    cfg["simulate"] = {"x0": [0.1, 0.1, 0.2], "steps": 10,
                       "gain": [[0.0, 0.0, 0.0]]}
    cfg["compare"] = {"trials": 2, "gain_tol": 1e-4}
    if path[:2] in (("system", "A"), ("system", "B")):
        cfg["system"] = {"A": np.eye(3).tolist(), "B": [[0.0], [1.0], [0.0]]}
    if path[-1] == "rate":
        cfg["params"]["delta"] = {"rate": 0.7}
    return json.loads(json.dumps(cfg))   # a deep copy


@pytest.mark.parametrize("command", ["solve", "discretize", "simulate",
                                     "compare"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
@pytest.mark.parametrize("path", NUMBER_FIELDS, ids=lambda path: ".".join(
    map(str, path)))
def test_non_finite_number_is_refused_by_field(tmp_path, capsys, path,
                                               literal, command):
    # every command validates the whole config, so a field it does not
    # read is refused as one it reads, and report.json, which copies the
    # config, holds no Infinity
    cfg = _every_section_config(path)
    assert cli._validator().is_valid(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "BAD"
    (tmp_path / "c.json").write_text(
        json.dumps(cfg).replace('"BAD"', literal))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 2
    field = "$" + "".join(f"[{key}]" if key == 0 else f".{key}"
                          for key in path)
    value = "nan" if literal == "NaN" else "inf"
    assert f"c.json: field {field}: {value} is not " in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("command, config, path, value, message", [
    ("simulate", "power_simulate_open_loop.json", ("simulate", "x0"),
     [0.1, 0.2], "simulate.x0 must have length 3"),
    ("solve", "power_model_free.json", ("params", "data", "noise"),
     {"freq_low": 1.0, "freq_high": -1.0},
     "invalid params.data.noise: freq_low must not exceed freq_high"),
], ids=["simulate-x0-length", "noise-frequency-order"])
def test_shipped_config_edits_are_config_errors(tmp_path, capsys, command,
                                                config, path, value,
                                                message):
    # both used to reach the library and exit 3 with an error.json
    assert run_edited_shipped_config(tmp_path, command, config, path,
                                     value) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path / "out") == []


def test_huge_integer_setting_is_a_solver_error(tmp_path, capsys):
    # a JSON integer beyond the largest double passed the positive-real
    # rule and ended in numpy's OverflowError; now the solver refuses it,
    # as it refuses every setting
    assert run_edited_shipped_config(tmp_path, "solve",
                                     "power_model_based.json",
                                     ("params", "beta"), 10**400) == 3
    error = json.loads((tmp_path / "out" / "error.json").read_text())
    assert error["error"]["type"] == "InvalidProblemError"
    assert error["error"]["message"].startswith(
        "beta must be positive and finite, got 1000")
    assert os.listdir(tmp_path / "out") == ["error.json"]
    assert "beta must be positive" in capsys.readouterr().err


def run_edited_shipped_config(tmp_path, command, config, path, value):
    """Exit code of ``command`` on a shipped config whose entry at the key
    ``path`` is set to ``value``; the output goes to ``tmp_path / "out"``."""
    cfg = json.loads((CONFIGS / config).read_text())
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return cli.main([command, "--config",
                     write_config(tmp_path / "c.json", cfg),
                     "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command, config, path, value", [
    ("solve", "power_model_free.json", ("seed",), 7.0),
    ("solve", "power_model_based.json", ("params", "i_max"), 500.0),
    ("solve", "power_model_free.json", ("params", "max_probes"), 200.0),
    ("solve", "power_model_free.json", ("params", "data", "l"), 30.0),
    ("solve", "power_model_free.json",
     ("params", "data", "noise", "num_terms"), 100.0),
    ("compare", "power_compare.json", ("compare", "trials"), 3.0),
    ("simulate", "power_simulate_open_loop.json", ("simulate", "steps"),
     1000.0),
    ("simulate", "power_simulate_closed_loop.json",
     ("simulate", "open_loop_steps"), 500.0),
], ids=["seed", "i_max", "max_probes", "data-l", "num_terms", "trials",
        "steps", "open_loop_steps"])
def test_integral_float_is_not_a_config_integer(tmp_path, capsys, command,
                                                config, path, value):
    # JSON Schema counts 500.0 as an integer; the library's budgets do not,
    # so the config refuses it before any work
    assert run_edited_shipped_config(tmp_path, command, config, path,
                                     value) == 2
    field = "$." + ".".join(path)
    assert f"field {field}: {value} is not of type 'integer'" \
        in capsys.readouterr().err
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("command, config", [
    ("solve", "power_model_free.json"), ("compare", "power_compare.json")])
def test_unexcited_recording_is_refused_before_any_trial(tmp_path, command,
                                                          config,
                                                          monkeypatch):
    # a probing input of frequency 0 records no excitation; the recording
    # is refused once, when it is built, before any solver runs
    solves = []
    for name in ("spi_model_free", "value_iteration"):
        module = model_free if name == "spi_model_free" else riccati
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=original, **kw:
                            solves.append(1) or f(*a, **kw))
    noise = {"num_terms": 100, "freq_low": 0.0, "freq_high": 0.0}
    assert run_edited_shipped_config(
        tmp_path, command, config, ("params", "data", "noise"), noise) == 3
    error = json.loads((tmp_path / "out" / "error.json").read_text())
    assert error["error"]["type"] == "RankDeficientError"
    assert "30 samples" in error["error"]["message"]
    assert "10 regression unknowns" in error["error"]["message"]
    assert os.listdir(tmp_path / "out") == ["error.json"]
    assert solves == []


def test_compare_warns_when_a_solver_fails_every_trial(tmp_path, caplog):
    # Hewer's method needs a stabilizing start, and no gain optimal for a
    # random P0 stabilizes the power plant
    cfg = write_config(tmp_path / "c.json", {
        "system": SYSTEM_CONT, "weights": WEIGHTS, "seed": 11,
        "compare": {"solvers": ["hewer", "vi"], "trials": 3}})
    with caplog.at_level(logging.WARNING, logger="spilqr"):
        assert cli.main(["compare", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith("hewer failed all 3 trials")
    assert "NotStabilizingError: initial gain does not stabilize" \
        in warnings[0]
    rows = (tmp_path / "comparison.csv").read_text().splitlines()
    assert rows[1].startswith("hewer,3,3,nan,nan")


def test_compare_smoke(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "system": SYSTEM_CONT, "weights": WEIGHTS, "seed": 11,
        "params": {"data": DATA},
        "compare": {"solvers": ["spi-model-free", "vi"], "trials": 3}})
    assert cli.main(["compare", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "comparison.csv").read_text().strip().splitlines()
    assert rows[0] == "solver,trials,failures,mean_iterations,mean_wall_time_s"
    table = {r.split(",")[0]: r.split(",") for r in rows[1:]}
    assert set(table) == {"spi-model-free", "vi"}
    assert table["spi-model-free"][2] == "0"
    assert table["vi"][2] == "0"
    assert float(table["vi"][3]) > float(table["spi-model-free"][3])


def test_compare_trivial_start_converges_immediately(power_system,
                                                     power_weights,
                                                     power_oracle,
                                                     power_data):
    # a trial seeded at the optimum needs at most two iterations, counted
    # as compare counts them: the gain index plus any divisor probes
    from spilqr import riccati
    P0 = power_oracle.P
    K0 = riccati.optimal_gain(power_system, power_weights, P0)
    for name in ("vi", "hewer", "spi-model-based", "spi-model-free"):
        result, _ = cli._run(name, power_system, power_weights, K0, P0,
                             power_data, {}, 1e-9)
        gains, probes = cli._counted_gains(result)
        iters = cli._iterations_to_tolerance(gains, power_oracle.K, 1e-4)
        assert iters is not None, name
        assert iters + probes <= 2, (name, iters, probes)


@pytest.mark.parametrize("name", list(cli.SOLVERS))
def test_compare_counts_the_gains_of_a_scaling_solve(sweep, name):
    # the gains compare counts are the starting gain and the library's gain
    # sequence, bit for bit: the k-th of them is found at index k unless
    # an earlier one is the same matrix.  A rule that drops or repeats the
    # handoff gain moves every later index.  Hewer's method starts from
    # half the optimal gain, which stabilizes every plant of the sweep.
    tiny = np.finfo(float).tiny   # only an exact match is nearer
    for case in sweep:
        sys_d, weights, K0, data = (case[key] for key in
                                    ("sys", "weights", "K0", "data"))
        if name == "hewer":
            K0 = 0.5 * riccati.dare_reference(sys_d, weights).K
        if name == "spi-model-based":
            lib = model_based.spi_model_based(sys_d, weights, K0, tol=1e-8)
        elif name == "spi-model-free":
            lib = model_free.spi_model_free(data, K0, weights, tol=1e-8)
        else:
            sol = (riccati.hewer_pi(sys_d, weights, K0, tol=1e-8)
                   if name == "hewer"
                   else riccati.value_iteration(sys_d, weights, tol=1e-8))
        result, _ = cli._run(name, sys_d, weights, K0, None, data, {}, 1e-8)
        counted, _ = cli._counted_gains(result)
        if name in ("hewer", "vi"):
            gains = [K for _, K in sol.trace] + [sol.K]
        else:
            assert result.handoff_index == lib.handoff_index
            gains = [lib.phase1_trace[0].K_tilde, *lib.gain_sequence()]
        for K in gains:
            first = next(idx for idx, G in enumerate(gains)
                         if np.array_equal(G, K))
            assert cli._iterations_to_tolerance(counted, K, tiny) == first
        assert cli._iterations_to_tolerance(counted, 2 * gains[-1],
                                            tiny) is None


@pytest.mark.parametrize("name", ["vi", "spi-model-free"])
def test_compare_count_at_gain_tol_boundary(power_system, power_weights,
                                            power_oracle, power_data, name):
    # gain_tol at each gain's exact np.linalg.norm distance from K_ref and
    # at the two doubles beside it: the count is the per-gain walk's index,
    # which a distance one bit off would move
    result, _ = cli._run(name, power_system, power_weights, np.zeros((1, 3)),
                         None, power_data, {}, 1e-9)
    gains, _ = cli._counted_gains(result)
    distances = [float(np.linalg.norm(K - power_oracle.K, "fro"))
                 for K in gains]
    assert len(gains) > 5
    for d in distances:
        for tol in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf)):
            walk = next((idx for idx, dist in enumerate(distances)
                         if dist < tol), None)
            assert cli._iterations_to_tolerance(
                gains, power_oracle.K, tol) == walk, (d, tol)


def test_compare_counts_a_solve_that_never_reaches_gain_tol(tmp_path,
                                                         caplog):
    cfg = write_config(tmp_path / "c.json", {
        "system": SYSTEM_CONT, "weights": WEIGHTS, "seed": 11,
        "compare": {"solvers": ["vi"], "trials": 2, "gain_tol": 1e-300}})
    with caplog.at_level(logging.WARNING, logger="spilqr"):
        assert cli.main(["compare", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "vi failed all 2 trials, the first with no gain came within "
        "gain_tol"]
    rows = (tmp_path / "comparison.csv").read_text().splitlines()
    assert rows[1] == "vi,2,2,nan,nan"


def test_solve_divergent_data_collection_exit_code(tmp_path, capsys):
    # the probing rollout of an unstable scalar plant leaves the state
    # bound before the data is complete
    cfg = write_config(tmp_path / "c.json", {
        "system": {"A": [[3.0]], "B": [[1.0]]},
        "weights": {"Q": [[1.0]], "R": [[1.0]]},
        "solver": "spi-model-free", "seed": 7,
        "params": {"data": {"l": 40, "x0": [0.1]}}})
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 4
    assert "state norm exceeded 1e+12 at step 25" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_compare_requires_seed(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "system": SYSTEM_CONT, "weights": WEIGHTS,
        "compare": {"solvers": ["vi"], "trials": 2}})
    assert cli.main(["compare", "--config", cfg,
                     "--out", str(tmp_path)]) == 2


def test_plotdata_curves(tmp_path):
    cfg = write_config(tmp_path / "c.json", model_based_config())
    cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert cli.main(["plotdata", "--report", str(tmp_path / "report.json"),
                     "--out", str(tmp_path)]) == 0
    p_rows = [line.split() for line in
              (tmp_path / "p_error.dat").read_text().splitlines()
              if not line.startswith("#")]
    k_rows = [line.split() for line in
              (tmp_path / "k_error.dat").read_text().splitlines()
              if not line.startswith("#")]
    assert all(len(r) == 2 for r in p_rows + k_rows)
    # the tail after handoff decays toward the optimum
    report = json.loads((tmp_path / "report.json").read_text())
    ihat = report["handoff_index"]
    tail = [float(v) for i, v in p_rows if int(i) >= ihat]
    assert all(b <= a * 1.0001 for a, b in zip(tail, tail[1:]))
    assert tail[-1] < 1e-4


def test_plotdata_requires_oracle(tmp_path):
    (tmp_path / "report.json").write_text(json.dumps({"trace": []}))
    assert cli.main(["plotdata", "--report", str(tmp_path / "report.json"),
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("solver", ["hewer", "spi-model-based",
                                    "spi-model-free"])
def test_overflowing_gain_is_a_config_error(tmp_path, capsys, solver):
    # 1e400 is valid JSON that parses to inf, which json.dumps cannot
    # write; the schema refuses it as a config error before any solve
    text = json.dumps(model_free_config()).replace(
        '"K0": [[0.0, 0.0, 0.0]]', '"K0": [[1e400, 0.0, 0.0]]')
    assert "1e400" in text
    (tmp_path / "c.json").write_text(text)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(tmp_path / "c.json"),
                     "--solver", solver, "--out", str(out)]) == 2
    assert "field $.params.K0[0][0]: inf is not of type 'number'" \
        in capsys.readouterr().err
    assert os.listdir(out) == []


def test_infinite_noise_frequency_is_a_config_error(tmp_path, capsys):
    # 1e400 parses to inf, which numpy's draw refused with an uncaught
    # OverflowError and exit 1
    text = json.dumps(model_free_config()).replace(
        '"freq_high": 10.0', '"freq_high": 1e400')
    assert "1e400" in text
    (tmp_path / "c.json").write_text(text)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 2
    assert ("field $.params.data.noise.freq_high: inf is not of type "
            "'number'") in capsys.readouterr().err
    assert os.listdir(out) == []


def test_plotdata_rejects_nan_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text('{"trace": [], "oracle": {"P": [[NaN]], "K": [[0.0]]}}')
    assert cli.main(["plotdata", "--report", str(report),
                     "--out", str(tmp_path)]) == 2
    assert f"{report}: oracle P has non-finite entries" \
        in capsys.readouterr().err
    assert not (tmp_path / "p_error.dat").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"],
                         ids=["is-a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["solve", "plotdata"])
def test_out_blocked_by_a_file_is_a_config_error(tmp_path, capsys, command,
                                                 out):
    # a file where the output directory should go is refused by name, not
    # with a FileExistsError or NotADirectoryError traceback
    (tmp_path / "file").write_text("keep")
    source = (["--config", write_config(tmp_path / "c.json",
                                        model_based_config())]
              if command == "solve" else
              ["--report", str(tmp_path / "report.json")])
    path = str(tmp_path / out)
    assert cli.main([command, *source, "--out", path]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot create output directory {path}: ")
    assert (tmp_path / "file").read_text() == "keep"


ORACLE = {"P": np.eye(3).tolist(), "K": [[0.0, 0.0, 0.0]]}


@pytest.mark.parametrize("report, message", [
    ([1, 2], "is not a JSON object"),
    ({"oracle": 5}, "'oracle' must be an object"),
    ({"oracle": {"P": [[1.0]]}}, "oracle K must be 2-D, got ndim=0"),
    ({"oracle": ORACLE, "trace": [{"K": [[0.0, 0.0, 0.0]]}]},
     "integer 'i'"),
    # a 1 x 3 P would broadcast against the 3 x 3 oracle
    ({"oracle": ORACLE, "trace": [{"i": 0, "P": [[1.0, 2.0, 3.0]]}]},
     "P of trace row 0 must be 3 x 3, got (1, 3)"),
    # the P curve is whole; the K of the last row is not
    ({"oracle": ORACLE, "trace": [
        {"i": 0, "P": ORACLE["P"], "K": ORACLE["K"]},
        {"i": 1, "P": ORACLE["P"], "K": [[0.0, 0.0]]}]},
     "K of trace row 1 must be 1 x 3, got (1, 2)"),
], ids=["not-an-object", "oracle-not-an-object", "oracle-without-K",
        "row-without-i", "P-broadcast", "K-shape-in-last-row"])
def test_plotdata_rejects_malformed_report(tmp_path, capsys, report,
                                           message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    out = tmp_path / "out"
    assert cli.main(["plotdata", "--report", str(path),
                     "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(out) == []


def test_plotdata_empty_trace(tmp_path):
    (tmp_path / "report.json").write_text(json.dumps({
        "trace": [], "oracle": {"P": [[1.0]], "K": [[0.0]]}}))
    assert cli.main(["plotdata", "--report", str(tmp_path / "report.json"),
                     "--out", str(tmp_path)]) == 0
    lines = [line for line in
             (tmp_path / "p_error.dat").read_text().splitlines()
             if not line.startswith("#")]
    assert lines == []


def test_missing_config_file(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


# trace.csv of each solver on the shipped data-driven config, as
# tests/reference/regenerate.py writes it; a change that moves the numerics
# on purpose reruns that script
@pytest.mark.parametrize("solver", regenerate.SOLVERS)
def test_shipped_trace_matches_reference(tmp_path, solver):
    assert regenerate.solve(solver, tmp_path) == 0
    got = _csv_rows(tmp_path / "trace.csv")
    want = _csv_rows(regenerate.HERE / regenerate.trace_name(solver))
    assert got[0] == want[0]
    assert [len(row) for row in got] == [len(row) for row in want]
    for i, (row, ref) in enumerate(zip(got[1:], want[1:])):
        for column, cell, expected in zip(want[0], row, ref):
            where = (i, column, cell, expected)
            if expected == "" or re.fullmatch(r"-?\d+", expected):
                assert cell == expected, where
            else:   # BLAS builds may differ in the last bits
                assert abs(float(cell) - float(expected)) \
                    <= 1e-10 * abs(float(expected)), where


def test_compare_all_matches_reference(tmp_path):
    # the table of compare on every solver, as CI runs it and
    # tests/reference/regenerate.py writes it, wall time aside: counts and
    # mean iterations exactly
    assert regenerate.compare_all(tmp_path) == 0
    assert (regenerate.table(tmp_path / "comparison.csv")
            == (regenerate.HERE / regenerate.COMPARISON).read_text())


def _library_records(solver, cfg):
    """``(phase, record)`` pairs of a direct library solve of ``cfg``:
    the plant, weights, settings and recording the CLI uses, with the
    ``(P, K)`` pairs of Hewer's method and value iteration as scale-1
    phase-2 fields."""
    sys_d, weights, seed, params, K0, _ = cli._problem(cfg, None)
    tol, i_max = params["tol"], params["i_max"]
    if solver in ("hewer", "vi"):
        sol = (riccati.hewer_pi(sys_d, weights, K0, tol=tol, max_iter=i_max)
               if solver == "hewer" else riccati.value_iteration(
                   sys_d, weights, tol=tol, max_iter=i_max))
        return [(2, dict(i=i, b=1.0, c=1.0, cum=1.0, bound=None, K_tilde=K,
                         P_tilde=P, rho_closed=None))
                for i, (P, K) in enumerate(sol.trace)]
    if solver == "spi-model-based":
        report = model_based.spi_model_based(
            sys_d, weights, K0, lam=params["lambda"], tol=tol, i_max=i_max)
    else:
        report = model_free.spi_model_free(
            cli.collect_trajectory(sys_d, cfg, seed), K0, weights,
            b_init=params["b_init"], delta=params["delta"],
            lam=params["lambda"], tol=tol, i_max=i_max)
    return [(phase, vars(s)) for phase, trace in
            ((1, report.phase1_trace), (2, report.phase2_trace))
            for s in trace]


@pytest.mark.parametrize("solver", regenerate.SOLVERS)
def test_report_trace_is_the_library_record(tmp_path, solver):
    # every report.json row carries its library record bit for bit; a row
    # without a model-based rho_closed takes its radius from the row builder,
    # as spectral_radius(A - B K) of the record's gain.  P_norm is
    # np.linalg.norm(P, "fro") of the record and dP_norm the same norm of
    # the step from the previous P of the same phase, bit for bit
    assert regenerate.solve(solver, tmp_path) == 0
    rows = json.loads((tmp_path / "report.json").read_text())["trace"]
    cfg = json.loads(regenerate.CONFIG.read_text())
    if solver == "hewer":
        cfg["params"]["K0"] = regenerate.HEWER_K0
    sys_d = cli._problem(cfg, None)[0]
    records = _library_records(solver, cfg)
    assert len(rows) == len(records) > 1
    P_prev = {}
    for row, (phase, s) in zip(rows, records):
        where = (row["i"], phase)
        assert row["phase"] == phase
        for key in ("i", "b", "c", "cum", "bound"):
            assert row[key] == s[key], (where, key)
        assert np.array_equal(row["K"], s["K_tilde"])
        rho = (matkit.spectral_radius(sys_d.A - sys_d.B @ s["K_tilde"])
               if s["rho_closed"] is None else s["rho_closed"])
        assert row["rho_closed"] == rho, where
        assert row["rho_scaled"] == s["cum"] * rho, where
        P = s["P_tilde"]
        if P is None:
            assert row["P"] is row["P_norm"] is row["dP_norm"] is None
            continue
        assert np.array_equal(row["P"], P)
        assert row["P_norm"] == np.linalg.norm(P, "fro"), where
        assert row["dP_norm"] == (
            None if phase not in P_prev
            else np.linalg.norm(P - P_prev[phase], "fro")), where
        P_prev[phase] = P


def test_phase1_of_a_solve_that_starts_at_scale_1_is_the_handoff_alone(
        tmp_path, power_system, power_weights, power_data):
    # a scaling solve whose first scale 1/b is already >= 1 still records
    # its handoff: data-driven from half the optimal gain (b = 1) and
    # model-based from the optimal gain with beta = 0.01 (b < 1).  Only the
    # solve reports of the two solvers that never scale have no phase 1.
    K_opt = riccati.dare_reference(power_system, power_weights).K
    mf = model_free.spi_model_free(power_data, 0.5 * K_opt, power_weights)
    mb = model_based.spi_model_based(power_system, power_weights, K_opt,
                                     beta=0.01)
    assert mf.b == 1.0 > mb.b
    for report in (mf, mb):
        (handoff,) = report.phase1_trace
        assert handoff.i == report.handoff_index == 0
        assert handoff.P_tilde is None
        assert handoff.cum == 1.0 / report.b >= 1.0
        assert handoff.K_tilde is report.phase2_trace[0].K_tilde
    cfg = model_based_config()
    cfg["params"]["K0"] = K_opt.tolist()
    cfg = write_config(tmp_path / "c.json", cfg)
    for name in ("hewer", "vi"):
        out = tmp_path / name
        assert cli.main(["solve", "--config", cfg, "--solver", name,
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "b" not in report and "handoff_index" not in report
        assert len(report["trace"]) > 1
        assert all(row["phase"] == 2 and row["b"] == row["c"] == row["cum"]
                   == 1.0 for row in report["trace"])


def test_shipped_compare_matches_paper_headline(tmp_path):
    # data-driven SPI against value iteration over the shipped 100 random
    # starts; the time column only has to be a positive float
    assert cli.main(["compare", "--config",
                     str(CONFIGS / "power_compare.json"),
                     "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "comparison.csv")
    assert rows[0][:-1] == ["solver", "trials", "failures", "mean_iterations"]
    assert [row[:-1] for row in rows[1:]] == [
        ["spi-model-free", "100", "0", "10.880000000000001"],
        ["vi", "100", "0", "114.37"]]
    assert all(float(row[-1]) > 0.0 for row in rows[1:])


def test_compare_reads_a_gain_tol_beyond_a_double(tmp_path):
    # the schema admits a 400-digit gain_tol; compared exactly, it counts
    # every first gain as within tolerance, as the largest doubles do
    tables = []
    for value in (1e308, 10**400):
        cfg = json.loads((CONFIGS / "power_compare.json").read_text())
        cfg["compare"].update(gain_tol=value, trials=3)
        out = tmp_path / str(len(tables))
        assert cli.main(["compare", "--config",
                         write_config(tmp_path / "c.json", cfg),
                         "--out", str(out)]) == 0
        tables.append([row[:-1] for row in _csv_rows(out / "comparison.csv")])
    assert tables[0] == tables[1]
    assert [row[2] for row in tables[1][1:]] == ["0", "0"]


def test_compare_spawns_each_trial_seed_when_the_trial_starts(tmp_path,
                                                            monkeypatch):
    # one child at a time keeps memory flat in the trial count and gives
    # the children of spawn(trials), in order
    children = []

    class Spy(np.random.SeedSequence):
        def spawn(self, n_children):
            assert n_children == 1
            children.extend(super().spawn(n_children))
            return children[-1:]

    monkeypatch.setattr(np.random, "SeedSequence", Spy)
    assert run_edited_shipped_config(tmp_path, "compare",
                                     "power_compare.json",
                                     ("compare", "solvers"), ["vi"]) == 0
    monkeypatch.undo()
    assert [(c.entropy, c.spawn_key) for c in children] == [
        (c.entropy, c.spawn_key)
        for c in np.random.SeedSequence(2024).spawn(100)]


def test_shipped_configs_are_valid():
    for path in sorted(CONFIGS.glob("*.json")):
        cli.load_config(str(path))


def test_packaged_schema_meets_its_metaschema():
    schema = cli._load_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_load_config_never_checks_schema(tmp_path, monkeypatch):
    # the packaged schema is checked once, by the test above, not by every
    # process that loads a config
    cls = jsonschema.validators.validator_for(cli._load_schema())
    check_schema = cls.check_schema
    calls = []

    def counting(schema):
        calls.append(schema)
        return check_schema(schema)

    monkeypatch.setattr(cls, "check_schema", counting)
    cli._validator.cache_clear()
    cfg = write_config(tmp_path / "c.json", model_based_config())
    cli.load_config(cfg)
    cli.load_config(cfg)
    assert calls == []


def _jsonschema_validator(schema):
    """jsonschema's own validator class of ``schema`` with the config's
    "integer" and "number" (finite) and nothing else of its own."""
    cls = jsonschema.validators.validator_for(schema)
    return jsonschema.validators.extend(
        cls, type_checker=cls.TYPE_CHECKER.redefine_many({
            "integer": lambda _, v: isinstance(v, int)
            and not isinstance(v, bool),
            "number": lambda _, v: not isinstance(v, bool) and (
                isinstance(v, int)
                or isinstance(v, float) and np.isfinite(v))}))


@pytest.mark.parametrize("edit, keyword", [
    (lambda c: c["params"].update(beta="one"), "type"),
    (lambda c: c.update(extra=1), "additionalProperties"),
    (lambda c: c.update(system={"A_c": POWER_AC, "B_c": POWER_BC}), "oneOf"),
    (lambda c: c.update(seed=-1), "minimum"),
    # best_match descends into the oneOf branch that nearly matched
    (lambda c: c["params"].update(delta={"rate": 0.5, "x": 1}),
     "additionalProperties"),
    # number arrays, which the config validator passes in one loop when
    # they are valid
    (lambda c: c.update(weights=dict(WEIGHTS, Q=[[1.0, 0, 0], [0, 1.0, "0"],
                                                 [0, 0, 1.0]])), "type"),
    (lambda c: c["params"]["K0"].append([]), "minItems"),
    (lambda c: c["params"].update(data={"x0": [0.1, INF, 0.2]}), "type"),
    (lambda c: c.update(weights=dict(WEIGHTS, R=[1.0])), "type"),
], ids=["wrong-type", "extra-property", "oneOf-miss", "negative-seed",
        "oneOf-branch", "string-in-matrix-row", "empty-matrix-row",
        "infinite-vector-entry", "number-for-matrix-row"])
def test_config_error_text_matches_jsonschema(tmp_path, edit, keyword):
    cfg_dict = model_based_config()
    edit(cfg_dict)
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    schema = cli._load_schema()
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(cfg_dict, schema,
                            cls=_jsonschema_validator(schema))
    exc = expected.value
    assert exc.validator == keyword
    with pytest.raises(ConfigError) as got:
        cli.load_config(cfg)
    assert str(got.value) == f"{cfg}: field {exc.json_path}: {exc.message}"


@pytest.fixture
def value_iteration_calls(monkeypatch):
    calls = []
    value_iteration = riccati.value_iteration

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return value_iteration(*args, **kwargs)

    monkeypatch.setattr(riccati, "value_iteration", counting)
    return calls


@pytest.mark.parametrize("solver", ["spi-model-based", "spi-model-free",
                                    "hewer"])
def test_solve_reference_needs_no_value_iteration(tmp_path, solver,
                                                  value_iteration_calls):
    cfg_dict = model_free_config()
    cfg_dict["params"]["K0"] = POWER_K_REF.tolist()
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path),
                     "--solver", solver]) == 0
    assert value_iteration_calls == []
    oracle = json.loads((tmp_path / "report.json").read_text())["oracle"]
    assert oracle["method"] == "scipy-dare"
    assert 0.0 <= oracle["residual"] <= 1e-8 * np.linalg.norm(oracle["P"])
    assert np.abs(np.asarray(oracle["P"]) - POWER_P_REF).max() < 1e-4


def test_compare_runs_value_iteration_only_for_vi(tmp_path,
                                                  value_iteration_calls):
    cfg = write_config(tmp_path / "c.json", {
        "system": SYSTEM_CONT, "weights": WEIGHTS, "seed": 11,
        "compare": {"solvers": ["spi-model-based", "vi", "hewer"],
                    "trials": 3}})
    assert cli.main(["compare", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
    assert len(value_iteration_calls) == 3


def test_solve_without_reference_has_no_oracle(tmp_path, caplog):
    # at Q, R x 1e-13 the Schur-method reference misses its residual bound,
    # while the solve succeeds: the report is written with no oracle
    cfg = json.loads((CONFIGS / "power_model_based.json").read_text())
    for key in ("Q", "R"):
        cfg["weights"][key] = (1e-13 * np.asarray(cfg["weights"][key])
                               ).tolist()
    with caplog.at_level(logging.WARNING, logger="spilqr"):
        assert cli.main(["solve", "--config",
                         write_config(tmp_path / "c.json", cfg),
                         "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["oracle"] is None
    assert any(r.levelno == logging.WARNING
               and "reference solve failed" in r.getMessage()
               for r in caplog.records)


def test_solve_vi_unstabilizable_plant_exit_code(tmp_path):
    # value iteration converges, but its gain leaves the unreachable
    # unstable mode as it is: the solve refuses and writes no report
    cfg = write_config(tmp_path / "c.json", dict(UNSTABILIZABLE, solver="vi"))
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"]["type"] == "InvalidProblemError"
    assert "does not stabilize the plant" in err["error"]["message"]
    assert not (tmp_path / "report.json").exists()


def test_compare_unstabilizable_plant_exit_code(tmp_path):
    cfg = write_config(tmp_path / "c.json", dict(
        UNSTABILIZABLE, seed=3, compare={"solvers": ["vi"], "trials": 2}))
    assert cli.main(["compare", "--config", cfg,
                     "--out", str(tmp_path)]) == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"]["type"] == "InvalidProblemError"
    assert not (tmp_path / "comparison.csv").exists()


def test_solve_vi_diverging_plant_exit_code(tmp_path):
    # with Q = I the cost sees the unreachable unstable mode: value
    # iteration diverges, and the CLI reports it by name with no numpy
    # warning on the way
    cfg = write_config(tmp_path / "c.json", {
        "system": UNSTABILIZABLE["system"],
        "weights": {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]}})
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path),
                     "--solver", "vi"]) == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"]["type"] == "InvalidProblemError"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("solver", ["vi", "hewer", "spi-model-free"])
def test_trace_radii_equal_spectral_radius(tmp_path, solver):
    # the row builder's one stacked eigensolve gives every row the radius
    # that matkit.spectral_radius gives its matrix
    cfg_dict = model_free_config()
    cfg_dict["params"]["K0"] = (POWER_K_REF * 0.5).tolist()
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path),
                     "--solver", solver]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    sys_d = cli.build_system(report["config"])
    assert len(report["trace"]) > 1
    for row in report["trace"]:
        rho = matkit.spectral_radius(sys_d.A - sys_d.B @ np.asarray(row["K"]))
        assert row["rho_closed"] == rho


def test_closed_loop_radii_of_no_gains(power_system):
    # a phase without records gives the row builder an empty stack to solve
    sol = riccati.AreSolution(P=None, K=None, residual=None, iterations=0)
    report = riccati.SpiReport([], [], sol, b=1.0)
    assert cli._rows(report, power_system) == []


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    cfg = write_config(tmp_path / "c.json", model_free_config())
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--solver", "vi", "--seed", "99"]) == 0
    assert cli.main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "b")]) == 0
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert (ra["solver"], ra["seed"]) == ("vi", 99)
    assert (rb["solver"], rb["seed"]) == ("spi-model-free", 7)


@pytest.mark.parametrize("solver", ["vi", "spi-model-free"])
def test_report_parses_like_the_indented_text(tmp_path, monkeypatch, solver):
    written, peaks = {}, {}
    write_json = cli._write_json

    def capture(path, obj):
        written[path] = obj
        tracemalloc.start()
        try:
            write_json(path, obj)
            peaks[path] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_json", capture)
    cfg = write_config(tmp_path / "c.json", model_free_config())
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path),
                     "--solver", solver]) == 0
    path = str(tmp_path / "report.json")
    text = (tmp_path / "report.json").read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    indented = json.dumps(written[path], indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == json.loads(indented)
    assert text == json.dumps(written[path], sort_keys=True) + "\n"
    # written a list element at a time: the 70 kB value-iteration report
    # peaks near 26 kB, mostly the file object's buffers, and near 0.5 MB
    # when encoded whole
    if solver == "vi":
        assert peaks[path] < len(text), (peaks[path], len(text))


def _run_python(*args):
    src = os.path.dirname(os.path.dirname(spilqr.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_without_runtime_warning():
    proc = _run_python("-W", "error::RuntimeWarning", "-m", "spilqr.cli",
                       "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: spilqr" in proc.stdout


def test_package_import_loads_cli_on_first_use():
    proc = _run_python("-c", (
        "import sys, spilqr\n"
        "assert 'jsonschema' not in sys.modules\n"
        "assert 'spilqr.cli' not in sys.modules\n"
        "from spilqr import cli\n"
        "assert spilqr.cli is cli is sys.modules['spilqr.cli']\n"))
    assert proc.returncode == 0, proc.stderr
