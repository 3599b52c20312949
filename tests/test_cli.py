import json
import logging
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import spilqr
from spilqr import cli, matkit, riccati
from spilqr.exceptions import ConfigError

from conftest import POWER_K_REF, POWER_P_REF

POWER_AC = [[-12.5, 0.0, 5.0], [10.0, -10.0, 0.0], [0.0, 6.0, -0.05]]
POWER_BC = [[0.0], [12.5], [0.0]]
SYSTEM_CONT = {"A_c": POWER_AC, "B_c": POWER_BC, "sample_time": 0.01}
WEIGHTS = {"Q": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], "R": [[1.0]]}
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
# value iteration converges, but no gain stabilizes the plant, so the DARE
# has no stabilizing solution.
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
    # a trial seeded at the optimum needs at most two iterations
    from spilqr import riccati
    P0 = power_oracle.P
    K0 = riccati.optimal_gain(power_system, power_weights, P0)
    for name in ("vi", "hewer", "spi-model-based", "spi-model-free"):
        iters, _ = cli._compare_one(
            name, power_system, power_weights, K0, P0, power_data,
            {}, power_oracle.K, 1e-4)
        assert iters is not None and iters <= 2, (name, iters)


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


def test_shipped_configs_are_valid():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for path in sorted(root.glob("*.json")):
        cli.load_config(str(path))


def test_load_config_checks_schema_once(tmp_path, monkeypatch):
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
    assert len(calls) == 1


@pytest.mark.parametrize("edit, keyword", [
    (lambda c: c["params"].update(beta="one"), "type"),
    (lambda c: c.update(extra=1), "additionalProperties"),
    (lambda c: c.update(system={"A_c": POWER_AC, "B_c": POWER_BC}), "oneOf"),
    (lambda c: c.update(seed=-1), "minimum"),
    # best_match descends into the oneOf branch that nearly matched
    (lambda c: c["params"].update(delta={"rate": 0.5, "x": 1}),
     "additionalProperties"),
], ids=["wrong-type", "extra-property", "oneOf-miss", "negative-seed",
        "oneOf-branch"])
def test_config_error_text_matches_jsonschema(tmp_path, edit, keyword):
    cfg_dict = model_based_config()
    edit(cfg_dict)
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(cfg_dict, cli._load_schema())
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


def test_solve_unstabilizable_plant_has_no_oracle(tmp_path, caplog):
    cfg = write_config(tmp_path / "c.json", dict(UNSTABILIZABLE, solver="vi"))
    with caplog.at_level(logging.WARNING, logger="spilqr"):
        assert cli.main(["solve", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["oracle"] is None
    assert any(r.levelno == logging.WARNING
               and "reference solve failed" in r.getMessage()
               for r in caplog.records)


def test_compare_unstabilizable_plant_exit_code(tmp_path):
    cfg = write_config(tmp_path / "c.json", dict(
        UNSTABILIZABLE, seed=3, compare={"solvers": ["vi"], "trials": 2}))
    assert cli.main(["compare", "--config", cfg,
                     "--out", str(tmp_path)]) == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"]["type"] == "InvalidProblemError"
    assert not (tmp_path / "comparison.csv").exists()


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
    assert cli._closed_loop_radii(power_system, []) == []


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
    written = {}
    write_json = cli._write_json

    def capture(path, obj):
        written[path] = obj
        write_json(path, obj)

    monkeypatch.setattr(cli, "_write_json", capture)
    cfg = write_config(tmp_path / "c.json", model_free_config())
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path),
                     "--solver", solver]) == 0
    path = str(tmp_path / "report.json")
    text = (tmp_path / "report.json").read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    indented = json.dumps(written[path], indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == json.loads(indented)


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
