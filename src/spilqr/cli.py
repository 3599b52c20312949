"""Experiment runner: config-driven solves, discretization, simulation,
solver comparison, and plot-data extraction.

Subcommands: ``solve``, ``discretize``, ``simulate``, ``compare``,
``plotdata``.  All numeric output is written to files under ``--out``;
runs are reproducible byte for byte given the same config and seed
(wall-clock fields excepted).  The ``SPI_LOG`` environment variable
controls log verbosity only and never affects numerics.
"""

import argparse
import csv
import functools
import json
import logging
import os
import sys
import time
from importlib import resources

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import model_based, model_free, riccati
from .exceptions import (
    ConfigError,
    DivergenceError,
    EigenvalueConvergenceError,
    InvalidProblemError,
    SpilqrError,
)
from .lti import (
    CostWeights,
    LinearSystem,
    exploration_input,
    simulate,
    zoh_discretize,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DIVERGENCE = 4

SOLVERS = ("hewer", "vi", "spi-model-based", "spi-model-free")

log = logging.getLogger("spilqr")


def _fmt(x):
    """17-significant-digit decimal rendering used in all CSV output."""
    return f"{x:.17g}"


def _load_schema():
    with resources.files("spilqr").joinpath("config_schema.json").open() as f:
        return json.load(f)


@functools.cache
def _validator():
    """The config validator, built once per process after one check of
    the packaged schema against its metaschema."""
    schema = _load_schema()
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def load_config(path):
    """Read and schema-validate a JSON experiment configuration."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}") from exc
    # the error jsonschema.validate raises, without its per-call metaschema
    # check and validator build
    error = best_match(_validator().iter_errors(cfg))
    if error is not None:
        raise ConfigError(
            f"{path}: field {error.json_path}: {error.message}") from error
    return cfg


def _matrix(value):
    return np.asarray(value, dtype=float)


def build_system(cfg):
    """Materialize the plant, discretizing a continuous one if needed."""
    spec = cfg.get("system")
    if spec is None:
        raise ConfigError("config is missing the 'system' section")
    try:
        if "A" in spec:
            return LinearSystem(_matrix(spec["A"]), _matrix(spec["B"]))
        return zoh_discretize(_matrix(spec["A_c"]), _matrix(spec["B_c"]),
                              spec["sample_time"])
    except SpilqrError as exc:
        raise ConfigError(f"invalid system: {exc}") from exc


def build_weights(cfg):
    spec = cfg.get("weights")
    if spec is None:
        raise ConfigError("config is missing the 'weights' section")
    try:
        return CostWeights(_matrix(spec["Q"]), _matrix(spec["R"]))
    except SpilqrError as exc:
        raise ConfigError(f"invalid weights: {exc}") from exc


def _params(cfg):
    return cfg.get("params", {})


def _check_consistency(sys_d, weights, cfg):
    """Cross-field dimension checks that the JSON schema cannot express."""
    n, m = sys_d.n, sys_d.m
    if weights.Q.shape != (n, n):
        raise ConfigError(f"Q must be {n} x {n}, got {weights.Q.shape}")
    if weights.R.shape != (m, m):
        raise ConfigError(f"R must be {m} x {m}, got {weights.R.shape}")
    params = _params(cfg)
    if "K0" in params and _matrix(params["K0"]).shape != (m, n):
        raise ConfigError(f"params.K0 must be {m} x {n}")
    if "P0" in params and _matrix(params["P0"]).shape != (n, n):
        raise ConfigError(f"params.P0 must be {n} x {n}")
    data_cfg = params.get("data", {})
    if "x0" in data_cfg and len(data_cfg["x0"]) != n:
        raise ConfigError(f"params.data.x0 must have length {n}")


def _delta_from_config(params):
    delta = params.get("delta", 0.1)
    if isinstance(delta, dict):
        rate = delta["rate"]
        return lambda probe: rate * probe
    return delta


def _resolve_seed(cfg, override):
    seed = int(override) if override is not None else cfg.get("seed")
    if seed is not None and seed < 0:
        raise ConfigError("seed must be nonnegative")
    return seed


def collect_trajectory(sys, cfg, seed):
    """Roll out the plant under probing input as configured."""
    params = _params(cfg)
    data_cfg = params.get("data", {})
    if seed is None:
        raise ConfigError("a seed is required for data-driven runs")
    if "x0" not in data_cfg:
        raise ConfigError("params.data.x0 is required for data-driven runs")
    x0 = np.asarray(data_cfg["x0"], dtype=float)
    l = data_cfg.get("l", model_free.unknown_count(sys.n, sys.m) + 20)
    noise = data_cfg.get("noise", {})
    policy = exploration_input(
        sys.m,
        num_terms=noise.get("num_terms", 100),
        freq_low=noise.get("freq_low", -10.0),
        freq_high=noise.get("freq_high", 10.0),
        seed=seed)
    return simulate(sys, x0, policy, l)


# ---------------------------------------------------------------------------
# report serialization

def _closed_loop_radii(sys, gains):
    """``rho(A - B K)`` for each gain, from one eigensolve of the stack.

    Stacked ``np.linalg.eigvals`` runs the same LAPACK ``dgeev`` on each
    matrix, so every radius equals :func:`matkit.spectral_radius` of its
    matrix; non-finite matrices are rejected as there.
    """
    if not gains:
        return []
    F = np.array([sys.A - sys.B @ K for K in gains])
    if not np.all(np.isfinite(F)):
        raise InvalidProblemError("A - BK has non-finite entries")
    try:
        w = np.linalg.eigvals(F)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenvalueConvergenceError(
            f"eigenvalue iteration did not converge: {exc}") from exc
    return np.abs(w).max(axis=1).tolist()


def _state_row(state, dP, rho_closed):
    """Report row of a scaling record; ``rho_closed`` is ``rho(A - B K)``
    of its gain, and gives the scaled radius when the record has none."""
    rho_scaled = (state.rho_scaled if state.rho_closed is not None
                  else state.cum * rho_closed)
    return {
        "i": state.i,
        "b": state.b,
        "c": state.c,
        "cum": state.cum,
        "P": None if state.P_tilde is None else state.P_tilde.tolist(),
        "K": state.K_tilde.tolist(),
        "P_norm": (None if state.P_tilde is None
                   else float(np.linalg.norm(state.P_tilde, "fro"))),
        "dP_norm": dP,
        "rho_closed": rho_closed,
        "rho_scaled": rho_scaled,
        "bound": state.bound,
        "sigma_q": state.sigma_q,
        "fallback": state.fallback,
    }


def _rows_from_report(report, sys):
    states = report.phase1_trace + report.phase2_trace
    radii = iter(_closed_loop_radii(
        sys, [s.K_tilde for s in states if s.rho_closed is None]))
    rows = []
    for phase, trace in ((1, report.phase1_trace), (2, report.phase2_trace)):
        P_prev = None
        for s in trace:
            dP = None
            if s.P_tilde is not None and P_prev is not None:
                dP = float(np.linalg.norm(s.P_tilde - P_prev, "fro"))
            rho = s.rho_closed if s.rho_closed is not None else next(radii)
            row = _state_row(s, dP, rho)
            row["phase"] = phase
            rows.append(row)
            if s.P_tilde is not None:
                P_prev = s.P_tilde
    return rows


def _rows_from_pi_trace(trace, sys):
    radii = _closed_loop_radii(sys, [K for _, K in trace])
    rows = []
    P_prev = None
    for i, ((P, K), rho) in enumerate(zip(trace, radii)):
        dP = None if P_prev is None else float(np.linalg.norm(P - P_prev,
                                                              "fro"))
        rows.append({
            "i": i, "phase": 2, "b": 1.0, "c": 1.0, "cum": 1.0,
            "P": P.tolist(), "K": K.tolist(),
            "P_norm": float(np.linalg.norm(P, "fro")), "dP_norm": dP,
            "rho_closed": rho, "rho_scaled": rho,
            "bound": None, "sigma_q": None, "fallback": False,
        })
        P_prev = P
    return rows


CSV_COLUMNS = ("i", "phase", "b", "c", "cum", "P_norm", "dP_norm",
               "rho_closed", "rho_scaled", "bound", "sigma_q", "fallback")


def _write_trace_csv(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            out = []
            for col in CSV_COLUMNS:
                val = row.get(col)
                if val is None:
                    out.append("")
                elif isinstance(val, bool):
                    out.append(str(int(val)))
                elif isinstance(val, (int, np.integer)):
                    out.append(str(int(val)))
                else:
                    out.append(_fmt(float(val)))
            writer.writerow(out)


def _write_json(path, obj):
    """Compact JSON from the C encoder, written at once."""
    text = json.dumps(obj, sort_keys=True)
    with open(path, "w") as f:
        f.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_discretize(cfg, out_dir, seed=None):
    spec = cfg.get("system", {})
    if "A_c" not in spec:
        raise ConfigError("discretize requires a continuous system "
                          "(A_c, B_c, sample_time)")
    sys_d = build_system(cfg)
    path = os.path.join(out_dir, "discrete_system.json")
    _write_json(path, {"A": sys_d.A.tolist(), "B": sys_d.B.tolist(),
                       "sample_time": spec["sample_time"]})
    print(f"wrote {path}")
    return EXIT_OK


def _run_solver(name, sys_d, weights, cfg, seed):
    """Dispatch one solver run; returns (rows, solution, extras, elapsed)."""
    params = _params(cfg)
    tol = params.get("tol", 1e-5)
    K0 = _matrix(params.get("K0", np.zeros((sys_d.m, sys_d.n))))
    extras = {}

    if name == "hewer":
        i_max = params.get("i_max", riccati.PI_MAX_ITER)
        t0 = time.perf_counter()
        sol = riccati.hewer_pi(sys_d, weights, K0, tol=tol, max_iter=i_max)
        elapsed = time.perf_counter() - t0
        rows = _rows_from_pi_trace(sol.trace, sys_d)
    elif name == "vi":
        i_max = params.get("i_max", riccati.VI_MAX_ITER)
        P0 = params.get("P0")
        P0 = None if P0 is None else _matrix(P0)
        t0 = time.perf_counter()
        sol = riccati.value_iteration(sys_d, weights, P0=P0, tol=tol,
                                      max_iter=i_max)
        elapsed = time.perf_counter() - t0
        rows = _rows_from_pi_trace(sol.trace, sys_d)
    elif name == "spi-model-based":
        i_max = params.get("i_max", 500)
        t0 = time.perf_counter()
        report = model_based.spi_model_based(
            sys_d, weights, K0, beta=params.get("beta", 1.0),
            lam=params.get("lambda", 0.5), tol=tol, i_max=i_max)
        elapsed = time.perf_counter() - t0
        sol = report.solution
        rows = _rows_from_report(report, sys_d)
        extras = {"b": report.b, "handoff_index": report.handoff_index}
    elif name == "spi-model-free":
        i_max = params.get("i_max", 500)
        traj = collect_trajectory(sys_d, cfg, seed)
        data = model_free.build_regression_data(traj)
        t0 = time.perf_counter()
        report = model_free.spi_model_free(
            data, K0, weights, b_init=params.get("b_init", 1.0),
            delta=_delta_from_config(params),
            lam=params.get("lambda", 0.5), tol=tol, i_max=i_max,
            max_probes=params.get("max_probes", 200))
        elapsed = time.perf_counter() - t0
        sol = report.solution
        rows = _rows_from_report(report, sys_d)
        extras = {"b": report.b, "handoff_index": report.handoff_index,
                  "probes": report.probes,
                  "c_fallbacks": report.c_fallbacks}
    else:
        raise ConfigError(f"unknown solver '{name}'")
    return rows, sol, extras, elapsed


def cmd_solve(cfg, out_dir, seed=None, solver=None):
    name = solver or cfg.get("solver")
    if name is None:
        raise ConfigError("no solver selected (config 'solver' or --solver)")
    if name not in SOLVERS:
        raise ConfigError(f"unknown solver '{name}'")
    sys_d = build_system(cfg)
    weights = build_weights(cfg)
    _check_consistency(sys_d, weights, cfg)
    seed = _resolve_seed(cfg, seed)
    if name == "spi-model-free" and seed is None:
        raise ConfigError("spi-model-free requires a seed")

    rows, sol, extras, elapsed = _run_solver(name, sys_d, weights, cfg, seed)
    residual = riccati.are_residual(sys_d, weights, sol.P)

    oracle = None
    try:
        ref = riccati.dare_reference(sys_d, weights)
        oracle = {"P": ref.P.tolist(), "K": ref.K.tolist(),
                  "method": "scipy-dare", "residual": ref.residual}
    except InvalidProblemError as exc:
        log.warning("reference solve failed, report has no oracle: %s", exc)

    report = {
        "config": cfg,
        "solver": name,
        "seed": seed,
        "P": sol.P.tolist(),
        "K": sol.K.tolist(),
        "residual": residual,
        "iterations": sol.iterations,
        "trace": rows,
        "oracle": oracle,
        "wall_time_s": elapsed,
    }
    report.update(extras)
    report_path = os.path.join(out_dir, "report.json")
    _write_json(report_path, report)
    _write_trace_csv(os.path.join(out_dir, "trace.csv"), rows)
    print(f"{name}: {sol.iterations} iterations, residual {residual:.3e}, "
          f"wrote {report_path}")
    return EXIT_OK


def _load_gain(cfg, sys_d):
    sim = cfg.get("simulate", {})
    if sim.get("gain") is not None:
        return _matrix(sim["gain"])
    if "gain_file" in sim:
        try:
            with open(sim["gain_file"]) as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"cannot read gain file {sim['gain_file']}: {exc}") from exc
        if "K" not in payload:
            raise ConfigError(f"{sim['gain_file']} has no 'K' entry")
        return _matrix(payload["K"])
    return np.zeros((sys_d.m, sys_d.n))


def cmd_simulate(cfg, out_dir, seed=None):
    sys_d = build_system(cfg)
    sim = cfg.get("simulate")
    if sim is None:
        raise ConfigError("config is missing the 'simulate' section")
    K = _load_gain(cfg, sys_d)
    if K.shape != (sys_d.m, sys_d.n):
        raise ConfigError(
            f"gain must be {sys_d.m} x {sys_d.n}, got {K.shape}")
    x0 = np.asarray(sim["x0"], dtype=float)
    steps = sim["steps"]
    open_loop = sim.get("open_loop_steps", 0)

    def policy(k, x):
        if k < open_loop:
            return np.zeros(sys_d.m)
        return -K @ x

    path = os.path.join(out_dir, "trajectory.csv")
    truncated_at = None
    try:
        traj = simulate(sys_d, x0, policy, steps)
    except DivergenceError as exc:
        traj = exc.partial
        truncated_at = exc.step
    _write_trajectory_csv(path, traj)
    if truncated_at is not None:
        print(f"divergence at step {truncated_at}; truncated trajectory "
              f"written to {path}", file=sys.stderr)
        return EXIT_DIVERGENCE
    print(f"wrote {path}")
    return EXIT_OK


def _write_trajectory_csv(path, traj):
    n, m = traj.n, traj.m
    header = ["k"] + [f"x{i + 1}" for i in range(n)] \
        + [f"u{i + 1}" for i in range(m)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for k in range(traj.states.shape[0]):
            row = [str(k)] + [_fmt(v) for v in traj.states[k]]
            if k < traj.length:
                row += [_fmt(v) for v in traj.inputs[k]]
            else:
                row += [""] * m
            writer.writerow(row)


def _gain_distance_index(gains, K_ref, tol):
    """Index of the first gain within ``tol`` of the reference, else None."""
    for idx, K in enumerate(gains):
        if np.linalg.norm(K - K_ref, "fro") < tol:
            return idx
    return None


def _compare_one(name, sys_d, weights, K0, P0, data, params, K_ref, tol):
    """Run one solver for the comparison harness.

    Returns (iterations-to-tolerance, elapsed seconds); iterations
    count every regression/recursion performed, including divisor
    probes for the data-driven solver.
    """
    run_tol = 1e-9
    if name == "vi":
        t0 = time.perf_counter()
        sol = riccati.value_iteration(sys_d, weights, P0=P0, tol=run_tol)
        elapsed = time.perf_counter() - t0
        gains = [K for _, K in sol.trace] + [sol.K]
        idx = _gain_distance_index(gains, K_ref, tol)
        return idx, elapsed
    if name == "hewer":
        t0 = time.perf_counter()
        sol = riccati.hewer_pi(sys_d, weights, K0, tol=run_tol)
        elapsed = time.perf_counter() - t0
        gains = [K for _, K in sol.trace] + [sol.K]
        idx = _gain_distance_index(gains, K_ref, tol)
        return idx, elapsed
    if name == "spi-model-based":
        t0 = time.perf_counter()
        report = model_based.spi_model_based(
            sys_d, weights, K0, beta=params.get("beta", 1.0),
            lam=params.get("lambda", 0.5), tol=run_tol,
            i_max=params.get("i_max", 500))
        elapsed = time.perf_counter() - t0
        gains = [K0] + report.gain_sequence()
        idx = _gain_distance_index(gains, K_ref, tol)
        return idx, elapsed
    if name == "spi-model-free":
        t0 = time.perf_counter()
        report = model_free.spi_model_free(
            data, K0, weights, b_init=params.get("b_init", 1.0),
            delta=_delta_from_config(params),
            lam=params.get("lambda", 0.5), tol=run_tol,
            i_max=params.get("i_max", 500),
            max_probes=params.get("max_probes", 200))
        elapsed = time.perf_counter() - t0
        gains = [K0] + report.gain_sequence()
        idx = _gain_distance_index(gains, K_ref, tol)
        return None if idx is None else idx + report.probes, elapsed
    raise ConfigError(f"unknown solver '{name}'")


def cmd_compare(cfg, out_dir, seed=None):
    sys_d = build_system(cfg)
    weights = build_weights(cfg)
    _check_consistency(sys_d, weights, cfg)
    seed = _resolve_seed(cfg, seed)
    if seed is None:
        raise ConfigError("compare requires a seed")
    comp = cfg.get("compare", {})
    solvers = comp.get("solvers", ["spi-model-free", "vi"])
    trials = comp.get("trials", 100)
    gain_tol = comp.get("gain_tol", 1e-4)
    params = _params(cfg)

    ref = riccati.dare_reference(sys_d, weights)
    data = None
    if "spi-model-free" in solvers:
        traj = collect_trajectory(sys_d, cfg, seed)
        data = model_free.build_regression_data(traj)

    results = {name: {"iters": [], "times": [], "failures": 0}
               for name in solvers}
    child_seeds = np.random.SeedSequence(seed).spawn(trials)
    for t, ss in enumerate(child_seeds):
        rng = np.random.default_rng(ss)
        G = rng.standard_normal((sys_d.n, sys_d.n))
        P0 = G.T @ G + 1e-3 * np.eye(sys_d.n)
        K0 = riccati.optimal_gain(sys_d, weights, P0)
        for name in solvers:
            try:
                iters, elapsed = _compare_one(
                    name, sys_d, weights, K0, P0, data, params, ref.K,
                    gain_tol)
            except SpilqrError as exc:
                log.info("trial %d solver %s failed: %s", t, name, exc)
                results[name]["failures"] += 1
                continue
            if iters is None:
                results[name]["failures"] += 1
            else:
                results[name]["iters"].append(iters)
                results[name]["times"].append(elapsed)

    path = os.path.join(out_dir, "comparison.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["solver", "trials", "failures",
                         "mean_iterations", "mean_wall_time_s"])
        for name in solvers:
            r = results[name]
            mean_it = np.mean(r["iters"]) if r["iters"] else float("nan")
            mean_t = np.mean(r["times"]) if r["times"] else float("nan")
            writer.writerow([name, str(trials), str(r["failures"]),
                             _fmt(mean_it), _fmt(mean_t)])
            print(f"{name}: mean iterations {mean_it:.1f}, mean time "
                  f"{mean_t * 1e3:.2f} ms, failures {r['failures']}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_plotdata(report_path, out_dir):
    try:
        with open(report_path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report {report_path}: {exc}") from exc
    oracle = report.get("oracle")
    if not oracle:
        raise ConfigError(
            f"{report_path} has no oracle solution; run 'solve' on a "
            f"config with a known plant first")
    P_ref = _matrix(oracle["P"])
    K_ref = _matrix(oracle["K"])
    trace = report.get("trace", [])

    p_path = os.path.join(out_dir, "p_error.dat")
    k_path = os.path.join(out_dir, "k_error.dat")
    with open(p_path, "w") as f:
        f.write("# iteration  frobenius_error_P\n")
        for row in trace:
            if row.get("P") is None:
                continue
            err = np.linalg.norm(_matrix(row["P"]) - P_ref, "fro")
            f.write(f"{row['i']} {_fmt(err)}\n")
    with open(k_path, "w") as f:
        f.write("# iteration  frobenius_error_K\n")
        for row in trace:
            err = np.linalg.norm(_matrix(row["K"]) - K_ref, "fro")
            f.write(f"{row['i']} {_fmt(err)}\n")
    print(f"wrote {p_path} and {k_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="spilqr",
        description="Discrete-time LQR via scaling policy iteration")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True,
                           help="path to the JSON experiment config")
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("solve", help="run a solver and write its report")
    common(p)
    p.add_argument("--solver", choices=SOLVERS, default=None,
                   help="override the config solver selection")
    common(sub.add_parser("discretize",
                          help="zero-order-hold discretize a continuous plant"))
    common(sub.add_parser("simulate", help="roll out a trajectory to CSV"))
    common(sub.add_parser("compare",
                          help="multi-trial solver comparison table"))
    p = sub.add_parser("plotdata",
                       help="extract convergence curves from a report")
    p.add_argument("--report", required=True, help="path to a report.json")
    p.add_argument("--out", default=".")
    return parser


def main(argv=None):
    level = os.environ.get("SPI_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "solve":
            cfg = load_config(args.config)
            return cmd_solve(cfg, args.out, seed=args.seed,
                             solver=args.solver)
        if args.command == "discretize":
            cfg = load_config(args.config)
            return cmd_discretize(cfg, args.out, seed=args.seed)
        if args.command == "simulate":
            cfg = load_config(args.config)
            return cmd_simulate(cfg, args.out, seed=args.seed)
        if args.command == "compare":
            cfg = load_config(args.config)
            return cmd_compare(cfg, args.out, seed=args.seed)
        if args.command == "plotdata":
            return cmd_plotdata(args.report, args.out)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except SpilqrError as exc:
        _write_json(os.path.join(args.out, "error.json"),
                    {"error": {"type": type(exc).__name__,
                               "message": str(exc)}})
        print(f"solver error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
