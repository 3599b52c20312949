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
import math
import os
import sys
import time
from importlib import resources

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import extend, validator_for

from . import matkit, model_based, model_free, riccati
from .exceptions import (
    ConfigError,
    DivergenceError,
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

log = logging.getLogger("spilqr")


def _fmt(x):
    """17-significant-digit decimal rendering used in all CSV output."""
    return f"{x:.17g}"


def _load_schema():
    with resources.files("spilqr").joinpath("config_schema.json").open() as f:
        return json.load(f)


def _inline_refs(node, defs):
    """``node`` with every ``{"$ref": "#/$defs/<name>"}`` replaced by the
    definition ``defs[<name>]``."""
    if isinstance(node, list):
        return [_inline_refs(item, defs) for item in node]
    if not isinstance(node, dict):
        return node
    if node.keys() == {"$ref"}:
        return defs[node["$ref"].removeprefix("#/$defs/")]
    return {key: _inline_refs(value, defs) for key, value in node.items()}


@functools.cache
def _validator():
    """The config validator, built once per process; its "integer" refuses
    ``500.0`` and its "number" the non-finite floats (``NaN``, ``Infinity``,
    ``1e400``) that JSON Schema admits and the settings do not.  The
    schema's local ``$ref``s are resolved once here.  The packaged schema
    is checked against its metaschema by the tests, not here."""
    schema = _load_schema()
    cls = validator_for(schema)
    return extend(cls, type_checker=cls.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda _, v: isinstance(v, int) and not isinstance(v, bool)
        or isinstance(v, float) and math.isfinite(v)}))(
            _inline_refs(schema, schema["$defs"]))


def _read_json(path, what):
    """Parse the JSON file of a config, gain file or report (``what``); the
    schema or the matrix rule refuses a non-finite number in it."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}") from exc


def load_config(path):
    """Read and schema-validate a JSON experiment configuration."""
    cfg = _read_json(path, "config")
    # the error jsonschema.validate raises, without its per-call metaschema
    # check and validator build
    error = best_match(_validator().iter_errors(cfg))
    if error is not None:
        raise ConfigError(
            f"{path}: field {error.json_path}: {error.message}") from error
    return cfg


def _matrix(value, what, shape=(None, None)):
    """``value`` as a float matrix under the matrix rule, of ``shape`` when
    given; raises :class:`ConfigError` with the rule's refusal, which names
    ``what``, otherwise."""
    try:
        return matkit._as_matrix(value, what, *shape)
    except SpilqrError as exc:
        raise ConfigError(str(exc)) from exc


def build_system(cfg):
    """Materialize the plant, discretizing a continuous one if needed."""
    spec = cfg["system"]   # the schema requires it
    try:
        if "A" in spec:
            return LinearSystem(_matrix(spec["A"], "system.A"),
                                _matrix(spec["B"], "system.B"))
        return zoh_discretize(_matrix(spec["A_c"], "system.A_c"),
                              _matrix(spec["B_c"], "system.B_c"),
                              spec["sample_time"])
    except SpilqrError as exc:
        raise ConfigError(f"invalid system: {exc}") from exc


def _problem(cfg, seed):
    """Plant, weights, seed, params and starting ``K0`` (zero when unset)
    and ``P0`` (``None``) of a ``solve`` or ``compare`` config: ``seed``
    overrides the config seed when given.  Runs the cross-field dimension
    checks that the JSON schema cannot express."""
    sys_d = build_system(cfg)
    spec = cfg.get("weights")
    if spec is None:
        raise ConfigError("config is missing the 'weights' section")
    n, m = sys_d.n, sys_d.m
    Q, R = _matrix(spec["Q"], "Q", (n, n)), _matrix(spec["R"], "R", (m, m))
    try:
        weights = CostWeights(Q, R)
    except SpilqrError as exc:
        raise ConfigError(f"invalid weights: {exc}") from exc
    params = cfg.get("params", {})
    K0 = _matrix(params.get("K0", np.zeros((m, n))), "params.K0", (m, n))
    P0 = _matrix(params["P0"], "params.P0", (n, n)) if "P0" in params \
        else None
    data_cfg = params.get("data", {})
    if "x0" in data_cfg and len(data_cfg["x0"]) != n:
        raise ConfigError(f"params.data.x0 must have length {n}")
    seed = int(seed) if seed is not None else cfg.get("seed")
    if seed is not None and seed < 0:
        raise ConfigError("seed must be nonnegative")
    return sys_d, weights, seed, params, K0, P0


def collect_trajectory(sys, cfg, seed):
    """The certified recording (a :class:`model_free.RegressionData`) of
    one rollout of the plant under probing input as configured."""
    data_cfg = cfg.get("params", {}).get("data", {})
    if seed is None:
        raise ConfigError("a seed is required for data-driven runs")
    if "x0" not in data_cfg:
        raise ConfigError("params.data.x0 is required for data-driven runs")
    x0 = _matrix([data_cfg["x0"]], "params.data.x0", (1, sys.n))
    l = data_cfg.get("l", model_free.unknown_count(sys.n, sys.m) + 20)
    try:   # the schema admits only exploration_input's parameter names
        policy = exploration_input(sys.m, seed=seed,
                                   **data_cfg.get("noise", {}))
    except InvalidProblemError as exc:   # before any file is written
        raise ConfigError(f"invalid params.data.noise: {exc}") from exc
    return model_free.build_regression_data(simulate(sys, x0, policy, l))


# ---------------------------------------------------------------------------
# report serialization

def _rows(report, sys):
    """Report rows of a :class:`riccati.SpiReport`: per phase, each
    record's fields with its matrices as lists and its norms and radii.  A
    record without ``rho_closed`` takes it from one stacked eigensolve."""
    phases = ((1, report.phase1_trace), (2, report.phase2_trace))
    F = np.array([sys.A - sys.B @ s.K_tilde for _, records in phases
                  for s in records if s.rho_closed is None])
    radii = iter(matkit.spectral_radius(F.reshape(-1, sys.n, sys.n)).tolist())
    rows = []
    for phase, records in phases:
        P_prev = None
        for s in records:
            P = s.P_tilde
            rho = next(radii) if s.rho_closed is None else s.rho_closed
            row = dict(vars(s), phase=phase, K=s.K_tilde.tolist(),
                       rho_closed=rho, rho_scaled=s.cum * rho,
                       P=None, P_norm=None, dP_norm=None)
            del row["K_tilde"], row["P_tilde"]
            if P is not None:
                row.update(P=P.tolist(),
                           P_norm=float(np.linalg.norm(P, "fro")))
                if P_prev is not None:
                    row["dP_norm"] = float(np.linalg.norm(P - P_prev, "fro"))
                P_prev = P
            rows.append(row)
    return rows


CSV_COLUMNS = ("i", "phase", "b", "c", "cum", "P_norm", "dP_norm",
               "rho_closed", "rho_scaled", "bound")


def _write_csv(path, header, rows):
    """CSV with a header line; in each row ``None`` is written empty, floats
    (``np.float64`` included) by :func:`_fmt`, and integers and solver
    names as they print."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_fmt(val) if isinstance(val, float)
                          else "" if val is None else val for val in row]
                         for row in rows)


def _write_json(path, obj):
    """The text of ``json.dumps(obj, sort_keys=True)`` and a newline, for a
    dict ``obj``, written one element of a top-level list at a time."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as f:
        f.write("{")
        for k, key in enumerate(sorted(obj)):
            value = obj[key]
            f.write(f"{', ' if k else ''}{encode(key)}: ")
            if not isinstance(value, list):
                f.write(encode(value))
                continue
            f.write("[")
            f.writelines(f"{', ' if j else ''}{encode(item)}"
                         for j, item in enumerate(value))
            f.write("]")
        f.write("}\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_discretize(args):
    cfg = load_config(args.config)
    spec = cfg["system"]
    if "A_c" not in spec:
        raise ConfigError("discretize requires a continuous system "
                          "(A_c, B_c, sample_time)")
    sys_d = build_system(cfg)
    path = os.path.join(args.out, "discrete_system.json")
    _write_json(path, {"A": sys_d.A.tolist(), "B": sys_d.B.tolist(),
                       "sample_time": spec["sample_time"]})
    print(f"wrote {path}")
    return EXIT_OK


# The params keys each solver takes, each mapped to its library keyword; a
# key the config leaves unset takes the library default.
SETTINGS = {
    "hewer": {"i_max": "max_iter"}, "vi": {"i_max": "max_iter"},
    "spi-model-based": {"beta": "beta", "lambda": "lam", "i_max": "i_max"},
    "spi-model-free": {"b_init": "b_init", "delta": "delta", "lambda": "lam",
                       "max_probes": "max_probes", "i_max": "i_max"}}
SOLVERS = tuple(SETTINGS)


def _run(name, sys_d, weights, K0, P0, data, params, tol):
    """Run one solver with the settings ``params`` holds; returns its
    :class:`riccati.SpiReport` (Hewer's method and value iteration, which
    never scale, as scale-1 phase-2 records) and the elapsed seconds."""
    opts = {kw: params[key] for key, kw in SETTINGS[name].items()
            if key in params}
    if isinstance(opts.get("delta"), dict):   # growing schedule {"rate"}
        rate = opts["delta"]["rate"]
        opts["delta"] = lambda probe: rate * probe
    t0 = time.perf_counter()
    if name == "hewer":
        result = riccati.hewer_pi(sys_d, weights, K0, tol=tol, **opts)
    elif name == "vi":
        result = riccati.value_iteration(sys_d, weights, P0=P0, tol=tol,
                                         **opts)
    elif name == "spi-model-based":
        result = model_based.spi_model_based(sys_d, weights, K0, tol=tol,
                                             **opts)
    else:
        result = model_free.spi_model_free(data, K0, weights, tol=tol, **opts)
    elapsed = time.perf_counter() - t0
    if not isinstance(result, riccati.SpiReport):   # never scaled
        result = riccati.SpiReport([], [
            riccati.SpiState(i, K_tilde=K, P_tilde=P)
            for i, (P, K) in enumerate(result.trace)], result, b=1.0)
    return result, elapsed


def cmd_solve(args):
    cfg = load_config(args.config)
    name = args.solver or cfg.get("solver")
    if name is None:
        raise ConfigError("no solver selected (config 'solver' or --solver)")
    sys_d, weights, seed, params, K0, P0 = _problem(cfg, args.seed)
    data = (collect_trajectory(sys_d, cfg, seed)
            if name == "spi-model-free" else None)
    result, elapsed = _run(name, sys_d, weights, K0, P0, data, params,
                           params.get("tol", 1e-5))
    sol, rows = result.solution, _rows(result, sys_d)
    # only the data-driven solver, which never sees the plant, leaves it unset
    residual = (sol.residual if sol.residual is not None
                else riccati.are_residual(sys_d, weights, sol.P))

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
    if result.phase1_trace:   # a scaling solve
        report.update(b=result.b, handoff_index=result.handoff_index)
    if name == "spi-model-free":
        report["probes"] = result.probes
    report_path = os.path.join(args.out, "report.json")
    _write_json(report_path, report)
    _write_csv(os.path.join(args.out, "trace.csv"), CSV_COLUMNS,
               ([row.get(col) for col in CSV_COLUMNS] for row in rows))
    print(f"{name}: {sol.iterations} iterations, residual {residual:.3e}, "
          f"wrote {report_path}")
    return EXIT_OK


def _load_gain(sim, shape):
    """The ``shape`` gain of a simulate section: inline, the ``K`` of a
    gain file, or zero; only one of the first two may be set."""
    gain, path = sim.get("gain"), sim.get("gain_file")
    if gain is not None and path is not None:
        raise ConfigError("simulate takes gain or gain_file, not both")
    if gain is not None:
        return _matrix(gain, "gain", shape)
    if path is None:
        return np.zeros(shape)
    payload = _read_json(path, "gain file")
    if not isinstance(payload, dict) or "K" not in payload:
        raise ConfigError(f"{path} has no 'K' entry")
    return _matrix(payload["K"], f"gain in {path}", shape)


def cmd_simulate(args):
    cfg = load_config(args.config)
    sys_d = build_system(cfg)
    sim = cfg.get("simulate")
    if sim is None:
        raise ConfigError("config is missing the 'simulate' section")
    K = _load_gain(sim, (sys_d.m, sys_d.n))
    if len(sim["x0"]) != sys_d.n:
        raise ConfigError(f"simulate.x0 must have length {sys_d.n}")
    x0 = _matrix([sim["x0"]], "simulate.x0", (1, sys_d.n))
    steps = sim["steps"]
    open_loop = sim.get("open_loop_steps", 0)

    def policy(k, x):
        if k < open_loop:
            return np.zeros(sys_d.m)
        return -K @ x

    path = os.path.join(args.out, "trajectory.csv")
    truncated_at = None
    try:
        traj = simulate(sys_d, x0, policy, steps)
    except DivergenceError as exc:
        traj = exc.partial
        truncated_at = exc.step
    header = ["k"] + [f"x{i + 1}" for i in range(traj.n)] \
        + [f"u{i + 1}" for i in range(traj.m)]
    no_input = [None] * traj.m
    _write_csv(path, header, (
        [k, *x, *(traj.inputs[k] if k < traj.length else no_input)]
        for k, x in enumerate(traj.states)))
    if truncated_at is not None:
        print(f"divergence at step {truncated_at}; truncated trajectory "
              f"written to {path}", file=sys.stderr)
        return EXIT_DIVERGENCE
    print(f"wrote {path}")
    return EXIT_OK


def _iterations_to_tolerance(report, K_ref, tol):
    """Index of the first gain of ``report`` within ``tol`` of ``K_ref``, or
    ``None``: its first record's gain, then ``report.gain_sequence()``;
    distances compare exactly, to a ``tol`` too large for a double too."""
    first = (report.phase1_trace or report.phase2_trace)[0]
    gains = [first.K_tilde, *report.gain_sequence()]
    return next((idx for idx, K in enumerate(gains)
                 if float(np.linalg.norm(K - K_ref, "fro")) < tol), None)


def cmd_compare(args):
    cfg = load_config(args.config)
    sys_d, weights, seed, params, _, _ = _problem(cfg, args.seed)
    if seed is None:
        raise ConfigError("compare requires a seed")
    comp = cfg.get("compare", {})
    solvers = comp.get("solvers", ["spi-model-free", "vi"])
    trials = comp.get("trials", 100)
    gain_tol = comp.get("gain_tol", 1e-4)

    ref = riccati.dare_reference(sys_d, weights)
    data = (collect_trajectory(sys_d, cfg, seed)
            if "spi-model-free" in solvers else None)

    results = {name: {"iters": [], "times": [], "failed": []}
               for name in solvers}
    root = np.random.SeedSequence(seed)
    for t in range(trials):   # not every trial's child up front
        rng = np.random.default_rng(root.spawn(1)[0])
        G = rng.standard_normal((sys_d.n, sys_d.n))
        P0 = G.T @ G + 1e-3 * np.eye(sys_d.n)
        K0 = riccati.optimal_gain(sys_d, weights, P0)
        for name in solvers:
            # Hewer's method and value iteration run to their library
            # budgets here; the scaling solvers read params.
            r = results[name]
            try:
                result, elapsed = _run(
                    name, sys_d, weights, K0, P0, data,
                    {} if name in ("hewer", "vi") else params, 1e-9)
            except SpilqrError as exc:
                log.info("trial %d solver %s failed: %s", t, name, exc)
                r["failed"].append(f"{type(exc).__name__}: {exc}")
                continue
            iters = _iterations_to_tolerance(result, ref.K, gain_tol)
            if iters is None:
                r["failed"].append("no gain came within gain_tol")
            else:
                r["iters"].append(iters + result.probes)
                r["times"].append(elapsed)

    table = []
    for name in solvers:
        r = results[name]
        if not r["iters"]:   # every trial failed
            log.warning("%s failed all %d trials, the first with %s", name,
                        trials, r["failed"][0])
        mean_it = np.mean(r["iters"]) if r["iters"] else float("nan")
        mean_t = np.mean(r["times"]) if r["times"] else float("nan")
        table.append([name, trials, len(r["failed"]), mean_it, mean_t])
        print(f"{name}: mean iterations {mean_it:.1f}, mean time "
              f"{mean_t * 1e3:.2f} ms, failures {len(r['failed'])}")
    path = os.path.join(args.out, "comparison.csv")
    _write_csv(path, ["solver", "trials", "failures", "mean_iterations",
                      "mean_wall_time_s"], table)
    print(f"wrote {path}")
    return EXIT_OK


def _error_curves(report, path):
    """Per key ``P`` and ``K``, the ``(i, ||X_i - X_oracle||_F)`` curve of
    a solve report's trace; any other form of report is a config error."""
    if not isinstance(report, dict):
        raise ConfigError(f"{path} is not a JSON object")
    oracle = report.get("oracle")
    if not oracle:
        raise ConfigError(f"{path} has no oracle solution; run 'solve' on a "
                          f"config with a known plant first")
    trace = report.get("trace", [])
    if not (isinstance(oracle, dict) and isinstance(trace, list) and all(
            isinstance(row, dict) and isinstance(row.get("i"), int)
            for row in trace)):
        raise ConfigError(f"{path}: 'oracle' must be an object and 'trace' "
                          f"a list of rows with an integer 'i'")
    curves = {}
    for key in ("P", "K"):
        ref = _matrix(oracle.get(key), f"{path}: oracle {key}")
        curves[key] = [   # the handoff row has no P
            (row["i"], np.linalg.norm(_matrix(
                row[key], f"{path}: {key} of trace row {row['i']}",
                ref.shape) - ref, "fro"))
            for row in trace if row.get(key) is not None]
    return curves


def cmd_plotdata(args):
    curves = _error_curves(_read_json(args.report, "report"), args.report)
    paths = []
    for key, curve in curves.items():
        path = os.path.join(args.out, f"{key.lower()}_error.dat")
        with open(path, "w") as f:
            f.write(f"# iteration  frobenius_error_{key}\n")
            f.writelines(f"{i} {_fmt(err)}\n" for i, err in curve)
        paths.append(path)
    print(f"wrote {paths[0]} and {paths[1]}")
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it
    unchanged.  Each subcommand sets ``run``, its ``cmd_*`` function."""
    parser = argparse.ArgumentParser(
        prog="spilqr",
        description="Discrete-time LQR via scaling policy iteration",
        epilog="params.tol is relative: each solve stops at ||P_k - P_k-1||_F"
               " max(1, q/(1-q)) <= tol ||P_k||_F, q < 1 the step ratio.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, seed=False):
        p = sub.add_parser(name, help=summary, epilog=parser.epilog)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True,
                       help="path to the JSON experiment config")
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        return p

    command("solve", cmd_solve, "run a solver and write its report",
            seed=True).add_argument(
        "--solver", choices=SOLVERS, default=None,
        help="override the config solver selection")
    command("discretize", cmd_discretize,
            "zero-order-hold discretize a continuous plant")
    command("simulate", cmd_simulate, "roll out a trajectory to CSV")
    command("compare", cmd_compare, "multi-trial solver comparison table",
            seed=True)
    p = sub.add_parser("plotdata",
                       help="extract convergence curves from a report")
    p.set_defaults(run=cmd_plotdata)
    p.add_argument("--report", required=True, help="path to a report.json")
    p.add_argument("--out", default=".")
    return parser


def main(argv=None):
    level = os.environ.get("SPI_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:   # a file is in the way
        print(f"config error: cannot create output directory {args.out}: "
              f"{exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.run(args)
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
