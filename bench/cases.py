"""Workload inputs and the correctness check.

Every input is drawn here from ``numpy.random.default_rng((seed, workload,
op))`` with numpy and scipy only: no spilqr generator, simulator or probing
input is used, so a change to the library cannot change what it is fed.
Cases are never filtered by how a solver fares on them.  The reference
``P*`` of every case is ``scipy.linalg.solve_discrete_are``, computed while
the case is generated, outside the timed region.

A workload is an object with

* ``case(rng, u, i)`` -- build op ``i``'s inputs and reference from its
  generator and two stratifying uniforms ``u`` (see :func:`op_inputs`);
* ``call(case)`` -- the timed op, calling only public spilqr functions;
* ``answer(case, raw)`` -- untimed: the ``P`` the op returned, or raise
  :class:`OpFailed` for an op that reported failure (nonzero exit code).

Cases are built before the timed loop and may be run more than once, so
``call`` must leave a case as it found it.
"""

import contextlib
import csv
import io
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from spilqr import cli, lti, model_based, model_free

# An answer further than this (relative Frobenius norm) from P* is wrong.
REL_TOL = 1e-6
# A reference whose Riccati residual exceeds this share of ||P*|| is not
# trusted; the run stops rather than judge solvers against it.
REF_RESIDUAL_TOL = 1e-8
SOLVE_TOL = 1e-8
# Closed-loop spectral radius of every non-Hewer starting gain.
GAIN_RHO = (0.5, 3.0)


class OpFailed(Exception):
    """An op reported failure without raising (CLI nonzero exit)."""


class BadReference(RuntimeError):
    """The reference solution of a case could not be computed or trusted."""


# ---------------------------------------------------------------------------
# the check

def relative_error(P, P_ref):
    P = np.asarray(P, dtype=float)
    if P.shape != P_ref.shape or not np.all(np.isfinite(P)):
        return float("inf")
    return float(np.linalg.norm(P - P_ref) / np.linalg.norm(P_ref))


def verdict(workload, case, raw):
    """Judge one op: ``("ok" | "wrong" | "error", detail)``.

    ``raw`` is what ``workload.call`` returned, or the exception it
    raised; a raised exception and an :class:`OpFailed` both count as
    ``error``.
    """
    if isinstance(raw, Exception):
        return "error", type(raw).__name__
    try:
        P = workload.answer(case, raw)
    except OpFailed as exc:
        return "error", str(exc)
    if P is None:  # nothing to compare: answer() checked the output itself
        return "ok", ""
    err = relative_error(P, case.P_ref)
    if err > REL_TOL:
        return "wrong", f"relative error {err:.3g}"
    return "ok", ""


# ---------------------------------------------------------------------------
# generators (numpy/scipy only)

def spectral_radius(M):
    return float(np.abs(np.linalg.eigvals(M)).max())


def is_controllable(A, B):
    """Popov-Belevitch-Hautus test, one eigenvalue at a time."""
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        s = np.linalg.svd(np.hstack([A - lam * np.eye(n), B]),
                          compute_uv=False)
        if s[-1] <= 1e-10 * s[0]:
            return False
    return True


def random_plant(rng, n, m, rho):
    """Gaussian (A, B), A rescaled to spectral radius ``rho``; redrawn
    until controllable."""
    while True:
        A = rng.standard_normal((n, n))
        A *= rho / spectral_radius(A)
        B = rng.standard_normal((n, m))
        if is_controllable(A, B):
            return A, B


def random_gain(rng, A, B, target, rho_range=GAIN_RHO, candidates=8):
    """Of ``candidates`` gains ``s G`` (Gaussian G, s ~ U(0, 6), redrawn
    until the closed-loop spectral radius lies in ``rho_range``), the one
    whose radius is closest to ``target``."""
    best, best_gap = None, np.inf
    for _ in range(candidates):
        while True:
            K = rng.uniform(0.0, 6.0) * rng.standard_normal(
                (B.shape[1], A.shape[0]))
            rho = spectral_radius(A - B @ K)
            if rho_range[0] <= rho <= rho_range[1]:
                break
        if abs(rho - target) < best_gap:
            best, best_gap = K, abs(rho - target)
    return best


def stabilizing_gain(rng, A, B, K_opt):
    """``K* + E`` with a random E halved until ``A - B K0`` is Schur
    stable (Hewer's method needs a stabilizing start)."""
    E = rng.standard_normal(K_opt.shape) * np.linalg.norm(K_opt)
    E *= rng.uniform(0.2, 1.0)
    while spectral_radius(A - B @ (K_opt + E)) >= 1.0:
        E /= 2.0
    return K_opt + E


def reference(A, B, Q, R):
    """``(P*, K*)`` from scipy, with its Riccati residual checked."""
    try:
        P = scipy.linalg.solve_discrete_are(A, B, Q, R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise BadReference(f"solve_discrete_are failed: {exc}") from exc
    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    res = A.T @ P @ A - P - A.T @ P @ B @ K + Q
    if not np.linalg.norm(res) <= REF_RESIDUAL_TOL * np.linalg.norm(P):
        raise BadReference("reference P* fails its own Riccati residual")
    return P, K


def probing_trajectory(rng, A, B, length, num_terms=100):
    """States and inputs of a rollout under a per-channel sum of
    ``num_terms`` sinusoids with frequencies drawn from U(-10, 10)."""
    n, m = B.shape
    omega = rng.uniform(-10.0, 10.0, size=(m, num_terms))
    U = np.sin(omega[None, :, :] * np.arange(length)[:, None, None]).sum(2)
    X = np.empty((length + 1, n))
    X[0] = rng.standard_normal(n)
    for k in range(length):
        X[k + 1] = A @ X[k] + B @ U[k]
    return X, U


def zoh(A_c, B_c, T):
    """Zero-order-hold discretization via one augmented exponential."""
    n, m = B_c.shape
    M = np.zeros((n + m, n + m))
    M[:n, :n], M[:n, n:] = A_c, B_c
    E = scipy.linalg.expm(M * T)
    return E[:n, :n], E[:n, n:]


# Op i's two stratifying uniforms: the R2 low-discrepancy sequence from a
# per-seed offset.  Each run then covers the open-loop and start-gain radius
# ranges almost evenly, so run-to-run spread comes from the plants drawn,
# not from how many hard starts one seed happened to get.
_PLASTIC = 1.32471795724474602596
R2_STEP = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2])
WARMUP_STRATA = np.array([0.5, 0.5])


def op_inputs(seed, workload_index, i):
    """``(rng, u)`` for op ``i``: its own generator and two uniforms."""
    u0 = np.random.default_rng([seed, workload_index, 2]).uniform(size=2)
    return (np.random.default_rng([seed, workload_index, 0, i]),
            (u0 + (i + 1) * R2_STEP) % 1.0)


def warmup_inputs(seed, workload_index):
    return np.random.default_rng([seed, workload_index, 1]), WARMUP_STRATA


def _between(lo_hi, u):
    return lo_hi[0] + u * (lo_hi[1] - lo_hi[0])


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Case:
    P_ref: np.ndarray | None  # None: answer() checks the output itself
    args: dict


def _unit_weights(n, m):
    return lti.CostWeights(np.eye(n), np.eye(m))


class MbDense:
    """Model-based SPI on a random n=20, m=2 plant from a gain with
    closed-loop radius in [0.5, 3]."""

    name = "mb-dense"
    n, m, rho_range = 20, 2, (0.4, 1.15)

    def case(self, rng, u, i):
        A, B = random_plant(rng, self.n, self.m,
                            _between(self.rho_range, u[0]))
        K0 = random_gain(rng, A, B, _between(GAIN_RHO, u[1]))
        P_ref, _ = reference(A, B, np.eye(self.n), np.eye(self.m))
        return Case(P_ref, {"sys": lti.LinearSystem(A, B),
                            "weights": _unit_weights(self.n, self.m),
                            "K0": K0})

    def call(self, case):
        a = case.args
        return model_based.spi_model_based(a["sys"], a["weights"], a["K0"],
                                           tol=SOLVE_TOL)

    def answer(self, case, report):
        return report.solution.P


class MfLong:
    """Data-driven SPI from one 220-transition recording of a random
    n=8, m=2 plant (four samples per regression unknown)."""

    name = "mf-long"
    n, m, rho_range = 8, 2, (0.4, 1.05)
    # Four samples per unknown: packed P (36), M (16) and packed L (3).
    length = 4 * (n * (n + 1) // 2 + n * m + m * (m + 1) // 2)

    def case(self, rng, u, i):
        A, B = random_plant(rng, self.n, self.m,
                            _between(self.rho_range, u[0]))
        K0 = random_gain(rng, A, B, _between(GAIN_RHO, u[1]))
        X, U = probing_trajectory(rng, A, B, self.length)
        P_ref, _ = reference(A, B, np.eye(self.n), np.eye(self.m))
        return Case(P_ref, {"traj": lti.Trajectory(X, U), "K0": K0,
                            "weights": _unit_weights(self.n, self.m)})

    def call(self, case):
        a = case.args
        data = model_free.build_regression_data(a["traj"])
        return model_free.spi_model_free(data, a["K0"], a["weights"],
                                         tol=SOLVE_TOL)

    def answer(self, case, report):
        return report.solution.P


# Power-plant parameters (governor, turbine, generator); each case scales
# every one by an independent factor drawn from U(0.8, 1.2).
POWER_NOMINAL = {"T_g": 0.08, "T_t": 0.1, "T_p": 20.0, "R_g": 2.5,
                 "K_p": 120.0, "K_t": 1.0}
POWER_SAMPLE_TIME = 0.01
COMPARE_TRIALS = 2
SOLVE_COMMANDS = ("spi-model-based", "spi-model-free", "vi", "hewer")


class PowerCli:
    """In-process ``spilqr`` CLI runs on generated power-plant configs.

    Ops rotate through ``solve`` with each solver and one ``compare``
    over all four.  Configs and outputs go under ``workdir``.
    """

    name = "power-cli"
    commands = SOLVE_COMMANDS + ("compare",)

    def __init__(self, workdir):
        self.workdir = workdir
        self.out = os.path.join(workdir, "out")
        self.configs = 0

    def case(self, rng, u, i):
        p = {k: v * rng.uniform(0.8, 1.2) for k, v in POWER_NOMINAL.items()}
        A_c = np.array([
            [-1.0 / p["T_g"], 0.0, 1.0 / (p["R_g"] * p["T_g"])],
            [p["K_t"] / p["T_t"], -1.0 / p["T_t"], 0.0],
            [0.0, p["K_p"] / p["T_p"], -1.0 / p["T_p"]],
        ])
        B_c = np.array([[0.0], [1.0 / p["T_g"]], [0.0]])
        A, B = zoh(A_c, B_c, POWER_SAMPLE_TIME)
        P_ref, K_opt = reference(A, B, np.eye(3), np.eye(1))
        command = self.commands[i % len(self.commands)]
        K0 = (stabilizing_gain(rng, A, B, K_opt) if command == "hewer"
              else random_gain(rng, A, B, _between(GAIN_RHO, u[1])))
        cfg = {
            "system": {"A_c": A_c.tolist(), "B_c": B_c.tolist(),
                       "sample_time": POWER_SAMPLE_TIME},
            "weights": {"Q": np.eye(3).tolist(), "R": [[1.0]]},
            "seed": int(rng.integers(2**31)),
            "params": {"K0": K0.tolist(), "tol": SOLVE_TOL,
                       "data": {"x0": rng.uniform(-0.2, 0.2, 3).tolist()}},
        }
        if command == "compare":
            cfg["compare"] = {"solvers": list(SOLVE_COMMANDS),
                              "trials": COMPARE_TRIALS}
            argv = ["compare"]
        else:
            cfg["solver"] = command
            argv = ["solve"]
        # Each case keeps its own config, so a run can hold them all.
        path = os.path.join(self.workdir, f"config-{self.configs}.json")
        self.configs += 1
        with open(path, "w") as f:
            json.dump(cfg, f)
        argv += ["--config", path, "--out", self.out]
        return Case(P_ref if command != "compare" else None,
                    {"argv": argv, "command": command})

    def call(self, case):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(case.args["argv"])

    def answer(self, case, rc):
        """Judge the outputs, then delete them so that the next op cannot
        be judged on a stale file."""
        try:
            return self._read_answer(case, rc)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _read_answer(self, case, rc):
        command = case.args["command"]
        if rc != 0:
            raise OpFailed(f"{command} exit code {rc}")
        try:
            if command != "compare":
                with open(os.path.join(self.out, "report.json")) as f:
                    return np.array(json.load(f)["P"], dtype=float)
            with open(os.path.join(self.out, "comparison.csv")) as f:
                rows = {r["solver"]: r for r in csv.DictReader(f)}
        except (OSError, ValueError, KeyError) as exc:
            raise OpFailed(f"{command} exited 0 without a readable "
                           f"output: {exc}") from exc
        if set(rows) != set(SOLVE_COMMANDS) or any(
                int(r["trials"]) != COMPARE_TRIALS for r in rows.values()):
            raise OpFailed(f"comparison.csv rows are wrong: {sorted(rows)}")
        # Compare starts from gains that need not stabilize the plant, so
        # only Hewer's method may fail there.
        failing = [name for name, r in rows.items()
                   if name != "hewer" and int(r["failures"]) != 0]
        if failing:
            raise OpFailed(f"compare: {', '.join(failing)} failed")
        return None


def make(name, workdir):
    if name == MbDense.name:
        return MbDense()
    if name == MfLong.name:
        return MfLong()
    if name == PowerCli.name:
        return PowerCli(workdir)
    raise ValueError(f"unknown workload {name!r}")
