"""Acceptance gate: one test per criterion, each printing a pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria 3-6 share one corpus of 50 random controllable systems with
destabilizing starting gains; every solver is run once per case and the
results are reused across the checks.
"""

import json
import time

import numpy as np
import pytest

from spilqr import cli, matkit, model_based, model_free, riccati

from conftest import POWER_K_REF, POWER_P_REF, vec, vecs

try:
    from test_cli import model_based_config, model_free_config, write_config
    from test_cli import DATA, SYSTEM_CONT, WEIGHTS
except ImportError:  # pragma: no cover - direct module execution
    from tests.test_cli import (model_based_config, model_free_config,
                                write_config, DATA, SYSTEM_CONT, WEIGHTS)


def check(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    """One run of every solver per corpus case, shared by criteria 3-6."""
    runs = []
    for case in corpus:
        sys_d, weights, K0 = case["sys"], case["weights"], case["K0"]
        mb = model_based.spi_model_based(sys_d, weights, K0, tol=1e-8)
        mf = model_free.spi_model_free(case["data"], K0, weights, tol=1e-8)
        vi = riccati.value_iteration(sys_d, weights, tol=1e-12)
        pi = riccati.hewer_pi(sys_d, weights, mb.handoff_state.K_tilde,
                              tol=1e-8)
        runs.append({"case": case, "mb": mb, "mf": mf, "vi": vi, "pi": pi})
    return runs


def test_criterion_1_power_plant_model_based(tmp_path):
    cfg = write_config(tmp_path / "c.json", model_based_config())
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    p_err = np.abs(np.asarray(report["P"]) - POWER_P_REF).max()
    k_err = np.abs(np.asarray(report["K"]) - POWER_K_REF).max()
    ok = (code == 0 and p_err < 1e-3 and k_err < 1e-3
          and report["wall_time_s"] < 1.0)
    check("criterion 1: model-based solve reproduces the benchmark optimum",
          ok, f"|P| err {p_err:.2e}, |K| err {k_err:.2e}, "
              f"{report['wall_time_s'] * 1e3:.0f} ms")


def test_criterion_2_power_plant_model_free(tmp_path):
    cfg = write_config(tmp_path / "c.json", model_free_config())
    t0 = time.perf_counter()
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    report = json.loads((tmp_path / "report.json").read_text())
    p_err = np.abs(np.asarray(report["P"]) - POWER_P_REF).max()
    k_err = np.abs(np.asarray(report["K"]) - POWER_K_REF).max()
    ok = (code == 0
          and report["b"] == pytest.approx(1.1)
          and report["probes"] == 2        # exactly one increment
          and p_err < 1e-3 and k_err < 1e-3
          and report["iterations"] <= 30
          and elapsed < 5.0)
    check("criterion 2: data-driven solve finds b = 1.1 and the optimum",
          ok, f"b {report['b']}, probes {report['probes']}, "
              f"{report['iterations']} iterations, |P| err {p_err:.2e}, "
              f"{elapsed:.2f} s")


def test_criterion_3_scaling_chain_invariants(corpus_runs):
    failures = []
    for idx, run in enumerate(corpus_runs):
        sys_d = run["case"]["sys"]
        for label in ("mb", "mf"):
            report = run[label]
            cums = [s.cum for s in report.phase1_trace]
            if any(b < a for a, b in zip(cums, cums[1:])):
                failures.append((idx, label, "cum decreased"))
            if report.handoff_state.cum < 1.0:
                failures.append((idx, label, "handoff below 1"))
            for s in report.phase1_trace:
                A_cl = sys_d.A - sys_d.B @ s.K_tilde
                if matkit.spectral_radius(s.cum * A_cl) >= 1.0:
                    failures.append((idx, label, f"scaled loop unstable "
                                                 f"at i={s.i}"))
                    break
            rho_handoff = matkit.spectral_radius(
                sys_d.A - sys_d.B @ report.handoff_state.K_tilde)
            if rho_handoff >= 1.0:
                failures.append((idx, label, "handoff gain not stabilizing"))
    check("criterion 3: scaling chain invariants on 50 random systems",
          not failures, f"failures: {failures[:5] if failures else 0}")


def test_criterion_4_oracle_equivalence(corpus_runs):
    worst_gap = 0.0
    worst_res = 0.0
    for run in corpus_runs:
        sys_d, weights = run["case"]["sys"], run["case"]["weights"]
        finals = [run["mb"].solution.P, run["mf"].solution.P,
                  run["pi"].P, run["vi"].P]
        for i in range(len(finals)):
            for j in range(i + 1, len(finals)):
                gap = np.linalg.norm(finals[i] - finals[j], "fro")
                worst_gap = max(worst_gap, gap)
        for P in finals:
            worst_res = max(worst_res,
                            riccati.are_residual(sys_d, weights, P))
    ok = worst_gap < 1e-5 and worst_res < 1e-6
    check("criterion 4: all four solution routes agree pairwise",
          ok, f"worst pairwise gap {worst_gap:.2e}, "
              f"worst residual {worst_res:.2e}")


def test_criterion_5_regression_identity(corpus_runs):
    worst_row = 0.0
    worst_rec = 0.0
    perturbations_ok = True
    rng = np.random.default_rng(808)
    for idx, run in enumerate(corpus_runs):
        case = run["case"]
        sys_d, weights, data = case["sys"], case["weights"], case["data"]
        K0 = case["K0"]
        cum = 1.0 / run["mb"].b
        P = model_based.scaled_policy_evaluation(sys_d, weights, K0, cum)
        M = sys_d.A.T @ P @ sys_d.B
        L = sys_d.B.T @ P @ sys_d.B
        z = np.concatenate([vecs(P), vec(M), vecs(L)])
        theta, gamma = model_free.assemble_theta_gamma(data, K0, cum,
                                                       weights)
        worst_row = max(worst_row, np.abs(theta @ z + gamma).max())
        sol = model_free.solve_regression(theta, gamma, data.n, data.m)
        for got, true in ((sol.P, P), (sol.M, M), (sol.L, L)):
            rec = np.abs(got - true).max() / (1.0 + np.abs(true).max())
            worst_rec = max(worst_rec, rec)
        if idx < 10:  # 10 cases x 10 perturbations = 100 uniqueness checks
            base = np.linalg.norm(theta @ z + gamma)
            for _ in range(10):
                dz = rng.standard_normal(z.size)
                dz *= rng.uniform(1e-3, 1.0) / np.linalg.norm(dz)
                if np.linalg.norm(theta @ (z + dz) + gamma) <= base:
                    perturbations_ok = False
    ok = worst_row < 1e-8 and worst_rec < 1e-6 and perturbations_ok
    check("criterion 5: trajectory identity and unique regression recovery",
          ok, f"worst row residual {worst_row:.2e}, worst recovery "
              f"{worst_rec:.2e}, uniqueness {perturbations_ok}")


def test_criterion_6_monotone_value_sequence(corpus_runs):
    worst_step = np.inf
    worst_above = np.inf
    for run in corpus_runs:
        P_star = run["vi"].P
        for trace in (run["pi"].trace,
                      [(s.P_tilde, s.K_tilde) for s in
                       run["mb"].phase2_trace]):
            for (P_a, _), (P_b, _) in zip(trace, trace[1:]):
                worst_step = min(worst_step,
                                 np.linalg.eigvalsh(P_a - P_b).min())
            for P_i, _ in trace:
                worst_above = min(worst_above,
                                  np.linalg.eigvalsh(P_i - P_star).min())
    ok = worst_step >= -1e-8 and worst_above >= -1e-8
    check("criterion 6: policy-iteration value sequence decreases to the "
          "optimum", ok,
          f"min step eigenvalue {worst_step:.2e}, "
          f"min excess eigenvalue {worst_above:.2e}")


def test_criterion_7_comparison_harness(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "system": SYSTEM_CONT, "weights": WEIGHTS, "seed": 2024,
        "params": {"b_init": 1.0, "delta": {"rate": 0.7}, "data": DATA},
        "compare": {"solvers": ["spi-model-free", "vi"], "trials": 100,
                    "gain_tol": 1e-4}})
    t0 = time.perf_counter()
    code = cli.main(["compare", "--config", cfg, "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    rows = (tmp_path / "comparison.csv").read_text().strip().splitlines()
    table = {r.split(",")[0]: r.split(",") for r in rows[1:]}
    spi_iters = float(table["spi-model-free"][3])
    vi_iters = float(table["vi"][3])
    failures = int(table["spi-model-free"][2]) + int(table["vi"][2])
    ok = (code == 0 and failures == 0 and vi_iters >= 5.0 * spi_iters
          and elapsed < 60.0)
    check("criterion 7: value iteration needs at least 5x more iterations",
          ok, f"vi {vi_iters:.1f} vs spi {spi_iters:.1f} "
              f"({vi_iters / spi_iters:.1f}x), {elapsed:.1f} s")


def test_criterion_8_kernel_property_sweep():
    rng = np.random.default_rng(4242)
    quad_ok = kron_ok = lyap_ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 5))
        G = rng.standard_normal((n, n))
        S = G + G.T
        x = rng.standard_normal(n)
        lhs = model_free._vecv_rows(x[None])[0] @ vecs(S)
        rhs = x @ S @ x
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            quad_ok = False
            break
    for _ in range(10_000):
        n = int(rng.integers(2, 5))
        x = rng.standard_normal(n)
        M = rng.standard_normal((n, n))
        lhs = model_free._row_kron(x[None], x[None])[0] @ vec(M)
        rhs = x @ M @ x
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            kron_ok = False
            break
    for _ in range(10_000):
        n = int(rng.integers(2, 5))
        F = rng.standard_normal((n, n))
        F *= rng.uniform(0.05, 0.97) / matkit.spectral_radius(F)
        G = rng.standard_normal((n, n))
        W = G + G.T
        P = matkit.solve_discrete_lyapunov(F, W)
        res = np.linalg.norm(F.T @ P @ F - P + W)
        if res > 1e-9 * (1.0 + np.linalg.norm(W)):
            lyap_ok = False
            break
    ok = quad_ok and kron_ok and lyap_ok
    check("criterion 8: 10^4 randomized kernel property checks each",
          ok, f"quadratic-form {quad_ok}, kronecker {kron_ok}, "
              f"lyapunov {lyap_ok}")
