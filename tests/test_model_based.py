import numpy as np
import pytest

from spilqr import lti, matkit, model_based, riccati
from spilqr.exceptions import (
    InvalidProblemError,
    MaxIterationsError,
    UnstableScaledSystemError,
)

from conftest import POWER_K_REF, POWER_P_REF

K0_ZERO = np.zeros((1, 3))


# The solver's divisor is b = rho(A - B K0) + beta, reported as report.b.

def test_choose_b_power_plant(power_system, power_weights):
    report = model_based.spi_model_based(power_system, power_weights,
                                         K0_ZERO, beta=1.0)
    assert report.b == matkit.spectral_radius(power_system.A) + 1.0
    assert report.b == pytest.approx(2.0176, abs=1e-3)


def test_choose_b_stable_loop():
    sys_d = lti.LinearSystem(np.diag([0.5, -0.1]), np.eye(2))
    weights = lti.CostWeights(np.eye(2), np.eye(2))
    report = model_based.spi_model_based(sys_d, weights, np.zeros((2, 2)),
                                         beta=1.0)
    assert report.b == pytest.approx(1.5)


def test_choose_b_always_shrinks_below_one(power_system, power_weights):
    rng = np.random.default_rng(30)
    for _ in range(20):
        K0 = rng.standard_normal((1, 3)) * rng.uniform(0, 5)
        report = model_based.spi_model_based(power_system, power_weights,
                                             K0, beta=0.31)
        F = power_system.A - power_system.B @ K0
        assert report.b == matkit.spectral_radius(F) + 0.31
        assert matkit.spectral_radius(F / report.b) < 1.0
        assert report.phase1_trace[0].rho_scaled < 1.0


def test_choose_b_rejects_nonpositive_beta(power_system, power_weights):
    for beta in (0.0, -0.5):
        with pytest.raises(InvalidProblemError):
            model_based.spi_model_based(power_system, power_weights,
                                        K0_ZERO, beta=beta)


@pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
def test_beta_refused_before_any_eigensolve(power_system, power_weights,
                                            monkeypatch, beta):
    calls = []
    for name in ("schur", "spectral_radius"):
        original = getattr(matkit, name)
        monkeypatch.setattr(matkit, name, lambda A, f=original:
                            calls.append(A) or f(A))
    with pytest.raises(InvalidProblemError, match="beta"):
        model_based.spi_model_based(power_system, power_weights, K0_ZERO,
                                    beta=beta)
    assert calls == []


def test_evaluation_at_zero_scale(power_system, power_weights):
    K = np.array([[0.2, -0.1, 0.4]])
    P = model_based.scaled_policy_evaluation(power_system, power_weights,
                                             K, 0.0)
    assert np.allclose(P, power_weights.Q + K.T @ power_weights.R @ K)


def test_evaluation_at_unit_scale_is_policy_evaluation(power_system,
                                                       power_weights,
                                                       power_oracle):
    P = model_based.scaled_policy_evaluation(power_system, power_weights,
                                             power_oracle.K, 1.0)
    A_cl = power_system.A - power_system.B @ power_oracle.K
    W = power_weights.Q + power_oracle.K.T @ power_weights.R @ power_oracle.K
    assert np.allclose(P, matkit.solve_discrete_lyapunov(A_cl, W),
                       atol=1e-12)


def test_evaluation_first_scaled_iterate(power_system, power_weights):
    cum = 1.0 / (matkit.spectral_radius(power_system.A) + 1.0)
    P = model_based.scaled_policy_evaluation(power_system, power_weights,
                                             K0_ZERO, cum)
    assert matkit.is_positive_definite(P)
    F = cum * power_system.A
    res = np.linalg.norm(F.T @ P @ F - P + power_weights.Q)
    assert res <= 1e-9 * (1.0 + np.linalg.norm(power_weights.Q))


def test_evaluation_rejects_unstable_scaling(power_system, power_weights):
    with pytest.raises(UnstableScaledSystemError):
        model_based.scaled_policy_evaluation(power_system, power_weights,
                                             K0_ZERO, 1.0)


def test_improvement_reduces_to_policy_improvement(power_system,
                                                   power_weights,
                                                   power_oracle):
    K = model_based.scaled_policy_improvement(power_system, power_weights,
                                              power_oracle.P, 1.0)
    expected = riccati.optimal_gain(power_system, power_weights,
                                    power_oracle.P)
    assert np.allclose(K, expected, atol=1e-12)


def test_improvement_zero_value_matrix(power_system, power_weights):
    K = model_based.scaled_policy_improvement(power_system, power_weights,
                                              np.zeros((3, 3)), 0.5)
    assert np.abs(K).max() == 0.0


def test_choose_c_interior_point(power_system, power_weights):
    # first scaling iteration of the benchmark run
    cum = 1.0 / (matkit.spectral_radius(power_system.A) + 1.0)
    P0 = model_based.scaled_policy_evaluation(power_system, power_weights,
                                              K0_ZERO, cum)
    K1 = model_based.scaled_policy_improvement(power_system, power_weights,
                                               P0, cum)
    headroom = 1.0 / matkit.spectral_radius(
        cum * (power_system.A - power_system.B @ K1))
    assert headroom == pytest.approx(1.9840, abs=1e-3)
    c = model_based.choose_c(power_system, K1, cum, lam=0.5)
    assert c == pytest.approx(1.4920, abs=1e-3)
    assert 1.0 < c < headroom


def test_choose_c_respects_interval(power_system, power_weights):
    cum = 1.0 / (matkit.spectral_radius(power_system.A) + 1.0)
    P0 = model_based.scaled_policy_evaluation(power_system, power_weights,
                                              K0_ZERO, cum)
    K1 = model_based.scaled_policy_improvement(power_system, power_weights,
                                               P0, cum)
    r = 1.0 / matkit.spectral_radius(
        cum * (power_system.A - power_system.B @ K1))
    for lam in (0.01, 0.3, 0.7, 0.99):
        c = model_based.choose_c(power_system, K1, cum, lam=lam)
        assert 1.0 < c < r


def test_choose_c_interval_collapses_near_unit_radius():
    # closed loop with radius 0.999 at scale 1: headroom barely above 1
    sys_d = lti.LinearSystem(np.diag([0.999, 0.1]), np.eye(2))
    c = model_based.choose_c(sys_d, np.zeros((2, 2)), 1.0, lam=0.5)
    assert 1.0 < c < 1.0 / 0.999


def test_choose_c_caps_the_headroom_of_a_nilpotent_loop():
    # rho(A - B K) = 0 leaves (1, inf) admissible; the factor stays finite
    sys_d = lti.LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]),
                             np.array([[0.0], [1.0]]))
    c = model_based.choose_c(sys_d, np.zeros((1, 2)), 0.5, lam=0.5)
    assert c == 1.0 + 0.5 * (riccati.MAX_HEADROOM - 1.0)


def test_choose_c_rejects_violated_invariant(power_system):
    with pytest.raises(UnstableScaledSystemError) as err:
        model_based.choose_c(power_system, K0_ZERO, 1.0, lam=0.5)
    assert err.value.rho == matkit.spectral_radius(power_system.A)


def test_choose_c_rejects_bad_lambda(power_system, power_oracle):
    with pytest.raises(InvalidProblemError):
        model_based.choose_c(power_system, power_oracle.K, 0.9, lam=1.0)


def test_solver_power_plant_reference(power_system, power_weights):
    report = model_based.spi_model_based(power_system, power_weights,
                                         K0_ZERO, tol=1e-5)
    assert np.abs(report.solution.P - POWER_P_REF).max() < 1e-3
    assert np.abs(report.solution.K - POWER_K_REF).max() < 1e-3
    assert report.b == pytest.approx(2.0176, abs=1e-3)
    assert report.solution.residual < 1e-4


def test_solver_trace_structure(power_system, power_weights):
    report = model_based.spi_model_based(power_system, power_weights,
                                         K0_ZERO, tol=1e-5)
    ihat = report.handoff_index
    assert len(report.phase1_trace) == ihat + 1
    assert report.handoff_state.cum >= 1.0
    assert report.handoff_state.P_tilde is None
    # scaling chain: every scaled loop stays Schur stable
    for s in report.phase1_trace:
        assert s.rho_scaled < 1.0
    # cumulative factor strictly increases through the scaling phase
    cums = [s.cum for s in report.phase1_trace]
    assert all(b > a for a, b in zip(cums, cums[1:]))
    # handoff gain stabilizes the true plant
    assert report.handoff_state.rho_closed < 1.0
    # factors are interior: c0 = 1, later ones exceed 1
    assert report.phase1_trace[0].c == 1.0
    assert all(s.c > 1.0 for s in report.phase1_trace[1:])


def test_solver_phase2_is_policy_iteration(power_system, power_weights):
    report = model_based.spi_model_based(power_system, power_weights,
                                         K0_ZERO, tol=1e-8)
    K_handoff = report.handoff_state.K_tilde
    pi = riccati.hewer_pi(power_system, power_weights, K_handoff, tol=1e-8)
    # both run the same model-based step: bit-identical iterates
    assert len(report.phase2_trace) == len(pi.trace)
    for s, (P, K) in zip(report.phase2_trace, pi.trace):
        assert np.array_equal(s.P_tilde, P)
        assert np.array_equal(s.K_tilde, K)
    assert np.array_equal(report.solution.P, pi.P)
    assert np.array_equal(report.solution.K, pi.K)


def test_solver_stable_start_still_converges(power_weights, power_oracle,
                                             power_system):
    # a stabilizing start still passes through the scaling phase
    # (the divisor exceeds 1 by construction) and reaches the optimum
    report = model_based.spi_model_based(power_system, power_weights,
                                         power_oracle.K, tol=1e-8)
    assert report.b > 1.0
    assert np.abs(report.solution.P - power_oracle.P).max() < 1e-6


def test_solver_random_corpus_matches_value_iteration(corpus):
    for case in corpus[:10]:
        report = model_based.spi_model_based(case["sys"], case["weights"],
                                             case["K0"], tol=1e-8)
        vi = riccati.value_iteration(case["sys"], case["weights"], tol=1e-12)
        assert np.abs(report.solution.P - vi.P).max() < 1e-5
        assert report.solution.residual < 1e-6


def test_solver_iteration_budget(power_system, power_weights):
    with pytest.raises(MaxIterationsError):
        model_based.spi_model_based(power_system, power_weights, K0_ZERO,
                                    i_max=1)


def test_solver_rejects_uncontrollable_plant(power_weights):
    sys_u = lti.LinearSystem(np.eye(3), np.array([[1.0], [0.0], [0.0]]))
    with pytest.raises(InvalidProblemError):
        model_based.spi_model_based(sys_u, power_weights, K0_ZERO)


def test_solver_rejects_unobservable_weights(power_system):
    weights = lti.CostWeights(np.zeros((3, 3)), np.eye(1))
    with pytest.raises(InvalidProblemError):
        model_based.spi_model_based(power_system, weights, K0_ZERO)


def test_gain_sequence_covers_all_updates(power_system, power_weights):
    report = model_based.spi_model_based(power_system, power_weights,
                                         K0_ZERO, tol=1e-6)
    gains = report.gain_sequence()
    assert len(gains) == report.handoff_index + len(report.phase2_trace)
    assert np.array_equal(gains[-1], report.solution.K)


def test_solver_trace_radii(power_system, power_weights):
    report = model_based.spi_model_based(power_system, power_weights,
                                         K0_ZERO, tol=1e-8)
    A, B = power_system.A, power_system.B
    for s in report.phase1_trace + report.phase2_trace:
        rho = matkit.spectral_radius(A - B @ s.K_tilde)
        assert s.rho_closed == pytest.approx(rho, rel=1e-12)
        assert s.rho_scaled == s.cum * s.rho_closed
    assert report.b == report.phase1_trace[0].rho_closed + 1.0


def test_solver_one_eigensolve_per_iteration(power_system, power_weights,
                                             monkeypatch):
    factored, radii = [], []
    schur, radius = matkit.schur, matkit.spectral_radius
    monkeypatch.setattr(matkit, "schur",
                        lambda F: factored.append(F) or schur(F))
    monkeypatch.setattr(matkit, "spectral_radius",
                        lambda A: radii.append(A) or radius(A))
    report = model_based.spi_model_based(power_system, power_weights,
                                         K0_ZERO, tol=1e-8)
    A, B = power_system.A, power_system.B
    # one Schur factorization per policy evaluation, of the evaluated
    # gain's closed loop, which also gives the record's radius and the
    # next factor; never the final gain's
    evaluated = [s.K_tilde for s in report.phase1_trace + report.phase2_trace
                 if s.P_tilde is not None]
    assert report.handoff_index >= 2
    assert len(factored) == len(evaluated) == report.solution.iterations
    for F, K in zip(factored, evaluated):
        assert np.array_equal(F, A - B @ K)
    assert not any(np.array_equal(F, A - B @ report.solution.K)
                   for F in factored)
    # one eigensolve per solve: the controllability test's rho(A); the
    # full-rank sqrt(Q) decides observability without one
    assert len(radii) == 1
    assert np.array_equal(radii[0], A)


def test_shared_factor_evaluation_matches_lyapunov_solve(corpus):
    # the step scales the Schur factor of A - BK by cum instead of
    # factoring cum (A - BK) again
    for case in corpus:
        sys_d, weights, K = case["sys"], case["weights"], case["K0"]
        F = sys_d.A - sys_d.B @ K
        W = weights.Q + K.T @ weights.R @ K
        factor = matkit.schur(F)
        for cum in (0.0, 0.5 / (factor[2] + 1.0), 0.9 / factor[2]):
            P = riccati._evaluate(factor, (W + W.T) / 2.0, cum)
            P_ref = matkit.solve_discrete_lyapunov(cum * F, W)
            assert np.linalg.norm(P - P_ref) \
                <= 1e-13 * np.linalg.norm(P_ref)
