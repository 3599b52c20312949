import numpy as np
import pytest

from spilqr import lti, matkit, model_based, model_free, riccati
from spilqr.exceptions import (
    InsufficientSamplesError,
    InvalidProblemError,
    ProbesExhaustedError,
    RankDeficientError,
)

from conftest import POWER_K_REF, POWER_P_REF

K0_ZERO = np.zeros((1, 3))


def test_build_blocks_scalar_hand_example():
    # hand-computable scalar blocks; the third transition only satisfies
    # the minimum-sample precondition (3 unknowns for n = m = 1)
    traj = lti.Trajectory(states=[[1.0], [2.0], [4.0], [8.0]],
                          inputs=[[1.0], [2.0], [4.0]])
    data = model_free.build_regression_data(traj)
    assert np.array_equal(data.d_x[:2], [[1.0], [4.0]])
    assert np.array_equal(data.D_x[:2], [[4.0], [16.0]])
    assert np.array_equal(data.delta_ux[:2], [[1.0], [4.0]])
    assert np.array_equal(data.d_u[:2], [[1.0], [4.0]])
    assert np.array_equal(data.delta_xx[:2], [[1.0], [4.0]])


def test_build_blocks_shapes(power_data):
    assert data_shapes(power_data) == \
        ((30, 9), (30, 3), (30, 6), (30, 6), (30, 1))


def data_shapes(data):
    return (data.delta_xx.shape, data.delta_ux.shape, data.d_x.shape,
            data.D_x.shape, data.d_u.shape)


def test_build_blocks_quadratic_form_rows(power_data):
    rng = np.random.default_rng(40)
    M = rng.standard_normal((3, 3))
    for k in (0, 7, 29):
        x = power_data.states[k]
        got = power_data.delta_xx[k] @ matkit.vec(M)
        assert got == pytest.approx(x @ M @ x, rel=1e-12, abs=1e-12)


def test_build_blocks_rejects_short_trajectory():
    traj = lti.Trajectory(states=np.ones((5, 3)), inputs=np.ones((4, 1)))
    with pytest.raises(InsufficientSamplesError):
        model_free.build_regression_data(traj)


def test_rank_condition_target_count():
    assert model_free.unknown_count(3, 1) == 10
    assert model_free.unknown_count(4, 2) == 21


def test_rank_condition_power_data(power_data):
    assert model_free.check_rank_condition(power_data)


def test_rank_condition_degenerate_data():
    traj = lti.Trajectory(states=np.zeros((31, 3)), inputs=np.zeros((30, 1)))
    data = model_free.build_regression_data(traj)
    assert not model_free.check_rank_condition(data)


def _true_blocks(sys_d, weights, K, cum):
    """Model-based evaluation of the regression unknowns."""
    P = model_based.scaled_policy_evaluation(sys_d, weights, K, cum)
    return P, sys_d.A.T @ P @ sys_d.B, sys_d.B.T @ P @ sys_d.B


def test_theta_gamma_zero_gain_structure(power_data, power_weights):
    cum = 0.5
    theta, gamma = model_free.assemble_theta_gamma(power_data, K0_ZERO, cum,
                                                   power_weights)
    assert theta.shape == (30, 10)
    # with a zero gain the middle block reduces to the input-state rows
    # and the last block to the input monomials
    assert np.allclose(theta[:, 6:9], -2 * cum**2 * power_data.delta_ux)
    assert np.allclose(theta[:, 9:], -cum**2 * power_data.d_u)
    assert np.allclose(gamma, power_data.delta_xx @ matkit.vec(
        power_weights.Q))


def test_theta_gamma_rowwise_identity(power_system, power_weights,
                                      power_data):
    # the evaluation identity holds sample by sample at the true blocks
    b = model_based.choose_b(power_system, K0_ZERO, beta=1.0)
    cum = 1.0 / b
    P, M, L = _true_blocks(power_system, power_weights, K0_ZERO, cum)
    z = np.concatenate([matkit.vecs(P), matkit.vec(M), matkit.vecs(L)])
    theta, gamma = model_free.assemble_theta_gamma(power_data, K0_ZERO, cum,
                                                   power_weights)
    assert np.abs(theta @ z + gamma).max() < 1e-8


def test_regression_recovers_true_blocks(power_system, power_weights,
                                         power_data):
    b = model_based.choose_b(power_system, K0_ZERO, beta=1.0)
    cum = 1.0 / b
    P, M, L = _true_blocks(power_system, power_weights, K0_ZERO, cum)
    theta, gamma = model_free.assemble_theta_gamma(power_data, K0_ZERO, cum,
                                                   power_weights)
    sol = model_free.solve_regression(theta, gamma, 3, 1)
    assert np.abs(sol.P - P).max() < 1e-6 * (1 + np.abs(P).max())
    assert np.abs(sol.M - M).max() < 1e-6 * (1 + np.abs(M).max())
    assert np.abs(sol.L - L).max() < 1e-6 * (1 + np.abs(L).max())


def test_regression_at_unit_scale_matches_lyapunov(power_system,
                                                   power_weights,
                                                   power_oracle,
                                                   power_data):
    K = power_oracle.K
    theta, gamma = model_free.assemble_theta_gamma(power_data, K, 1.0,
                                                   power_weights)
    sol = model_free.solve_regression(theta, gamma, 3, 1)
    A_cl = power_system.A - power_system.B @ K
    W = power_weights.Q + K.T @ power_weights.R @ K
    P_lyap = matkit.solve_discrete_lyapunov(A_cl, W)
    assert np.abs(sol.P - P_lyap).max() < 1e-6


def test_regression_identity_solve():
    sol = model_free.solve_regression(np.eye(6), -np.eye(6)[0], 2, 1)
    assert sol.P[0, 0] == 1.0
    assert np.abs(sol.P).sum() == 1.0
    assert np.abs(sol.M).max() == 0.0
    assert np.abs(sol.L).max() == 0.0


def test_regression_rejects_rank_deficiency():
    theta = np.zeros((12, 6))
    with pytest.raises(RankDeficientError):
        model_free.solve_regression(theta, np.zeros(12), 2, 1)


def test_regression_uniqueness_by_perturbation(power_system, power_weights,
                                               power_data):
    # any nonzero perturbation of the solution strictly increases the
    # residual (least-squares at an interpolating optimum)
    b = model_based.choose_b(power_system, K0_ZERO, beta=1.0)
    cum = 1.0 / b
    theta, gamma = model_free.assemble_theta_gamma(power_data, K0_ZERO, cum,
                                                   power_weights)
    sol = model_free.solve_regression(theta, gamma, 3, 1)
    z = np.concatenate([matkit.vecs(sol.P), matkit.vec(sol.M),
                        matkit.vecs(sol.L)])
    base = np.linalg.norm(theta @ z + gamma)
    rng = np.random.default_rng(41)
    for _ in range(100):
        dz = rng.standard_normal(z.size)
        dz *= rng.uniform(1e-4, 1.0) / np.linalg.norm(dz)
        perturbed = np.linalg.norm(theta @ (z + dz) + gamma)
        assert perturbed > base


def test_gain_update_zero_cross_term(power_weights):
    sol = model_free.RegressionSolution(P=np.eye(3), M=np.zeros((3, 1)),
                                        L=np.eye(1))
    K = model_free.model_free_gain_update(sol, power_weights, 0.7)
    assert np.abs(K).max() == 0.0


def test_gain_update_unit_scale_reduction(power_system, power_weights,
                                          power_oracle):
    P = power_oracle.P
    sol = model_free.RegressionSolution(
        P=P, M=power_system.A.T @ P @ power_system.B,
        L=power_system.B.T @ P @ power_system.B)
    K = model_free.model_free_gain_update(sol, power_weights, 1.0)
    expected = riccati.optimal_gain(power_system, power_weights, P)
    assert np.allclose(K, expected, atol=1e-12)


def test_gain_update_matches_model_based(power_system, power_weights,
                                         power_data):
    b = model_based.choose_b(power_system, K0_ZERO, beta=1.0)
    cum = 1.0 / b
    theta, gamma = model_free.assemble_theta_gamma(power_data, K0_ZERO, cum,
                                                   power_weights)
    sol = model_free.solve_regression(theta, gamma, 3, 1)
    K_data = model_free.model_free_gain_update(sol, power_weights, cum)
    P_true = model_based.scaled_policy_evaluation(power_system, power_weights,
                                                  K0_ZERO, cum)
    K_true = model_based.scaled_policy_improvement(power_system,
                                                   power_weights, P_true, cum)
    assert np.abs(K_data - K_true).max() < 1e-6


def test_search_b_power_plant(power_data, power_weights, power_system):
    found = model_free.search_b(power_data, K0_ZERO, power_weights,
                                b_init=1.0, delta=0.1)
    assert found.b == pytest.approx(1.1)
    assert found.probes == 2  # the initial candidate failed once
    assert matkit.is_positive_definite(found.solution.P)
    # checked against the plant the solver never saw
    rho = matkit.spectral_radius(power_system.A / found.b)
    assert rho < 1.0


def test_search_b_stable_plant_needs_no_increment():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((3, 3))
    A *= 0.8 / matkit.spectral_radius(A)
    sys_d = lti.LinearSystem(A, rng.standard_normal((3, 1)))
    weights = lti.CostWeights(np.eye(3), np.eye(1))
    traj = lti.simulate(sys_d, rng.uniform(-0.5, 0.5, 3),
                        lti.exploration_input(1, seed=5), 30)
    data = model_free.build_regression_data(traj)
    found = model_free.search_b(data, np.zeros((1, 3)), weights, b_init=1.0)
    assert found.b == 1.0
    assert found.probes == 1


def test_search_b_growing_schedule(power_data, power_weights):
    found = model_free.search_b(power_data, K0_ZERO, power_weights,
                                b_init=1.0, delta=lambda i: 0.7 * i)
    assert found.b == pytest.approx(1.7)
    assert found.probes == 2


def test_search_b_monotone_in_divisor(power_data, power_weights, corpus):
    # once a divisor works, every larger probe works too
    def pd_at(data, K0, weights, b):
        theta, gamma = model_free.assemble_theta_gamma(data, K0, 1.0 / b,
                                                       weights)
        sol = model_free.solve_regression(theta, gamma, data.n, data.m)
        return matkit.is_positive_definite(sol.P)

    found = model_free.search_b(power_data, K0_ZERO, power_weights)
    for extra in (0.1, 0.2, 0.5, 2.0):
        assert pd_at(power_data, K0_ZERO, power_weights, found.b + extra)
    for case in corpus[:8]:
        found = model_free.search_b(case["data"], case["K0"],
                                    case["weights"])
        for extra in (0.1, 1.0):
            assert pd_at(case["data"], case["K0"], case["weights"],
                         found.b + extra)


def test_theta_full_column_rank_when_excited(power_system, power_weights,
                                             power_data):
    # excitation plus a stable scaled loop makes the regressor injective
    b = model_based.choose_b(power_system, K0_ZERO, beta=1.0)
    theta, _ = model_free.assemble_theta_gamma(power_data, K0_ZERO, 1.0 / b,
                                               power_weights)
    assert matkit.numerical_rank(theta, 1e-10) == theta.shape[1]
    assert matkit.min_singular_value(theta) > 1e-8


def test_search_b_exhausts_probes(power_data, power_weights):
    with pytest.raises(ProbesExhaustedError):
        model_free.search_b(power_data, 100.0 * np.ones((1, 3)),
                            power_weights, b_init=1.0, delta=1e-6,
                            max_probes=3)


def test_scaling_bound_singular_gate(power_weights):
    # P equal to Q makes the gate exactly zero: no usable headroom
    sb = model_free.scaling_bound(np.eye(3), K0_ZERO, power_weights)
    assert not sb.invertible
    assert sb.bound is None
    assert model_free.choose_c_model_free(np.eye(3), K0_ZERO,
                                          power_weights) == 1.0


def test_choose_c_first_benchmark_iteration(power_system, power_weights,
                                            power_data):
    # reproduce the first data-driven scaling decision of the benchmark
    found = model_free.search_b(power_data, K0_ZERO, power_weights,
                                b_init=1.0, delta=0.1)
    cum = 1.0 / found.b
    K1 = model_free.model_free_gain_update(found.solution, power_weights,
                                           cum)
    sb = model_free.scaling_bound(found.solution.P, K1, power_weights)
    assert sb.invertible
    assert sb.bound == pytest.approx(1.0862, abs=1e-3)
    assert sb.sigma_min == pytest.approx(1.4659, abs=1e-3)
    c = model_free.choose_c_model_free(found.solution.P, K1, power_weights)
    assert 1.0 < c < sb.bound


def test_choose_c_interval_property(power_system, power_weights, power_data):
    found = model_free.search_b(power_data, K0_ZERO, power_weights)
    cum = 1.0 / found.b
    K1 = model_free.model_free_gain_update(found.solution, power_weights,
                                           cum)
    sb = model_free.scaling_bound(found.solution.P, K1, power_weights)
    for lam in (0.05, 0.5, 0.95):
        c = model_free.choose_c_model_free(found.solution.P, K1,
                                           power_weights, lam=lam)
        assert 1.0 < c < sb.bound


def test_choose_c_rejects_bad_lambda(power_weights):
    with pytest.raises(InvalidProblemError):
        model_free.choose_c_model_free(2 * np.eye(3), K0_ZERO, power_weights,
                                       lam=0.0)


def test_solver_power_plant_reference(power_data, power_weights):
    report = model_free.spi_model_free(power_data, K0_ZERO, power_weights,
                                       b_init=1.0, delta=0.1, tol=1e-5)
    assert report.b == pytest.approx(1.1)
    assert report.probes == 2
    assert np.abs(report.solution.P - POWER_P_REF).max() < 1e-3
    assert np.abs(report.solution.K - POWER_K_REF).max() < 1e-3
    assert report.solution.residual is None


def test_solver_scaling_chain_against_hidden_model(power_system,
                                                   power_weights,
                                                   power_data):
    # the solver never touches (A, B); the stability chain it promises
    # is verified here against the plant that generated the data
    report = model_free.spi_model_free(power_data, K0_ZERO, power_weights,
                                       tol=1e-5)
    for s in report.phase1_trace:
        A_cl = power_system.A - power_system.B @ s.K_tilde
        assert matkit.spectral_radius(s.cum * A_cl) < 1.0
    handoff = report.handoff_state
    assert handoff.cum >= 1.0
    rho = matkit.spectral_radius(
        power_system.A - power_system.B @ handoff.K_tilde)
    assert rho < 1.0
    cums = [s.cum for s in report.phase1_trace]
    assert all(b >= a for a, b in zip(cums, cums[1:]))


def test_solver_loop2_matches_policy_iteration(power_system, power_weights,
                                               power_data):
    report = model_free.spi_model_free(power_data, K0_ZERO, power_weights,
                                       tol=1e-6)
    K_handoff = report.handoff_state.K_tilde
    pi = riccati.hewer_pi(power_system, power_weights, K_handoff, tol=1e-6)
    for (P_data, K_data), (P_true, K_true) in zip(report.solution.trace,
                                                  pi.trace):
        assert np.abs(P_data - P_true).max() < 1e-6
        assert np.abs(K_data - K_true).max() < 1e-6


def test_solver_agrees_with_model_based(power_system, power_weights,
                                        power_data):
    mf = model_free.spi_model_free(power_data, K0_ZERO, power_weights,
                                   tol=1e-8)
    mb = model_based.spi_model_based(power_system, power_weights, K0_ZERO,
                                     tol=1e-8)
    assert np.abs(mf.solution.P - mb.solution.P).max() < 1e-5


def test_solver_requires_rank_condition(power_weights):
    traj = lti.Trajectory(states=np.zeros((31, 3)), inputs=np.zeros((30, 1)))
    data = model_free.build_regression_data(traj)
    with pytest.raises(RankDeficientError):
        model_free.spi_model_free(data, K0_ZERO, power_weights)


def test_solver_rejects_bad_gain_shape(power_data, power_weights):
    with pytest.raises(InvalidProblemError):
        model_free.spi_model_free(power_data, np.zeros((2, 3)),
                                  power_weights)


@pytest.mark.parametrize("shape, n", [((3, 1), 3), ((4, 2), 4), ((2, 3), 1),
                                      ((1, 1), 5)])
def test_kron_eye_matches_numpy_kron(shape, n):
    rng = np.random.default_rng(sum(shape) + n)
    M = rng.standard_normal(shape)
    M.flat[0] = -0.0
    M.flat[-1] = -abs(M.flat[-1]) if M.size > 1 else -0.0
    for X in (M, M.T, np.asfortranarray(M)):
        got = model_free._kron_eye(X, n)
        want = np.kron(X, np.eye(n))
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        # -0.0 times 1.0 and any negative times 0.0 give -0.0 in both
        assert np.array_equal(np.signbit(got), np.signbit(want))
