import inspect
import re
from dataclasses import replace

import hypothesis.vendor.pretty
import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from spilqr import lti, matkit, model_based, model_free, riccati
from spilqr.exceptions import (
    DimensionMismatchError,
    InvalidProblemError,
    ProbesExhaustedError,
    RankDeficientError,
    SingularMatrixError,
    UnstableScaledSystemError,
)

from conftest import POWER_K_REF, POWER_P_REF

K0_ZERO = np.zeros((1, 3))


def row_kron(V, X):
    """Row ``k`` is ``np.kron(V[k], X[k])``."""
    return np.array([np.kron(v, x) for v, x in zip(V, X)])


def test_build_blocks_scalar_hand_example():
    # hand-computable scalar blocks; three transitions are the fewest that
    # can excite the 3 unknowns of n = m = 1, and the inputs differ from
    # the states, whose rows [x^2, u x, u^2] would otherwise be collinear
    traj = lti.Trajectory(states=[[1.0], [2.0], [4.0], [8.0]],
                          inputs=[[1.0], [3.0], [-1.0]])
    data = model_free.build_regression_data(traj)
    assert np.array_equal(data.d_x, [[1.0], [4.0], [16.0]])
    assert np.array_equal(data.D_x, [[4.0], [16.0], [64.0]])
    assert np.array_equal(data.states, [[1.0], [2.0], [4.0]])
    assert np.array_equal(data.inputs, [[1.0], [3.0], [-1.0]])
    assert np.array_equal(row_kron(data.inputs, data.states),
                          [[1.0], [6.0], [-4.0]])
    assert np.array_equal(data.d_u, [[1.0], [9.0], [1.0]])
    assert np.array_equal(row_kron(data.states, data.states),
                          [[1.0], [4.0], [16.0]])


def test_build_blocks_shapes(power_data):
    assert data_shapes(power_data) == \
        ((30, 3), (30, 1), (30, 6), (30, 6), (30, 1))
    assert power_data.l == 30


def data_shapes(data):
    return (data.states.shape, data.inputs.shape, data.d_x.shape,
            data.D_x.shape, data.d_u.shape)


def test_build_blocks_quadratic_form_rows(power_data):
    rng = np.random.default_rng(40)
    M = rng.standard_normal((3, 3))
    delta_xx = row_kron(power_data.states, power_data.states)
    for k in (0, 7, 29):
        x = power_data.states[k]
        got = delta_xx[k] @ matkit.vec(M)
        assert got == pytest.approx(x @ M @ x, rel=1e-12, abs=1e-12)


def test_build_blocks_rejects_short_trajectory():
    traj = lti.Trajectory(states=np.ones((5, 3)), inputs=np.ones((4, 1)))
    with pytest.raises(RankDeficientError):
        model_free.build_regression_data(traj)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["states", "inputs"])
def test_build_refuses_diverged_recording(power_system, field):
    # entries beyond the simulator's divergence limit are refused by name,
    # by the constructor itself, before their squares overflow into the
    # monomial blocks
    with pytest.raises(InvalidProblemError,
                       match=f"^{field} exceed 1e\\+12 in magnitude"):
        spoiled_recording(power_system, field, 1e200)


def test_rank_condition_target_count():
    assert model_free.unknown_count(3, 1) == 10
    assert model_free.unknown_count(4, 2) == 21


def test_rank_condition_power_data(power_data):
    assert model_free.check_rank_condition(power_data)


def test_rank_condition_degenerate_data(power_system):
    # all-zero data, and a recording long enough but without input: the
    # data is refused when it is built
    zero = lti.Trajectory(states=np.zeros((31, 3)), inputs=np.zeros((30, 1)))
    unforced = lti.simulate(power_system, [0.1, 0.1, 0.2],
                            lambda k, x: np.zeros(1), 30)
    for traj in (zero, unforced):
        with pytest.raises(RankDeficientError):
            model_free.build_regression_data(traj)


def test_regression_data_is_certified_however_built(power_system):
    # the rank condition guards the constructor itself, not one builder:
    # forced states recorded with all-zero inputs excite no input unknown
    traj = power_recording(power_system)
    with pytest.raises(RankDeficientError, match="30 samples"):
        model_free.RegressionData(
            lti.Trajectory(traj.states, np.zeros_like(traj.inputs)))


def test_regression_data_takes_only_the_trajectory(power_data):
    # every block, and n, m and l, derive from the one input; no block
    # can be set apart from the others, not even through replace()
    params = inspect.signature(model_free.RegressionData).parameters
    assert list(params) == ["traj"]
    assert (power_data.n, power_data.m, power_data.l) == (3, 1, 30)
    with pytest.raises(ValueError, match="InitVar|init=False"):
        replace(power_data, d_x=power_data.d_x[:-1])


def test_regression_data_prints(power_data):
    # hypothesis prints a failing example's arguments with its own pretty
    # printer; the recording names its sizes, not the trajectory it drops
    text = "RegressionData(n=3, m=1, l=30)"
    assert repr(power_data) == text
    assert hypothesis.vendor.pretty.pretty(power_data) == text


def test_builder_and_constructor_agree_bit_for_bit(power_system):
    traj = power_recording(power_system)
    built = model_free.build_regression_data(traj)
    direct = model_free.RegressionData(traj)
    for name in ("states", "inputs", "d_x", "D_x", "d_u"):
        assert getattr(built, name).tobytes() == \
            getattr(direct, name).tobytes(), name


def test_regression_data_shares_no_memory_with_trajectory(power_system):
    traj = power_recording(power_system)
    data = model_free.RegressionData(traj)
    before = data.states.copy()
    traj.states[0] += 1.0
    assert np.array_equal(data.states, before)


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
    X, U = power_data.states, power_data.inputs
    assert np.allclose(theta[:, 6:9], -2 * cum**2 * row_kron(U, X))
    assert np.allclose(theta[:, 9:], -cum**2 * power_data.d_u)
    assert np.allclose(gamma, row_kron(X, X) @ matkit.vec(
        power_weights.Q))


def test_theta_gamma_rowwise_identity(power_system, power_weights,
                                      power_data):
    # the evaluation identity holds sample by sample at the true blocks
    cum = 1.0 / (matkit.spectral_radius(power_system.A) + 1.0)
    P, M, L = _true_blocks(power_system, power_weights, K0_ZERO, cum)
    z = np.concatenate([matkit.vecs(P), matkit.vec(M), matkit.vecs(L)])
    theta, gamma = model_free.assemble_theta_gamma(power_data, K0_ZERO, cum,
                                                   power_weights)
    assert np.abs(theta @ z + gamma).max() < 1e-8


def _gain_case(m):
    """A plant with ``m`` inputs, its recorded data, a nonzero gain and a
    scale at which that gain's shrunken loop is Schur stable."""
    rng = np.random.default_rng(60 + m)
    n = 3 if m == 1 else 4
    sys_d = lti.LinearSystem(rng.standard_normal((n, n)) / np.sqrt(n),
                             rng.standard_normal((n, m)))
    weights = lti.CostWeights(np.eye(n), np.diag(np.arange(1.0, m + 1)))
    l = model_free.unknown_count(n, m) + 10
    traj = lti.simulate(sys_d, rng.uniform(-1, 1, n),
                        lti.exploration_input(m, seed=60 + m), l)
    K = rng.standard_normal((m, n))
    cum = 1.0 / (matkit.spectral_radius(sys_d.A - sys_d.B @ K) + 1.0)
    return (sys_d, weights, model_free.build_regression_data(traj), K,
            cum)


@pytest.mark.parametrize("m", [1, 2])
def test_theta_gamma_rowwise_identity_nonzero_gain(m):
    sys_d, weights, data, K, cum = _gain_case(m)
    P, M, L = _true_blocks(sys_d, weights, K, cum)
    z = np.concatenate([matkit.vecs(P), matkit.vec(M), matkit.vecs(L)])
    theta, gamma = model_free.assemble_theta_gamma(data, K, cum, weights)
    assert np.abs(theta @ z + gamma).max() < 1e-9 * np.abs(gamma).max()


@pytest.mark.parametrize("m", [1, 2])
def test_theta_gamma_match_kronecker_formula(m):
    # the Kronecker-product form of the blocks: theta's M block is
    # (x ⊗ x)'(K' ⊗ I) + (u ⊗ x)' and gamma is (x ⊗ x)' vec(Q + K'RK)
    _, weights, data, K, cum = _gain_case(m)
    X, U, g2 = data.states, data.inputs, cum * cum
    delta_xx, delta_ux = row_kron(X, X), row_kron(U, X)
    want_theta = np.hstack([
        g2 * data.D_x - data.d_x,
        -2.0 * g2 * (delta_xx @ np.kron(K.T, np.eye(data.n)) + delta_ux),
        g2 * (matkit.vecv_rows(X @ K.T) - data.d_u),
    ])
    want_gamma = delta_xx @ matkit.vec(weights.Q + K.T @ weights.R @ K)
    theta, gamma = model_free.assemble_theta_gamma(data, K, cum, weights)
    assert theta.shape == want_theta.shape
    assert np.abs(theta - want_theta).max() <= \
        1e-12 * np.abs(want_theta).max()
    assert np.abs(gamma - want_gamma).max() <= \
        1e-12 * np.abs(want_gamma).max()


def test_regression_recovers_true_blocks(power_system, power_weights,
                                         power_data):
    cum = 1.0 / (matkit.spectral_radius(power_system.A) + 1.0)
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
    cum = 1.0 / (matkit.spectral_radius(power_system.A) + 1.0)
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


def improved_gain(sol, weights, cum):
    """The data-driven step's improvement: the shared kernel on the
    regressed blocks, ``(L + R / cum^2)^{-1} M'``."""
    return riccati._improved_gain(sol.L, sol.M.T, weights.R, cum)


def test_gain_update_zero_cross_term(power_weights):
    sol = model_free.RegressionSolution(P=np.eye(3), M=np.zeros((3, 1)),
                                        L=np.eye(1))
    K = improved_gain(sol, power_weights, 0.7)
    assert np.abs(K).max() == 0.0


def test_gain_update_refuses_bad_scale_and_singular_block(power_weights):
    sol = model_free.RegressionSolution(P=np.eye(3), M=np.ones((3, 1)),
                                        L=np.eye(1))
    for cum in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidProblemError, match="cum must be positive"):
            improved_gain(sol, power_weights, cum)
    # L = -R makes L + R / cum^2 vanish at cum = 1
    singular = model_free.RegressionSolution(P=np.eye(3), M=np.ones((3, 1)),
                                             L=-power_weights.R)
    with pytest.raises(SingularMatrixError, match="numerically singular"):
        improved_gain(singular, power_weights, 1.0)


def test_gain_update_unit_scale_reduction(power_system, power_weights,
                                          power_oracle):
    P = power_oracle.P
    sol = model_free.RegressionSolution(
        P=P, M=power_system.A.T @ P @ power_system.B,
        L=power_system.B.T @ P @ power_system.B)
    K = improved_gain(sol, power_weights, 1.0)
    expected = riccati.optimal_gain(power_system, power_weights, P)
    assert np.allclose(K, expected, atol=1e-12)


def test_gain_update_matches_model_based(power_system, power_weights,
                                         power_data):
    cum = 1.0 / (matkit.spectral_radius(power_system.A) + 1.0)
    theta, gamma = model_free.assemble_theta_gamma(power_data, K0_ZERO, cum,
                                                   power_weights)
    sol = model_free.solve_regression(theta, gamma, 3, 1)
    K_data = improved_gain(sol, power_weights, cum)
    P_true = model_based.scaled_policy_evaluation(power_system, power_weights,
                                                  K0_ZERO, cum)
    K_true = model_based.scaled_policy_improvement(power_system,
                                                   power_weights, P_true, cum)
    assert np.abs(K_data - K_true).max() < 1e-6


def has_cholesky(P):
    """The probe's acceptance test of a regressed value matrix."""
    try:
        np.linalg.cholesky(P)
        return True
    except np.linalg.LinAlgError:
        return False


def test_search_b_power_plant(power_data, power_weights, power_system):
    b, sol, probes = model_free.search_b(power_data, K0_ZERO, power_weights,
                                         b_init=1.0, delta=0.1,
                                         max_probes=200)
    assert b == pytest.approx(1.1)
    assert probes == 2  # the initial candidate failed once
    assert has_cholesky(sol.P)
    # checked against the plant the solver never saw
    rho = matkit.spectral_radius(power_system.A / b)
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
    b, _, probes = model_free.search_b(data, np.zeros((1, 3)), weights,
                                       b_init=1.0, delta=0.1, max_probes=200)
    assert b == 1.0
    assert probes == 1


def test_search_b_growing_schedule(power_data, power_weights):
    b, _, probes = model_free.search_b(power_data, K0_ZERO, power_weights,
                                       b_init=1.0, delta=lambda i: 0.7 * i,
                                       max_probes=200)
    assert b == pytest.approx(1.7)
    assert probes == 2


def test_search_b_monotone_in_divisor(power_data, power_weights, corpus):
    # once a divisor works, every larger probe works too
    def pd_at(data, K0, weights, b):
        theta, gamma = model_free.assemble_theta_gamma(data, K0, 1.0 / b,
                                                       weights)
        sol = model_free.solve_regression(theta, gamma, data.n, data.m)
        return has_cholesky(sol.P)

    b, _, _ = model_free.search_b(power_data, K0_ZERO, power_weights,
                                  b_init=1.0, delta=0.1, max_probes=200)
    for extra in (0.1, 0.2, 0.5, 2.0):
        assert pd_at(power_data, K0_ZERO, power_weights, b + extra)
    for case in corpus[:8]:
        b, _, _ = model_free.search_b(case["data"], case["K0"],
                                      case["weights"], b_init=1.0,
                                      delta=0.1, max_probes=200)
        for extra in (0.1, 1.0):
            assert pd_at(case["data"], case["K0"], case["weights"],
                         b + extra)


def test_theta_full_column_rank_when_excited(power_system, power_weights,
                                             power_data):
    # excitation plus a stable scaled loop makes the regressor injective
    b = matkit.spectral_radius(power_system.A) + 1.0
    theta, _ = model_free.assemble_theta_gamma(power_data, K0_ZERO, 1.0 / b,
                                               power_weights)
    assert matkit.numerical_rank(theta, 1e-10) == theta.shape[1]
    assert np.linalg.svd(theta, compute_uv=False)[-1] > 1e-8


def test_search_b_exhausts_probes(power_data, power_weights):
    with pytest.raises(ProbesExhaustedError):
        model_free.search_b(power_data, 100.0 * np.ones((1, 3)),
                            power_weights, b_init=1.0, delta=1e-6,
                            max_probes=3)


def test_regression_validates_shapes(power_data, power_weights):
    with pytest.raises(DimensionMismatchError, match="K must be 1 x 3"):
        model_free.assemble_theta_gamma(power_data, np.zeros((1, 2)), 0.5,
                                        power_weights)
    with pytest.raises(InvalidProblemError, match="cum must be positive"):
        model_free.assemble_theta_gamma(power_data, K0_ZERO, 0.0,
                                        power_weights)
    theta, gamma = model_free.assemble_theta_gamma(power_data, K0_ZERO, 0.5,
                                                   power_weights)
    with pytest.raises(DimensionMismatchError,
                       match="theta must have 10 columns"):
        model_free.solve_regression(theta[:, :-1], gamma, 3, 1)
    # gamma follows the matrix rule as an l x 1 column
    with pytest.raises(DimensionMismatchError, match=re.escape(
            "gamma must have 30 rows, got (29, 1)")):
        model_free.solve_regression(theta, gamma[:-1], 3, 1)


def test_regression_refuses_a_zero_column(power_data, power_weights):
    # a column that no sample excites is refused as rank deficient, by
    # the rank test on the equilibrated regressor, and its zero norm
    # divides nothing (a numpy warning fails the test)
    theta, gamma = model_free.assemble_theta_gamma(power_data, K0_ZERO, 0.5,
                                                   power_weights)
    theta[:, 4] = 0.0
    with pytest.raises(RankDeficientError, match="^regressor rank 9 < 10;"):
        model_free.solve_regression(theta, gamma, 3, 1)


def test_scaling_bound_singular_gate(power_weights):
    # P equal to Q makes the gate exactly zero: the pencil certifies a
    # nilpotent loop, so the headroom is the cap of the model-based rule
    # and the factor its interior point, with no special case
    rho = model_free.scaling_bound(np.eye(3), K0_ZERO, power_weights)
    assert rho == 0.0
    assert riccati._headroom(rho) == riccati.MAX_HEADROOM
    assert riccati._interior_factor(rho, 0.5) == \
        1.0 + 0.5 * (riccati.MAX_HEADROOM - 1.0)


def test_scaling_bound_refuses_indefinite_value_matrix(power_weights):
    # a regressed P that is not positive definite certifies nothing
    with pytest.raises(UnstableScaledSystemError,
                       match="not positive definite, so the pencil"):
        model_free.scaling_bound(np.diag([1.0, -1.0, 1.0]), K0_ZERO,
                                 power_weights)


def eigh_bound(P, K_next, weights):
    """The radius bound as ``scipy.linalg.eigh`` of the pencil gives it."""
    gate = P - weights.Q - K_next.T @ weights.R @ K_next
    return float(np.sqrt(max(
        scipy.linalg.eigh(gate, P, eigvals_only=True)[-1], 0.0)))


@pytest.mark.parametrize("smallest", [1.0, 1e-4, 1e-10, 1e-16])
def test_scaling_bound_matches_eigh_bit_for_bit(power_weights, smallest):
    # one dsygvd against the eigh it replaced, on definite P and on P whose
    # smallest eigenvalue is near 0, relative to its largest: the same
    # bits, or a refusal where eigh finds P not positive definite
    rng = np.random.default_rng(int(-np.log10(smallest)))
    refused = 0
    for _ in range(25):
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        P = (V * [smallest, 1.0, 10.0 ** rng.uniform(0, 3)]) @ V.T
        P = (P + P.T) / 2.0
        K = rng.standard_normal((1, 3))
        try:
            want = eigh_bound(P, K, power_weights)
        except np.linalg.LinAlgError:
            refused += 1
            with pytest.raises(UnstableScaledSystemError):
                model_free.scaling_bound(P, K, power_weights)
            continue
        assert model_free.scaling_bound(P, K, power_weights) == want
    assert refused == 0 if smallest > 1e-16 else refused > 0
    for P in (np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 0.0, 1.0])):
        with pytest.raises(np.linalg.LinAlgError):
            eigh_bound(P, K0_ZERO, power_weights)
        with pytest.raises(UnstableScaledSystemError):
            model_free.scaling_bound(P, K0_ZERO, power_weights)


def test_scaling_bound_refuses_an_overflowing_gate(power_weights):
    # numpy warns of the overflow, and the pencil is not solved on it
    with np.errstate(over="ignore"), \
            pytest.raises(InvalidProblemError, match="gate .* overflows"):
        model_free.scaling_bound(np.eye(3), np.full((1, 3), 1e160),
                                 power_weights)


def test_probe_verdict_matches_cholesky(power_data, power_weights,
                                        monkeypatch):
    # search_b accepts a regressed P exactly when np.linalg.cholesky
    # factors it: positive definite, singular semidefinite and indefinite
    rng = np.random.default_rng(8)
    cases = []
    for spectrum in ([1.0, 2.0, 3.0], [1e-12, 1.0, 5.0], [0.0, 1.0, 2.0],
                     [0.0, 0.0, 1.0], [-1e-12, 1.0, 2.0], [-1.0, 1.0, 1.0],
                     [-1.0, -2.0, -3.0]):
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        P = (V * spectrum) @ V.T
        cases.append((P + P.T) / 2.0)
    cases += [np.diag([1.0, 0.0, 1.0]), np.zeros((3, 3))]
    for P in cases:
        sol = model_free.RegressionSolution(P=P, M=np.zeros((3, 1)),
                                            L=np.eye(1))
        monkeypatch.setattr(model_free, "_solve_iteration",
                            lambda *a, sol=sol: sol)
        try:
            model_free.search_b(power_data, K0_ZERO, power_weights,
                                1.0, 0.1, 1)
            accepted = True
        except ProbesExhaustedError:
            accepted = False
        assert accepted == has_cholesky(P)
    assert {has_cholesky(P) for P in cases} == {True, False}


def sigma_min_headroom(P, K_next, weights):
    """The factor bound ``sigma_min(P G^{-1})^{1/2}`` of the gate
    ``G = P - Q - K'RK``, which the pencil bound replaced."""
    gate = P - weights.Q - K_next.T @ weights.R @ K_next
    ratio = P @ np.linalg.inv((gate + gate.T) / 2.0)
    return float(np.sqrt(np.linalg.svd(ratio, compute_uv=False)[-1]))


def test_choose_c_first_benchmark_iteration(power_system, power_weights,
                                            power_data):
    # reproduce the first data-driven scaling decision of the benchmark
    b, sol, _ = model_free.search_b(power_data, K0_ZERO, power_weights,
                                    b_init=1.0, delta=0.1, max_probes=200)
    K1 = improved_gain(sol, power_weights, 1.0 / b)
    bound = riccati._headroom(model_free.scaling_bound(sol.P, K1,
                                                       power_weights))
    assert bound == pytest.approx(1.08635, abs=1e-4)
    # the gate is well conditioned, and the pencil bound exceeds the
    # sigma_min formula on it
    gate = sol.P - power_weights.Q - K1.T @ power_weights.R @ K1
    assert np.linalg.svd(gate, compute_uv=False)[-1] == \
        pytest.approx(1.4659, abs=1e-3)
    assert sigma_min_headroom(sol.P, K1, power_weights) == \
        pytest.approx(1.08622, abs=1e-4)
    assert bound > sigma_min_headroom(sol.P, K1, power_weights)
    # the certified radius holds on the plant the solver never sees
    rho = matkit.spectral_radius(power_system.A - power_system.B @ K1)
    assert rho / b < 1.0 / bound
    # the solver records that bound at iteration 0 and the factor it
    # chose from it at iteration 1
    report = model_free.spi_model_free(power_data, K0_ZERO, power_weights,
                                       b_init=1.0, delta=0.1)
    first, second = report.phase1_trace[:2]
    assert first.bound == bound
    assert 1.0 < second.c < bound


def test_choose_c_interval_property(power_system, power_weights, power_data):
    b, sol, _ = model_free.search_b(power_data, K0_ZERO, power_weights,
                                    b_init=1.0, delta=0.1, max_probes=200)
    K1 = improved_gain(sol, power_weights, 1.0 / b)
    rho = model_free.scaling_bound(sol.P, K1, power_weights)
    bound = riccati._headroom(rho)
    for lam in (0.05, 0.5, 0.95):
        report = model_free.spi_model_free(power_data, K0_ZERO,
                                           power_weights, lam=lam)
        c = report.phase1_trace[1].c
        # the model-based solver's rule, fed with the certified radius
        assert c == riccati._interior_factor(rho, lam) \
            == 1.0 + lam * (bound - 1.0)
        assert 1.0 < c < bound


@pytest.fixture
def evaluations(monkeypatch):
    """The name of each call that runs: Lyapunov solves and Schur
    factors, regressions (policy evaluations and divisor probes),
    ``dgesv`` (value-iteration sweeps and Kronecker Lyapunov solves), SVDs
    (rank tests), pencil solves (gate bounds) and Cholesky tests (divisor
    probes)."""
    calls = []
    for module, name in ((matkit, "solve_discrete_lyapunov"),
                         (matkit, "schur"),
                         (model_free, "solve_regression"),
                         (scipy.linalg.lapack, "dgesv"),
                         (np.linalg, "svd"),
                         (scipy.linalg.lapack, "dsygvd"),
                         (scipy.linalg.lapack, "dpotrf")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=original, name=name,
                            **kw: calls.append(name) or f(*a, **kw))
    return calls


def test_evaluations_see_every_regression_probe_and_pencil(
        power_data, power_weights, evaluations):
    # the refusal tests below assert that nothing ran; here a solve shows
    # that the counted names are the ones it runs: one regression per
    # probe and per later evaluation, one potrf per probe and one pencil
    # solve per scaling step
    report = model_free.spi_model_free(power_data, K0_ZERO, power_weights)
    steps = sum(state.bound is not None for state in report.phase1_trace)
    assert steps == report.handoff_index >= 1 and report.probes >= 2
    assert evaluations.count("dpotrf") == report.probes
    assert evaluations.count("dsygvd") == steps
    assert evaluations.count("solve_regression") == \
        report.probes + report.solution.iterations - 1


def run_scaling_solver(solver, system, weights, data, **opts):
    if solver == "spi-model-based":
        return model_based.spi_model_based(system, weights, K0_ZERO, **opts)
    return model_free.spi_model_free(data, K0_ZERO, weights, **opts)


@pytest.mark.parametrize("solver", ["spi-model-based", "spi-model-free"])
@pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, -0.5])
def test_solvers_reject_lam_outside_unit_interval(
        power_system, power_weights, power_data, evaluations, solver, lam):
    # rejected before any policy evaluation or divisor probe
    with pytest.raises(InvalidProblemError, match="lam"):
        run_scaling_solver(solver, power_system, power_weights, power_data,
                           lam=lam)
    assert evaluations == []


@pytest.mark.parametrize("solver", ["spi-model-based", "spi-model-free"])
def test_solvers_reject_empty_budget(power_system, power_weights, power_data,
                                     evaluations, solver):
    with pytest.raises(InvalidProblemError, match="i_max must be at least 1"):
        run_scaling_solver(solver, power_system, power_weights, power_data,
                           i_max=0)
    assert evaluations == []


NAN, INF = float("nan"), float("inf")
SETTING_CASES = {
    "hewer-tol": ("hewer", {"tol": NAN}),
    "vi-tol": ("vi", {"tol": NAN}),
    "mb-tol": ("spi-model-based", {"tol": NAN}),
    "mb-beta": ("spi-model-based", {"beta": NAN}),
    "mf-tol": ("spi-model-free", {"tol": NAN}),
    "mf-b_init": ("spi-model-free", {"b_init": NAN}),
    "mf-delta": ("spi-model-free", {"delta": NAN}),
    "mb-i_max": ("spi-model-based", {"i_max": NAN}),
    "mf-i_max": ("spi-model-free", {"i_max": NAN}),
    "hewer-tol-inf": ("hewer", {"tol": INF}),
    "vi-tol-inf": ("vi", {"tol": INF}),
    "mb-tol-inf": ("spi-model-based", {"tol": INF}),
    "mb-beta-inf": ("spi-model-based", {"beta": INF}),
    "mf-tol-inf": ("spi-model-free", {"tol": INF}),
    "mf-b_init-inf": ("spi-model-free", {"b_init": INF}),
    "mf-delta-inf": ("spi-model-free", {"delta": INF}),
}


@pytest.mark.parametrize("solver, params", list(SETTING_CASES.values()),
                         ids=list(SETTING_CASES))
def test_solvers_reject_nan_parameters(
        power_system, power_weights, power_data, evaluations, solver, params):
    # NaN compares false against every bound, so each check is written to
    # fail on it, and a real setting must also be finite; the solve is
    # rejected, naming the setting, before any policy evaluation,
    # value-iteration sweep, regression or SVD
    name = next(iter(params))
    with pytest.raises(InvalidProblemError, match=f"^{name}"):
        if solver == "hewer":
            riccati.hewer_pi(power_system, power_weights, POWER_K_REF,
                             **params)
        elif solver == "vi":
            riccati.value_iteration(power_system, power_weights, **params)
        elif solver == "spi-model-based":
            model_based.spi_model_based(power_system, power_weights,
                                        K0_ZERO, **params)
        else:
            model_free.spi_model_free(power_data, K0_ZERO, power_weights,
                                      **params)
    assert evaluations == []


@pytest.mark.parametrize("max_probes", [0, -1, NAN])
@pytest.mark.parametrize("solver", ["search-b", "spi-model-free"])
def test_probe_rejects_empty_budget(power_data, power_weights, evaluations,
                                    solver, max_probes):
    # an empty probe budget is the caller's error, not exhausted probes
    with pytest.raises(InvalidProblemError,
                       match="max_probes must be at least 1"):
        if solver == "search-b":
            model_free.search_b(power_data, K0_ZERO, power_weights,
                                1.0, 0.1, max_probes)
        else:
            model_free.spi_model_free(power_data, K0_ZERO, power_weights,
                                      max_probes=max_probes)
    assert evaluations == []


# Every budget of a public entry: (setting, floor, a value that runs, call
# with the power plant, its data, a simulation policy and the budget).
BUDGETS = {
    "spi-model-based": ("i_max", 1, 500, lambda sys_d, w, data, pol, v:
                        model_based.spi_model_based(sys_d, w, K0_ZERO,
                                                    i_max=v)),
    "spi-model-free": ("i_max", 1, 500, lambda sys_d, w, data, pol, v:
                       model_free.spi_model_free(data, K0_ZERO, w, i_max=v)),
    "spi-model-free-probes": ("max_probes", 1, 200,
                              lambda sys_d, w, data, pol, v:
                              model_free.spi_model_free(data, K0_ZERO, w,
                                                        max_probes=v)),
    "search-b": ("max_probes", 1, 200, lambda sys_d, w, data, pol, v:
                 model_free.search_b(data, K0_ZERO, w, 1.0, 0.1, v)),
    "hewer": ("max_iter", 1, 100, lambda sys_d, w, data, pol, v:
              riccati.hewer_pi(sys_d, w, POWER_K_REF, max_iter=v)),
    "vi": ("max_iter", 1, 1000, lambda sys_d, w, data, pol, v:
           riccati.value_iteration(sys_d, w, max_iter=v)),
    "simulate": ("steps", 0, 30, lambda sys_d, w, data, pol, v:
                 lti.simulate(sys_d, [0.1, 0.1, 0.2], pol, v)),
    "exploration-input": ("num_terms", 1, 100, lambda sys_d, w, data, pol, v:
                          lti.exploration_input(1, num_terms=v)),
}


@pytest.mark.parametrize("below", [False, True], ids=["float", "below"])
@pytest.mark.parametrize("entry", list(BUDGETS))
def test_budgets_are_integers_at_or_above_their_floor(
        power_system, power_weights, power_data, evaluations, entry, below):
    # one rule for every budget, applied before any evaluation, divisor
    # probe, value-iteration sweep or simulation step
    setting, floor, _, call = BUDGETS[entry]
    value = floor - 1 if below else 2.5
    with pytest.raises(InvalidProblemError, match=re.escape(
            f"{setting} must be at least {floor} and an integer, "
            f"got {value!r}")):
        call(power_system, power_weights, power_data,
             lambda k, x: evaluations.append(1) or np.zeros(1), value)
    assert evaluations == []


@pytest.mark.parametrize("entry", list(BUDGETS))
def test_budgets_accept_numpy_integers(power_system, power_weights,
                                       power_data, entry):
    *_, works, call = BUDGETS[entry]
    policy = lti.exploration_input(1, seed=0)
    call(power_system, power_weights, power_data, policy, np.int64(works))


@pytest.mark.parametrize("tol", [0.0, -1.0])
@pytest.mark.parametrize("solver", ["hewer", "vi"])
def test_baselines_refuse_nonpositive_tol(power_system, power_weights,
                                          evaluations, solver, tol):
    # a tol of 0 could never pass the strict stop test before the budget
    # runs out; NaN is test_solvers_reject_nan_parameters' case
    with pytest.raises(InvalidProblemError, match="^" + re.escape(
            f"tol must be positive and finite, got {tol!r}") + "$"):
        if solver == "hewer":
            riccati.hewer_pi(power_system, power_weights, POWER_K_REF,
                             tol=tol)
        else:
            riccati.value_iteration(power_system, power_weights, tol=tol)
    assert evaluations == []


# A plant of n = 3, m = 1 against one mis-shaped input: a 2 x 2 Q or R,
# a 1 x 2 gain or a 2 x 2 value matrix.
MISMATCHED_WEIGHTS = {
    "Q": lti.CostWeights(np.eye(2), np.eye(1)),
    "R": lti.CostWeights(np.eye(3), np.eye(2)),
}
MISMATCHED = {"K": np.zeros((1, 2)), "P": np.eye(2)}
SOLUTION = model_free.RegressionSolution(P=POWER_P_REF, M=np.zeros((3, 1)),
                                         L=np.eye(1))
# Each public entry point runs on (plant, weights, data, K, P) and is
# listed with the inputs it takes; scaling_bound, which has no plant,
# checks K and P against the weights.
ENTRY_POINTS = {
    "hewer": ("KQR", lambda s, w, d, K, P: riccati.hewer_pi(s, w, K)),
    "vi": ("PQR", lambda s, w, d, K, P:
           riccati.value_iteration(s, w, P0=P)),
    "dare": ("QR", lambda s, w, d, K, P: riccati.dare_reference(s, w)),
    "spi-model-based": ("KQR", lambda s, w, d, K, P:
                        model_based.spi_model_based(s, w, K)),
    "spi-model-free": ("KQR", lambda s, w, d, K, P:
                       model_free.spi_model_free(d, K, w)),
    "scaled-evaluation": ("KQR", lambda s, w, d, K, P:
                          model_based.scaled_policy_evaluation(s, w, K, 0.5)),
    "scaled-improvement": ("PQR", lambda s, w, d, K, P:
                           model_based.scaled_policy_improvement(s, w, P,
                                                                 0.5)),
    "choose-c": ("K", lambda s, w, d, K, P:
                 model_based.choose_c(s, K, 0.5, 0.5)),
    "scaling-bound": ("KP", lambda s, w, d, K, P:
                      model_free.scaling_bound(P, K, w)),
    "assemble": ("KQR", lambda s, w, d, K, P:
                 model_free.assemble_theta_gamma(d, K, 0.5, w)),
    "search-b": ("KQR", lambda s, w, d, K, P:
                 model_free.search_b(d, K, w, 1.0, 0.1, 200)),
    "are-residual": ("PQR", lambda s, w, d, K, P:
                     riccati.are_residual(s, w, P)),
    "optimal-gain": ("PQR", lambda s, w, d, K, P:
                     riccati.optimal_gain(s, w, P)),
    "riccati-step": ("PQR", lambda s, w, d, K, P:
                     riccati.riccati_step(s, w, P)),
}
MISMATCH_CASES = [(bad, solver) for solver, (takes, _) in ENTRY_POINTS.items()
                  for bad in takes]


@pytest.mark.parametrize("bad, solver", MISMATCH_CASES,
                         ids=[f"{bad}-{solver}" for bad, solver
                              in MISMATCH_CASES])
def test_solvers_reject_mismatched_weights(power_system, power_weights,
                                           power_data, monkeypatch, solver,
                                           bad):
    # the library's named error, before any Schur factorization,
    # eigensolve or regression, instead of a numpy broadcasting error
    # from inside them
    calls = []
    for module, name in ((matkit, "schur"), (matkit, "spectral_radius"),
                         (model_free, "solve_regression")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=original:
                            calls.append(1) or f(*a))
    weights = MISMATCHED_WEIGHTS.get(bad, power_weights)
    K = MISMATCHED["K"] if bad == "K" else POWER_K_REF
    P = MISMATCHED["P"] if bad == "P" else POWER_P_REF
    blame = "weights do not match" if bad in "QR" else rf"{bad}\w* must be"
    with pytest.raises(DimensionMismatchError, match=blame):
        ENTRY_POINTS[solver][1](power_system, weights, power_data, K, P)
    assert calls == []


def spoil(M, x):
    """A copy of ``M`` whose first entry is ``x``: a float array for a float
    ``x``, else nested lists."""
    M = np.array(M, dtype=float)
    if isinstance(x, float):
        M.flat[0] = x
        return M
    rows = cell = M.tolist()
    while isinstance(cell[0], list):
        cell = cell[0]
    cell[0] = x
    return rows


def non_finite(name):
    """The matrix rule's refusal of input ``name`` whose first entry is
    ``x``: a float that is not finite, or an entry no float array holds."""
    return lambda x: (f"{name} has non-finite entries" if isinstance(x, float)
                      else f"{name} is not a numeric matrix")


def not_positive(name):
    return lambda x: f"{name} must be positive and finite, got {x!r}"


def power_recording(system):
    return lti.simulate(system, [0.1, 0.1, 0.2],
                        lti.exploration_input(1, seed=0), 30)


def spoiled_recording(system, field, x):
    """The recording, built directly, with ``x`` as its first entry of
    ``field``."""
    traj = power_recording(system)
    return model_free.RegressionData(
        replace(traj, **{field: spoil(getattr(traj, field), x)}))


def theta_with(data, weights, x):
    theta, gamma = model_free.assemble_theta_gamma(data, K0_ZERO, 0.5,
                                                   weights)
    return SOLVE_REGRESSION(spoil(theta, x), gamma, 3, 1)


def gamma_with(data, weights, x):
    theta, gamma = model_free.assemble_theta_gamma(data, K0_ZERO, 0.5,
                                                   weights)
    return SOLVE_REGRESSION(theta, spoil(gamma, x), 3, 1)


# The counted entries the refusal test calls, before the evaluations
# fixture wraps them.
SCHUR, LYAPUNOV = matkit.schur, matkit.solve_discrete_lyapunov
SOLVE_REGRESSION = model_free.solve_regression
# Every public entry that takes a matrix or a positive setting, and the
# improvement kernel every solver shares, with the message that names the
# input, and a call on the power plant, its weights and data in which the
# input holds the spoiling value x (the first entry of a matrix).  The
# solvers' own settings are the cases of
# test_solvers_reject_nan_parameters.
REFUSALS = {
    "system-A": (non_finite("A"), lambda s, w, d, x:
                 lti.LinearSystem(spoil(s.A, x), s.B)),
    "system-B": (non_finite("B"), lambda s, w, d, x:
                 lti.LinearSystem(s.A, spoil(s.B, x))),
    "weights-Q": (non_finite("Q"), lambda s, w, d, x:
                  lti.CostWeights(spoil(w.Q, x), w.R)),
    "weights-R": (non_finite("R"), lambda s, w, d, x:
                  lti.CostWeights(w.Q, spoil(w.R, x))),
    "zoh-A_c": (non_finite("A_c"), lambda s, w, d, x:
                lti.zoh_discretize(spoil(s.A, x), s.B, 0.1)),
    "zoh-B_c": (non_finite("B_c"), lambda s, w, d, x:
                lti.zoh_discretize(s.A, spoil(s.B, x), 0.1)),
    "zoh-T": (not_positive("sample time T"), lambda s, w, d, x:
              lti.zoh_discretize(s.A, s.B, x)),
    "observable-C": (non_finite("C"), lambda s, w, d, x:
                     lti.is_observable(s.A, spoil(np.eye(3), x))),
    "symmetric-S": (non_finite("S"), lambda s, w, d, x:
                    matkit.check_symmetric(spoil(w.Q, x), "S")),
    "radius-A": (non_finite("A"), lambda s, w, d, x:
                 matkit.spectral_radius(spoil(s.A, x))),
    "rank-A": (non_finite("A"), lambda s, w, d, x:
               matkit.numerical_rank(spoil(s.A, x), 1e-8)),
    "rank-tol": (not_positive("tol"), lambda s, w, d, x:
                 matkit.numerical_rank(s.A, x)),
    "schur-F": (non_finite("F"), lambda s, w, d, x: SCHUR(spoil(s.A, x))),
    "lyapunov-F": (non_finite("F"), lambda s, w, d, x:
                   LYAPUNOV(spoil(0.5 * s.A, x), w.Q)),
    "lyapunov-W": (non_finite("W"), lambda s, w, d, x:
                   LYAPUNOV(0.5 * s.A, spoil(w.Q, x))),
    "hewer-K0": (non_finite("K0"), lambda s, w, d, x:
                 riccati.hewer_pi(s, w, spoil(POWER_K_REF, x))),
    "vi-P0": (non_finite("P0"), lambda s, w, d, x:
              riccati.value_iteration(s, w, P0=spoil(POWER_P_REF, x))),
    "optimal-gain-P": (non_finite("P"), lambda s, w, d, x:
                       riccati.optimal_gain(s, w, spoil(POWER_P_REF, x))),
    "are-residual-P": (non_finite("P"), lambda s, w, d, x:
                       riccati.are_residual(s, w, spoil(POWER_P_REF, x))),
    "riccati-step-P": (non_finite("P"), lambda s, w, d, x:
                       riccati.riccati_step(s, w, spoil(POWER_P_REF, x))),
    "mb-K0": (non_finite("K0"), lambda s, w, d, x:
              model_based.spi_model_based(s, w, spoil(K0_ZERO, x))),
    "scaled-evaluation-K": (non_finite("K"), lambda s, w, d, x:
                            model_based.scaled_policy_evaluation(
                                s, w, spoil(K0_ZERO, x), 0.5)),
    "scaled-evaluation-cum": (not_positive("cum"), lambda s, w, d, x:
                              model_based.scaled_policy_evaluation(
                                  s, w, K0_ZERO, x)),
    "scaled-improvement-P": (non_finite("P"), lambda s, w, d, x:
                             model_based.scaled_policy_improvement(
                                 s, w, spoil(POWER_P_REF, x), 0.5)),
    "scaled-improvement-cum": (not_positive("cum"), lambda s, w, d, x:
                               model_based.scaled_policy_improvement(
                                   s, w, POWER_P_REF, x)),
    "choose-c-K_next": (non_finite("K_next"), lambda s, w, d, x:
                        model_based.choose_c(s, spoil(POWER_K_REF, x),
                                             0.5, 0.5)),
    "choose-c-cum": (not_positive("cum"), lambda s, w, d, x:
                     model_based.choose_c(s, POWER_K_REF, x, 0.5)),
    "recording-states": (non_finite("states"), lambda s, w, d, x:
                         spoiled_recording(s, "states", x)),
    "recording-inputs": (non_finite("inputs"), lambda s, w, d, x:
                         spoiled_recording(s, "inputs", x)),
    "assemble-K": (non_finite("K"), lambda s, w, d, x:
                   model_free.assemble_theta_gamma(d, spoil(K0_ZERO, x),
                                                   0.5, w)),
    "assemble-cum": (not_positive("cum"), lambda s, w, d, x:
                     model_free.assemble_theta_gamma(d, K0_ZERO, x, w)),
    "regression-theta": (non_finite("theta"), lambda s, w, d, x:
                         theta_with(d, w, x)),
    "regression-gamma": (non_finite("gamma"), lambda s, w, d, x:
                         gamma_with(d, w, x)),
    "gain-update-cum": (not_positive("cum"), lambda s, w, d, x:
                        improved_gain(SOLUTION, w, x)),
    "search-b-K0": (non_finite("K0"), lambda s, w, d, x:
                    model_free.search_b(d, spoil(K0_ZERO, x), w, 1.0, 0.1,
                                        200)),
    "search-b-b_init": (lambda x: "b_init must be at least 1 and finite",
                        lambda s, w, d, x:
                        model_free.search_b(d, K0_ZERO, w, x, 0.1, 200)),
    "search-b-delta": (not_positive("delta steps"), lambda s, w, d, x:
                       model_free.search_b(d, K0_ZERO, w, 1.0, x, 200)),
    "scaling-bound-P": (non_finite("P"), lambda s, w, d, x:
                        model_free.scaling_bound(spoil(POWER_P_REF, x),
                                                 POWER_K_REF, w)),
    "scaling-bound-K_next": (non_finite("K_next"), lambda s, w, d, x:
                             model_free.scaling_bound(
                                 POWER_P_REF, spoil(POWER_K_REF, x), w)),
    "mf-K0": (non_finite("K0"), lambda s, w, d, x:
              model_free.spi_model_free(d, spoil(K0_ZERO, x), w)),
}
REFUSAL_CASES = [(entry, x) for entry in REFUSALS for x in (NAN, INF)] + [
    ("scaled-evaluation-cum", -1.0), ("choose-c-cum", -1.0)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, x", REFUSAL_CASES,
                         ids=[f"{entry}-{x}" for entry, x in REFUSAL_CASES])
def test_entries_refuse_non_finite_inputs(power_system, power_weights,
                                          power_data, evaluations, capfd,
                                          entry, x):
    # one matrix rule and one positive-real rule: the library's named
    # error, before any Schur factorization, regression or SVD, instead
    # of a LAPACK complaint, a numpy LinAlgError or a NaN answer
    message, call = REFUSALS[entry]
    with pytest.raises(InvalidProblemError,
                       match=f"^{re.escape(message(x))}$"):
        call(power_system, power_weights, power_data, x)
    assert evaluations == []
    assert capfd.readouterr().err == ""


def lam_outside(x):
    return f"lam must be strictly between 0 and 1, got {x!r}"


X0 = [0.1, 0.1, 0.2]
# Entries that take an input no NaN case above covers: a state or input
# that simulate accepts when not finite (its rollout names the divergence),
# the solvers' own real settings, and the probing input's frequency bounds.
CONVERSION_REFUSALS = {
    "simulate-x0": (non_finite("x0"), lambda s, w, d, x:
                    lti.simulate(s, spoil(X0, x), lti.exploration_input(1),
                                 1)),
    "simulate-policy-input": (non_finite("policy input"), lambda s, w, d, x:
                              lti.simulate(s, X0, lambda k, state:
                                           spoil([0.0], x), 1)),
    "hewer-tol": (not_positive("tol"), lambda s, w, d, x:
                  riccati.hewer_pi(s, w, POWER_K_REF, tol=x)),
    "vi-tol": (not_positive("tol"), lambda s, w, d, x:
               riccati.value_iteration(s, w, tol=x)),
    "mb-tol": (not_positive("tol"), lambda s, w, d, x:
               model_based.spi_model_based(s, w, K0_ZERO, tol=x)),
    "mb-beta": (not_positive("beta"), lambda s, w, d, x:
                model_based.spi_model_based(s, w, K0_ZERO, beta=x)),
    "mb-lam": (lam_outside, lambda s, w, d, x:
               model_based.spi_model_based(s, w, K0_ZERO, lam=x)),
    "choose-c-lam": (lam_outside, lambda s, w, d, x:
                     model_based.choose_c(s, POWER_K_REF, 0.5, x)),
    "mf-tol": (not_positive("tol"), lambda s, w, d, x:
               model_free.spi_model_free(d, K0_ZERO, w, tol=x)),
    "mf-lam": (lam_outside, lambda s, w, d, x:
               model_free.spi_model_free(d, K0_ZERO, w, lam=x)),
    "mf-b_init": (lambda x: "b_init must be at least 1 and finite",
                  lambda s, w, d, x:
                  model_free.spi_model_free(d, K0_ZERO, w, b_init=x)),
    "mf-delta": (not_positive("delta steps"), lambda s, w, d, x:
                 model_free.spi_model_free(d, K0_ZERO, w, delta=x)),
    "noise-freq_low": (lambda x: "freq_low and freq_high must bound a finite "
                       f"range, got [{x!r}, 10.0]", lambda s, w, d, x:
                       lti.exploration_input(1, freq_low=x)),
    "noise-freq_high": (lambda x: "freq_low and freq_high must bound a "
                        f"finite range, got [-10.0, {x!r}]",
                        lambda s, w, d, x:
                        lti.exploration_input(1, freq_high=x)),
}
# The entries above that take a real setting; every other one a matrix.
REAL_SETTINGS = {
    "zoh-T", "rank-tol", "scaled-evaluation-cum", "scaled-improvement-cum",
    "choose-c-cum", "assemble-cum", "gain-update-cum", "search-b-b_init",
    "search-b-delta", *(entry for entry in CONVERSION_REFUSALS
                        if not entry.startswith("simulate-"))}
HUGE = 10**400   # an integer beyond the largest double
# A matrix entry no float array holds: ragged rows, which make any matrix
# ragged, text and HUGE; and a setting that is not a real number.
UNCONVERTIBLE = {"ragged": [[0.0], [0.0, 0.0]], "text": "x",
                 "huge-integer": HUGE}
NOT_REAL = {"numeric-string": "0.5", "none": None, "huge-integer": HUGE}
CONVERSION_CASES = [
    (entry, label, x) for entry in {**REFUSALS, **CONVERSION_REFUSALS}
    for label, x in (NOT_REAL if entry in REAL_SETTINGS
                     else UNCONVERTIBLE).items()]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, x", [case[::2] for case in CONVERSION_CASES],
                         ids=[f"{entry}-{label}"
                              for entry, label, _ in CONVERSION_CASES])
def test_entries_refuse_input_that_is_not_a_number(
        power_system, power_weights, power_data, evaluations, entry, x):
    # ragged, text or too large for a double, outside input is refused by
    # the one conversion and the positive-real rule, naming it, where numpy
    # raised a bare ValueError, TypeError or OverflowError
    message, call = {**REFUSALS, **CONVERSION_REFUSALS}[entry]
    with pytest.raises(InvalidProblemError,
                       match=f"^{re.escape(message(x))}$"):
        call(power_system, power_weights, power_data, x)
    assert evaluations == []


EMPTY = np.zeros((0, 0))
# Entries whose matrix rule meets an input with no entries, and the input
# they must name; unguarded, numpy builds such a plant, or fails with an
# unnamed error from a reduction over no entries.
EMPTY_REFUSALS = {
    "system-A": ("A", lambda: lti.LinearSystem(EMPTY, np.zeros((0, 1)))),
    "system-B": ("B", lambda: lti.LinearSystem(np.eye(3), np.zeros((3, 0)))),
    "weights-Q": ("Q", lambda: lti.CostWeights(EMPTY, np.eye(1))),
    "weights-R": ("R", lambda: lti.CostWeights(np.eye(3), EMPTY)),
    "symmetric-S": ("S", lambda: matkit.check_symmetric(EMPTY, "S")),
    "radius-A": ("A", lambda: matkit.spectral_radius(EMPTY)),
    "rank-A": ("A", lambda: matkit.numerical_rank(np.zeros((0, 3)), 1e-8)),
    "lyapunov-F": ("F", lambda: matkit.solve_discrete_lyapunov(EMPTY, EMPTY)),
    "recording-inputs": ("inputs", lambda: model_free.RegressionData(
        lti.Trajectory(np.zeros((1, 3)), np.zeros((0, 1))))),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", list(EMPTY_REFUSALS))
def test_entries_refuse_empty_matrices(entry):
    name, call = EMPTY_REFUSALS[entry]
    with pytest.raises(DimensionMismatchError,
                       match=f"^{name} must not be empty, got \\("):
        call()


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


def test_solver_requires_rank_condition():
    # the solver takes only certified data: the refusal comes when the
    # recording is built, before any solve
    traj = lti.Trajectory(states=np.zeros((31, 3)), inputs=np.zeros((30, 1)))
    with pytest.raises(RankDeficientError) as err:
        model_free.build_regression_data(traj)
    # the message names the sample count and the unknowns to excite
    numbers = re.findall(r"\d+", str(err.value))
    assert str(traj.length) in numbers
    assert str(model_free.unknown_count(3, 1)) in numbers


def test_solver_rejects_bad_gain_shape(power_data, power_weights):
    with pytest.raises(DimensionMismatchError):
        model_free.spi_model_free(power_data, np.zeros((2, 3)),
                                  power_weights)


# The clean sweep (conftest's sweep fixture) is solved at tol = 1e-8.  The
# noisy sweep adds Gaussian noise of std 1e-6 max|x| to every recorded
# state, drawn from default_rng(11).
SWEEP_TOL = 1e-8


@pytest.fixture(scope="module")
def noisy_sweep(sweep):
    rng = np.random.default_rng(11)
    recordings = []
    for case in sweep:
        d, sys_d = case["data"], case["sys"]
        X = np.vstack([d.states,
                       sys_d.A @ d.states[-1] + sys_d.B @ d.inputs[-1]])
        X = X + rng.standard_normal(X.shape) * 1e-6 * np.abs(X).max()
        recordings.append(model_free.build_regression_data(
            lti.Trajectory(X, d.inputs)))
    return recordings


def assert_phase1_stable(case, report):
    """Every phase-1 gain keeps ``min(cum, 1) rho(A - BK)`` below 1 on the
    plant that the solver never saw."""
    A, B = case["sys"].A, case["sys"].B
    for s in report.phase1_trace:
        rho = matkit.spectral_radius(A - B @ s.K_tilde)
        assert min(s.cum, 1.0) * rho < 1.0, (s.i, s.cum, rho)


def test_clean_sweep_solves_every_case(sweep):
    # case 33 burned its whole budget under the sigma_min headroom
    for i, case in enumerate(sweep):
        w = case["weights"]
        report = model_free.spi_model_free(case["data"], case["K0"], w,
                                           tol=SWEEP_TOL)
        ref = scipy.linalg.solve_discrete_are(case["sys"].A, case["sys"].B,
                                              w.Q, w.R)
        P = report.solution.P
        assert np.linalg.norm(P - ref) <= 1e-9 * np.linalg.norm(ref), i
        assert_phase1_stable(case, report)
        # the pencil headroom is never below the sigma_min formula
        # (sigma_min(P G^-1) <= min |1/mu|), up to rounding
        for s, nxt in zip(report.phase1_trace, report.phase1_trace[1:]):
            old = sigma_min_headroom(s.P_tilde, nxt.K_tilde, w)
            assert s.bound >= min(old, riccati.MAX_HEADROOM) * (1 - 1e-12), \
                (i, s.i, s.bound, old)


def test_noisy_sweep_refuses_instead_of_stalling(sweep, noisy_sweep,
                                                 monkeypatch):
    # every solve returns with phase-1 loops that are truly stable, or
    # fails its certificate by name within a few regressions, never after
    # the 500-evaluation budget
    calls = []
    monkeypatch.setattr(model_free, "solve_regression", lambda *a:
                        calls.append(1) or SOLVE_REGRESSION(*a))
    refused = {}
    for i, (case, data) in enumerate(zip(sweep, noisy_sweep)):
        calls.clear()
        try:
            report = model_free.spi_model_free(data, case["K0"],
                                               case["weights"],
                                               tol=SWEEP_TOL)
        except UnstableScaledSystemError:
            refused[i] = len(calls)
            continue
        assert_phase1_stable(case, report)
    assert sorted(refused) == [36, 85]
    assert max(refused.values()) <= 40, refused
