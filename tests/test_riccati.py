import numpy as np
import pytest
import scipy.linalg

from spilqr import lti, matkit, riccati
from spilqr.exceptions import (
    InvalidProblemError,
    MaxIterationsError,
    NotStabilizingError,
)

from conftest import POWER_K_REF, POWER_P_REF


def scalar_problem():
    """a=0.5, b=1, q=r=1; the fixed point solves p^2 - p/4 - 1 = 0."""
    sys_d = lti.LinearSystem(np.array([[0.5]]), np.array([[1.0]]))
    weights = lti.CostWeights(np.eye(1), np.eye(1))
    p_root = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
    return sys_d, weights, p_root


def test_residual_scalar_closed_form():
    sys_d, weights, p_root = scalar_problem()
    assert riccati.are_residual(sys_d, weights, [[p_root]]) < 1e-10


def test_residual_power_plant_reference(power_system, power_weights):
    res = riccati.are_residual(power_system, power_weights, POWER_P_REF)
    assert res < 5e-3  # reference is rounded to four decimals


def test_residual_at_zero_is_norm_of_q(power_system, power_weights):
    res = riccati.are_residual(power_system, power_weights, np.zeros((3, 3)))
    assert res == pytest.approx(np.sqrt(3.0), rel=1e-12)


def test_optimal_gain_zero_value_matrix(power_system, power_weights):
    K = riccati.optimal_gain(power_system, power_weights, np.zeros((3, 3)))
    assert np.abs(K).max() == 0.0


def test_optimal_gain_power_plant_reference(power_system, power_weights):
    K = riccati.optimal_gain(power_system, power_weights, POWER_P_REF)
    assert np.abs(K - POWER_K_REF).max() < 1e-3


def test_optimal_gain_scalar_formula():
    sys_d, weights, p_root = scalar_problem()
    K = riccati.optimal_gain(sys_d, weights, [[p_root]])
    assert K[0, 0] == pytest.approx(0.5 * p_root / (1.0 + p_root), rel=1e-12)


def test_hewer_fixed_point(power_system, power_weights, power_oracle):
    sol = riccati.hewer_pi(power_system, power_weights, power_oracle.K,
                           tol=1e-9)
    assert sol.iterations == 1
    assert np.abs(sol.P - power_oracle.P).max() < 1e-8


def test_hewer_rejects_nonstabilizing_start(power_system, power_weights):
    with pytest.raises(NotStabilizingError) as err:
        riccati.hewer_pi(power_system, power_weights, np.zeros((1, 3)))
    assert err.value.rho == pytest.approx(1.0176, abs=1e-3)


def test_hewer_matches_value_iteration_on_stable_plant():
    rng = np.random.default_rng(20)
    for _ in range(5):
        A = rng.standard_normal((2, 2))
        A *= 0.8 / matkit.spectral_radius(A)
        sys_d = lti.LinearSystem(A, rng.standard_normal((2, 1)))
        weights = lti.CostWeights(np.eye(2), np.eye(1))
        pi = riccati.hewer_pi(sys_d, weights, np.zeros((1, 2)), tol=1e-12)
        vi = riccati.value_iteration(sys_d, weights, tol=1e-12)
        assert np.abs(pi.P - vi.P).max() < 1e-8


def test_hewer_monotone_value_sequence(power_system, power_weights,
                                       power_oracle):
    # start from a stabilizing but clearly suboptimal gain
    K0 = riccati.optimal_gain(power_system, power_weights,
                              POWER_P_REF + np.eye(3))
    sol = riccati.hewer_pi(power_system, power_weights, K0, tol=1e-10)
    for (P_a, _), (P_b, _) in zip(sol.trace, sol.trace[1:]):
        assert np.linalg.eigvalsh(P_a - P_b).min() >= -1e-8
    for P_i, _ in sol.trace:
        assert np.linalg.eigvalsh(P_i - power_oracle.P).min() >= -1e-8
    assert sol.residual < 10 * 1e-10


def test_hewer_stability_chain(power_system, power_weights, power_oracle):
    K0 = riccati.optimal_gain(power_system, power_weights,
                              POWER_P_REF + np.eye(3))
    sol = riccati.hewer_pi(power_system, power_weights, K0, tol=1e-10)
    for _, K_i in sol.trace:
        rho = matkit.spectral_radius(power_system.A - power_system.B @ K_i)
        assert rho < 1.0


def test_hewer_iteration_budget(power_system, power_weights, power_oracle):
    with pytest.raises(MaxIterationsError):
        riccati.hewer_pi(power_system, power_weights, power_oracle.K,
                         tol=0.0, max_iter=3)


def test_value_iteration_fixed_point(power_system, power_weights,
                                     power_oracle):
    sol = riccati.value_iteration(power_system, power_weights,
                                  P0=power_oracle.P, tol=1e-9)
    assert sol.iterations == 1


def test_value_iteration_power_plant_reference(power_system, power_weights):
    sol = riccati.value_iteration(power_system, power_weights, tol=1e-12)
    assert np.abs(sol.P - POWER_P_REF).max() < 1e-3
    assert np.abs(sol.K - POWER_K_REF).max() < 1e-3
    assert sol.residual < 1e-10


def test_value_iteration_scalar_closed_form():
    sys_d, weights, p_root = scalar_problem()
    sol = riccati.value_iteration(sys_d, weights, tol=1e-14)
    assert sol.P[0, 0] == pytest.approx(p_root, rel=1e-10)


def test_value_iteration_rejects_indefinite_seed(power_system, power_weights):
    with pytest.raises(InvalidProblemError):
        riccati.value_iteration(power_system, power_weights,
                                P0=-np.eye(3))


def test_value_iteration_solution_is_stabilizing(power_system, power_weights):
    sol = riccati.value_iteration(power_system, power_weights, tol=1e-12)
    rho = matkit.spectral_radius(power_system.A - power_system.B @ sol.K)
    assert rho < 1.0
    assert np.linalg.eigvalsh(sol.P).min() > 0.0


def test_scipy_dare_cross_check(power_system, power_weights):
    # third, algorithmically unrelated route to the same fixed point
    import scipy.linalg
    P_ref = scipy.linalg.solve_discrete_are(
        power_system.A, power_system.B, power_weights.Q, power_weights.R)
    sol = riccati.value_iteration(power_system, power_weights, tol=1e-12)
    assert np.abs(sol.P - P_ref).max() < 1e-7


def _rel(X, Y):
    return np.linalg.norm(X - Y) / np.linalg.norm(Y)


def test_dare_reference_matches_value_iteration(power_system, power_weights,
                                                power_oracle, corpus):
    cases = [(power_system, power_weights, power_oracle)] + [
        (case["sys"], case["weights"],
         riccati.value_iteration(case["sys"], case["weights"], tol=1e-12))
        for case in corpus]
    for sys_d, weights, vi in cases:
        ref = riccati.dare_reference(sys_d, weights)
        assert _rel(ref.P, vi.P) <= 1e-10
        assert _rel(ref.K, vi.K) <= 1e-10
        assert ref.residual == riccati.are_residual(sys_d, weights, ref.P)
        assert np.array_equal(ref.P, ref.P.T)


@pytest.mark.parametrize("Q", [np.eye(2), np.diag([0.0, 1.0])],
                         ids=["mode-weighted", "mode-unweighted"])
def test_dare_reference_rejects_unstabilizable_plant(Q):
    # the first mode (1.5) is unstable and the input cannot reach it
    sys_d = lti.LinearSystem(np.diag([1.5, 0.5]), np.array([[0.0], [1.0]]))
    weights = lti.CostWeights(Q, np.eye(1))
    with pytest.raises(InvalidProblemError, match="no stabilizing"):
        riccati.dare_reference(sys_d, weights)


@pytest.mark.parametrize("bad_P, reason", [
    (lambda P: np.full_like(P, np.nan), "non-finite"),
    (lambda P: -P, "not positive semidefinite"),
    # K = 0 leaves the open-loop unstable plant as it is
    (lambda P: np.zeros_like(P), "does not stabilize"),
    (lambda P: P * (1.0 + 1e-6), "residual"),
], ids=["non-finite", "indefinite", "not-stabilizing", "residual"])
def test_dare_reference_verifies_the_solve(power_system, power_weights,
                                           monkeypatch, bad_P, reason):
    P_opt = riccati.dare_reference(power_system, power_weights).P
    monkeypatch.setattr(scipy.linalg, "solve_discrete_are",
                        lambda *args: bad_P(P_opt))
    with pytest.raises(InvalidProblemError, match=reason):
        riccati.dare_reference(power_system, power_weights)


def riccati_step_recursion(sys_d, weights, tol):
    """Value iteration spelled out with the public one-sweep function."""
    P = np.zeros((sys_d.n, sys_d.n))
    trace = []
    while True:
        P_next, K = riccati.riccati_step(sys_d, weights, P)
        trace.append((P, K))
        if np.linalg.norm(P_next - P, "fro") < tol:
            return (P_next, riccati.optimal_gain(sys_d, weights, P_next),
                    trace)
        P = P_next


def assert_same_recursion(sys_d, weights, close):
    sol = riccati.value_iteration(sys_d, weights, tol=1e-10)
    P, K, trace = riccati_step_recursion(sys_d, weights, tol=1e-10)
    assert sol.iterations == len(trace) == len(sol.trace)
    assert close(sol.P, P) and close(sol.K, K)
    for (P_a, K_a), (P_b, K_b) in zip(sol.trace, trace):
        assert close(P_a, P_b) and close(K_a, K_b)


def random_plant(rng, n, m):
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.5, 1.2) / matkit.spectral_radius(A)
    return (lti.LinearSystem(A, rng.standard_normal((n, m))),
            lti.CostWeights(np.eye(n), np.eye(m)))


def test_value_iteration_is_the_riccati_step_recursion_single_input(
        power_system, power_weights, corpus):
    # one input: every sweep solves a 1 x 1 system, bit for bit
    cases = [(power_system, power_weights)] + [
        (case["sys"], case["weights"]) for case in corpus
        if case["sys"].m == 1]
    assert len(cases) >= 11
    for sys_d, weights in cases:
        assert_same_recursion(sys_d, weights, np.array_equal)


def test_value_iteration_is_the_riccati_step_recursion_multi_input(corpus):
    # LAPACK builds may order the m x m elimination differently
    def close(X, Y):
        return np.allclose(X, Y, rtol=1e-13, atol=0.0)

    rng = np.random.default_rng(31)
    cases = [(case["sys"], case["weights"]) for case in corpus
             if case["sys"].m == 2]
    cases += [random_plant(rng, int(rng.integers(3, 6)), 3)
              for _ in range(10)]
    for sys_d, weights in cases:
        assert_same_recursion(sys_d, weights, close)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_value_iteration_fails_fast_on_unstabilizable_weighted_mode():
    # the unstable mode (1.5) is unreachable and Q weights it: P grows
    # like 1.5^(2k) until it overflows, near sweep 875
    sys_d = lti.LinearSystem(np.diag([1.5, 0.5]), np.array([[0.0], [1.0]]))
    weights = lti.CostWeights(np.eye(2), np.eye(1))
    with pytest.raises(InvalidProblemError, match="diverged"):
        riccati.value_iteration(sys_d, weights, max_iter=1000)

