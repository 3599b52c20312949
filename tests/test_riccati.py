import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from spilqr import lti, matkit, model_based, model_free, riccati
from spilqr.exceptions import (
    DimensionMismatchError,
    InvalidProblemError,
    MaxIterationsError,
    NotStabilizingError,
    SingularMatrixError,
    UnstableScaledSystemError,
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
    # two policy evaluations: the second confirms the first
    assert sol.iterations == 2
    assert np.abs(sol.P - power_oracle.P).max() < 1e-8


def test_hewer_rejects_nonstabilizing_start(power_system, power_weights):
    with pytest.raises(NotStabilizingError) as err:
        riccati.hewer_pi(power_system, power_weights, np.zeros((1, 3)))
    assert err.value.rho == pytest.approx(1.0176, abs=1e-3)


def test_hewer_refuses_a_start_within_the_margin_as_not_stabilizing():
    # rho(A - B K0) = 1 - 5e-10 is Schur stable, but within
    # matkit.STABILITY_MARGIN of 1, where no evaluation is safe; neither
    # refusal may print that radius as 1
    sys_d = lti.LinearSystem(np.diag([1.0 - 5e-10, 0.5]), [[0.0], [1.0]])
    weights = lti.CostWeights(np.eye(2), np.eye(1))
    with pytest.raises(NotStabilizingError, match=r"does not stabilize the "
                       r"plant \(spectral radius 0\.9999999995 >= 1 - "
                       r"1e-09\)") as err:
        riccati.hewer_pi(sys_d, weights, np.zeros((1, 2)))
    assert err.value.rho == 1.0 - 5e-10
    with pytest.raises(UnstableScaledSystemError, match=r"at factor 1 "
                       r"\(spectral radius 0\.9999999995 >= 1 - 1e-09\)"):
        model_based.scaled_policy_evaluation(sys_d, weights,
                                             np.zeros((1, 2)), 1.0)


def test_hewer_rejects_misshapen_start(power_system, power_weights):
    with pytest.raises(DimensionMismatchError, match="K0 must be 1 x 3"):
        riccati.hewer_pi(power_system, power_weights, np.zeros((1, 2)))


def test_hewer_one_schur_factorization_per_evaluation(power_system,
                                                      power_weights,
                                                      monkeypatch):
    factored, radii = [], []
    factor, radius = matkit._stein_factor, matkit.spectral_radius
    monkeypatch.setattr(matkit, "_stein_factor",
                        lambda F: factored.append(F) or factor(F))
    monkeypatch.setattr(matkit, "spectral_radius",
                        lambda A: radii.append(A) or radius(A))
    sol = riccati.hewer_pi(power_system, power_weights, [[0.2, 0.4, 0.6]],
                           tol=1e-10)
    A, B = power_system.A, power_system.B
    # one factorization per evaluation, of the evaluated gain's closed
    # loop; the first also gives the stabilizing check its rho(A - B K0),
    # and the final gain is never factored
    assert sol.iterations >= 3
    assert len(factored) == len(sol.trace) == sol.iterations
    for F, (_, K) in zip(factored, sol.trace):
        assert np.array_equal(F, A - B @ K)
    assert not any(np.array_equal(F, A - B @ sol.K) for F in factored)
    assert radii == []


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
    # from half the optimal gain Hewer's method takes 6 evaluations
    with pytest.raises(MaxIterationsError, match="in 3 iterations"):
        riccati.hewer_pi(power_system, power_weights, 0.5 * power_oracle.K,
                         tol=1e-9, max_iter=3)


def test_value_iteration_budget(power_system, power_weights):
    # from zero value iteration takes 261 sweeps at this tolerance
    with pytest.raises(MaxIterationsError, match="in 3 iterations") as info:
        riccati.value_iteration(power_system, power_weights, tol=1e-10,
                                max_iter=3)
    P, K = info.value.last
    assert P.shape == (3, 3) and K is None


def solve_by(solver, sys_d, weights, K_opt, data, tol, i_max=500):
    """The solution of one policy-iteration solver on the power plant:
    Hewer's method from half the optimal gain, the scaling solvers from
    the zero gain."""
    if solver == "hewer":
        return riccati.hewer_pi(sys_d, weights, 0.5 * K_opt, tol=tol,
                                max_iter=i_max)
    if solver == "spi-model-based":
        return model_based.spi_model_based(
            sys_d, weights, np.zeros((1, 3)), tol=tol, i_max=i_max).solution
    return model_free.spi_model_free(data, np.zeros((1, 3)), weights,
                                     tol=tol, i_max=i_max).solution


POLICY_ITERATION_SOLVERS = ["hewer", "spi-model-based", "spi-model-free"]


@pytest.mark.parametrize("solver", POLICY_ITERATION_SOLVERS)
def test_iterations_count_evaluations_within_budget(
        power_system, power_weights, power_oracle, power_data, solver):
    # a solve that reports k iterations, one per policy evaluation, runs
    # within a budget of k and not within k - 1
    def solve(i_max):
        return solve_by(solver, power_system, power_weights, power_oracle.K,
                        power_data, 1e-9, i_max)

    k = solve(500).iterations
    assert solve(k).iterations == k
    with pytest.raises(MaxIterationsError):
        solve(k - 1)


@pytest.mark.parametrize("solver", POLICY_ITERATION_SOLVERS)
def test_policy_iteration_stops_at_first_step_below_tol(
        power_system, power_weights, power_oracle, power_data, solver):
    tol = 1e-6
    sol = solve_by(solver, power_system, power_weights, power_oracle.K,
                   power_data, tol)
    steps = [np.linalg.norm(P_b - P_a, "fro") / np.linalg.norm(P_b, "fro")
             for (P_a, _), (P_b, _) in zip(sol.trace, sol.trace[1:])]
    assert steps[-1] <= tol
    assert all(step > tol for step in steps[:-1])


UNITS_SWEEP_CASES = 12


@pytest.mark.parametrize("solver", POLICY_ITERATION_SOLVERS)
def test_stop_does_not_depend_on_the_units_of_the_weights(sweep, solver):
    # (s Q, s R) has the value s P* and the gain K*: a solve at any s takes
    # the evaluations it takes at s = 1 and lands on K*; Hewer's method
    # starts from a perturbed K*
    for i, case in enumerate(sweep[:UNITS_SWEEP_CASES]):
        sys_d, weights = case["sys"], case["weights"]
        K_opt = riccati.dare_reference(sys_d, weights).K
        K_start = K_opt + 1e-2 * np.random.default_rng(i).standard_normal(
            K_opt.shape)
        counts = set()
        for s in (1e-6, 1.0, 1e6):
            scaled = lti.CostWeights(s * weights.Q, s * weights.R)
            if solver == "hewer":
                sol = riccati.hewer_pi(sys_d, scaled, K_start)
            elif solver == "spi-model-based":
                sol = model_based.spi_model_based(sys_d, scaled,
                                                  case["K0"]).solution
            else:
                sol = model_free.spi_model_free(case["data"], case["K0"],
                                                scaled).solution
            counts.add(sol.iterations)
            assert np.linalg.norm(sol.K - K_opt, "fro") < 1e-9, (i, s)
        assert len(counts) == 1, (i, counts)


@pytest.mark.parametrize("solver", [*POLICY_ITERATION_SOLVERS, "vi"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(log_s=st.floats(-6.0, 6.0),
       log_t=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
@example(log_s=-6.0, log_t=[-3.0, 3.0, 3.0])
@example(log_s=6.0, log_t=[3.0, -3.0, 0.0])
def test_answer_does_not_depend_on_units(power_system, power_weights,
                                         power_trajectory, solver, log_s,
                                         log_t):
    # the power plant with weights (s Q, s R) and states x' = T x, T
    # diagonal: A' = T A T^-1, B' = T B, Q' = T^-1 Q T^-1 and the recording
    # times T have the optimal gain K* T^-1, so a solve in these units
    # returns, as K' T, the gain it returns in the plant's own units;
    # Hewer's method starts from half of (rounded) K* in both.  The two
    # examples spread the state units over the full six decades.  Value
    # iteration keeps the plant's state units: its stop, like policy
    # iteration's, weighs P by them, and at its linear rate one sweep more
    # or less moves the gain by about tol.
    s, t = 10.0 ** log_s, 10.0 ** np.array(log_t)
    if solver == "vi":
        t = np.ones(3)
    T, T_inv = np.diag(t), np.diag(1.0 / t)
    system = lti.LinearSystem(T @ power_system.A @ T_inv, T @ power_system.B)
    weights = lti.CostWeights(s * T_inv @ power_weights.Q @ T_inv,
                              s * power_weights.R)

    def solve(system, weights, K_ref, states):
        if solver == "vi":
            return riccati.value_iteration(system, weights, tol=1e-8).K
        data = model_free.RegressionData(lti.Trajectory(
            states, power_trajectory.inputs)) \
            if solver == "spi-model-free" else None
        return solve_by(solver, system, weights, K_ref, data, 1e-8).K

    K_unit = solve(power_system, power_weights, POWER_K_REF,
                   power_trajectory.states)
    K = solve(system, weights, POWER_K_REF @ T_inv,
              power_trajectory.states * t) @ T
    assert np.linalg.norm(K - K_unit) <= 1e-10 * np.linalg.norm(K_unit)


def test_value_iteration_default_tol_is_relative(power_system,
                                                 power_weights):
    # at weights x 1e-6 an absolute stop ended after 127 sweeps with a gain
    # 2.5e-5 off; the relative stop takes the unit weights' 261 sweeps, and
    # at a power of 2 it runs the unit recursion scaled exactly
    K_opt = riccati.dare_reference(power_system, power_weights).K
    unit = riccati.value_iteration(power_system, power_weights)
    for s in (1e-6, 2.0**-20):
        scaled = lti.CostWeights(s * power_weights.Q, s * power_weights.R)
        sol = riccati.value_iteration(power_system, scaled)
        assert sol.iterations == unit.iterations == 261
        assert np.linalg.norm(sol.K - K_opt, "fro") < 1e-9
    assert np.array_equal(sol.K, unit.K) and np.array_equal(sol.P, s * unit.P)


def test_value_iteration_never_stops_on_steps_that_do_not_shrink():
    # the mode at 1 is unreachable and Q weights it: P grows by 1 per
    # sweep, so the step tends to 1 while ||P||_F grows without bound.  A
    # plain relative stop (step <= tol ||P||_F) accepts this after about
    # 1,000 sweeps; the contraction factor q = 1 never does
    sys_d = lti.LinearSystem(np.diag([1.0, 0.5]), np.array([[0.0], [1.0]]))
    weights = lti.CostWeights(np.eye(2), np.eye(1))
    with pytest.raises(MaxIterationsError, match="in 20000 iterations"):
        riccati.value_iteration(sys_d, weights, tol=1e-3, max_iter=20000)


def test_tiny_weights_solve_to_the_unit_gain(power_system, power_weights,
                                            power_data):
    # weights x 1e-12 are positive definite relative to their own size
    # (an absolute floor refused R), and both scaling solvers land on the
    # gain of the unit weights
    K_opt = riccati.dare_reference(power_system, power_weights).K
    tiny = lti.CostWeights(1e-12 * power_weights.Q, 1e-12 * power_weights.R)
    mb = model_based.spi_model_based(power_system, tiny, np.zeros((1, 3)))
    mf = model_free.spi_model_free(power_data, np.zeros((1, 3)), tiny)
    for report in (mb, mf):
        assert np.linalg.norm(report.solution.K - K_opt, "fro") < 1e-9


def test_large_value_plants_converge_within_40_evaluations(wide_sweep):
    # the wide sweep's plants with ||P*||_F > 1e4 and n <= 20, which an
    # absolute stop drove to the evaluation budget
    solved = 0
    for sys_d, weights, K0 in wide_sweep:
        if sys_d.n > 20 or np.linalg.norm(scipy.linalg.solve_discrete_are(
                sys_d.A, sys_d.B, weights.Q, weights.R), "fro") <= 1e4:
            continue
        sol = model_based.spi_model_based(sys_d, weights, K0, tol=1e-5,
                                          i_max=40).solution
        assert sol.residual <= 1e-8 * np.linalg.norm(sol.P, "fro")
        solved += 1
    assert solved == 81


@pytest.mark.parametrize("solver", ["hewer", "vi", "spi-model-based",
                                    "dare"])
def test_residual_is_are_residual_of_the_solution(power_system,
                                                  power_weights, corpus,
                                                  solver):
    # each solver takes the residual from the gain it already holds; its
    # P is exactly symmetric, so that is are_residual(P) bit for bit
    cases = [(power_system, power_weights, np.zeros((1, 3)))] + [
        (case["sys"], case["weights"], case["K0"]) for case in corpus[:10]]
    for sys_d, weights, K0 in cases:
        if solver == "hewer":
            K_opt = riccati.dare_reference(sys_d, weights).K
            sol = riccati.hewer_pi(sys_d, weights, 0.5 * K_opt)
        elif solver == "vi":
            sol = riccati.value_iteration(sys_d, weights)
        elif solver == "spi-model-based":
            sol = model_based.spi_model_based(sys_d, weights, K0).solution
        else:
            sol = riccati.dare_reference(sys_d, weights)
        assert sol.residual == riccati.are_residual(sys_d, weights, sol.P)


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
    # the first mode (1.5) is unstable and the input cannot reach it;
    # the refusal is scipy's, by its text, and warns of nothing
    sys_d = lti.LinearSystem(np.diag([1.5, 0.5]), np.array([[0.0], [1.0]]))
    weights = lti.CostWeights(Q, np.eye(1))
    text = r"Failed to find a finite solution\."
    with pytest.raises(np.linalg.LinAlgError, match=f"^{text}$"):
        scipy.linalg.solve_discrete_are(sys_d.A, sys_d.B, Q, np.eye(1))
    with pytest.raises(InvalidProblemError,
                       match=f"^DARE solve failed, no stabilizing solution: "
                             f"{text}$"):
        riccati.dare_reference(sys_d, weights)


def test_dare_reference_rejects_a_pencil_at_the_unit_circle():
    # an orthogonal A puts every mode on the unit circle, and a B of size
    # 2e-8 barely moves them, so the symplectic pencil has eigenvalues at
    # the circle; scipy and the kernel refuse it with the same text
    rng = np.random.default_rng(0)
    A = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    B = 2e-8 * rng.standard_normal((3, 1))
    Q, R = 0.0655 * np.eye(3), np.eye(1)
    text = (r"The associated symplectic pencil has eigenvalues too close to "
            r"the unit circle")
    for solve in (scipy.linalg.solve_discrete_are, riccati._schur_dare):
        with pytest.raises(np.linalg.LinAlgError, match=f"^{text}$"):
            solve(A, B, Q, R)
    with pytest.raises(InvalidProblemError,
                       match=f"^DARE solve failed, no stabilizing solution: "
                             f"{text}$"):
        riccati.dare_reference(lti.LinearSystem(A, B), lti.CostWeights(Q, R))


def test_schur_dare_is_scipy_to_the_bit(power_system, power_weights, sweep,
                                        wide_sweep):
    # the kernel runs solve_discrete_are's LAPACK calls: the same P, bit
    # for bit, on every plant where scipy answers, balanced or not
    cases = [(power_system, scale * power_weights.Q, scale * power_weights.R)
             for scale in (1.0, 1e-13)]
    cases += [(case["sys"], case["weights"].Q, case["weights"].R)
              for case in sweep]
    cases += [(sys_d, weights.Q, weights.R)
              for sys_d, weights, _ in wide_sweep if sys_d.n <= 20]
    for sys_d, Q, R in cases:
        P = scipy.linalg.solve_discrete_are(sys_d.A, sys_d.B, Q, R)
        assert np.array_equal(riccati._schur_dare(sys_d.A, sys_d.B, Q, R), P)
    assert len(cases) == 2 + 150 + 507


def test_dare_reference_refuses_a_failed_qz_iteration(power_system,
                                                      power_weights,
                                                      monkeypatch):
    # scipy warns and goes on when dgges reports a failed QZ iteration;
    # the reference refuses it by name, with no warning
    dgges = scipy.linalg.lapack.dgges

    def failing(*args, **kwargs):
        *result, info = dgges(*args, **kwargs)
        return (*result, 1)

    monkeypatch.setattr(scipy.linalg.lapack, "dgges", failing)
    with pytest.raises(InvalidProblemError,
                       match=r"QZ iteration failed \(dgges info 1\)"):
        riccati.dare_reference(power_system, power_weights)


def test_value_iteration_refuses_a_gain_that_does_not_stabilize():
    # the cost misses the unstable mode 1.5, which the input reaches: from
    # P0 = 0 the recursion converges to the smallest Riccati solution,
    # diag(0, 1.13), whose gain leaves that mode alone; the plant is
    # stabilizable, and the reference's gain stabilizes it
    sys_d = lti.LinearSystem(np.diag([1.5, 0.5]), np.array([[1.0], [1.0]]))
    weights = lti.CostWeights(np.diag([0.0, 1.0]), np.eye(1))
    with pytest.raises(InvalidProblemError, match=r"does not stabilize the "
                       r"plant \(spectral radius 1.5\)"):
        riccati.value_iteration(sys_d, weights)
    K = riccati.dare_reference(sys_d, weights).K
    assert matkit.spectral_radius(sys_d.A - sys_d.B @ K) < 1.0


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
    monkeypatch.setattr(riccati, "_schur_dare", lambda *args: bad_P(P_opt))
    with pytest.raises(InvalidProblemError, match=reason):
        riccati.dare_reference(power_system, power_weights)


def test_dare_reference_bound_is_relative_to_p(power_system,
                                              power_weights):
    # at weights x 1e-13 scipy's P is about 2e-4 off in relative terms and
    # its residual, 7e-17, is small only against an absolute bound of 1e-8;
    # against ||P||_F (about 4e-12) it is refused
    tiny = lti.CostWeights(1e-13 * power_weights.Q, 1e-13 * power_weights.R)
    with pytest.raises(InvalidProblemError, match="Riccati residual"):
        riccati.dare_reference(power_system, tiny)


def riccati_step_recursion(sys_d, weights, tol):
    """Value iteration spelled out with the one-sweep kernel, on each
    iterate as the matrix rule symmetrizes it, and the stop of every
    solver."""
    P, last = np.zeros((sys_d.n, sys_d.n)), math.inf
    trace = []
    while True:
        P_next, K = riccati._sweep(sys_d.A, sys_d.B, weights.Q, weights.R,
                                   matkit.check_symmetric(P))
        trace.append((P, K))
        stop, step = riccati._converged(P_next, P, last, tol)
        if stop:
            return (P_next, riccati.optimal_gain(sys_d, weights, P_next),
                    trace)
        P, last = P_next, step


LAYOUTS = {"C": lambda M, n: M[:n, :n].copy(),
           "F": lambda M, n: np.asfortranarray(M[:n, :n]),
           "strided": lambda M, n: M[::2, ::2].T}


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS)
def test_converged_step_is_the_frobenius_norm_in_every_layout(layout):
    # the step is np.linalg.norm(P - P_prev, "fro") to the bit, which sums
    # the entries in memory order, whatever the layout of the pair
    rng = np.random.default_rng(46)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        scale = 10.0 ** rng.uniform(-3, 3)
        G = scale * rng.standard_normal((2, 2 * n, 2 * n))
        P, P_prev = (layout(M, n) for M in G)
        assert P.flags.c_contiguous == (layout is LAYOUTS["C"])
        _, step = riccati._converged(P, P_prev, math.inf, 1e-8)
        assert step == np.linalg.norm(P - P_prev, "fro")


def assert_same_recursion(sys_d, weights):
    sol = riccati.value_iteration(sys_d, weights, tol=1e-10)
    P, K, trace = riccati_step_recursion(sys_d, weights, tol=1e-10)
    assert sol.iterations == len(trace) == len(sol.trace)
    assert np.array_equal(sol.P, P) and np.array_equal(sol.K, K)
    for (P_a, K_a), (P_b, K_b) in zip(sol.trace, trace):
        assert np.array_equal(P_a, P_b) and np.array_equal(K_a, K_b)


def random_plant(rng, n, m):
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.5, 1.2) / matkit.spectral_radius(A)
    return (lti.LinearSystem(A, rng.standard_normal((n, m))),
            lti.CostWeights(np.eye(n), np.eye(m)))


def test_value_iteration_is_the_riccati_step_recursion_single_input(
        power_system, power_weights, corpus):
    cases = [(power_system, power_weights)] + [
        (case["sys"], case["weights"]) for case in corpus
        if case["sys"].m == 1]
    assert len(cases) >= 11
    for sys_d, weights in cases:
        assert_same_recursion(sys_d, weights)


def test_value_iteration_is_the_riccati_step_recursion_multi_input(corpus):
    rng = np.random.default_rng(31)
    cases = [(case["sys"], case["weights"]) for case in corpus
             if case["sys"].m == 2]
    cases += [random_plant(rng, int(rng.integers(3, 6)), 3)
              for _ in range(10)]
    for sys_d, weights in cases:
        assert_same_recursion(sys_d, weights)


@pytest.mark.parametrize("entry, expected", [
    (riccati.optimal_gain, ["P"]), (riccati.are_residual, ["P"]),
    (lambda s, w, P: model_based.scaled_policy_improvement(s, w, P, 0.5),
     ["P"]),
    (lambda s, w, P: riccati.dare_reference(s, w), ["DARE solution"]),
    (lambda s, w, P: riccati.value_iteration(s, w, P0=np.eye(3)), ["P0"]),
    # Q is judged once checked; R's definiteness test checks it again, "S"
    (lambda s, w, P: lti.CostWeights(np.eye(3), np.eye(1)),
     ["Q", "R", "S"])],
    ids=["optimal_gain", "are_residual", "scaled_policy_improvement",
         "dare_reference", "value_iteration", "cost_weights"])
def test_value_matrix_passes_the_matrix_rule_once(power_system,
                                                  power_weights, monkeypatch,
                                                  entry, expected):
    # one _as_matrix call per value matrix, whatever else is asked of it;
    # value iteration's sweeps keep P finite and exactly symmetric
    names = []
    as_matrix = matkit._as_matrix

    def counting(A, name="matrix", *args, **kwargs):
        names.append(name)
        return as_matrix(A, name, *args, **kwargs)

    monkeypatch.setattr(matkit, "_as_matrix", counting)
    entry(power_system, power_weights, POWER_P_REF)
    assert names == expected


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gain_solve_is_np_linalg_solve_to_the_bit(m):
    # the one dgesv of every gain returns np.linalg.solve's bits, C-ordered
    rng = np.random.default_rng(m)
    for _ in range(200):
        n = int(rng.integers(m, 9))
        G = rng.standard_normal((m, m))
        S = G @ G.T + 10.0 ** rng.uniform(-3, 3) * np.eye(m)
        N = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3)
        K = riccati._solve_gain(S, N)
        assert K.flags.c_contiguous
        assert np.array_equal(K, np.linalg.solve(S, N))


def test_gain_solve_refuses_a_singular_system():
    S = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(S, np.eye(2))
    with pytest.raises(SingularMatrixError, match="numerically singular"):
        riccati._solve_gain(S, np.eye(2))


def test_no_solver_calls_np_linalg_solve(power_system, power_weights,
                                         power_data, monkeypatch):
    # every gain goes through riccati._solve_gain's dgesv
    def refuse(*args):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    K0 = np.zeros((1, 3))
    model_based.spi_model_based(power_system, power_weights, K0)
    model_free.spi_model_free(power_data, K0, power_weights)
    riccati.hewer_pi(power_system, power_weights, [[0.2, 0.4, 0.6]])
    riccati.value_iteration(power_system, power_weights)
    P = riccati.dare_reference(power_system, power_weights).P
    riccati.are_residual(power_system, power_weights, P)


def test_value_iteration_fails_fast_on_unstabilizable_weighted_mode():
    # the unstable mode (1.5) is unreachable and Q weights it: P grows
    # like 1.5^(2k), and the squared step overflows at sweep 439; the
    # suite's warnings-as-errors filter shows that no numpy warning comes
    # before the named error
    sys_d = lti.LinearSystem(np.diag([1.5, 0.5]), np.array([[0.0], [1.0]]))
    weights = lti.CostWeights(np.eye(2), np.eye(1))
    with pytest.raises(InvalidProblemError, match="diverged at sweep 439$"):
        riccati.value_iteration(sys_d, weights, max_iter=1000)

