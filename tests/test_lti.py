import numpy as np
import pytest
import scipy.stats

from spilqr import benchmarks, lti, matkit
from spilqr.exceptions import (
    DimensionMismatchError,
    DivergenceError,
    InvalidProblemError,
)

from conftest import POWER_A_REF, POWER_B_REF


def test_linear_system_validation():
    with pytest.raises(DimensionMismatchError):
        lti.LinearSystem(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(DimensionMismatchError):
        lti.LinearSystem(np.eye(2), np.ones((3, 1)))
    with pytest.raises(InvalidProblemError):
        lti.LinearSystem(np.array([[np.nan]]), np.ones((1, 1)))


def test_cost_weights_validation():
    with pytest.raises(InvalidProblemError):
        lti.CostWeights(np.diag([1.0, -1.0]), np.eye(1))
    with pytest.raises(InvalidProblemError):
        lti.CostWeights(np.eye(2), np.zeros((1, 1)))
    # positive semidefinite Q is allowed
    lti.CostWeights(np.diag([1.0, 0.0]), np.eye(1))


def test_zoh_integrator_of_identity():
    sys_d = lti.zoh_discretize(np.zeros((2, 2)), np.eye(2), 0.5)
    assert np.allclose(sys_d.A, np.eye(2))
    assert np.allclose(sys_d.B, 0.5 * np.eye(2))


def test_zoh_nilpotent_closed_form():
    # exp(A_c T) = I + A_c T exactly when A_c^2 = 0
    A_c = np.array([[0.0, 1.0], [0.0, 0.0]])
    sys_d = lti.zoh_discretize(A_c, np.array([[0.0], [1.0]]), 1.0)
    assert np.allclose(sys_d.A, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)
    assert np.allclose(sys_d.B, [[0.5], [1.0]], atol=1e-14)


def test_zoh_scalar_closed_form():
    sys_d = lti.zoh_discretize(np.array([[-1.0]]), np.array([[1.0]]), 1.0)
    assert sys_d.A[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert sys_d.B[0, 0] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)


def test_zoh_power_plant_matches_reference():
    A_c, B_c = benchmarks.power_plant_continuous()
    sys_d = lti.zoh_discretize(A_c, B_c, 0.01)
    assert np.abs(sys_d.A - POWER_A_REF).max() < 5e-5
    assert np.abs(sys_d.B - POWER_B_REF).max() < 5e-5


def test_zoh_commutes_with_block_diagonal():
    rng = np.random.default_rng(11)
    A1 = rng.standard_normal((2, 2))
    A2 = rng.standard_normal((3, 3))
    B1 = rng.standard_normal((2, 1))
    B2 = rng.standard_normal((3, 2))
    A = np.block([[A1, np.zeros((2, 3))], [np.zeros((3, 2)), A2]])
    B = np.block([[B1, np.zeros((2, 2))], [np.zeros((3, 1)), B2]])
    full = lti.zoh_discretize(A, B, 0.3)
    p1 = lti.zoh_discretize(A1, B1, 0.3)
    p2 = lti.zoh_discretize(A2, B2, 0.3)
    assert np.allclose(full.A[:2, :2], p1.A, atol=1e-12)
    assert np.allclose(full.A[2:, 2:], p2.A, atol=1e-12)
    assert np.allclose(full.B[:2, :1], p1.B, atol=1e-12)
    assert np.allclose(full.B[2:, 1:], p2.B, atol=1e-12)
    assert np.abs(full.A[:2, 2:]).max() < 1e-12
    assert np.abs(full.B[:2, 1:]).max() < 1e-12


def test_zoh_rejects_bad_sample_time():
    with pytest.raises(InvalidProblemError):
        lti.zoh_discretize(np.eye(2), np.ones((2, 1)), 0.0)
    with pytest.raises(InvalidProblemError):
        lti.zoh_discretize(np.eye(2), np.ones((2, 1)), np.nan)


def test_zoh_rejects_nonfinite():
    cases = [(np.array([[np.inf]]), np.ones((1, 1))),
             (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones((2, 1))),
             (np.eye(2), np.array([[-np.inf], [1.0]])),
             # expm maps this plant to finite matrices, A = B = 0
             (np.array([[-np.inf]]), np.zeros((1, 1)))]
    for A_c, B_c in cases:
        with pytest.raises(InvalidProblemError):
            lti.zoh_discretize(A_c, B_c, 0.1)


def test_simulate_zero_dynamics():
    sys_d = lti.LinearSystem(np.zeros((2, 2)), np.ones((2, 1)))
    traj = lti.simulate(sys_d, [1.0, 2.0], lambda k, x: np.zeros(1), 5)
    assert np.array_equal(traj.states[0], [1.0, 2.0])
    assert np.abs(traj.states[1:]).max() == 0.0
    assert traj.length == 5


def test_simulate_recursion_exact():
    rng = np.random.default_rng(12)
    sys_d = lti.LinearSystem(rng.standard_normal((3, 3)) * 0.4,
                             rng.standard_normal((3, 2)))
    policy = lti.exploration_input(2, num_terms=5, seed=3)
    traj = lti.simulate(sys_d, rng.standard_normal(3), policy, 20)
    for k in range(traj.length):
        expected = sys_d.A @ traj.states[k] + sys_d.B @ traj.inputs[k]
        assert np.array_equal(traj.states[k + 1], expected)


def test_simulate_deterministic_given_seed():
    sys_d = benchmarks.power_plant()
    x0 = benchmarks.POWER_PLANT_X0
    t1 = lti.simulate(sys_d, x0, lti.exploration_input(1, seed=42), 30)
    t2 = lti.simulate(sys_d, x0, lti.exploration_input(1, seed=42), 30)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.inputs, t2.inputs)
    t3 = lti.simulate(sys_d, x0, lti.exploration_input(1, seed=43), 30)
    assert not np.array_equal(t1.inputs, t3.inputs)


def test_simulate_stabilized_loop_decays():
    # normal closed loop with radius 0.9: contraction beats 1e-6 by k=200
    rng = np.random.default_rng(13)
    Vq, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A_cl = Vq @ np.diag([0.9, 0.5, -0.3]) @ Vq.T
    sys_d = lti.LinearSystem(A_cl, np.zeros((3, 1)))
    x0 = np.array([1.0, -1.0, 0.5])
    traj = lti.simulate(sys_d, x0, lambda k, x: np.zeros(1), 200)
    assert np.linalg.norm(traj.states[-1]) < 1e-6 * np.linalg.norm(x0)


def test_simulate_divergence_guard():
    sys_d = lti.LinearSystem(np.array([[2.0]]), np.array([[0.0]]))
    with pytest.raises(DivergenceError) as err:
        lti.simulate(sys_d, [1.0], lambda k, x: np.zeros(1), 60)
    assert err.value.step <= 60
    partial = err.value.partial
    assert partial.states.shape[0] == err.value.step + 1


@pytest.mark.parametrize("x0, policy", [
    ([float("nan")], lambda k, x: np.zeros(1)),
    ([1.0], lambda k, x: np.full(1, np.nan if k == 3 else 0.0)),
], ids=["nan-x0", "nan-input"])
def test_simulate_refuses_nan_state(x0, policy):
    # a NaN state fails the divergence guard as an infinite one does, and
    # says so in its own words
    sys_d = lti.LinearSystem(np.array([[0.5]]), np.array([[1.0]]))
    step = 1 if np.isnan(x0[0]) else 4
    with pytest.raises(DivergenceError,
                       match=f"^state is not finite at step {step}$") as err:
        lti.simulate(sys_d, x0, policy, 10)
    assert err.value.step == step


@pytest.mark.parametrize("steps", [-1, float("nan")])
def test_simulate_rejects_negative_steps(steps):
    sys_d = lti.LinearSystem(np.array([[0.5]]), np.array([[1.0]]))
    with pytest.raises(InvalidProblemError, match="steps"):
        lti.simulate(sys_d, [1.0], lambda k, x: np.zeros(1), steps)


def test_gain_policy_sign():
    # state feedback enters the plant as u = -K x
    sys_d = lti.LinearSystem(np.eye(2), np.array([[1.0], [0.0]]))
    K = np.array([[2.0, 0.0]])
    traj = lti.simulate(sys_d, [1.0, 5.0], lambda k, x: -K @ x, 1)
    assert np.array_equal(traj.inputs[0], [-2.0])
    assert np.array_equal(traj.states[1], [-1.0, 5.0])


def test_exploration_input_zero_frequency():
    policy = lti.exploration_input(1, num_terms=1, freq_low=0.0,
                                   freq_high=0.0, seed=0)
    assert all(policy(k, None)[0] == 0.0 for k in range(10))


def test_exploration_input_zero_at_origin():
    for seed in range(5):
        policy = lti.exploration_input(2, seed=seed)
        assert np.abs(policy(0, None)).max() == 0.0


def test_exploration_input_channels_independent():
    policy = lti.exploration_input(2, seed=1)
    u = policy(1, None)
    assert u[0] != u[1]


def test_exploration_frequencies_uniform():
    # KS test at alpha = 0.01 on 1e5 frequency draws
    policy = lti.exploration_input(1, num_terms=100_000, seed=14)
    draws = policy.frequencies.ravel()
    stat = scipy.stats.kstest(draws, scipy.stats.uniform(-10, 20).cdf)
    assert stat.pvalue > 0.01


def test_controllability_cases():
    sys_d = lti.LinearSystem(np.diag([1.0, 2.0]), np.array([[1.0], [1.0]]))
    assert lti.is_controllable(sys_d)
    sys_u = lti.LinearSystem(np.eye(2), np.array([[1.0], [0.0]]))
    assert not lti.is_controllable(sys_u)


def _small_radius_plant(seed, n=20, m=2, rho=0.4):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= rho / matkit.spectral_radius(A)
    return A, rng.standard_normal((n, m))


def _pbh_controllable(A, B):
    n = A.shape[0]
    return all(np.linalg.matrix_rank(np.hstack([A - lam * np.eye(n), B]))
               == n for lam in np.linalg.eigvals(A))


@pytest.mark.parametrize("seed", [101, 143, 196, 231])
def test_controllable_small_radius_plant(seed):
    # A^k B shrinks like 0.4^k; unscaled Krylov blocks fell below the
    # rank tolerance and these PBH-controllable plants were rejected
    A, B = _small_radius_plant(seed)
    assert _pbh_controllable(A, B)
    assert lti.is_controllable(lti.LinearSystem(A, B))
    assert lti.is_observable(A.T, B.T)


def test_controllability_small_radius_no_false_rejects():
    for seed in range(1000, 1100):
        A, B = _small_radius_plant(seed)
        assert lti.is_controllable(lti.LinearSystem(A, B)), seed


def test_controllability_hidden_uncontrollable_block():
    # a 2-mode block that B cannot reach, hidden by an orthogonal change
    # of coordinates, is rejected at every scale of A
    rng = np.random.default_rng(17)
    n = 20
    for _ in range(50):
        A = rng.standard_normal((n, n))
        A[n - 2:, :n - 2] = 0.0
        A *= rng.uniform(0.2, 1.2) / matkit.spectral_radius(A)
        B = np.vstack([rng.standard_normal((n - 2, 2)), np.zeros((2, 2))])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A, B = Q @ A @ Q.T, Q @ B
        assert not lti.is_controllable(lti.LinearSystem(A, B))
        assert not lti.is_observable(A.T, B.T)


def test_controllability_nilpotent_plant():
    # rho(A) = 0: no rescaling; a shift chain driven at its head
    A = np.eye(4, k=-1)
    assert lti.is_controllable(lti.LinearSystem(A, np.eye(4, 1)))
    assert not lti.is_controllable(lti.LinearSystem(A, np.eye(4)[:, [3]]))
    assert lti.is_observable(A, np.eye(4)[[3]])
    assert not lti.is_observable(A, np.eye(4)[[0]])


def test_power_plant_controllable(power_system):
    assert lti.is_controllable(power_system)
    C = lti.controllability_matrix(power_system)
    assert matkit.numerical_rank(C, 1e-8) == 3


def test_observability_cases():
    assert lti.is_observable(np.array([[1.0, 1.0], [0.0, 1.0]]),
                             np.array([[1.0, 0.0]]))
    assert not lti.is_observable(np.eye(2), np.array([[1.0, 0.0]]))


def test_power_plant_observable(power_system, power_weights):
    assert lti.is_observable(power_system.A,
                             matkit.sym_sqrt(power_weights.Q))


def _test_plants():
    """The plants of the controllability tests above."""
    yield np.diag([1.0, 2.0]), np.array([[1.0], [1.0]])
    yield np.eye(2), np.array([[1.0], [0.0]])
    for seed in (101, 143, 196, 231, *range(1000, 1020)):
        yield _small_radius_plant(seed)
    rng = np.random.default_rng(17)
    n = 20
    for _ in range(50):
        A = rng.standard_normal((n, n))
        A[n - 2:, :n - 2] = 0.0
        A *= rng.uniform(0.2, 1.2) / matkit.spectral_radius(A)
        B = np.vstack([rng.standard_normal((n - 2, 2)), np.zeros((2, 2))])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        yield Q @ A @ Q.T, Q @ B
    A = np.eye(4, k=-1)
    yield A, np.eye(4, 1)
    yield A, np.eye(4)[:, [3]]
    yield POWER_A_REF, POWER_B_REF


def test_rank_decisions_on_plants_match_untransposed_svd():
    # numerical_rank takes the singular values of a wide Krylov matrix
    # from its transpose; each decision is that of the matrix as given
    for A, B in _test_plants():
        for pair in ((A, B), (A.T, B)):
            rho = matkit.spectral_radius(pair[0])
            K = lti.controllability_matrix(lti.LinearSystem(
                pair[0] / rho if rho > 0 else pair[0], pair[1]))
            s = np.linalg.svd(K, compute_uv=False)
            assert matkit.numerical_rank(K, matkit.RANK_TOL) \
                == np.count_nonzero(s > matkit.RANK_TOL * s[0])


def test_observable_full_rank_output_skips_krylov(monkeypatch):
    # a C of full column rank decides observability for every A; a
    # rank-deficient C still takes the Krylov test
    built = []
    krylov = lti.controllability_matrix
    monkeypatch.setattr(lti, "controllability_matrix",
                        lambda sys: built.append(sys) or krylov(sys))
    rng = np.random.default_rng(19)
    for A, _ in _test_plants():
        n = A.shape[0]
        C = rng.standard_normal((n + 1, n))
        assert lti.is_observable(A, C)
        assert lti.is_observable(A, np.eye(n))
    assert built == []
    A, B = _small_radius_plant(101)
    assert lti.is_observable(A.T, B.T)
    assert len(built) == 1
    assert not lti.is_observable(np.eye(2), np.array([[1.0, 0.0]]))
    assert len(built) == 2


def test_trajectory_validation():
    with pytest.raises(DimensionMismatchError):
        lti.Trajectory(np.zeros((3, 2)), np.zeros((3, 1)))
    for states, inputs in ((np.zeros(3), np.zeros((2, 1))),
                           (np.zeros((3, 2)), np.zeros(2))):
        with pytest.raises(DimensionMismatchError,
                           match="states and inputs must be 2-D"):
            lti.Trajectory(states, inputs)


def test_simulate_validates_shapes(power_system):
    with pytest.raises(DimensionMismatchError, match="x0 has length 2"):
        lti.simulate(power_system, [0.1, 0.1], lambda k, x: np.zeros(1), 5)
    with pytest.raises(DimensionMismatchError, match="policy returned 2"):
        lti.simulate(power_system, [0.1, 0.1, 0.2],
                     lambda k, x: np.zeros(2), 5)


def test_zoh_discretize_validates_shapes():
    with pytest.raises(DimensionMismatchError, match="A_c must be square"):
        lti.zoh_discretize(np.ones((2, 3)), np.ones((2, 1)), 0.1)
    with pytest.raises(DimensionMismatchError, match="B_c must have 2 rows"):
        lti.zoh_discretize(np.eye(2), np.ones((3, 1)), 0.1)


def test_is_observable_validates_output_matrix():
    with pytest.raises(DimensionMismatchError, match="C must have 2 columns"):
        lti.is_observable(np.eye(2), np.ones((1, 3)))


def test_exploration_input_validates_parameters():
    with pytest.raises(InvalidProblemError, match="num_terms"):
        lti.exploration_input(1, num_terms=0)
    with pytest.raises(InvalidProblemError, match="freq_low"):
        lti.exploration_input(1, freq_low=1.0, freq_high=-1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("freq_low, freq_high", [
    (np.nan, 1.0), (-1.0, np.nan), (-np.inf, 1.0), (-1.0, np.inf),
    (-1e308, 1e308)], ids=["low-nan", "high-nan", "low-inf", "high-inf",
                           "range-overflows"])
def test_exploration_input_refuses_infinite_frequency_range(freq_low,
                                                            freq_high):
    # the named refusal, instead of numpy's OverflowError from the draw
    with pytest.raises(InvalidProblemError,
                       match="^freq_low and freq_high must bound a finite"):
        lti.exploration_input(1, freq_low=freq_low, freq_high=freq_high)
