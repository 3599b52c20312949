import numpy as np
import pytest

from spilqr import benchmarks, lti, matkit, model_free, riccati
from spilqr.exceptions import RankDeficientError

# Reference optimum of the benchmark plant, rounded to four decimals.
POWER_P_REF = np.array([
    [6.4599, 3.2440, 6.3364],
    [3.2440, 7.6499, 10.1346],
    [6.3364, 10.1346, 33.5195],
])
POWER_K_REF = np.array([[0.4022, 0.8351, 1.2066]])
POWER_RHO_OPEN = 1.0176
POWER_A_REF = np.array([
    [0.8825, 0.0014, 0.0470],
    [0.0894, 0.9049, 0.0023],
    [0.0028, 0.0571, 0.9995],
])
POWER_B_REF = np.array([[0.0001], [0.1190], [0.0036]])

DATA_SEED = 7

# Draws of make_corpus_case: state and input counts, the open-loop radius
# of the plant and the closed-loop radius of the starting gain.
RANDOM_N_CHOICES = (2, 3, 4)
RANDOM_M_CHOICES = (1, 2)
RANDOM_PLANT_RHO = (0.4, 1.15)
RANDOM_GAIN_RHO = (0.5, 3.0)
RANDOM_GAIN_TRIES = 200

# Draws of make_wide_case: state counts and the open-loop radius.
WIDE_N_CHOICES = (2, 3, 5, 10, 20, 40)
WIDE_PLANT_RHO = (0.3, 3.0)


def vecs(S):
    """``vecs`` of ``matkit``'s notation, the tests' packing of a known
    symmetric ``P`` or ``L``: the upper triangle of ``S``, exactly
    symmetrized, row by row, off-diagonal entries doubled."""
    S = (S + S.T) / 2.0
    i, j = np.triu_indices(len(S))
    return S[i, j] * np.where(i == j, 1.0, 2.0)


def vec(M):
    """``vec`` of ``matkit``'s notation: the columns of ``M``, stacked."""
    return M.ravel(order="F")


@pytest.fixture(scope="session")
def power_system():
    return benchmarks.power_plant()


@pytest.fixture(scope="session")
def power_weights():
    return benchmarks.power_plant_weights()


@pytest.fixture(scope="session")
def power_trajectory(power_system):
    policy = lti.exploration_input(1, seed=DATA_SEED)
    return lti.simulate(power_system, benchmarks.POWER_PLANT_X0, policy, 30)


@pytest.fixture(scope="session")
def power_data(power_trajectory):
    return model_free.build_regression_data(power_trajectory)


@pytest.fixture(scope="session")
def power_oracle(power_system, power_weights):
    """Independent route to the optimum: value iteration from zero."""
    return riccati.value_iteration(power_system, power_weights, tol=1e-12)


def random_controllable_system(rng):
    """Random controllable plant, sizes from ``RANDOM_N_CHOICES`` and
    ``RANDOM_M_CHOICES``, open-loop spectral radius from ``RANDOM_PLANT_RHO``.

    The radius cap keeps open-loop probing trajectories well enough
    conditioned for data-driven solves.
    """
    while True:
        n = int(rng.choice(RANDOM_N_CHOICES))
        m = int(rng.choice(RANDOM_M_CHOICES))
        A = rng.standard_normal((n, n))
        rho = matkit.spectral_radius(A)
        if rho < 1e-9:
            continue
        A *= rng.uniform(*RANDOM_PLANT_RHO) / rho
        B = rng.standard_normal((n, m))
        sys = lti.LinearSystem(A, B)
        if lti.is_controllable(sys):
            return sys


def random_destabilizing_gain(rng, sys):
    """Random starting gain whose closed loop has spectral radius inside
    ``RANDOM_GAIN_RHO`` (typically destabilizing)."""
    G = rng.standard_normal((sys.m, sys.n))
    for _ in range(RANDOM_GAIN_TRIES):
        K0 = rng.uniform(0.0, 6.0) * G
        rho = matkit.spectral_radius(sys.A - sys.B @ K0)
        if RANDOM_GAIN_RHO[0] <= rho <= RANDOM_GAIN_RHO[1]:
            return K0
    raise RuntimeError("could not place the closed-loop radius in range")


def make_corpus_case(rng):
    """One random test case: controllable plant, unit weights, a gain
    placing the closed-loop radius in [0.5, 3], and probing data that
    satisfies the excitation rank condition."""
    while True:
        sys_d = random_controllable_system(rng)
        weights = lti.CostWeights(np.eye(sys_d.n), np.eye(sys_d.m))
        try:
            K0 = random_destabilizing_gain(rng, sys_d)
        except RuntimeError:
            continue
        l = model_free.unknown_count(sys_d.n, sys_d.m) + 20
        x0 = rng.uniform(-0.5, 0.5, sys_d.n)
        seed = int(rng.integers(0, 2**32))
        policy = lti.exploration_input(sys_d.m, seed=seed)
        traj = lti.simulate(sys_d, x0, policy, l)
        try:
            data = model_free.build_regression_data(traj)
        except RankDeficientError:
            continue
        return {"sys": sys_d, "weights": weights, "K0": K0, "data": data}


def make_wide_case(rng):
    """One draw of the wide sweep: ``(sys, weights, K0)`` with n from
    ``WIDE_N_CHOICES``, m up to min(n, 4), open-loop radius from
    ``WIDE_PLANT_RHO``, unit, full-rank or rank-n/2 state weights with
    input weights over up to six decades, and a gain of random size.  The
    plant is not checked for controllability."""
    n = int(rng.choice(WIDE_N_CHOICES))
    m = int(rng.integers(1, min(n, 4) + 1))
    A = rng.standard_normal((n, n))
    A *= rng.uniform(*WIDE_PLANT_RHO) / matkit.spectral_radius(A)
    B = rng.standard_normal((n, m))
    kind = int(rng.integers(3))
    if kind == 0:
        Q, R = np.eye(n), np.eye(m)
    elif kind == 1:
        G = rng.standard_normal((n, n))
        Q, R = G @ G.T, 10.0 ** rng.uniform(-3, 3) * np.eye(m)
    else:
        C = rng.standard_normal((n // 2, n))
        Q, R = C.T @ C, 10.0 ** rng.uniform(-2, 2) * np.eye(m)
    K0 = rng.uniform(0.0, 6.0) * rng.standard_normal((m, n))
    return lti.LinearSystem(A, B), lti.CostWeights(Q, R), K0


@pytest.fixture(scope="session")
def wide_sweep():
    """The controllable plants of 600 wide-sweep draws, in draw order."""
    rng = np.random.default_rng(123)
    cases = [make_wide_case(rng) for _ in range(600)]
    return [case for case in cases if lti.is_controllable(case[0])]


@pytest.fixture(scope="session")
def sweep():
    """The clean sweep: 150 corpus cases from ``default_rng(5)``."""
    rng = np.random.default_rng(5)
    return [make_corpus_case(rng) for _ in range(150)]


@pytest.fixture(scope="session")
def corpus():
    """The 50-case random corpus shared by the acceptance criteria."""
    rng = np.random.default_rng(20240814)
    return [make_corpus_case(rng) for _ in range(50)]
