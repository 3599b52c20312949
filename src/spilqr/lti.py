"""Discrete-time LTI plants: representation, zero-order-hold discretization,
trajectory simulation, and structural (controllability/observability) checks.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matkit
from .exceptions import (
    DimensionMismatchError,
    DivergenceError,
    InvalidProblemError,
)

__all__ = [
    "LinearSystem", "CostWeights", "Trajectory",
    "zoh_discretize", "simulate", "exploration_input",
    "controllability_matrix", "is_controllable", "is_observable",
]

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class LinearSystem:
    """Plant ``x_{k+1} = A x_k + B u_k`` with state matrix A (n x n) and
    input matrix B (n x m)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = matkit._as_matrix(self.A, "A", square=True)
        B = matkit._as_matrix(self.B, "B", rows=len(A))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass(frozen=True)
class CostWeights:
    """Running cost weights: Q symmetric positive semidefinite on the state,
    R symmetric positive definite on the input."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = matkit.check_symmetric(self.Q, "Q")
        R = matkit.check_symmetric(self.R, "R")
        if not matkit.is_positive_semidefinite(Q):
            raise InvalidProblemError("Q must be positive semidefinite")
        if not matkit.is_positive_definite(R):
            raise InvalidProblemError("R must be positive definite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class Trajectory:
    """Recorded rollout: ``states`` holds x_0..x_l (l+1 rows), ``inputs``
    holds u_0..u_{l-1} (l rows)."""

    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        # no finiteness check: a DivergenceError's partial ends at inf or NaN
        X = matkit._as_float(self.states, "states")
        U = matkit._as_float(self.inputs, "inputs")
        if X.ndim != 2 or U.ndim != 2:
            raise DimensionMismatchError("states and inputs must be 2-D")
        if X.shape[0] != U.shape[0] + 1:
            raise DimensionMismatchError(
                f"{X.shape[0]} states require {X.shape[0] - 1} inputs, "
                f"got {U.shape[0]}")
        object.__setattr__(self, "states", X)
        object.__setattr__(self, "inputs", U)

    @property
    def length(self):
        """Number of recorded transitions."""
        return self.inputs.shape[0]

    @property
    def n(self):
        return self.states.shape[1]

    @property
    def m(self):
        return self.inputs.shape[1]


def zoh_discretize(A_c, B_c, T):
    """Zero-order-hold discretization of a continuous plant.

    Computes ``A = exp(A_c T)`` and ``B = (int_0^T exp(A_c s) ds) B_c``
    in one shot from the exponential of the augmented block matrix
    ``[[A_c, B_c], [0, 0]]``, so both share the same truncation-free
    code path.
    """
    A_c = matkit._as_matrix(A_c, "A_c", square=True)
    B_c = matkit._as_matrix(B_c, "B_c", rows=len(A_c))
    matkit._check_positive(T, "sample time T")
    n, m = A_c.shape[0], B_c.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A_c
    M[:n, n:] = B_c
    E = scipy.linalg.expm(M * T)
    return LinearSystem(E[:n, :n], E[:n, n:])


def simulate(sys, x0, policy, steps):
    """Roll the plant forward for ``steps`` transitions.

    ``policy`` is any callable ``(k, x) -> u`` producing the input at
    step ``k`` given the current state, such as ``lambda k, x: -K @ x``
    for state feedback or :func:`exploration_input` for probing.

    Raises
    ------
    InvalidProblemError
        If ``steps`` is not a nonnegative integer, NaN included.
    DivergenceError
        When the state norm exceeds ``DIVERGENCE_LIMIT`` or is NaN; the
        exception carries the step index and the truncated trajectory.
    """
    x0 = matkit._as_float(x0, "x0").ravel()
    if x0.size != sys.n:
        raise DimensionMismatchError(
            f"x0 has length {x0.size}, expected {sys.n}")
    matkit._check_budget(steps, "steps", 0)
    X = np.zeros((steps + 1, sys.n))
    U = np.zeros((steps, sys.m))
    X[0] = x0
    A, B = sys.A, sys.B
    for k in range(steps):
        u = matkit._as_float(policy(k, X[k]), "policy input").ravel()
        if u.size != sys.m:
            raise DimensionMismatchError(
                f"policy returned {u.size} inputs, expected {sys.m}")
        U[k] = u
        x = X[k + 1] = A @ X[k] + B @ u
        norm = math.sqrt(x.dot(x))   # np.linalg.norm of a vector, to the bit
        if not norm <= DIVERGENCE_LIMIT:   # NaN too
            why = ("state is not finite" if math.isnan(norm) else
                   f"state norm exceeded {DIVERGENCE_LIMIT:g}")
            raise DivergenceError(
                f"{why} at step {k + 1}",
                step=k + 1,
                partial=Trajectory(X[:k + 2], U[:k + 1]))
    return Trajectory(X, U)


def exploration_input(m, num_terms=100, freq_low=-10.0, freq_high=10.0,
                      seed=0):
    """Persistently exciting probe input: per channel, a sum of
    ``num_terms`` sinusoids ``sin(w_h k)`` with frequencies drawn
    uniformly from ``[freq_low, freq_high]``.

    Draws are independent per channel and fully determined by ``seed``
    (64-bit PCG state), so trajectories are reproducible across runs
    and platforms.  Returns a policy callable ``(k, x) -> u``.  Raises
    :class:`InvalidProblemError` unless the frequency range is finite
    (NaN refused) and ``freq_low <= freq_high``.
    """
    matkit._check_budget(num_terms, "num_terms")
    if not math.isfinite(matkit._real(freq_high) - matkit._real(freq_low)):
        raise InvalidProblemError(
            f"freq_low and freq_high must bound a finite range, got "
            f"[{freq_low!r}, {freq_high!r}]")
    if freq_low > freq_high:
        raise InvalidProblemError("freq_low must not exceed freq_high")
    rng = np.random.default_rng(seed)
    omega = rng.uniform(freq_low, freq_high, size=(m, num_terms))

    def policy(k, x):
        return np.sin(omega * k).sum(axis=1)

    policy.frequencies = omega
    return policy


def controllability_matrix(sys):
    """Block matrix ``[B, AB, ..., A^{n-1} B]``."""
    blocks = []
    M = sys.B
    for _ in range(sys.n):
        blocks.append(M)
        M = sys.A @ M
    return np.hstack(blocks)


def is_controllable(sys):
    """Whether the pair (A, B) is controllable: the controllability
    matrix of ``(A / rho(A), B)``, or of ``(A, B)`` when ``rho(A) = 0``,
    has full row rank once each row is divided by its 2-norm
    (``matkit._full_column_rank`` of its transpose).

    ``(alpha A, B)`` is controllable exactly when ``(A, B)`` is, for any
    ``alpha != 0``.  Without the rescaling, the Krylov blocks ``A^k B`` of
    a plant with small ``rho(A)`` shrink below the relative rank tolerance
    and a controllable plant is rejected.  States in other units,
    ``x' = T x`` with ``T`` diagonal, multiply the rows by ``T``, which
    the row norms undo.
    """
    rho = matkit.spectral_radius(sys.A)
    scaled = LinearSystem(sys.A / rho if rho > 0 else sys.A, sys.B)
    return matkit._full_column_rank(controllability_matrix(scaled).T)


def is_observable(A, C):
    """Whether the pair (A, C) is observable: by duality, whether the
    pair (A', C') is controllable.  A ``C`` of full column rank decides
    it alone, as the observability matrix ``[C; CA; ...]`` contains C."""
    A = matkit._as_matrix(A, "A", square=True)
    C = matkit._as_matrix(np.atleast_2d(matkit._as_float(C, "C")), "C",
                          cols=len(A))
    return matkit._full_column_rank(C) or is_controllable(
        LinearSystem(A.T, C.T))
