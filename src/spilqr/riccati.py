"""Ground-truth machinery for the discrete-time LQR fixed point.

Contains the algebraic Riccati residual, the classical policy iteration
that needs a stabilizing start (Hewer's method), a value-iteration
baseline that converges from any positive semidefinite seed, and the
verified reference solve.  Value iteration doubles as the independent
oracle used throughout the test suite; the CLI's reference is
:func:`dare_reference`, one Schur-method DARE solve whose result is
checked before it is returned.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import matkit
from .exceptions import (
    DimensionMismatchError,
    InvalidProblemError,
    MaxIterationsError,
    NotStabilizingError,
    SingularMatrixError,
)

__all__ = [
    "AreSolution", "are_residual", "optimal_gain", "riccati_step",
    "hewer_pi", "value_iteration", "dare_reference",
]

PI_MAX_ITER = 100
VI_MAX_ITER = 100_000

# A reference whose Riccati residual exceeds this share of max(1, ||P||_F)
# is rejected.
DARE_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class AreSolution:
    """Converged Riccati pair.

    ``P`` is the symmetric positive definite value matrix, ``K`` the
    corresponding feedback gain, ``residual`` the Frobenius norm of the
    Riccati equation at ``P`` (``None`` when the solver had no model to
    evaluate it against), ``iterations`` the number of iterations the
    producing solver performed, and ``trace`` the per-iteration
    ``(P_i, K_i)`` pairs where ``K_i`` is the gain whose evaluation
    produced ``P_i``.
    """

    P: np.ndarray
    K: np.ndarray
    residual: float | None
    iterations: int
    trace: list = field(default_factory=list, repr=False)


def _check_dims(sys, weights, P):
    P = matkit.check_symmetric(P, "P")
    if P.shape[0] != sys.n:
        raise DimensionMismatchError(
            f"P must be {sys.n} x {sys.n}, got {P.shape}")
    if weights.Q.shape[0] != sys.n or weights.R.shape[0] != sys.m:
        raise DimensionMismatchError("weights do not match system dimensions")
    return P


def optimal_gain(sys, weights, P):
    """Feedback gain ``(R + B'PB)^{-1} B'PA`` induced by a value matrix."""
    P = _check_dims(sys, weights, P)
    A, B = sys.A, sys.B
    inner = weights.R + B.T @ P @ B
    try:
        return np.linalg.solve(inner, B.T @ P @ A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "R + B'PB is numerically singular") from exc


def are_residual(sys, weights, P):
    """Frobenius norm of ``A'PA - P - A'PB (R + B'PB)^{-1} B'PA + Q``."""
    P = _check_dims(sys, weights, P)
    A = sys.A
    K = optimal_gain(sys, weights, P)
    res = A.T @ P @ A - P - A.T @ P @ sys.B @ K + weights.Q
    return float(np.linalg.norm(res, "fro"))


def riccati_step(sys, weights, P):
    """One value-iteration sweep ``P <- Q + A'PA - A'PB (R+B'PB)^{-1} B'PA``."""
    A, B = sys.A, sys.B
    K = optimal_gain(sys, weights, P)
    P_next = weights.Q + A.T @ P @ (A - B @ K)
    return (P_next + P_next.T) / 2.0, K


def hewer_pi(sys, weights, K0, tol=1e-9, max_iter=PI_MAX_ITER):
    """Policy iteration from a stabilizing gain.

    Alternates policy evaluation (a discrete Lyapunov solve for the
    closed loop) with policy improvement until consecutive value
    matrices differ by less than ``tol`` in Frobenius norm.  The value
    sequence decreases monotonically to the Riccati solution and every
    iterate keeps the loop Schur stable.

    Raises
    ------
    NotStabilizingError
        If ``rho(A - B K0) >= 1``; use the scaling solvers when no
        stabilizing gain is available.
    MaxIterationsError
        If the tolerance is not met within ``max_iter`` iterations.
    """
    K = np.atleast_2d(np.asarray(K0, dtype=float))
    if K.shape != (sys.m, sys.n):
        raise DimensionMismatchError(
            f"K0 must be {sys.m} x {sys.n}, got {K.shape}")
    rho0 = matkit.spectral_radius(sys.A - sys.B @ K)
    if rho0 >= 1.0:
        raise NotStabilizingError(
            f"initial gain does not stabilize the plant "
            f"(spectral radius {rho0:.6g})", rho=rho0)
    trace = []
    P_prev = None
    for i in range(max_iter):
        W = weights.Q + K.T @ weights.R @ K
        P = matkit.solve_discrete_lyapunov(sys.A - sys.B @ K, W)
        K_next = optimal_gain(sys, weights, P)
        trace.append((P, K))
        if P_prev is not None and np.linalg.norm(P - P_prev, "fro") < tol:
            return AreSolution(P=P, K=K_next,
                               residual=are_residual(sys, weights, P),
                               iterations=i, trace=trace)
        P_prev = P
        K = K_next
    raise MaxIterationsError(
        f"policy iteration did not converge in {max_iter} iterations",
        last=trace[-1] if trace else None)


def value_iteration(sys, weights, P0=None, tol=1e-10, max_iter=VI_MAX_ITER):
    """Fixed-point Riccati recursion from any positive semidefinite seed.

    Slower than policy iteration but needs no stabilizing start; serves
    as the independent route to the Riccati solution in the tests.
    """
    if P0 is None:
        P = np.zeros((sys.n, sys.n))
    else:
        P = matkit.check_symmetric(P0, "P0")
        if np.linalg.eigvalsh(P).min() < -matkit.pd_tolerance(P):
            raise InvalidProblemError("P0 must be positive semidefinite")
    trace = []
    for k in range(max_iter):
        P_next, K = riccati_step(sys, weights, P)
        trace.append((P, K))
        if np.linalg.norm(P_next - P, "fro") < tol:
            K_final = optimal_gain(sys, weights, P_next)
            return AreSolution(P=P_next, K=K_final,
                               residual=are_residual(sys, weights, P_next),
                               iterations=k + 1, trace=trace)
        P = P_next
    raise MaxIterationsError(
        f"value iteration did not converge in {max_iter} iterations",
        last=(P, None))


def dare_reference(sys, weights):
    """Optimal pair from one Schur-method solve of the discrete ARE.

    Calls ``scipy.linalg.solve_discrete_are`` (the generalized Schur
    method of Laub and of Arnold & Laub) and verifies the result before
    returning it: ``P`` is finite and positive semidefinite, the gain it
    induces makes ``A - BK`` Schur stable, and the Riccati residual is at
    most ``DARE_RESIDUAL_RTOL * max(1, ||P||_F)``.  ``iterations`` is 0:
    the solve is direct.

    Raises
    ------
    InvalidProblemError
        If the solve fails or its result fails a check, typically because
        the plant has no stabilizing Riccati solution; the message names
        the reason.
    """
    try:
        P = scipy.linalg.solve_discrete_are(sys.A, sys.B, weights.Q,
                                            weights.R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise InvalidProblemError(
            f"DARE solve failed, no stabilizing solution: {exc}") from exc
    if not np.all(np.isfinite(P)):
        raise InvalidProblemError("DARE solution has non-finite entries")
    P = (P + P.T) / 2.0
    if np.linalg.eigvalsh(P).min() < -matkit.pd_tolerance(P):
        raise InvalidProblemError(
            "DARE solution is not positive semidefinite")
    K = optimal_gain(sys, weights, P)
    rho = matkit.spectral_radius(sys.A - sys.B @ K)
    if rho >= 1.0:
        raise InvalidProblemError(
            f"DARE solution does not stabilize the plant "
            f"(spectral radius {rho:.6g})")
    residual = are_residual(sys, weights, P)
    bound = DARE_RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(P, "fro")))
    if not residual <= bound:
        raise InvalidProblemError(
            f"DARE solution has Riccati residual {residual:.3e} "
            f"above {bound:.3e}")
    return AreSolution(P=P, K=K, residual=residual, iterations=0)
