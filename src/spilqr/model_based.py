"""Model-based scaling policy iteration.

Classical policy iteration requires a gain that already stabilizes the
plant.  The scaling solver removes that requirement: it shrinks the
plant by a divisor ``b`` chosen so the shrunken closed loop is Schur
stable under the arbitrary starting gain, then alternates policy
evaluation and improvement on the scaled plant while inflating it back
by per-iteration factors ``c_i > 1``.  Stability of every scaled loop
is preserved by keeping ``c_{i+1}`` strictly inside
``(1, 1 / rho(cum (A - B K)))``, where ``cum`` is the running product
of the factors over ``b``.  Once ``cum`` reaches 1 the current gain
stabilizes the true plant and ordinary policy iteration finishes the
job.
"""

from dataclasses import dataclass

import numpy as np

from . import matkit, riccati
from .exceptions import (
    InvalidProblemError,
    InvariantViolatedError,
    MaxIterationsError,
    SingularMatrixError,
    UnstableMatrixError,
    UnstableScaledSystemError,
)
from .lti import is_controllable, is_observable

__all__ = [
    "SpiState", "SpiReport",
    "choose_b", "scaled_policy_evaluation", "scaled_policy_improvement",
    "choose_c", "spi_model_based",
]

# Guard against a nilpotent scaled loop (rho == 0): cap the scaling
# headroom so the interior rule never produces an infinite factor.
MAX_HEADROOM = 1e12


@dataclass(frozen=True)
class SpiState:
    """One iteration record of a scaling solver.

    ``K_tilde`` is the gain in force at iteration ``i`` and ``P_tilde``
    its evaluation under the effective plant scaling ``cum`` (``None``
    for the handoff record, whose evaluation happens at scale 1 in the
    next phase).  ``c`` is the scaling factor that produced this
    record's ``cum``; ``c == 1`` at iteration 0 and everywhere in the
    final phase.  ``bound``/``sigma_q``/``fallback`` describe the
    data-driven choice of the *next* factor made at this iteration.
    Diagnostic fields are filled only where the producing solver can
    compute them without touching the plant matrices.
    """

    i: int
    K_tilde: np.ndarray
    P_tilde: np.ndarray | None
    b: float
    c: float
    cum: float
    rho_closed: float | None = None   # rho(A - B K), model-based only
    rho_scaled: float | None = None   # rho(cum (A - B K)), model-based only
    bound: float | None = None        # scaling headroom, data-driven only
    sigma_q: float | None = None      # smallest singular value of the gate
    fallback: bool = False            # headroom <= 1, factor forced to 1


@dataclass(frozen=True)
class SpiReport:
    """Full record of a scaling solve.

    ``phase1_trace`` holds the scaling iterations 0..handoff_index; its
    last record is the handoff state with ``cum >= 1``.  ``phase2_trace``
    holds the plain policy-iteration records at scale 1.  ``solution``
    is the converged Riccati pair.
    """

    phase1_trace: list
    handoff_index: int
    phase2_trace: list
    solution: riccati.AreSolution
    b: float
    probes: int = 0
    c_fallbacks: int = 0

    @property
    def handoff_state(self):
        return self.phase1_trace[-1]

    def gain_sequence(self):
        """All gains produced by the solve, in order, excluding the
        starting gain: scaling updates, then plain updates, then the
        final gain."""
        gains = [s.K_tilde for s in self.phase1_trace[1:]]
        gains += [s.K_tilde for s in self.phase2_trace[1:]]
        gains.append(self.solution.K)
        return gains


def choose_b(sys, K0, beta=1.0):
    """Scaling divisor ``b = rho(A - B K0) + beta``, strictly above the
    closed-loop spectral radius so the shrunken loop is Schur stable."""
    if beta <= 0:
        raise InvalidProblemError("beta must be positive")
    K0 = np.atleast_2d(np.asarray(K0, dtype=float))
    return matkit.spectral_radius(sys.A - sys.B @ K0) + beta


def scaled_policy_evaluation(sys, weights, K, cum):
    """Evaluate gain ``K`` on the plant scaled by ``cum``: solve
    ``cum^2 (A-BK)' P (A-BK) - P + Q + K'RK = 0``.

    Positive definite whenever the scaled loop is Schur stable and the
    weights satisfy their definiteness requirements.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    F = cum * (sys.A - sys.B @ K)
    W = weights.Q + K.T @ weights.R @ K
    try:
        return matkit.solve_discrete_lyapunov(F, W)
    except UnstableMatrixError as exc:
        raise UnstableScaledSystemError(
            f"scaled closed loop is not Schur stable at factor {cum:.6g} "
            f"(spectral radius {exc.rho:.6g})", rho=exc.rho) from exc


def scaled_policy_improvement(sys, weights, P, cum):
    """Improved gain ``(B'PB + R / cum^2)^{-1} B'PA`` for the scaled plant.

    At ``cum == 1`` this is the ordinary policy-improvement step.
    """
    if cum <= 0:
        raise InvalidProblemError("cum must be positive")
    P = matkit.check_symmetric(P, "P")
    B = sys.B
    inner = B.T @ P @ B + weights.R / cum**2
    try:
        return np.linalg.solve(inner, B.T @ P @ sys.A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "B'PB + R/cum^2 is numerically singular") from exc


def _interior_factor(rho_scaled, lam):
    """Interior point ``1 + lam (r - 1)`` of the admissible interval
    ``(1, r)``, ``r = 1 / rho_scaled``."""
    if not 0.0 < lam < 1.0:
        raise InvalidProblemError("lam must lie strictly between 0 and 1")
    if rho_scaled >= 1.0:
        raise InvariantViolatedError(
            f"scaled loop after improvement must be Schur stable, "
            f"spectral radius is {rho_scaled:.6g}")
    r = min(1.0 / rho_scaled, MAX_HEADROOM) if rho_scaled > 0 \
        else MAX_HEADROOM
    return 1.0 + lam * (r - 1.0)


def choose_c(sys, K_next, cum, lam=0.5):
    """Next scaling factor, the interior point ``1 + lam (r - 1)`` of the
    admissible interval ``(1, r)`` with ``r = 1 / rho(cum (A - B K_next))``.

    Any choice inside the interval keeps the inflated loop Schur
    stable; the interior-point rule makes runs reproducible and
    scale-free.  ``lam`` must lie in (0, 1).
    """
    K_next = np.atleast_2d(np.asarray(K_next, dtype=float))
    rho = matkit.spectral_radius(sys.A - sys.B @ K_next)
    return _interior_factor(cum * rho, lam)


def spi_model_based(sys, weights, K0, beta=1.0, lam=0.5, tol=1e-5,
                    i_max=500):
    """Solve the LQR problem from an arbitrary (possibly destabilizing)
    starting gain, using full knowledge of the plant matrices.

    Phase 1 runs scaled policy iteration until the cumulative factor
    over ``b`` reaches 1, at which point the current gain stabilizes
    the true plant; phase 2 is plain policy iteration from that gain,
    stopped when consecutive value matrices differ by less than ``tol``.

    Returns a :class:`SpiReport`; ``report.solution`` carries the
    converged pair and its Riccati residual.
    """
    if i_max < 1:
        raise InvalidProblemError("i_max must be at least 1")
    K = np.atleast_2d(np.asarray(K0, dtype=float))
    if K.shape != (sys.m, sys.n):
        raise InvalidProblemError(
            f"K0 must be {sys.m} x {sys.n}, got {K.shape}")
    if not is_controllable(sys):
        raise InvalidProblemError("the pair (A, B) must be controllable")
    if not is_observable(sys.A, matkit.sym_sqrt(weights.Q)):
        raise InvalidProblemError(
            "the pair (A, sqrt(Q)) must be observable")

    # One eigensolve per iteration: the radius of the improved gain
    # sets the next factor and is the next record's rho_closed, and
    # rho(cum (A - B K)) = cum rho(A - B K).
    if beta <= 0:
        raise InvalidProblemError("beta must be positive")
    rho_closed = matkit.spectral_radius(sys.A - sys.B @ K)
    b = rho_closed + beta
    cum = 1.0 / b
    c = 1.0
    trace = []
    i = 0
    while cum < 1.0:
        if i >= i_max:
            raise MaxIterationsError(
                f"scaling phase did not finish in {i_max} iterations",
                last=trace[-1] if trace else None)
        P = scaled_policy_evaluation(sys, weights, K, cum)
        trace.append(SpiState(
            i=i, K_tilde=K, P_tilde=P, b=b, c=c, cum=cum,
            rho_closed=rho_closed, rho_scaled=cum * rho_closed))
        K = scaled_policy_improvement(sys, weights, P, cum)
        rho_closed = matkit.spectral_radius(sys.A - sys.B @ K)
        c = _interior_factor(cum * rho_closed, lam)
        cum = cum * c
        i += 1

    # Handoff: cum >= 1, so K stabilizes the true plant; record the
    # pre-reset factor, then run plain policy iteration at scale 1.
    trace.append(SpiState(
        i=i, K_tilde=K, P_tilde=None, b=b, c=c, cum=cum,
        rho_closed=rho_closed, rho_scaled=cum * rho_closed))
    handoff_index = i

    solution = riccati.hewer_pi(sys, weights, K, tol=tol,
                                max_iter=max(i_max - i, 1))
    phase2 = []
    for j, (Pj, Kj) in enumerate(solution.trace):
        rho = matkit.spectral_radius(sys.A - sys.B @ Kj)
        phase2.append(SpiState(i=handoff_index + j, K_tilde=Kj, P_tilde=Pj,
                               b=1.0, c=1.0, cum=1.0,
                               rho_closed=rho, rho_scaled=rho))
    total = handoff_index + solution.iterations
    final = riccati.AreSolution(
        P=solution.P, K=solution.K, residual=solution.residual,
        iterations=total, trace=solution.trace)
    return SpiReport(phase1_trace=trace, handoff_index=handoff_index,
                     phase2_trace=phase2, solution=final, b=b)
