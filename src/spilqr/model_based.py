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

from dataclasses import replace

import numpy as np

from . import matkit, riccati
from .exceptions import (
    InvalidProblemError,
    InvariantViolatedError,
    UnstableMatrixError,
    UnstableScaledSystemError,
)
from .lti import is_controllable, is_observable
from .riccati import SpiReport, SpiState

__all__ = [
    "SpiState", "SpiReport",
    "scaled_policy_evaluation", "scaled_policy_improvement",
    "choose_c", "spi_model_based",
]

# Guard against a nilpotent scaled loop (rho == 0): cap the scaling
# headroom so the interior rule never produces an infinite factor.
MAX_HEADROOM = 1e12


def _evaluate(factor, W, cum):
    """Solve ``cum^2 F' P F - P + W = 0`` on the Schur factor of ``F``."""
    T, U, rho = factor
    try:
        return matkit._stein(cum * T, U, cum * rho, W)
    except UnstableMatrixError as exc:
        raise UnstableScaledSystemError(
            f"scaled closed loop is not Schur stable at factor {cum:.6g} "
            f"(spectral radius {exc.rho:.6g})", rho=exc.rho) from exc


def scaled_policy_evaluation(sys, weights, K, cum):
    """Evaluate gain ``K`` on the plant scaled by ``cum``: solve
    ``cum^2 (A-BK)' P (A-BK) - P + Q + K'RK = 0``.

    Positive definite whenever the scaled loop is Schur stable and the
    weights satisfy their definiteness requirements.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    W = matkit.check_symmetric(weights.Q + K.T @ weights.R @ K, "W")
    return _evaluate(matkit.schur(sys.A - sys.B @ K), W, cum)


def scaled_policy_improvement(sys, weights, P, cum):
    """Improved gain ``(B'PB + R / cum^2)^{-1} B'PA`` for the scaled plant.

    At ``cum == 1`` this is the ordinary policy-improvement step.
    """
    BtP = sys.B.T @ matkit.check_symmetric(P, "P")
    return riccati._improved_gain(BtP @ sys.B, BtP @ sys.A, weights.R, cum)


def _interior_factor(rho_scaled, lam):
    """Interior point ``1 + lam (r - 1)`` of the admissible interval
    ``(1, r)``, ``r = 1 / rho_scaled``."""
    if rho_scaled >= 1.0:
        raise InvariantViolatedError(
            f"scaled loop after improvement must be Schur stable, "
            f"spectral radius is {rho_scaled:.6g}")
    r = min(1.0 / rho_scaled, MAX_HEADROOM) if rho_scaled > 0 \
        else MAX_HEADROOM
    return 1.0 + lam * (r - 1.0)


def choose_c(sys, K_next, cum, lam):
    """Next scaling factor, the interior point ``1 + lam (r - 1)`` of the
    admissible interval ``(1, r)`` with ``r = 1 / rho(cum (A - B K_next))``.

    Any choice inside the interval keeps the inflated loop Schur
    stable; the interior-point rule makes runs reproducible and
    scale-free.  ``lam`` must lie in (0, 1).
    """
    if not 0.0 < lam < 1.0:
        raise InvalidProblemError("lam must lie strictly between 0 and 1")
    K_next = np.atleast_2d(np.asarray(K_next, dtype=float))
    rho = matkit.spectral_radius(sys.A - sys.B @ K_next)
    return _interior_factor(cum * rho, lam)


def spi_model_based(sys, weights, K0, beta=1.0, lam=0.5, tol=1e-5,
                    i_max=riccati.SPI_MAX_ITER):
    """Solve the LQR problem from an arbitrary (possibly destabilizing)
    starting gain, using full knowledge of the plant matrices.

    Runs :func:`riccati.scaling_pi` with divisor ``b = rho(A - B K0) +
    beta``, strictly above the closed-loop spectral radius so the
    shrunken loop is Schur stable, and a step of Lyapunov evaluation,
    scaled improvement and the interior-point factor.  Phase 1 runs
    scaled policy iteration until the cumulative factor over ``b``
    reaches 1, at which point the current gain stabilizes the true
    plant; phase 2 is plain policy iteration from that gain, stopped
    when consecutive value matrices differ by less than ``tol``.
    ``i_max`` bounds the policy evaluations of both phases together.

    Returns a :class:`SpiReport`; ``report.solution`` carries the
    converged pair and its Riccati residual.
    """
    K = riccati.check_start(K0, sys.m, sys.n, lam, tol, i_max)
    if not is_controllable(sys):
        raise InvalidProblemError("the pair (A, B) must be controllable")
    if not is_observable(sys.A, matkit.sym_sqrt(weights.Q)):
        raise InvalidProblemError(
            "the pair (A, sqrt(Q)) must be observable")
    if not beta > 0:
        raise InvalidProblemError("beta must be positive")

    # One Schur factorization per evaluation: a scaling step factors its
    # improved gain (next factor, rho_closed, evaluation); a scale-1 step
    # factors its own gain if not handed one, so the final gain never is.
    A, B, Q, R = sys.A, sys.B, weights.Q, weights.R
    factor = matkit.schur(A - B @ K)

    def step(K, cum, scaling):
        nonlocal factor
        if factor is None:
            factor = matkit.schur(A - B @ K)
        W = Q + K.T @ R @ K
        P = _evaluate(factor, (W + W.T) / 2.0, cum)
        BtP = B.T @ P   # P comes out of the solve exactly symmetric
        K_next = riccati._improved_gain(BtP @ B, BtP @ A, R, cum)
        fields = {"rho_closed": factor[2]}
        if not scaling:
            factor = None
            return P, K_next, 1.0, fields
        factor = matkit.schur(A - B @ K_next)
        return P, K_next, _interior_factor(cum * factor[2], lam), fields

    report = riccati.scaling_pi(step, K, factor[2] + beta, tol, i_max)
    sol = report.solution
    return replace(report, solution=replace(
        sol, residual=riccati.are_residual(sys, weights, sol.P)))
