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
from .exceptions import InvalidProblemError
from .lti import is_controllable, is_observable

__all__ = [
    "scaled_policy_evaluation", "scaled_policy_improvement",
    "choose_c", "spi_model_based",
]


def scaled_policy_evaluation(sys, weights, K, cum):
    """Evaluate gain ``K`` on the plant scaled by ``cum``: solve
    ``cum^2 (A-BK)' P (A-BK) - P + Q + K'RK = 0``.

    Positive definite whenever the scaled loop is Schur stable and the
    weights satisfy their definiteness requirements.  ``cum`` is positive
    and finite, or 0: the zero plant, whose value is ``Q + K'RK``.
    """
    riccati._check_weights(weights, sys.n, sys.m)
    K = riccati._check_gain(K, sys.m, sys.n)
    if cum != 0.0:
        matkit._check_positive(cum, "cum")
    W = matkit.check_symmetric(weights.Q + K.T @ weights.R @ K, "W")
    return riccati._evaluate(matkit._stein_factor(sys.A - sys.B @ K), W, cum)


def scaled_policy_improvement(sys, weights, P, cum):
    """Improved gain ``(B'PB + R / cum^2)^{-1} B'PA`` for the scaled plant.

    At ``cum == 1`` this is the ordinary policy-improvement step.
    """
    riccati._check_weights(weights, sys.n, sys.m)
    return riccati._greedy_gain(sys.A, sys.B, weights.R,
                                matkit.check_symmetric(P, "P", sys.n), cum)


def choose_c(sys, K_next, cum, lam):
    """Next scaling factor, the interior point ``1 + lam (r - 1)`` of the
    admissible interval ``(1, r)`` with ``r = 1 / rho(cum (A - B K_next))``.

    Any choice inside the interval keeps the inflated loop Schur
    stable; the interior-point rule makes runs reproducible and
    scale-free.  ``lam`` must lie in (0, 1) and ``cum`` be positive.
    """
    matkit._check_positive(lam, "lam", 1.0)
    matkit._check_positive(cum, "cum")
    K_next = riccati._check_gain(K_next, sys.m, sys.n, "K_next")
    rho = matkit.spectral_radius(sys.A - sys.B @ K_next)
    return riccati._interior_factor(cum * rho, lam)


def spi_model_based(sys, weights, K0, beta=1.0, lam=0.5, tol=1e-5,
                    i_max=riccati.SPI_MAX_ITER):
    """Solve the LQR problem from an arbitrary (possibly destabilizing)
    starting gain, using full knowledge of the plant matrices.

    Runs the two-phase driver with divisor ``b = rho(A - B K0) +
    beta``, strictly above the closed-loop spectral radius so the
    shrunken loop is Schur stable, and the model-based step (Lyapunov
    evaluation, scaled improvement, interior-point factor) that Hewer's
    method runs at ``b = 1``.  Phase 1 runs scaled policy iteration until
    the cumulative factor over ``b`` reaches 1, at which point the
    current gain stabilizes the true plant; phase 2 is plain policy
    iteration from that gain until ``riccati._converged``, the relative
    step test widened by ``q/(1-q)`` for the step ratio ``q < 1``.
    ``i_max`` bounds the policy evaluations of both phases together.

    Returns a :class:`riccati.SpiReport`; ``report.solution`` carries the
    converged pair and its Riccati residual.
    """
    K = riccati._check_start(K0, weights, sys.m, sys.n, lam, tol, i_max)
    matkit._check_positive(beta, "beta")
    if not is_controllable(sys):
        raise InvalidProblemError("the pair (A, B) must be controllable")
    w, V = np.linalg.eigh(weights.Q)   # sqrt(Q), round-off below 0 clipped
    if not is_observable(sys.A, (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T):
        raise InvalidProblemError(
            "the pair (A, sqrt(Q)) must be observable")
    step, rho0 = riccati._model_step(sys, weights, K, lam)
    report = riccati._scaling_pi(step, K, rho0 + beta, tol, i_max)
    sol = report.solution
    return replace(report, solution=replace(
        sol, residual=riccati._residual(sys, weights, sol.P, sol.K)))
