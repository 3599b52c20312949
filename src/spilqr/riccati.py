"""Ground-truth machinery for the discrete-time LQR fixed point, and the
two-phase loop that every policy-iteration solver runs on.

Each Riccati kernel has one home: every gain ``(R/c^2 + B'PB)^{-1} B'PA``
is one LAPACK ``dgesv`` (:func:`_solve_gain`), and :func:`riccati_step`
and :func:`value_iteration` run one sweep (:func:`_sweep`).  Around them:
the Riccati residual; the loop :func:`_scaling_pi` of both scaling
solvers and of Hewer's method (divisor 1), its records :class:`SpiState`
and :class:`SpiReport` and its model-based step; value iteration, which
converges from any positive semidefinite seed and is the tests' oracle;
and :func:`dare_reference`, the CLI's checked Schur-method DARE solve.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from . import matkit
from .exceptions import (
    DimensionMismatchError,
    InvalidProblemError,
    MaxIterationsError,
    NotStabilizingError,
    SingularMatrixError,
    UnstableMatrixError,
    UnstableScaledSystemError,
)

__all__ = [
    "AreSolution", "SpiState", "SpiReport", "are_residual", "optimal_gain",
    "riccati_step", "hewer_pi", "value_iteration", "dare_reference",
]

SPI_MAX_ITER = 500

# A reference whose Riccati residual exceeds this share of ||P||_F is
# rejected.
DARE_RESIDUAL_RTOL = 1e-8

# Cap on the scaling headroom 1/rho, finite even for a nilpotent loop.
MAX_HEADROOM = 1e12


@dataclass(frozen=True)
class AreSolution:
    """Converged Riccati pair.

    ``P`` is the symmetric positive definite value matrix, ``K`` the
    corresponding feedback gain, ``residual`` the Frobenius norm of the
    Riccati equation at ``P`` (``None`` when the solver had no model to
    evaluate it against), ``iterations`` the work the producing solver
    did (policy evaluations for the policy-iteration solvers, sweeps for
    value iteration), and ``trace`` the per-iteration ``(P_i, K_i)``
    pairs where ``K_i`` is the gain whose evaluation produced ``P_i``
    (for the scaling solvers, the scale-1 phase only).
    """

    P: np.ndarray
    K: np.ndarray
    residual: float | None
    iterations: int
    trace: list = field(default_factory=list, repr=False)


@dataclass(frozen=True)
class SpiState:
    """One iteration record of :func:`_scaling_pi`.

    ``K_tilde`` is the gain in force at iteration ``i`` and ``P_tilde``
    its evaluation under the effective plant scaling ``cum`` (``None``
    for the handoff record, whose evaluation happens at scale 1 in the
    next phase).  ``c`` is the scaling factor that produced this
    record's ``cum``; ``c == 1`` at iteration 0 and everywhere in the
    final phase.  ``bound`` is the headroom ``1 / rho_hat`` from which the
    data-driven solver chose the *next* factor at this iteration, where
    ``rho_hat`` is the certified radius of the improved scaled loop
    (:func:`spilqr.model_free.scaling_bound`).  Each diagnostic field is
    filled only by the solver its comment names, and is ``None`` otherwise.
    """

    i: int
    K_tilde: np.ndarray
    P_tilde: np.ndarray | None
    b: float
    c: float
    cum: float
    rho_closed: float | None = None   # rho(A - B K), model-based only
    bound: float | None = None        # scaling headroom, data-driven only

    @property
    def rho_scaled(self):
        """``rho(cum (A - B K)) = cum rho(A - B K)``; ``None`` without
        ``rho_closed``."""
        return None if self.rho_closed is None else self.cum * self.rho_closed


@dataclass(frozen=True)
class SpiReport:
    """Full record of a scaling solve.

    ``phase1_trace`` holds the scaling iterations 0..handoff_index; its
    last record is the handoff state with ``cum >= 1``.  ``phase2_trace``
    holds the plain policy-iteration records at scale 1.  ``solution``
    is the converged Riccati pair.  ``probes`` counts the divisor probes
    of the data-driven solver.
    """

    phase1_trace: list
    phase2_trace: list
    solution: AreSolution
    b: float
    probes: int = 0

    @property
    def handoff_index(self):
        return len(self.phase1_trace) - 1

    @property
    def handoff_state(self):
        return self.phase1_trace[-1]

    @property
    def c_fallbacks(self):
        """Always 0, as :func:`_interior_factor` has no fallback; kept only
        until the benchmark harness stops reading it."""
        return 0

    def gain_sequence(self):
        """All gains produced by the solve, in order, excluding the
        starting gain: scaling updates, then plain updates, then the
        final gain."""
        gains = [s.K_tilde for s in self.phase1_trace[1:]]
        gains += [s.K_tilde for s in self.phase2_trace[1:]]
        gains.append(self.solution.K)
        return gains


def _check_weights(weights, n, m):
    """The input-shape rules of the public entries, one helper each, all
    raising :class:`DimensionMismatchError`: the weights fit a plant of
    ``n`` states and ``m`` inputs; a value matrix is symmetric ``n x n``
    (``matkit.check_symmetric`` with the size); a gain is ``m x n``
    (:func:`_check_gain`); both are finite (:class:`InvalidProblemError`)."""
    if weights.Q.shape[0] != n or weights.R.shape[0] != m:
        raise DimensionMismatchError("weights do not match system dimensions")


def _check_gain(K, m, n, name="K"):
    """``K`` as a finite ``m x n`` array."""
    return matkit._as_matrix(np.atleast_2d(matkit._as_float(K, name)), name,
                             m, n)


def _solve_gain(S, N):
    """``S^{-1} N`` of every gain, by one LAPACK ``dgesv``, C-ordered as from
    ``np.linalg.solve``; :class:`SingularMatrixError` if ``S`` is singular."""
    _, _, K, info = scipy.linalg.lapack.dgesv(S, N)
    if info > 0:
        raise SingularMatrixError("B'PB + R/cum^2 is numerically singular")
    return np.ascontiguousarray(K)


def _improved_gain(L, N, R, cum=1.0):
    """Policy improvement of every solver: ``(L + R / cum^2)^{-1} N`` on the
    plant scaled by ``cum``, ``L = B'PB`` and ``N = B'PA`` exact or fitted."""
    matkit._check_positive(cum, "cum")
    return _solve_gain(L + R / cum**2, N)


def _sweep(A, B, Q, R, P):
    """``Q + A'P(A - BK)`` exactly symmetrized, and ``K = (R + B'PB)^{-1}
    B'PA``, for a symmetric ``P``; ``.dot`` is ``@`` at half the overhead."""
    BtP = B.T.dot(P)
    K = _solve_gain(R + BtP.dot(B), BtP.dot(A))
    P_next = Q + A.T.dot(P).dot(A - B.dot(K))
    return (P_next + P_next.T) / 2.0, K


def optimal_gain(sys, weights, P):
    """Feedback gain ``(R + B'PB)^{-1} B'PA`` induced by a value matrix."""
    _check_weights(weights, sys.n, sys.m)
    BtP = sys.B.T @ matkit.check_symmetric(P, "P", sys.n)
    return _improved_gain(BtP @ sys.B, BtP @ sys.A, weights.R)


def _residual(sys, weights, P, K):
    """:func:`are_residual` of ``P`` whose gain ``K`` is already known."""
    res = sys.A.T @ P @ sys.A - P - sys.A.T @ P @ sys.B @ K + weights.Q
    return float(np.linalg.norm(res, "fro"))


def are_residual(sys, weights, P):
    """Frobenius norm of ``A'PA - P - A'PB (R + B'PB)^{-1} B'PA + Q``."""
    _check_weights(weights, sys.n, sys.m)
    P = matkit.check_symmetric(P, "P", sys.n)
    BtP = sys.B.T @ P
    K = _improved_gain(BtP @ sys.B, BtP @ sys.A, weights.R)
    return _residual(sys, weights, P, K)


def riccati_step(sys, weights, P):
    """One value-iteration sweep ``P <- Q + A'PA - A'PB (R+B'PB)^{-1} B'PA``
    and its gain, both from ``P`` as the matrix rule symmetrizes it."""
    _check_weights(weights, sys.n, sys.m)
    return _sweep(sys.A, sys.B, weights.Q, weights.R,
                  matkit.check_symmetric(P, "P", sys.n))


def _check_start(K0, weights, m, n, lam, tol, i_max):
    """The starting gain of a scaling solve as a finite ``m x n`` array,
    once ``weights`` fit ``n``/``m``, ``lam`` lies in (0, 1), ``tol`` is
    finite and positive and ``i_max`` an integer >= 1; raises
    :class:`InvalidProblemError` otherwise, NaN included
    (:class:`DimensionMismatchError` for the shapes)."""
    _check_weights(weights, n, m)
    matkit._check_budget(i_max, "i_max")
    matkit._check_positive(tol, "tol")
    matkit._check_positive(lam, "lam", 1.0)
    return _check_gain(K0, m, n, "K0")


def _evaluate(factor, W, cum):
    """Solve ``cum^2 F' P F - P + W = 0`` on the factor of ``F`` from
    ``matkit._stein_factor``."""
    T, U, rho = factor
    try:
        return matkit._stein(cum * T, U, cum * rho, W)
    except UnstableMatrixError as exc:
        raise UnstableScaledSystemError(
            f"scaled closed loop is not Schur stable at factor {cum:.6g} "
            f"(spectral radius {exc.rho:.6g})", rho=exc.rho) from exc


def _headroom(rho):
    """``1 / rho`` capped at ``MAX_HEADROOM`` for a scaled-loop radius (or
    radius bound) ``rho`` below 1; :class:`UnstableScaledSystemError`
    otherwise."""
    if rho >= 1.0:
        raise UnstableScaledSystemError(
            f"scaled loop after improvement must be Schur stable, "
            f"spectral radius is {rho:.6g}", rho=rho)
    return min(1.0 / rho, MAX_HEADROOM) if rho > 0 else MAX_HEADROOM


def _interior_factor(rho, lam):
    """The factor rule of both scaling solvers: ``1 + lam (r - 1)``,
    inside the admissible ``(1, r)`` for ``r = _headroom(rho)``."""
    return 1.0 + lam * (_headroom(rho) - 1.0)


def _model_step(sys, weights, K0, lam):
    """The model-based ``step`` of :func:`_scaling_pi` from gain ``K0``
    (Lyapunov evaluation, scaled improvement, interior-point factor of
    weight ``lam``) and ``rho(A - B K0)``.  One factorization
    (``matkit._stein_factor``) per evaluation: a scaling step factors its
    improved gain for the next one, a scale-1 step its own gain unless
    handed one; the final gain never.

    The step runs on the plant balanced by the diagonal ``D`` of LAPACK
    ``gebal``, whose powers of 2 make every change of coordinates exact:
    ``(D^-1 A D, D^-1 B)`` with weight ``D Q D`` and gains ``K D``, and
    ``P`` and ``K`` mapped back.  The same plant with its states in other
    units balances alike, so the factors, and with them the answer
    and the evaluation count, do not depend on those units; a plant that
    is already balanced has ``D = I``."""
    _, (d, _) = scipy.linalg.matrix_balance(sys.A, permute=False,
                                            separate=True)
    A, B = sys.A * d / d[:, None], sys.B / d[:, None]
    Q, R = weights.Q * d * d[:, None], weights.R
    factor = matkit._stein_factor(A - B @ (K0 * d))

    def step(K, cum, scaling):
        nonlocal factor
        K = K * d
        if factor is None:
            factor = matkit._stein_factor(A - B @ K)
        W = Q + K.T @ R @ K
        P = _evaluate(factor, (W + W.T) / 2.0, cum)
        BtP = B.T @ P   # P comes out of the solve exactly symmetric
        K_next = _improved_gain(BtP @ B, BtP @ A, R, cum)
        rho = factor[2]
        factor = matkit._stein_factor(A - B @ K_next) if scaling else None
        c = _interior_factor(cum * factor[2], lam) if scaling else 1.0
        return P / d / d[:, None], K_next / d, c, {"rho_closed": rho}

    return step, factor[2]


def _scaling_pi(step, K0, b, tol, i_max):
    """Two-phase scaling policy iteration around one evaluation step.

    ``step(K, cum, scaling)`` evaluates gain ``K`` on the plant scaled by
    ``cum``, improves it, and returns ``(P, K_next, c, fields)``: the value
    matrix, the improved gain, the next factor (read only while
    ``scaling``) and extra :class:`SpiState` fields for this record.
    Phase 1 starts at ``cum = 1 / b`` and multiplies in each factor until
    ``cum >= 1``; phase 2 steps at scale 1 until ``||P_k - P_{k-1}||_F <=
    tol ||P_k||_F``, a stop that does not depend on the units of the
    weights.  The handoff record between them has no value matrix and
    takes the fields of phase 2's first record, whose gain it shares.
    With ``b = 1`` this is Hewer's method.

    Returns a :class:`SpiReport`; ``solution.iterations`` counts the
    calls to ``step`` (the policy evaluations), ``solution.residual`` is
    ``None``.  Raises :class:`MaxIterationsError` if converging would
    take more than ``i_max`` evaluations.  Checks no setting; callers do.
    """
    K, cum, c = K0, 1.0 / b, 1.0
    phase1, phase2 = [], []
    for i in range(i_max):
        if cum < 1.0:
            P, K_next, c_next, fields = step(K, cum, True)
            phase1.append(SpiState(i=i, K_tilde=K, P_tilde=P, b=b, c=c,
                                   cum=cum, **fields))
            K, c, cum = K_next, c_next, cum * c_next
            continue
        P, K_next, _, fields = step(K, 1.0, False)
        if not phase2:
            phase1.append(SpiState(i=i, K_tilde=K, P_tilde=None, b=b, c=c,
                                   cum=cum, **fields))
        phase2.append(SpiState(i=i, K_tilde=K, P_tilde=P, b=1.0, c=1.0,
                               cum=1.0, **fields))
        if len(phase2) > 1 and np.linalg.norm(P - phase2[-2].P_tilde, "fro") \
                <= tol * np.linalg.norm(P, "fro"):
            solution = AreSolution(
                P=P, K=K_next, residual=None, iterations=i + 1,
                trace=[(s.P_tilde, s.K_tilde) for s in phase2])
            return SpiReport(phase1_trace=phase1, phase2_trace=phase2,
                             solution=solution, b=b)
        K = K_next
    raise MaxIterationsError(
        f"policy iteration did not converge in {i_max} iterations "
        f"(cumulative factor {cum:.6g})",
        last=(phase2 or phase1 or [None])[-1])


def hewer_pi(sys, weights, K0, tol=1e-9, max_iter=100):
    """Policy iteration from a stabilizing gain.

    Phase 2 of :func:`_scaling_pi` on the model-based step of model-based
    SPI: policy evaluation (a Lyapunov solve) alternates with policy
    improvement until ``||P_k - P_{k-1}||_F <= tol ||P_k||_F`` (the stop
    of :func:`_scaling_pi`).  The value sequence decreases monotonically
    to the Riccati solution and every iterate keeps the loop Schur
    stable.  ``iterations`` counts the policy evaluations, at most
    ``max_iter``.

    Raises
    ------
    InvalidProblemError
        If ``tol`` is not positive and finite, ``max_iter`` is not an
        integer >= 1 (NaN included) or ``K0`` has a non-finite entry.
    DimensionMismatchError
        If ``K0`` or the weights do not match the plant.
    NotStabilizingError
        If ``rho(A - B K0) >= 1`` (read off the first factor); use
        the scaling solvers when no stabilizing gain is available.
    UnstableScaledSystemError
        If ``rho(A - B K0)`` lies within ``matkit.STABILITY_MARGIN`` of 1.
    MaxIterationsError
        If the stop is not reached within ``max_iter`` evaluations.
    """
    matkit._check_positive(tol, "tol")
    matkit._check_budget(max_iter, "max_iter")
    _check_weights(weights, sys.n, sys.m)
    K = _check_gain(K0, sys.m, sys.n, "K0")
    step, rho0 = _model_step(sys, weights, K, None)   # b = 1 never scales
    if rho0 >= 1.0:
        raise NotStabilizingError(
            f"initial gain does not stabilize the plant "
            f"(spectral radius {rho0:.6g})", rho=rho0)
    sol = _scaling_pi(step, K, 1.0, tol, max_iter).solution
    return replace(sol, residual=_residual(sys, weights, sol.P, sol.K))


def value_iteration(sys, weights, P0=None, tol=1e-10, max_iter=100_000):
    """Fixed-point Riccati recursion from any positive semidefinite seed.

    Slower than policy iteration but needs no stabilizing start; serves
    as the independent route to the Riccati solution in the tests.  It
    stops once consecutive iterates differ by less than ``tol`` in
    Frobenius norm: an absolute bound, unlike the relative stop of the
    policy-iteration solvers, as a linearly converging recursion can take
    small relative steps far from the fixed point.
    ``sys``, ``weights`` and ``P0`` are validated once; each sweep is the
    unchecked kernel of :func:`riccati_step`, so the iterates, the trace
    and the sweep count are those of that recursion, to the bit.

    Raises
    ------
    InvalidProblemError
        If ``tol`` is not positive and finite or ``max_iter`` is not an
        integer >= 1 (NaN included), ``P0`` is not positive semidefinite,
        or the step between sweeps stops being finite (the recursion
        diverges, as it does on a plant with an unstabilizable mode that
        the cost sees).
    SingularMatrixError
        If ``R + B'PB`` is numerically singular.
    MaxIterationsError
        If the tolerance is not met within ``max_iter`` sweeps.
    """
    matkit._check_positive(tol, "tol")
    matkit._check_budget(max_iter, "max_iter")
    _check_weights(weights, sys.n, sys.m)
    P = (np.zeros((sys.n, sys.n)) if P0 is None
         else matkit.check_symmetric(P0, "P0", sys.n))
    if not matkit.is_positive_semidefinite(P):
        raise InvalidProblemError("P0 must be positive semidefinite")
    A, B, Q, R = sys.A, sys.B, weights.Q, weights.R
    trace = []
    # a diverging P overflows; the step check names it, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iter):
            P_next, K = _sweep(A, B, Q, R, P)
            trace.append((P, K))
            d = (P_next - P).ravel()
            step = math.sqrt(d.dot(d))   # np.linalg.norm(P_next - P, "fro")
            if not math.isfinite(step):
                raise InvalidProblemError(
                    f"value iteration diverged at sweep {k + 1}")
            if step < tol:
                break
            P = P_next
        else:
            raise MaxIterationsError(
                f"value iteration did not converge in {max_iter} iterations",
                last=(P, None))
    K = optimal_gain(sys, weights, P_next)
    return AreSolution(P=P_next, K=K,
                       residual=_residual(sys, weights, P_next, K),
                       iterations=k + 1, trace=trace)


def dare_reference(sys, weights):
    """Optimal pair from one Schur-method solve of the discrete ARE.

    Calls ``scipy.linalg.solve_discrete_are`` (the generalized Schur
    method of Laub and of Arnold & Laub) and verifies the result before
    returning it: ``P`` is finite and positive semidefinite, the gain it
    induces makes ``A - BK`` Schur stable, and the Riccati residual is at
    most ``DARE_RESIDUAL_RTOL * ||P||_F``.  ``iterations`` is 0:
    the solve is direct.

    Raises
    ------
    InvalidProblemError
        If the solve fails or its result fails a check, typically because
        the plant has no stabilizing Riccati solution; the message names
        the reason.
    """
    _check_weights(weights, sys.n, sys.m)
    try:
        P = scipy.linalg.solve_discrete_are(sys.A, sys.B, weights.Q,
                                            weights.R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise InvalidProblemError(
            f"DARE solve failed, no stabilizing solution: {exc}") from exc
    P = matkit.check_symmetric(P, "DARE solution", sys.n)
    if not matkit.is_positive_semidefinite(P):
        raise InvalidProblemError("DARE solution is not positive semidefinite")
    K = optimal_gain(sys, weights, P)
    rho = matkit.spectral_radius(sys.A - sys.B @ K)
    if rho >= 1.0:
        raise InvalidProblemError(
            f"DARE solution does not stabilize the plant "
            f"(spectral radius {rho:.6g})")
    residual = _residual(sys, weights, P, K)
    bound = DARE_RESIDUAL_RTOL * float(np.linalg.norm(P, "fro"))
    if not residual <= bound:
        raise InvalidProblemError(
            f"DARE solution has Riccati residual {residual:.3e} "
            f"above {bound:.3e}")
    return AreSolution(P=P, K=K, residual=residual, iterations=0)
