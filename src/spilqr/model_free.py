"""Data-driven scaling policy iteration.

Solves the same problem as :mod:`spilqr.model_based` using nothing but
one recorded trajectory of states and inputs: each policy-evaluation
step becomes a least-squares regression whose unknowns are the packed
value matrix ``P`` together with the auxiliary blocks ``M = A'PB`` and
``L = B'PB``, so the gain update never needs the plant matrices.  The
trajectory is collected once under probing input and reused by every
iteration (off-policy).

The scaling divisor ``b`` is found by probing: a candidate works
exactly when the regressed value matrix is positive definite.  The
per-iteration inflation factor is chosen from data via the gate matrix
``P - Q - K'RK``: when it is invertible, any factor strictly inside
``(1, sigma_min(P (P - Q - K'RK)^{-1})^{1/2})`` keeps the inflated loop
Schur stable; otherwise the factor stays at 1.
"""

from dataclasses import dataclass

import numpy as np

from . import matkit, riccati
from .exceptions import (
    DimensionMismatchError,
    InsufficientSamplesError,
    InvalidProblemError,
    MaxIterationsError,
    ProbesExhaustedError,
    RankDeficientError,
    SingularMatrixError,
)
from .model_based import SpiReport, SpiState

__all__ = [
    "RegressionData", "RegressionSolution", "ScalingBound", "BSearchResult",
    "build_regression_data", "check_rank_condition",
    "assemble_theta_gamma", "solve_regression", "model_free_gain_update",
    "search_b", "scaling_bound", "choose_c_model_free", "spi_model_free",
]

EPS_INVERTIBLE = 1e-8
EPS_MARGIN = 1e-6


def unknown_count(n, m):
    """Number of regression unknowns: packed P, full M, packed L."""
    return n * (n + 1) // 2 + m * n + m * (m + 1) // 2


@dataclass(frozen=True)
class RegressionData:
    """Sample blocks built once from a recorded trajectory.

    Row ``k`` of every block derives from the same time index:
    ``delta_xx`` holds ``x_k ⊗ x_k``, ``delta_ux`` holds ``u_k ⊗ x_k``,
    ``d_x``/``D_x`` hold the quadratic monomials of ``x_k`` / ``x_{k+1}``,
    and ``d_u`` those of ``u_k``.  ``states`` retains ``x_0..x_{l-1}``
    because the gain-dependent block must be rebuilt each iteration.
    """

    delta_xx: np.ndarray
    delta_ux: np.ndarray
    d_x: np.ndarray
    D_x: np.ndarray
    d_u: np.ndarray
    states: np.ndarray
    n: int
    m: int

    @property
    def l(self):
        return self.delta_xx.shape[0]


@dataclass(frozen=True)
class RegressionSolution:
    """Unpacked regression unknowns for one iteration: the symmetric
    value matrix ``P`` and the auxiliary blocks ``M = A'PB`` (n x m)
    and ``L = B'PB`` (m x m, symmetric)."""

    P: np.ndarray
    M: np.ndarray
    L: np.ndarray


@dataclass(frozen=True)
class ScalingBound:
    """Inflation headroom extracted from a regressed value matrix.

    ``matrix`` is the gate ``P - Q - K'RK``; when it is numerically
    invertible, ``bound`` is ``sigma_min(P matrix^{-1})^{1/2}`` and any
    factor in ``(1, bound)`` preserves stability of the inflated loop.
    ``bound`` is ``None`` when the gate is treated as singular.
    """

    matrix: np.ndarray
    invertible: bool
    sigma_min: float
    bound: float | None


@dataclass(frozen=True)
class BSearchResult:
    """Outcome of the scaling-divisor probe: the accepted divisor, the
    positive definite value matrix that certified it, and the number of
    regressions performed."""

    b: float
    solution: RegressionSolution
    probes: int


def build_regression_data(traj):
    """Assemble all sample blocks from one trajectory.

    Requires at least ``unknown_count(n, m)`` transitions; more samples
    improve conditioning.
    """
    n, m, l = traj.n, traj.m, traj.length
    required = unknown_count(n, m)
    if l < required:
        raise InsufficientSamplesError(
            f"{l} transitions cannot determine {required} unknowns")
    X = traj.states[:l]
    X_next = traj.states[1:l + 1]
    U = traj.inputs
    delta_xx = (X[:, :, None] * X[:, None, :]).reshape(l, n * n)
    delta_ux = (U[:, :, None] * X[:, None, :]).reshape(l, m * n)
    return RegressionData(
        delta_xx=delta_xx,
        delta_ux=delta_ux,
        d_x=matkit.vecv_rows(X),
        D_x=matkit.vecv_rows(X_next),
        d_u=matkit.vecv_rows(U),
        states=X.copy(),
        n=n, m=m)


def check_rank_condition(data, tol=1e-8):
    """Persistent-excitation test: the stacked blocks
    ``[delta_xx, delta_ux, d_u]`` must have rank equal to the number of
    regression unknowns (the state block contributes only its
    symmetric part)."""
    stacked = np.hstack([data.delta_xx, data.delta_ux, data.d_u])
    return matkit.numerical_rank(stacked, tol) == unknown_count(data.n, data.m)


def _kron_eye(M, n):
    """``np.kron(M, np.eye(n))``, as the broadcast product that
    ``np.kron`` computes, without its per-call reshaping overhead."""
    r, c = M.shape
    return (M[:, None, :, None] * np.eye(n)[None, :, None, :]).reshape(
        r * n, c * n)


def assemble_theta_gamma(data, K, cum, weights):
    """Regressor matrix and right-hand side for one iteration.

    The linear system ``theta @ [vecs(P); vec(M); vecs(L)] = -gamma``
    restates, row by row, the evaluation identity of gain ``K`` on the
    plant scaled by ``cum``, written along the recorded trajectory.
    Column blocks are ordered packed-P, vectorized-M, packed-L.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape != (data.m, data.n):
        raise DimensionMismatchError(
            f"K must be {data.m} x {data.n}, got {K.shape}")
    if cum <= 0:
        raise InvalidProblemError("cum must be positive")
    g2 = cum * cum
    d_Kx = matkit.vecv_rows(data.states @ K.T)
    theta = np.hstack([
        g2 * data.D_x - data.d_x,
        -2.0 * g2 * (data.delta_xx @ _kron_eye(K.T, data.n)
                     + data.delta_ux),
        g2 * (d_Kx - data.d_u),
    ])
    gamma = data.delta_xx @ matkit.vec(weights.Q + K.T @ weights.R @ K)
    return theta, gamma


def solve_regression(theta, gamma, n, m):
    """Least-squares solution of ``theta z = -gamma`` unpacked into
    ``(P, M, L)``.

    Uses an orthogonal factorization of ``theta`` rather than explicit
    normal equations.  Raises :class:`RankDeficientError` when the
    regressor loses column rank, which signals insufficient excitation.
    """
    theta = np.asarray(theta, dtype=float)
    cols = unknown_count(n, m)
    if theta.shape[1] != cols:
        raise DimensionMismatchError(
            f"theta has {theta.shape[1]} columns, expected {cols}")
    z, _, rank, _ = np.linalg.lstsq(theta, -np.asarray(gamma, dtype=float),
                                    rcond=None)
    if rank < cols:
        raise RankDeficientError(
            f"regressor rank {rank} < {cols}; re-collect data with "
            f"richer probing input")
    np_pack = n * (n + 1) // 2
    P = matkit.unvecs(z[:np_pack])
    M = matkit.unvec(z[np_pack:np_pack + n * m], n, m)
    L = matkit.unvecs(z[np_pack + n * m:])
    return RegressionSolution(P=P, M=M, L=L)


def model_free_gain_update(sol, weights, cum):
    """Improved gain ``(L + R / cum^2)^{-1} M'`` from regressed blocks;
    coincides with the model-based improvement when the blocks are
    exact."""
    if cum <= 0:
        raise InvalidProblemError("cum must be positive")
    inner = sol.L + weights.R / cum**2
    try:
        return np.linalg.solve(inner, sol.M.T)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "L + R/cum^2 is numerically singular") from exc


def _solve_iteration(data, K, cum, weights):
    theta, gamma = assemble_theta_gamma(data, K, cum, weights)
    return solve_regression(theta, gamma, data.n, data.m)


def search_b(data, K0, weights, b_init=1.0, delta=0.1, max_probes=200):
    """Find a scaling divisor from data alone.

    Probes ``b_init, b_init + step_1, b_init + step_1 + step_2, ...``
    and accepts the first divisor whose regressed value matrix is
    positive definite (which certifies that the shrunken closed loop is
    Schur stable under ``K0``).  ``delta`` is either a constant step or
    a callable ``probe_index -> step`` (probe indices start at 1) for
    growing schedules.

    Raises
    ------
    ProbesExhaustedError
        When ``max_probes`` candidates all fail; the system may be
        uncontrollable or the data degenerate.
    """
    if b_init < 1.0:
        raise InvalidProblemError("b_init must be at least 1")
    step = delta if callable(delta) else (lambda i: delta)
    K0 = np.atleast_2d(np.asarray(K0, dtype=float))
    b = float(b_init)
    for probe in range(1, max_probes + 1):
        sol = _solve_iteration(data, K0, 1.0 / b, weights)
        if matkit.is_positive_definite(sol.P):
            return BSearchResult(b=b, solution=sol, probes=probe)
        increment = step(probe)
        if increment <= 0:
            raise InvalidProblemError("delta steps must be positive")
        b += increment
    raise ProbesExhaustedError(
        f"no scaling divisor found in {max_probes} probes "
        f"(last candidate {b:.6g})")


def scaling_bound(P, K_next, weights, eps_inv=EPS_INVERTIBLE):
    """Inflation headroom of a regressed value matrix.

    The gate is ``P - Q - K_next' R K_next``; it counts as invertible
    when its smallest singular value exceeds ``eps_inv`` times its
    spectral norm.
    """
    P = matkit.check_symmetric(P, "P")
    K_next = np.atleast_2d(np.asarray(K_next, dtype=float))
    gate = P - weights.Q - K_next.T @ weights.R @ K_next
    gate = (gate + gate.T) / 2.0
    sv = np.linalg.svd(gate, compute_uv=False)
    sigma_min = float(sv[-1])
    if sv[0] == 0.0 or sigma_min <= eps_inv * sv[0]:
        return ScalingBound(matrix=gate, invertible=False,
                            sigma_min=sigma_min, bound=None)
    ratio = P @ np.linalg.inv(gate)
    bound = float(np.sqrt(np.linalg.svd(ratio, compute_uv=False)[-1]))
    return ScalingBound(matrix=gate, invertible=True,
                        sigma_min=sigma_min, bound=bound)


def _c_from_bound(sb, lam, eps_margin):
    """Interior-point factor from a :class:`ScalingBound`; returns
    ``(c, fallback)`` where ``fallback`` flags a headroom at or below 1
    (not covered by the selection rule, factor forced to 1)."""
    if not sb.invertible:
        return 1.0, False
    if sb.bound <= 1.0 + eps_margin:
        return 1.0, True
    return 1.0 + lam * (sb.bound - 1.0), False


def choose_c_model_free(P, K_next, weights, lam=0.5,
                        eps_inv=EPS_INVERTIBLE, eps_margin=EPS_MARGIN):
    """Next inflation factor from data: 1 when the gate matrix is
    singular (or leaves no headroom), otherwise the interior point
    ``1 + lam (bound - 1)`` of ``(1, bound)``."""
    if not 0.0 < lam < 1.0:
        raise InvalidProblemError("lam must lie strictly between 0 and 1")
    c, _ = _c_from_bound(scaling_bound(P, K_next, weights, eps_inv),
                         lam, eps_margin)
    return c


def spi_model_free(data, K0, weights, b_init=1.0, delta=0.1, lam=0.5,
                   tol=1e-5, i_max=500, max_probes=200):
    """Solve the LQR problem from recorded data and an arbitrary
    starting gain, never touching the plant matrices.

    Runs the divisor probe, then loop 1 (scaled regression, gain
    update, data-driven factor choice) until the cumulative factor over
    the divisor reaches 1, then loop 2 (the same regression at scale 1,
    i.e. data-driven policy iteration) until consecutive value matrices
    differ by less than ``tol``.  Convergence is only checked between
    two loop-2 iterates, never across the handoff.

    Returns a :class:`SpiReport`.  ``solution.residual`` is ``None``
    because the solver has no model to evaluate the Riccati equation
    against; compute it externally when the plant is known.
    """
    if i_max < 1:
        raise InvalidProblemError("i_max must be at least 1")
    if not check_rank_condition(data):
        raise RankDeficientError(
            "data fails the excitation rank condition; collect a longer "
            "or richer trajectory")
    K = np.atleast_2d(np.asarray(K0, dtype=float))
    if K.shape != (data.m, data.n):
        raise InvalidProblemError(
            f"K0 must be {data.m} x {data.n}, got {K.shape}")

    found = search_b(data, K, weights, b_init=b_init, delta=delta,
                     max_probes=max_probes)
    b = found.b
    cum = 1.0 / b
    c = 1.0
    c_fallbacks = 0
    trace = []
    sol = found.solution  # regression at iteration 0 already done
    i = 0
    while cum < 1.0:
        if i >= i_max:
            raise MaxIterationsError(
                f"scaling loop did not finish in {i_max} iterations",
                last=trace[-1] if trace else None)
        if sol is None:
            sol = _solve_iteration(data, K, cum, weights)
        K_next = model_free_gain_update(sol, weights, cum)
        sb = scaling_bound(sol.P, K_next, weights)
        c_next, fallback = _c_from_bound(sb, lam, EPS_MARGIN)
        c_fallbacks += fallback
        trace.append(SpiState(
            i=i, K_tilde=K, P_tilde=sol.P, b=b, c=c, cum=cum,
            bound=sb.bound, sigma_q=sb.sigma_min, fallback=fallback))
        K = K_next
        c = c_next
        cum = cum * c
        sol = None
        i += 1

    trace.append(SpiState(i=i, K_tilde=K, P_tilde=None, b=b, c=c, cum=cum))
    handoff_index = i

    # Loop 2: scale fixed at 1; plain data-driven policy iteration.
    phase2 = []
    pi_trace = []
    P_prev = None
    j = 0
    while True:
        if handoff_index + j >= i_max:
            raise MaxIterationsError(
                f"post-handoff iteration did not converge within the "
                f"{i_max} iteration budget",
                last=phase2[-1] if phase2 else None)
        sol = _solve_iteration(data, K, 1.0, weights)
        K_next = model_free_gain_update(sol, weights, 1.0)
        phase2.append(SpiState(
            i=handoff_index + j, K_tilde=K, P_tilde=sol.P,
            b=1.0, c=1.0, cum=1.0))
        pi_trace.append((sol.P, K))
        if P_prev is not None and \
                np.linalg.norm(sol.P - P_prev, "fro") < tol:
            K = K_next
            break
        P_prev = sol.P
        K = K_next
        j += 1

    solution = riccati.AreSolution(
        P=sol.P, K=K, residual=None,
        iterations=handoff_index + j + 1, trace=pi_trace)
    return SpiReport(phase1_trace=trace, handoff_index=handoff_index,
                     phase2_trace=phase2, solution=solution, b=b,
                     probes=found.probes, c_fallbacks=c_fallbacks)
