"""Data-driven scaling policy iteration.

Solves the same problem as :mod:`spilqr.model_based` using nothing but
one recorded trajectory of states and inputs: each policy-evaluation
step becomes a least-squares regression whose unknowns are the packed
value matrix ``P`` together with the auxiliary blocks ``M = A'PB`` and
``L = B'PB``, so the gain update never needs the plant matrices.  The
trajectory is collected once under probing input, certified once
(:class:`RegressionData`) and reused by every iteration (off-policy).

The regressor's columns are divided by their 2-norms, so the units of
the recording change neither its rank test nor its solution.  The
scaling divisor ``b`` is found by probing: a candidate works exactly
when the regressed value matrix has a Cholesky factor (is positive
definite), one LAPACK ``potrf`` per probe.  The gain improves by the
kernel every solver shares, and the per-iteration inflation factor comes
from the rule of the model-based solver, :func:`riccati._interior_factor`,
fed with a radius bound that the data certify: the largest eigenvalue
``mu`` of the pencil ``(P - Q - K'RK, P)``, from one LAPACK ``dsygvd``,
bounds the improved scaled loop's radius by ``sqrt(mu)``
(:func:`scaling_bound`).
"""

from dataclasses import InitVar, dataclass, field, replace

import numpy as np
import scipy.linalg.lapack

from . import lti, matkit, riccati
from .exceptions import (
    InvalidProblemError,
    ProbesExhaustedError,
    RankDeficientError,
    UnstableScaledSystemError,
)

__all__ = [
    "RegressionData", "RegressionSolution",
    "build_regression_data", "check_rank_condition",
    "assemble_theta_gamma", "solve_regression",
    "search_b", "scaling_bound", "spi_model_free",
]


def unknown_count(n, m):
    """Number of regression unknowns: packed P, full M, packed L."""
    return n * (n + 1) // 2 + m * n + m * (m + 1) // 2


@dataclass(frozen=True, repr=False)
class RegressionData:
    """The certified sample blocks of one recorded trajectory.

    The one constructor input is the trajectory, from which every block
    derives: row ``k`` holds ``x_k`` (``states``) and ``u_k``
    (``inputs``), the quadratic monomials of ``x_k`` / ``x_{k+1}``
    (``d_x``/``D_x``) and those of ``u_k`` (``d_u``).  Every regression
    block is linear in these, so the store is O(l (n + m)^2).  No block
    shares memory with the trajectory, so later edits to it change none.

    Construction runs, in order, the matrix rule on the states and the
    inputs, the refusal (:class:`InvalidProblemError`, naming them) of
    entries beyond ``lti.DIVERGENCE_LIMIT`` in magnitude before any
    monomial is formed, and the excitation rank condition
    (:class:`RankDeficientError` unless the recording excites all
    ``unknown_count(n, m)`` unknowns).  Every instance is certified, and
    the solvers do not check it again.
    """

    traj: InitVar[lti.Trajectory]
    states: np.ndarray = field(init=False)
    inputs: np.ndarray = field(init=False)
    d_x: np.ndarray = field(init=False)
    D_x: np.ndarray = field(init=False)
    d_u: np.ndarray = field(init=False)

    def __post_init__(self, traj):
        X = matkit._as_matrix(traj.states, "states")   # x_0 .. x_l
        U = matkit._as_matrix(traj.inputs, "inputs")
        for name, block in (("states", X), ("inputs", U)):
            if np.abs(block).max(initial=0.0) > lti.DIVERGENCE_LIMIT:
                raise InvalidProblemError(
                    f"{name} exceed {lti.DIVERGENCE_LIMIT:g} in magnitude; "
                    f"the recording diverged")
        V = matkit.vecv_rows(X)
        for name, block in (("states", X[:-1].copy()), ("inputs", U.copy()),
                            ("d_x", V[:-1]), ("D_x", V[1:]),
                            ("d_u", matkit.vecv_rows(U))):
            object.__setattr__(self, name, block)
        if not check_rank_condition(self):
            unknowns = unknown_count(self.n, self.m)
            raise RankDeficientError(
                f"data fails the excitation rank condition: {self.l} samples "
                f"do not excite all {unknowns} regression unknowns, which "
                f"takes at least {unknowns} samples; collect a longer or "
                f"richer trajectory")

    n = property(lambda self: self.states.shape[1])
    m = property(lambda self: self.inputs.shape[1])
    l = property(lambda self: self.states.shape[0])

    def __repr__(self):
        """The derived sizes only: the constructor's trajectory is not
        kept, and the blocks are O(l (n + m)^2)."""
        return f"RegressionData(n={self.n}, m={self.m}, l={self.l})"

    def _repr_pretty_(self, p, cycle):
        """The pretty-printing hook of IPython and ``hypothesis``, which
        would otherwise list the dataclass's init fields, the trajectory
        that is not kept among them."""
        p.text(repr(self))


@dataclass(frozen=True)
class RegressionSolution:
    """Unpacked regression unknowns for one iteration: the symmetric
    value matrix ``P`` and the auxiliary blocks ``M = A'PB`` (n x m)
    and ``L = B'PB`` (m x m, symmetric)."""

    P: np.ndarray
    M: np.ndarray
    L: np.ndarray


def _row_kron(V, X):
    """Row ``k`` is ``V[k] ⊗ X[k]``."""
    return (V[:, :, None] * X[:, None, :]).reshape(len(X), -1)


def build_regression_data(traj):
    """The certified recording of ``traj``: ``RegressionData(traj)``."""
    return RegressionData(traj)


def check_rank_condition(data):
    """Persistent-excitation test: the rows ``[d_x, u_k ⊗ x_k, d_u]``, one
    column per regression unknown, must have full column rank
    (``matkit._full_column_rank``, which the units of the recording do
    not change).  Runs when a :class:`RegressionData` is built, and
    nowhere else."""
    return matkit._full_column_rank(np.hstack([
        data.d_x, _row_kron(data.inputs, data.states), data.d_u]))


def assemble_theta_gamma(data, K, cum, weights):
    """Regressor matrix and right-hand side for one iteration.

    The linear system ``theta @ [vecs(P); vec(M); vecs(L)] = -gamma``
    restates, row by row, the evaluation identity of gain ``K`` on the
    plant scaled by ``cum``, written along the recorded trajectory.
    Column blocks are ordered packed-P, vectorized-M, packed-L; the M
    block's row ``k`` is ``(u_k + K x_k) ⊗ x_k`` and ``gamma_k`` is
    ``x_k' W x_k`` with ``W = Q + K'RK``.
    """
    riccati._check_weights(weights, data.n, data.m)
    K = riccati._check_gain(K, data.m, data.n)
    matkit._check_positive(cum, "cum")
    g2 = cum * cum
    X, XKt = data.states, data.states @ K.T
    theta = np.concatenate([
        g2 * data.D_x - data.d_x,
        -2.0 * g2 * _row_kron(data.inputs + XKt, X),
        g2 * (matkit.vecv_rows(XKt) - data.d_u),
    ], axis=1)
    XW = X @ (weights.Q + K.T @ weights.R @ K)
    XW *= X
    return theta, np.add.reduce(XW, axis=1)


def solve_regression(theta, gamma, n, m):
    """Least-squares solution of ``theta z = -gamma`` unpacked into
    ``(P, M, L)``.

    Uses an orthogonal factorization of the equilibrated ``theta``
    (``matkit._equilibrate``) rather than explicit normal equations.
    ``theta`` and ``gamma``, as an ``l x 1`` column, follow the matrix
    rule.  Raises :class:`RankDeficientError` when the regressor loses
    column rank, which signals insufficient excitation.
    """
    cols = unknown_count(n, m)
    theta = matkit._as_matrix(theta, "theta", cols=cols)
    gamma = matkit._as_matrix(
        np.reshape(matkit._as_float(gamma, "gamma"), (-1, 1)), "gamma",
        rows=len(theta))
    scaled, norms = matkit._equilibrate(theta)
    z, _, rank, _ = np.linalg.lstsq(scaled, -gamma[:, 0], rcond=None)
    if rank < cols:
        raise RankDeficientError(
            f"regressor rank {rank} < {cols}; re-collect data with "
            f"richer probing input")
    z /= norms
    np_pack = n * (n + 1) // 2
    P = matkit.unvecs(z[:np_pack])
    M = matkit.unvec(z[np_pack:np_pack + n * m], n, m)
    L = matkit.unvecs(z[np_pack + n * m:])
    return RegressionSolution(P=P, M=M, L=L)


def _solve_iteration(data, K, cum, weights):
    theta, gamma = assemble_theta_gamma(data, K, cum, weights)
    return solve_regression(theta, gamma, data.n, data.m)


def search_b(data, K0, weights, b_init, delta, max_probes):
    """Find a scaling divisor from data alone.

    Probes ``b_init, b_init + step_1, b_init + step_1 + step_2, ...``
    and accepts the first divisor whose regressed value matrix is
    positive definite, which certifies that the shrunken closed loop is
    Schur stable under ``K0``.  The test is whether the matrix has a
    Cholesky factor, read off the ``info`` of one LAPACK ``potrf`` per
    probe: the factorization that LAPACK ``dsygvd`` runs on the same ``P``
    in :func:`scaling_bound`, and the verdict of ``np.linalg.cholesky``.
    ``delta`` is either a constant step or a callable ``probe_index ->
    step`` (probe indices start at 1) for growing schedules.  Returns
    ``(b, solution, probes)``: the accepted divisor, the positive definite
    regression that certified it, and the number of regressions performed.

    Raises
    ------
    ProbesExhaustedError
        When ``max_probes`` (an integer, at least 1) candidates all fail;
        the system may be uncontrollable or the data degenerate.
    """
    if not 1.0 <= matkit._real(b_init) < np.inf:
        raise InvalidProblemError("b_init must be at least 1 and finite")
    matkit._check_budget(max_probes, "max_probes")
    K0 = riccati._check_gain(K0, data.m, data.n, "K0")
    step = delta if callable(delta) else (lambda i: delta)
    b = float(b_init)
    for probe in range(1, max_probes + 1):
        increment = step(probe)
        matkit._check_positive(increment, "delta steps")
        sol = _solve_iteration(data, K0, 1.0 / b, weights)
        if scipy.linalg.lapack.dpotrf(sol.P, lower=1)[1] == 0:
            return b, sol, probe
        b += increment
    raise ProbesExhaustedError(
        f"no scaling divisor found in {max_probes} probes "
        f"(last candidate {b:.6g})")


def scaling_bound(P, K_next, weights):
    """Certified radius ``rho_hat`` of the improved scaled loop, from data.

    ``P`` is the value matrix regressed for gain ``K`` at scale ``cum``
    and ``K_next`` its improvement; both must fit the weights.  Policy
    improvement gives the gate ``G = P - Q - K_next' R K_next`` the bound
    ``G >= cum^2 F'PF`` with ``F = A - B K_next``, so for the largest
    eigenvalue ``mu`` of the pencil ``(G, P)`` and ``P > 0``,
    ``cum^2 F'PF <= mu P`` and ``rho(cum F) <= rho_hat = sqrt(max(mu, 0))``.
    ``mu`` comes from one LAPACK ``dsygvd`` without eigenvectors, the
    routine and the bits of ``scipy.linalg.eigh(G, P)``.

    Raises :class:`UnstableScaledSystemError` when ``P`` is not positive
    definite (``dsygvd``'s Cholesky factorization of ``P`` fails), so that
    the pencil certifies no radius, and :class:`InvalidProblemError` when
    ``G`` overflows.
    """
    P = matkit.check_symmetric(P, "P", len(weights.Q))
    K_next = riccati._check_gain(K_next, len(weights.R), len(P), "K_next")
    gate = P - weights.Q - K_next.T @ weights.R @ K_next
    if not np.isfinite(gate).all():
        raise InvalidProblemError("the gate P - Q - K'RK overflows")
    mu, _, info = scipy.linalg.lapack.dsygvd(gate, P, jobz="N")
    if info > 0:
        raise UnstableScaledSystemError(
            "regressed P is not positive definite, so the pencil "
            "(P - Q - K'RK, P) certifies no scaled-loop radius")
    return float(np.sqrt(max(mu[-1], 0.0)))


def spi_model_free(data, K0, weights, b_init=1.0, delta=0.1, lam=0.5,
                   tol=1e-5, i_max=riccati.SPI_MAX_ITER, max_probes=200):
    """Solve the LQR problem from recorded data and an arbitrary
    starting gain, never touching the plant matrices.

    Runs the divisor probe, then the two-phase driver: loop 1 (scaled
    regression, gain update, and the factor of the model-based rule
    ``riccati._interior_factor`` at the radius bound of
    :func:`scaling_bound`) until the
    cumulative factor over the divisor reaches 1, then loop 2 (the same
    regression at scale 1, i.e. data-driven policy iteration) until
    ``||P_k - P_{k-1}||_F <= tol ||P_k||_F`` (the stop of
    ``riccati._scaling_pi``).  The accepted
    probe's regression is the first evaluation; ``i_max`` bounds the
    evaluations of both loops, probes excluded.  Relies on the excitation
    rank condition, certified once when ``data`` was built.

    Returns a :class:`SpiReport`.  ``solution.residual`` is ``None``
    because the solver has no model to evaluate the Riccati equation
    against; compute it externally when the plant is known.  Raises
    :class:`UnstableScaledSystemError` when a scaling step's radius
    certificate fails (:func:`scaling_bound`), as noisy data can make it.
    """
    K = riccati._check_start(K0, weights, data.m, data.n, lam, tol, i_max)
    b, accepted, probes = search_b(data, K, weights, b_init=b_init,
                                   delta=delta, max_probes=max_probes)
    # The accepted probe regressed K0 at scale 1/b, the first evaluation.
    pending = [accepted]

    def step(K, cum, scaling):
        sol = pending.pop() if pending else _solve_iteration(data, K, cum,
                                                             weights)
        K_next = riccati._improved_gain(sol.L, sol.M.T, weights.R, cum)
        if not scaling:
            return sol.P, K_next, 1.0, {}
        rho = scaling_bound(sol.P, K_next, weights)
        return (sol.P, K_next, riccati._interior_factor(rho, lam),
                {"bound": riccati._headroom(rho)})

    report = riccati._scaling_pi(step, K, b, tol, i_max)
    return replace(report, probes=probes)
