"""Dense real-matrix kernels used by every solver module.

Provides spectral radius, numerical rank, the complex Schur form with
the spectral radius read off it, and a discrete Lyapunov solver whose
kernel is chosen by the state dimension: up to ``KRONECKER_MAX_N``
states, one real LU of the n^2 x n^2 Kronecker system (O(n^6)); above
it, the modal solve on one eigendecomposition (O(n^3)) with one
correction on the same factor, gated by the eigenvectors' conditioning
and by its own residual, with the Bartels-Stewart back-substitution on
the complex Schur form as its fallback.  All functions are pure and
operate on plain ``numpy`` arrays.

It also holds the package's input rules: :func:`_as_float`, the one
conversion of outside input into a float array, with which the matrix
rule :func:`_as_matrix` starts, and the setting rules
:func:`_check_budget` and :func:`_check_positive`.
"""

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack

from .exceptions import (
    DimensionMismatchError,
    EigenvalueConvergenceError,
    IllConditionedError,
    InvalidProblemError,
    UnstableMatrixError,
)

__all__ = [
    "spectral_radius", "numerical_rank", "schur", "solve_discrete_lyapunov",
    "check_symmetric", "is_positive_definite",
]

# Reject Lyapunov factors closer to the unit circle than this; beyond it
# 1 - conj(l_i) l_j over eigenvalue pairs comes near 0: the modal solve
# divides by it, the Schur solver's triangular systems have it, negated,
# on their diagonals, and the Kronecker system's eigenvalues are
# 1 - l_i l_j.
STABILITY_MARGIN = 1e-9
# Largest state dimension whose Lyapunov equations are solved as one real
# n^2 x n^2 Kronecker system; above it, by the modal solve.  The two
# kernels cost the same between n = 9 and 10 (one evaluation, factor,
# solve and correction, best of 9 x 200, BLAS 1 thread, 2-core Xeon VM):
# 19 vs 63 µs at n=3, 55 vs 83 µs at n=8, 74 vs 90 µs at n=9 and 105 vs
# 93 µs at n=10.  The LU's cost grows ~1.4x per added state; the cutoff
# stays at 8, below the crossover, so that no answer of up to 8 states
# changes.
KRONECKER_MAX_N = 8
# The modal solve's corrected answer is taken only when the eigenvectors'
# Frobenius condition number ||V||_F ||V^-1||_F is at most MODAL_MAX_COND,
# and its residual ||F' P F - P + W||_F at most MODAL_RESIDUAL_RTOL
# (||F||_F^2 ||P||_F + ||W||_F); otherwise the Schur path solves.  A small
# residual does not make P accurate when V is ill conditioned: on a
# non-normal factor of radius 0.15 with cond(V) ~ 2e6 the corrected modal
# P passes the residual gate 4e-13 from the Kronecker oracle's, against
# the Schur path's 2e-15.  The residual gate checks the answer against F
# itself, which the conditioning gate cannot: it keeps out a non-finite
# P, and one whose factor is not F's.
MODAL_MAX_COND = 1e3
MODAL_RESIDUAL_RTOL = 1e-13
# Largest asymmetry, relative to max |S_ij|, of a symmetric matrix.
SYMMETRY_RTOL = 1e-10
# Eigenvalues w at or below PD_RTOL max |w| do not count as positive.
PD_RTOL = 1e-10
# Relative cutoff of the controllability and excitation rank tests.
RANK_TOL = 1e-8


def _as_float(A, name="matrix"):
    """``A`` as a float array, the one conversion of outside input;
    :class:`InvalidProblemError` naming ``name`` when ``A`` is ragged, not
    numeric, or holds an integer too large for a double."""
    try:
        return np.asarray(A, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidProblemError(f"{name} is not a numeric matrix") from exc


def _as_matrix(A, name="matrix", rows=None, cols=None, square=False):
    """The one matrix rule: ``A`` converted by :func:`_as_float`, as a
    non-empty 2-D float array, square or with ``rows`` rows and ``cols``
    columns where asked (:class:`DimensionMismatchError` otherwise), and
    with finite entries (:class:`InvalidProblemError` otherwise); every
    refusal names ``name``."""
    A = _as_float(A, name)
    if A.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size == 0:
        raise DimensionMismatchError(f"{name} must not be empty, got {A.shape}")
    if square and A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got {A.shape}")
    if rows not in (None, A.shape[0]) or cols not in (None, A.shape[1]):
        want = (f"be {rows} x {cols}" if None not in (rows, cols) else
                f"have {rows} rows" if cols is None else f"have {cols} columns")
        raise DimensionMismatchError(f"{name} must {want}, got {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidProblemError(f"{name} has non-finite entries")
    return A


def _check_budget(value, name, floor=1):
    """The one budget rule: an integer (Python or numpy, not bool) at or
    above ``floor``; raises :class:`InvalidProblemError` naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < floor:
        raise InvalidProblemError(
            f"{name} must be at least {floor} and an integer, got {value!r}")


def _real(value):
    """``value`` as a float when it is a number that a double holds (a
    string, even a numeric one, is not, nor is a boolean), else NaN,
    which every bound refuses."""
    try:
        return (math.nan if isinstance(value, (str, bytes, bool, np.bool_))
                else float(value))
    except (TypeError, ValueError, OverflowError):   # None, or 10**400
        return math.nan


def _check_positive(value, name, below=np.inf):
    """The one positive-real rule: a number (:func:`_real`) above 0 and
    finite, or below ``below`` where given (``lam`` < 1), NaN refused;
    raises :class:`InvalidProblemError` naming the setting."""
    if not 0.0 < _real(value) < below:
        bound = ("positive and finite" if below == np.inf else
                 f"strictly between 0 and {below:g}")
        raise InvalidProblemError(f"{name} must be {bound}, got {value!r}")


def check_symmetric(S, name="matrix", n=None):
    """``S`` under the matrix rule (``n x n`` where given, else square),
    checked for (near-)symmetry and returned exactly symmetrized."""
    S = _as_matrix(S, name, n, n, square=n is None)
    if np.abs(S - S.T).max() > SYMMETRY_RTOL * np.abs(S).max():
        raise InvalidProblemError(f"{name} is not symmetric")
    return (S + S.T) / 2.0


def spectral_radius(A):
    """Largest eigenvalue modulus of a square matrix, or an array of the
    radii of a stack ``(..., n, n)``, one LAPACK ``dgeev`` per matrix."""
    A = _as_float(A, "A")
    if not np.all(np.isfinite(A)):
        raise InvalidProblemError("A has non-finite entries")
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise DimensionMismatchError(f"A must be square, got {A.shape}")
    if A.shape[-1] == 0:
        raise DimensionMismatchError(f"A must not be empty, got {A.shape}")
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenvalueConvergenceError(
            f"eigenvalue iteration did not converge: {exc}") from exc
    rho = np.abs(w).max(axis=-1)
    return float(rho) if A.ndim == 2 else rho


def numerical_rank(A, tol):
    """Number of singular values above ``tol`` times the largest one; a
    wide matrix takes them from its transpose, the faster LAPACK path."""
    _check_positive(tol, "tol")
    A = _as_matrix(A, "A")
    s = np.linalg.svd(A.T if A.shape[0] < A.shape[1] else A,
                      compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0]))


def _equilibrate(A):
    """``A`` with each column divided by its 2-norm, and those norms (1
    for a zero column, which stays zero).  This column equilibration (van
    der Sluis 1969) maps ``A D``, for every positive diagonal ``D``, to
    the matrix it maps ``A`` to, so units change no rank test or least
    squares run on the result."""
    # the sum np.linalg.norm(A, axis=0) takes, to the bit, without its
    # argument handling
    norms = np.sqrt(np.add.reduce(A * A, axis=0))
    norms[norms == 0.0] = 1.0
    return A / norms, norms


def _full_column_rank(A):
    """Whether the equilibrated ``A`` has full column rank at
    ``RANK_TOL``."""
    return numerical_rank(_equilibrate(A)[0], RANK_TOL) == A.shape[1]


def _dgees(F, compute_v=1):
    """``(S, wr, wi, Z, rho)`` from LAPACK ``dgees`` of ``F``: the real
    Schur form, the eigenvalues' real and imaginary parts, the Schur
    vectors (where ``compute_v``) and the largest eigenvalue modulus."""
    S, _, wr, wi, Z, _, info = scipy.linalg.lapack.dgees(
        lambda wr, wi: False, F, compute_v=compute_v)
    if info != 0:  # pragma: no cover - LAPACK failure
        raise EigenvalueConvergenceError(
            f"Schur iteration did not converge (LAPACK info {info})")
    return S, wr, wi, Z, float(np.hypot(wr, wi).max())


def schur(F):
    """Complex Schur form ``F = U T U^H`` of a real square matrix, ``T``
    upper triangular and ``U`` unitary, and its spectral radius ``rho``.

    :func:`_dgees` gives the real Schur form and ``rho``.  Each 2 x 2 block
    of a complex pair is split by the rotation whose first column is an
    eigenvector of the block, as in ``scipy.linalg.rsf2csf``, in one ``Q``."""
    S, wr, wi, Z, rho = _dgees(_as_matrix(F, "F", square=True))
    k = np.flatnonzero(wi > 0)   # first row of each block
    mu = wr[k] - S[k + 1, k + 1] + 1j * wi[k]
    h = np.hypot(np.abs(mu), S[k + 1, k])
    c, s = mu / h, S[k + 1, k] / h
    Q = np.eye(len(S), dtype=complex)
    Q[k, k], Q[k, k + 1] = c, -s
    Q[k + 1, k], Q[k + 1, k + 1] = s, c.conj()
    T = Q.conj().T @ S @ Q
    T[k + 1, k] = 0.0   # round-off below the diagonal
    return T, Z @ Q, rho


class _Modal(NamedTuple):
    """Eigendecomposition ``F = V diag(lam) V^-1`` of a real matrix, the
    ``U`` of a modal factor ``(F, _Modal, rho)``."""

    lam: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray


def _modal_factor(F):
    """The modal factor ``(F, _Modal(lam, V, V^-1), rho)`` of real square
    ``F``, from one LAPACK ``dgeev`` with right vectors only.  ``dgeev``
    stores the vector ``v`` of a complex pair as the real columns ``Re v,
    Im v``, so ``V = vr N`` with ``N`` block diagonal, a 2 x 2 block
    ``[[1, 1], [i, -i]]`` per pair, and ``V^-1 = N^-1 vr^-1``, where
    ``N^-1`` is ``N^H`` with each pair's rows halved and ``vr^-1`` one
    real ``dgesv``.  A singular ``vr`` gives an infinite ``V^-1``, and
    one whose inverse overflows a non-finite one; either fails
    :func:`_modal`'s conditioning gate."""
    n = len(F)
    wr, wi, _, vr, info = scipy.linalg.lapack.dgeev(F, compute_vl=0)
    if info != 0:  # pragma: no cover - LAPACK failure
        raise EigenvalueConvergenceError(
            f"eigenvalue iteration did not converge (LAPACK info {info})")
    _, _, R, info = scipy.linalg.lapack.dgesv(vr, np.eye(n))
    first = wi[:-1] > 0   # the first of a pair, and the next its conjugate
    N = np.zeros((n, n), dtype=complex)
    N.flat[::n + 1] = np.where(wi < 0, -1j, 1.0)
    N.flat[1::n + 1] = first
    N.flat[n::n + 1] = 1j * first
    with np.errstate(over="ignore", invalid="ignore"):
        Vinv = (N.conj().T @ R) * np.where(wi != 0, 0.5, 1.0)[:, None]
    if info > 0:
        Vinv[:] = np.inf
    return (F, _Modal(wr + 1j * wi, vr @ N, Vinv),
            float(np.hypot(wr, wi).max()))


def _stein_factor(F):
    """The factor ``(T, U, rho)`` of square ``F`` that :func:`_stein` solves
    on, ``rho`` its spectral radius.  Up to ``KRONECKER_MAX_N`` states it
    is ``F`` itself with ``U = None`` and ``rho`` from :func:`_dgees`
    without Schur vectors, as in :func:`schur`; above it, the modal factor
    of :func:`_modal_factor`, ``T = F`` with ``U`` a :class:`_Modal`."""
    F = _as_matrix(F, "F", square=True)
    if len(F) > KRONECKER_MAX_N:
        return _modal_factor(F)
    return F, None, _dgees(F, compute_v=0)[-1]


def _kronecker(F, W):
    """``P`` with ``F' P F - P + W = 0`` from one LU of the real system
    ``(I - F' kron F') vec(P) = vec(W)``; :class:`IllConditionedError`
    where LAPACK ``dgesv`` finds it singular."""
    n = F.shape[0]
    # F kron -F, by one broadcast product: the transpose of I - F' kron F'
    # in the Fortran order dgesv reads, once 1 is added to its diagonal
    M = (F[:, None, :, None] * -F[None, :, None, :]).reshape(n * n, n * n)
    M.flat[::n * n + 1] += 1.0
    _, _, x, info = scipy.linalg.lapack.dgesv(M.T, W.ravel(order="F"),
                                              overwrite_a=1)
    if info != 0:
        raise IllConditionedError("Lyapunov equation is singular")
    return x.reshape((n, n), order="F")


def _bartels_stewart(T, U, W):
    """``P`` with ``F' P F - P + W = 0`` on the complex Schur form ``F = U
    T U^H``: the n systems come from one broadcast, in the layout
    ``ztrtrs`` reads in place, and row ``j`` of ``X``/``THX`` is column
    ``j`` of ``X``/``T^H X``."""
    n = T.shape[0]
    TT = T.T.copy()                  # row j: column j of T
    TH = TT.conj()
    diag = np.arange(n)
    systems = T.diagonal().conj()[:, None, None] * TT
    systems[:, diag, diag] -= 1.0   # systems[j].T: conj(T_jj) T - I
    rhs = -(U.T @ W @ U.conj())   # row j: column j of -U^H W U
    X, THX = np.empty((2, n, n), dtype=complex)
    for j in range(n):
        X[j], _ = scipy.linalg.lapack.ztrtrs(
            systems[j].T, rhs[j] - TT[j, :j] @ THX[:j],
            lower=0, trans=2, overwrite_b=1)
        THX[j] = TH @ X[j]
    return (U @ X.T @ U.conj().T).real


def _modal(F, M, cum, W):
    """``P`` with ``F' P F - P + W = 0`` for ``F = cum F0`` and ``M`` the
    :class:`_Modal` of ``F0``: ``X = V^H P V`` solves ``conj(l_i) l_j
    X_ij - X_ij + (V^H W V)_ij = 0`` entrywise over the eigenvalues ``l =
    cum lam`` of ``F``, and ``P = Re(V^-H X V^-1)``, exactly symmetrized;
    then one correction on the same factor adds the solve with the
    residual ``F' P F - P + W`` in place of ``W``, which brings ``P``'s
    residual down to rounding.  ``None``, for the Schur path to take
    over, unless the eigenvectors are well conditioned, ``||V||_F
    ||V^-1||_F <= MODAL_MAX_COND`` (the columns have unit norm, so
    ``||V||_F = sqrt(n)``), and the corrected ``P`` is finite and passes
    ``||F' P F - P + W||_F <= MODAL_RESIDUAL_RTOL (||F||_F^2 ||P||_F +
    ||W||_F)``."""
    Vinv = M.Vinv.ravel()
    if not len(F) * np.vdot(Vinv, Vinv).real <= MODAL_MAX_COND**2:
        return None
    D = 1.0 - cum * cum * (M.lam.conj()[:, None] * M.lam)

    def solve(W):
        P = (M.Vinv.conj().T @ ((M.V.conj().T @ W @ M.V) / D) @ M.Vinv).real
        return (P + P.T) / 2.0

    P = solve(W)
    P += solve(F.T @ P @ F - P + W)
    res = F.T @ P @ F - P + W
    norm = np.linalg.norm   # the bound is finite only for a finite P
    if not norm(res) <= MODAL_RESIDUAL_RTOL * (norm(F)**2 * norm(P)
                                                + norm(W)) < np.inf:
        return None
    return P


def _stein(T, U, rho, W, cum=1.0):
    """Solve ``cum^2 F' P F - P + W = 0`` on the factor ``(T, U, rho)`` of
    ``F``, from :func:`_stein_factor` or :func:`schur`: the modal solve
    when ``U`` is a :class:`_Modal` and its gates pass (its ``P`` is then
    finite and exactly symmetric); else the Kronecker system of ``cum T``
    when ``U`` is None, or back-substitution on ``cum`` times a complex
    Schur form: ``(T, U)`` itself, or that of ``T = F`` where a modal gate
    failed."""
    rho = cum * rho
    if rho >= 1.0 - STABILITY_MARGIN:
        raise UnstableMatrixError(
            f"F must be Schur stable, spectral radius is {rho:.6g}", rho=rho)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(U, _Modal):
            P = _modal(cum * T, U, cum, W)
            if P is not None:
                return P
            T, U, _ = schur(T)
        P = (_kronecker(cum * T, W) if U is None else
             _bartels_stewart(cum * T, U, W))
    if not np.all(np.isfinite(P)):
        raise IllConditionedError("Lyapunov solution is not finite")
    return (P + P.T) / 2.0


def solve_discrete_lyapunov(F, W):
    """Solve ``F' P F - P + W = 0`` for symmetric ``P``.

    The kernel depends on the size of ``F`` (:func:`_stein_factor`):

    - Up to ``KRONECKER_MAX_N`` states, one real LU (LAPACK ``dgesv``) of
      the n^2 x n^2 system ``(I - F' kron F') vec(P) = vec(W)``, at
      O(n^6) cost.
    - Above it, the modal solve (:func:`_modal`), at O(n^3) cost: with
      ``F = V diag(l) V^-1`` from one LAPACK ``dgeev``, the unknown ``X
      = V^H P V`` satisfies ``conj(l_i) l_j X_ij - X_ij + (V^H W V)_ij =
      0``, one division per entry; one more solve on the same factor,
      with the residual in place of ``W``, corrects ``P``.  Its answer
      is taken only when ``||V||_F ||V^-1||_F <= MODAL_MAX_COND`` and
      its residual is at most ``MODAL_RESIDUAL_RTOL (||F||_F^2 ||P||_F +
      ||W||_F)``.
    - Otherwise, the Schur method of Bartels & Stewart (1972) in the
      column form of Kitagawa (1977), also O(n^3) but 1.3-1.5x the
      modal solve's time at n = 20 and 40.  With the complex Schur
      form ``F = U T U^H`` of :func:`schur`, the unknown ``X = U^H P U``
      satisfies ``T^H X T - X + U^H W U = 0``.  Column ``j`` of that
      equation only involves columns ``0..j`` of ``X``, so ``X`` is
      found one column at a time, each from a lower-triangular system
      with diagonal ``conj(l_i) l_j - 1`` over the eigenvalues ``l`` of
      ``F``.

    The result is exactly symmetrized, and is positive (semi)definite
    whenever ``W`` is and ``F`` is Schur stable.

    Raises
    ------
    UnstableMatrixError
        If the spectral radius of ``F``, read off its real Schur form or
        its eigenvalues, is at least ``1 - STABILITY_MARGIN``; the
        equation is then not safely solvable.
    IllConditionedError
        If the solution is not finite, or the Kronecker system is
        singular.
    """
    F = _as_matrix(F, "F", square=True)
    W = check_symmetric(W, "W", len(F))
    return _stein(*_stein_factor(F), W)


def _threshold(w):
    """Definiteness threshold ``PD_RTOL max |w|`` of eigenvalues w."""
    return PD_RTOL * np.abs(w).max(initial=0.0)


def is_positive_definite(S):
    """Whether every eigenvalue of symmetric S exceeds :func:`_threshold`."""
    w = np.linalg.eigvalsh(check_symmetric(S, "S"))
    return bool(np.all(w > _threshold(w)))


def _semidefinite(S):
    """Whether no eigenvalue of symmetric ``S``, already checked, is below
    ``-_threshold``."""
    w = np.linalg.eigvalsh(S)
    return bool(np.all(w >= -_threshold(w)))
