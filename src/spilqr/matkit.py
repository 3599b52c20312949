"""Dense real-matrix kernels used by every solver module.

Provides symmetric (half-)vectorization and its inverse, quadratic-form
monomial vectors, Kronecker products, spectral radius, singular-value
helpers, a matrix exponential, and a Schur-based discrete Lyapunov
solver whose cost is O(n^3).  All functions are pure and operate on
plain ``numpy`` arrays.

Conventions
-----------
``vecs(S)`` packs the upper triangle of a symmetric matrix row by row,
diagonal entries once and off-diagonal entries doubled::

    vecs(S) = [s11, 2 s12, ..., 2 s1n, s22, 2 s23, ..., snn]

``vecv(z)`` lists the monomials ``z_i z_j`` for ``i <= j`` in the same
ordering, squares un-doubled, so that ``vecv(x) @ vecs(S) == x' S x``.

``vec(M)`` stacks columns (Fortran order), matching the identity
``(y' ⊗ x') vec(M) == x' M y``.
"""

import functools
import math

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .exceptions import (
    DimensionMismatchError,
    EigenvalueConvergenceError,
    IllConditionedError,
    InvalidProblemError,
    UnstableMatrixError,
)

__all__ = [
    "vecs", "unvecs", "vecv", "vecv_rows", "vec", "unvec", "kron",
    "spectral_radius", "min_singular_value", "numerical_rank",
    "matrix_exp", "solve_discrete_lyapunov",
    "is_positive_definite", "pd_tolerance", "sym_sqrt", "check_symmetric",
]

# Reject Lyapunov factors closer to the unit circle than this; the
# triangular systems of the Schur solver, whose diagonals are
# conj(l_i) l_j - 1 over eigenvalue pairs, become near-singular beyond it.
STABILITY_MARGIN = 1e-9


def _as_matrix(A, name="matrix"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise InvalidProblemError(f"{name} has non-finite entries")
    return A


def check_symmetric(S, name="matrix", rtol=1e-10):
    """Validate (near-)symmetry and return the exactly symmetrized copy."""
    S = _as_matrix(S, name)
    if S.shape[0] != S.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got {S.shape}")
    scale = 1.0 + np.abs(S).max()
    if np.abs(S - S.T).max() > rtol * scale:
        raise InvalidProblemError(f"{name} is not symmetric")
    return (S + S.T) / 2.0


@functools.cache
def _triu_indices(n):
    """Row-major upper-triangle indices of an ``n x n`` matrix, built once
    per size and shared read-only."""
    i, j = np.triu_indices(n)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def vecs(S):
    """Half-vectorize a symmetric matrix, doubling off-diagonal entries.

    The result has length ``n (n + 1) / 2`` and satisfies
    ``vecv(x) @ vecs(S) == x' S x`` for every vector ``x``.
    """
    S = check_symmetric(S, "S")
    n = S.shape[0]
    i, j = _triu_indices(n)
    return S[i, j] * np.where(i == j, 1.0, 2.0)


def unvecs(v):
    """Inverse of :func:`vecs`: rebuild the symmetric matrix.

    The length of ``v`` must be a triangular number ``n (n + 1) / 2``.
    """
    v = np.asarray(v, dtype=float).ravel()
    n = int(round((np.sqrt(8 * v.size + 1) - 1) / 2))
    if n * (n + 1) // 2 != v.size:
        raise DimensionMismatchError(
            f"length {v.size} is not a packed symmetric size n(n+1)/2")
    S = np.zeros((n, n))
    i, j = _triu_indices(n)
    S[i, j] = np.where(i == j, v, v / 2.0)
    S[j, i] = S[i, j]
    return S


def vecv(z):
    """Quadratic monomials ``z_i z_j`` for ``i <= j``, squares un-doubled."""
    z = np.asarray(z, dtype=float).ravel()
    i, j = _triu_indices(z.size)
    return z[i] * z[j]


def vecv_rows(Z):
    """Row-wise :func:`vecv` of an ``l x n`` array; returns ``l x n(n+1)/2``."""
    Z = np.asarray(Z, dtype=float)
    i, j = _triu_indices(Z.shape[1])
    return Z[:, i] * Z[:, j]


def vec(M):
    """Column-stacking vectorization of a matrix."""
    return np.asarray(M, dtype=float).ravel(order="F")


def unvec(v, rows, cols):
    """Inverse of :func:`vec` for the given shape."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise DimensionMismatchError(
            f"length {v.size} does not match shape ({rows}, {cols})")
    return v.reshape((rows, cols), order="F")


def kron(A, B):
    """Kronecker product (thin wrapper kept for a uniform kernel surface)."""
    return np.kron(np.asarray(A, dtype=float), np.asarray(B, dtype=float))


def spectral_radius(A):
    """Largest eigenvalue modulus of a square matrix."""
    A = _as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"A must be square, got {A.shape}")
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenvalueConvergenceError(
            f"eigenvalue iteration did not converge: {exc}") from exc
    return float(np.abs(w).max())


def min_singular_value(A):
    """Smallest singular value of a (possibly rectangular) matrix."""
    A = _as_matrix(A, "A")
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def numerical_rank(A, tol):
    """Number of singular values above ``tol`` times the largest one."""
    if tol <= 0:
        raise InvalidProblemError("tol must be positive")
    A = _as_matrix(A, "A")
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def matrix_exp(A, t=1.0):
    """Matrix exponential ``exp(A t)`` (scaling-and-squaring Pade core)."""
    A = _as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"A must be square, got {A.shape}")
    if not np.isfinite(t):
        raise InvalidProblemError("t must be finite")
    return scipy.linalg.expm(A * t)


def _no_reordering(wr, wi):
    return False


def _complex_schur(F):
    """Complex Schur form ``F = U T U^H``, ``T`` upper triangular.

    The real Schur form is computed in real arithmetic (LAPACK
    ``dgees``); each 2 x 2 block of a complex pair is then split by the
    unitary rotation whose first column is an eigenvector of the block,
    as in ``scipy.linalg.rsf2csf``.  The rotations act on disjoint index
    pairs, so they are applied all at once as one block-diagonal ``Q``.
    Returns ``T``, ``U`` and the eigenvalue moduli.
    """
    S, _, wr, wi, Z, _, info = scipy.linalg.lapack.dgees(_no_reordering, F)
    if info != 0:  # pragma: no cover - LAPACK failure
        raise EigenvalueConvergenceError(
            f"Schur iteration did not converge (LAPACK info {info})")
    moduli = np.hypot(wr, wi)
    blocks = np.flatnonzero(wi > 0).tolist()   # first row of each block
    if not blocks:
        return S.astype(complex), Z, moduli
    Q = np.eye(F.shape[0], dtype=complex)
    for k in blocks:
        mu = complex(wr[k] - S[k + 1, k + 1], wi[k])
        h = math.hypot(abs(mu), S[k + 1, k])
        c, s = mu / h, S[k + 1, k] / h
        Q[k, k], Q[k, k + 1] = c, -s
        Q[k + 1, k], Q[k + 1, k + 1] = s, c.conjugate()
    T = Q.conj().T @ S @ Q
    T[[k + 1 for k in blocks], blocks] = 0.0   # round-off below the diagonal
    return T, Z @ Q, moduli


def solve_discrete_lyapunov(F, W, stability_margin=STABILITY_MARGIN):
    """Solve ``F' P F - P + W = 0`` for symmetric ``P``.

    Schur method of Bartels & Stewart (1972) in the column form of
    Kitagawa (1977), at O(n^3) cost.  With the complex Schur form
    ``F = U T U^H``, the unknown ``X = U^H P U`` satisfies
    ``T^H X T - X + U^H W U = 0``.  Column ``j`` of that equation only
    involves columns ``0..j`` of ``X``, so ``X`` is found one column at
    a time, each from a lower-triangular system with diagonal
    ``conj(l_i) l_j - 1`` over the eigenvalues ``l`` of ``F``.  The
    result is exactly symmetrized, and is positive (semi)definite
    whenever ``W`` is and ``F`` is Schur stable.

    Raises
    ------
    UnstableMatrixError
        If the spectral radius of ``F``, read off its Schur form, is at
        least ``1 - stability_margin``; the equation is then not safely
        solvable.
    IllConditionedError
        If the solution is not finite.
    """
    F = _as_matrix(F, "F")
    W = check_symmetric(W, "W")
    n = F.shape[0]
    if F.shape[0] != F.shape[1] or W.shape[0] != n:
        raise DimensionMismatchError(
            f"F {F.shape} and W {W.shape} must be square of equal size")
    T, U, moduli = _complex_schur(F)
    rho = float(moduli.max())
    if rho >= 1.0 - stability_margin:
        raise UnstableMatrixError(
            f"F must be Schur stable, spectral radius is {rho:.6g}", rho=rho)
    TH = T.conj().T
    rhs = -(U.conj().T @ W @ U)
    X = np.empty((n, n), dtype=complex)
    THX = np.empty((n, n), dtype=complex)   # T^H X, column by column
    eye = np.eye(n)
    lam_conj = T.diagonal().conj()
    for j in range(n):
        # (T_jj T^H - I) x_j = rhs_j - T^H X[:, :j] T[:j, j]; the system
        # matrix is the adjoint of the upper-triangular conj(T_jj) T - I.
        X[:, j], _ = scipy.linalg.lapack.ztrtrs(
            lam_conj[j] * T - eye, rhs[:, j] - THX[:, :j] @ T[:j, j],
            lower=0, trans=2)
        THX[:, j] = TH @ X[:, j]
    P = (U @ X @ U.conj().T).real
    if not np.all(np.isfinite(P)):
        raise IllConditionedError("Lyapunov solution is not finite")
    return (P + P.T) / 2.0


def pd_tolerance(S):
    """Eigenvalue threshold below which a symmetric matrix does not count
    as positive definite: ``1e-10 (1 + ||S||_2)``."""
    S = np.asarray(S, dtype=float)
    if S.size == 0:
        return 1e-10
    return 1e-10 * (1.0 + float(np.linalg.norm(S, 2)))


def is_positive_definite(S, tol=None):
    """Whether all eigenvalues of symmetric ``S`` exceed the tolerance."""
    S = check_symmetric(S, "S")
    w = np.linalg.eigvalsh(S)
    if tol is None:
        tol = 1e-10 * (1.0 + float(np.abs(w).max(initial=0.0)))
    return bool(np.all(w > tol))


def sym_sqrt(S):
    """Symmetric square root of a positive semidefinite matrix.

    Small negative eigenvalues from round-off are clipped to zero.
    """
    S = check_symmetric(S, "S")
    w, V = np.linalg.eigh(S)
    if w.min(initial=0.0) < -pd_tolerance(S):
        raise InvalidProblemError("matrix is not positive semidefinite")
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
