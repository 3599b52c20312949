"""Dense real-matrix kernels used by every solver module.

Provides symmetric (half-)vectorization and its inverse, quadratic-form
monomial vectors, spectral radius, numerical rank, the complex Schur
form with the spectral radius read off it, and a discrete Lyapunov
solver whose kernel is chosen by the state dimension: up to
``KRONECKER_MAX_N`` states, one real LU of the n^2 x n^2 Kronecker
system (O(n^6), ~24 µs at n=3 and ~63 µs at n=8); above it, the
Bartels-Stewart back-substitution on the complex Schur form (O(n^3),
~160 µs at n=10 and ~1 ms at n=40).  All functions are pure and
operate on plain ``numpy`` arrays.

It also holds the package's input rules: :func:`_as_float`, the one
conversion of outside input into a float array, with which the matrix
rule :func:`_as_matrix` starts, and the setting rules
:func:`_check_budget` and :func:`_check_positive`.  Only the
vectorization kernels convert their own arguments.

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
import scipy.linalg.lapack

from .exceptions import (
    DimensionMismatchError,
    EigenvalueConvergenceError,
    IllConditionedError,
    InvalidProblemError,
    UnstableMatrixError,
)

__all__ = [
    "vecs", "unvecs", "vecv", "vecv_rows", "vec", "unvec",
    "spectral_radius", "numerical_rank", "schur",
    "solve_discrete_lyapunov", "check_symmetric",
    "is_positive_definite", "is_positive_semidefinite", "sym_sqrt",
]

# Reject Lyapunov factors closer to the unit circle than this; the
# triangular systems of the Schur solver, whose diagonals are
# conj(l_i) l_j - 1 over eigenvalue pairs, become near-singular beyond it,
# and so does the Kronecker system, whose eigenvalues are 1 - l_i l_j.
STABILITY_MARGIN = 1e-9
# Largest state dimension whose Lyapunov equations are solved as one real
# n^2 x n^2 Kronecker system; above it, by back-substitution on the complex
# Schur form.  The two kernels cost the same near n = 11 (one evaluation,
# factor and solve, BLAS 1 thread): 24 vs 82 µs at n=3, 63 vs 124 µs at
# n=8 and 132 vs 156 µs at n=10.  The cutoff keeps a margin below that
# crossover, as the LU's cost grows ~1.4x per added state.
KRONECKER_MAX_N = 8
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
    string, even a numeric one, is not), else NaN, which every bound
    refuses."""
    try:
        return math.nan if isinstance(value, (str, bytes)) else float(value)
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


@functools.cache
def _triu_indices(n):
    """Row-major upper-triangle indices of an ``n x n`` matrix, built once
    per size and shared read-only."""
    i, j = np.triu_indices(n)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


@functools.cache
def _halving(n):
    """Per packed entry of an ``n x n`` matrix, 1 on the diagonal and 0.5
    off it: the factor that undoes :func:`vecs`'s doubling, built once per
    size and shared read-only.  ``v * 0.5`` is ``v / 2.0`` to the bit."""
    i, j = _triu_indices(n)
    h = np.where(i == j, 1.0, 0.5)
    h.flags.writeable = False
    return h


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
    n = (math.isqrt(8 * v.size + 1) - 1) // 2
    if n * (n + 1) // 2 != v.size:
        raise DimensionMismatchError(
            f"length {v.size} is not a packed symmetric size n(n+1)/2")
    S = np.empty((n, n))
    i, j = _triu_indices(n)
    S[i, j] = S[j, i] = v * _halving(n)
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
    if s[0] == 0.0:
        return 0
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


def schur(F):
    """Complex Schur form ``F = U T U^H`` of a real square matrix, ``T``
    upper triangular and ``U`` unitary, and its spectral radius ``rho``.

    LAPACK ``dgees`` gives the real Schur form and the eigenvalues, whose
    largest modulus is ``rho``.  Each 2 x 2 block of a complex pair is
    split by the rotation whose first column is an eigenvector of the
    block, as in ``scipy.linalg.rsf2csf``, all of them as one ``Q``."""
    F = _as_matrix(F, "F", square=True)
    S, _, wr, wi, Z, _, info = scipy.linalg.lapack.dgees(
        lambda wr, wi: False, F)
    if info != 0:  # pragma: no cover - LAPACK failure
        raise EigenvalueConvergenceError(
            f"Schur iteration did not converge (LAPACK info {info})")
    rho = float(np.hypot(wr, wi).max())
    k = np.flatnonzero(wi > 0)   # first row of each block
    if k.size == 0:
        return S.astype(complex), Z.astype(complex), rho
    mu = wr[k] - S[k + 1, k + 1] + 1j * wi[k]
    h = np.hypot(np.abs(mu), S[k + 1, k])
    c, s = mu / h, S[k + 1, k] / h
    Q = np.eye(len(F), dtype=complex)
    Q[k, k], Q[k, k + 1] = c, -s
    Q[k + 1, k], Q[k + 1, k + 1] = s, c.conj()
    T = Q.conj().T @ S @ Q
    T[k + 1, k] = 0.0   # round-off below the diagonal
    return T, Z @ Q, rho


def _stein_factor(F):
    """The factor of square ``F`` that :func:`_stein` solves on, as
    ``(T, U, rho)`` with ``rho`` its spectral radius.  Up to
    ``KRONECKER_MAX_N`` states it is ``F`` itself with ``U = None``, and
    ``rho`` comes from LAPACK ``dgees`` run without Schur vectors (the
    radius :func:`schur` reads off, to the bit); above it, :func:`schur`."""
    if len(F) > KRONECKER_MAX_N:
        return schur(F)
    F = _as_matrix(F, "F", square=True)
    _, _, wr, wi, _, _, info = scipy.linalg.lapack.dgees(
        lambda wr, wi: False, F, compute_v=0)
    if info != 0:  # pragma: no cover - LAPACK failure
        raise EigenvalueConvergenceError(
            f"Schur iteration did not converge (LAPACK info {info})")
    return F, None, float(np.hypot(wr, wi).max())


def _kronecker(F, W):
    """``P`` with ``F' P F - P + W = 0`` from one LU of the real system
    ``(I - F' kron F') vec(P) = vec(W)``; :class:`IllConditionedError`
    where LAPACK ``dgesv`` finds it singular."""
    n = F.shape[0]
    # F kron -F, by one broadcast product: the transpose of I - F' kron F'
    # in the Fortran order dgesv reads, once 1 is added to its diagonal
    M = (F[:, None, :, None] * -F[None, :, None, :]).reshape(n * n, n * n)
    M.flat[::n * n + 1] += 1.0
    _, _, x, info = scipy.linalg.lapack.dgesv(M.T, vec(W), overwrite_a=1)
    if info != 0:
        raise IllConditionedError("Lyapunov equation is singular")
    return unvec(x, n, n)


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


def _stein(T, U, rho, W):
    """Solve :func:`solve_discrete_lyapunov` on the factor ``(T, U, rho)``
    of ``F``, from :func:`_stein_factor` or :func:`schur`: the Kronecker
    system of ``T = F`` when ``U`` is None, else back-substitution on the
    Schur form."""
    if rho >= 1.0 - STABILITY_MARGIN:
        raise UnstableMatrixError(
            f"F must be Schur stable, spectral radius is {rho:.6g}", rho=rho)
    with np.errstate(over="ignore", invalid="ignore"):
        P = _kronecker(T, W) if U is None else _bartels_stewart(T, U, W)
    if not np.all(np.isfinite(P)):
        raise IllConditionedError("Lyapunov solution is not finite")
    return (P + P.T) / 2.0


def solve_discrete_lyapunov(F, W):
    """Solve ``F' P F - P + W = 0`` for symmetric ``P``.

    The kernel depends on the size of ``F`` (:func:`_stein_factor`):

    - Up to ``KRONECKER_MAX_N`` states, one real LU (LAPACK ``dgesv``) of
      the n^2 x n^2 system ``(I - F' kron F') vec(P) = vec(W)``, at
      O(n^6) cost, ~24 µs at n=3 and ~63 µs at n=8.
    - Above it, the Schur method of Bartels & Stewart (1972) in the
      column form of Kitagawa (1977), at O(n^3) cost, ~160 µs at n=10.
      With the complex Schur form ``F = U T U^H`` of :func:`schur`, the
      unknown ``X = U^H P U`` satisfies ``T^H X T - X + U^H W U = 0``.
      Column ``j`` of that equation only involves columns ``0..j`` of
      ``X``, so ``X`` is found one column at a time, each from a
      lower-triangular system with diagonal ``conj(l_i) l_j - 1`` over
      the eigenvalues ``l`` of ``F``.

    The result is exactly symmetrized, and is positive (semi)definite
    whenever ``W`` is and ``F`` is Schur stable.

    Raises
    ------
    UnstableMatrixError
        If the spectral radius of ``F``, read off its real Schur form, is
        at least ``1 - STABILITY_MARGIN``; the equation is then not safely
        solvable.
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


def is_positive_semidefinite(S):
    """Whether no eigenvalue of symmetric S is below ``-_threshold``."""
    w = np.linalg.eigvalsh(check_symmetric(S, "S"))
    return bool(np.all(w >= -_threshold(w)))


def sym_sqrt(S):
    """Symmetric square root of a positive semidefinite matrix.

    Small negative eigenvalues from round-off are clipped to zero.
    """
    S = check_symmetric(S, "S")
    w, V = np.linalg.eigh(S)
    if np.any(w < -_threshold(w)):
        raise InvalidProblemError("matrix is not positive semidefinite")
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
