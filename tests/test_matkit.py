import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spilqr import lti, matkit
from spilqr.exceptions import (
    DimensionMismatchError,
    IllConditionedError,
    InvalidProblemError,
    UnstableMatrixError,
)

from conftest import POWER_A_REF, POWER_RHO_OPEN


def test_vecs_identity_matrix():
    assert np.array_equal(matkit.vecs(np.eye(2)), [1.0, 0.0, 1.0])


def test_vecs_doubles_off_diagonal():
    S = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(matkit.vecs(S), [1.0, 4.0, 3.0])


def test_vecv_basis_vector():
    assert np.array_equal(matkit.vecv([1.0, 0.0]), [1.0, 0.0, 0.0])


def test_vecv_monomials():
    assert np.array_equal(matkit.vecv([2.0, 3.0]), [4.0, 6.0, 9.0])


def test_vecs_vecv_quadratic_form():
    rng = np.random.default_rng(0)
    for _ in range(200):
        G = rng.standard_normal((3, 3))
        S = G + G.T
        x = rng.standard_normal(3)
        expected = x @ S @ x
        got = matkit.vecv(x) @ matkit.vecs(S)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_unvecs_roundtrip():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5):
        G = rng.standard_normal((n, n))
        S = G + G.T
        assert np.allclose(matkit.unvecs(matkit.vecs(S)), S, atol=1e-14)
        v = rng.standard_normal(n * (n + 1) // 2)
        assert np.allclose(matkit.vecs(matkit.unvecs(v)), v, atol=1e-14)


def test_unvecs_rejects_bad_length():
    with pytest.raises(DimensionMismatchError):
        matkit.unvecs(np.arange(4.0))


# Kronecker products and smallest singular values come straight from numpy
# (np.kron, the last entry of np.linalg.svd); these pin the conventions the
# package and its tests rely on.

def test_kron_identity_left():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(np.kron(np.eye(1), B), B)


def test_kron_row_vectors():
    out = np.kron(np.array([[1.0, 2.0]]), np.array([[0.0, 1.0]]))
    assert np.array_equal(out, [[0.0, 1.0, 0.0, 2.0]])


def test_kron_vec_identity():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.standard_normal(3)
        M = rng.standard_normal((3, 3))
        got = np.kron(x, x) @ matkit.vec(M)
        assert got == pytest.approx(x @ M @ x, rel=1e-12, abs=1e-12)


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 2))
    assert np.array_equal(matkit.unvec(matkit.vec(M), 3, 2), M)
    with pytest.raises(DimensionMismatchError,
                       match=r"length 5 does not match shape \(3, 2\)"):
        matkit.unvec(np.arange(5.0), 3, 2)


def test_spectral_radius_diagonal():
    assert matkit.spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)


def test_spectral_radius_power_plant():
    assert matkit.spectral_radius(POWER_A_REF) == pytest.approx(
        POWER_RHO_OPEN, abs=1e-3)


def test_spectral_radius_scaled_power_plant():
    b = 2.0176
    assert matkit.spectral_radius(POWER_A_REF / b) == pytest.approx(
        0.5044, abs=1e-3)


def test_spectral_radius_homogeneity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        F = rng.standard_normal((4, 4))
        c = rng.uniform(-3.0, 3.0)
        assert matkit.spectral_radius(c * F) == pytest.approx(
            abs(c) * matkit.spectral_radius(F), rel=1e-10, abs=1e-12)


def test_spectral_radius_requires_square():
    with pytest.raises(DimensionMismatchError):
        matkit.spectral_radius(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        matkit.spectral_radius(np.ones((4, 2, 3)))
    with pytest.raises(DimensionMismatchError):
        matkit.spectral_radius(np.ones(3))


def test_stacked_spectral_radius_matches_each_matrix(corpus):
    # one stacked eigensolve gives every matrix the radius, bit for bit,
    # that a call on that matrix alone gives
    by_size = {}
    for case in corpus:
        sys_d, K0 = case["sys"], case["K0"]
        for scale in (0.0, 0.5, 1.0):
            by_size.setdefault(sys_d.n, []).append(
                sys_d.A - sys_d.B @ (scale * K0))
    assert len(by_size) > 1
    for F in by_size.values():
        F = np.array(F)
        radii = matkit.spectral_radius(F)
        assert radii.shape == (len(F),)
        assert radii.tolist() == [matkit.spectral_radius(f) for f in F]
        assert np.array_equal(
            matkit.spectral_radius(F[:, None]), radii[:, None])
    assert matkit.spectral_radius(np.empty((0, 3, 3))).shape == (0,)


def test_stacked_spectral_radius_rejects_nonfinite():
    F = np.zeros((2, 3, 3))
    F[1, 0, 0] = np.nan
    with pytest.raises(InvalidProblemError):
        matkit.spectral_radius(F)


def test_schur_radius_matches_spectral_radius(corpus):
    # the radius read off the Schur form is the eigensolve's, at the
    # corpus closed loops under K0 and under the zero gain
    for case in corpus:
        sys_d = case["sys"]
        for F in (sys_d.A - sys_d.B @ case["K0"], sys_d.A):
            rho = matkit.spectral_radius(F)
            assert abs(matkit.schur(F)[2] - rho) <= 1e-13 * max(1.0, rho)


def test_schur_factorization():
    # F = U T U^H with U unitary and T upper triangular, every 2 x 2 block
    # of the real Schur form split, with and without complex pairs
    rng = np.random.default_rng(13)
    for n, pair_share in ((1, 0.0), (5, 0.0), (6, 1.0), (9, 0.5), (20, 0.5)):
        F = _lyapunov_factor(rng, n, 0.9, False, pair_share, 1.0)
        T, U, rho = matkit.schur(F)
        assert np.array_equal(T, np.triu(T))
        assert np.abs(U.conj().T @ U - np.eye(n)).max() < 1e-13
        assert np.abs(U @ T @ U.conj().T - F).max() < 1e-13
        assert rho == pytest.approx(0.9, rel=1e-12)
        assert rho == pytest.approx(np.abs(T.diagonal()).max(), rel=1e-12)
    with pytest.raises(DimensionMismatchError):
        matkit.schur(np.ones((2, 3)))
    with pytest.raises(InvalidProblemError):
        matkit.schur(np.array([[np.inf]]))


def test_numerical_rank_of_wide_matrix_matches_untransposed_svd():
    # wide matrices take their singular values from the transpose; the
    # rank decisions are those of the matrix as given, rank-deficient
    # ones included
    rng = np.random.default_rng(21)
    for _ in range(300):
        rows, cols = rng.integers(1, 30, size=2)
        k = int(rng.integers(1, min(rows, cols) + 1))
        M = rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
        M *= 10.0 ** rng.uniform(-6.0, 6.0)
        for A in (M, M.T):
            s = np.linalg.svd(A, compute_uv=False)
            assert matkit.numerical_rank(A, matkit.RANK_TOL) \
                == np.count_nonzero(s > matkit.RANK_TOL * s[0]) == k


def _min_singular_value(A):
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def test_min_singular_value_cases():
    assert _min_singular_value(np.eye(3)) == pytest.approx(1.0)
    assert _min_singular_value(np.diag([3.0, 0.0])) == pytest.approx(0.0)


def test_min_singular_value_gram_oracle():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 3))
    expected = np.sqrt(np.linalg.eigvalsh(M.T @ M).min())
    assert _min_singular_value(M) == pytest.approx(expected, abs=1e-9)


def test_numerical_rank_cases():
    assert matkit.numerical_rank(np.eye(5), 1e-10) == 5
    assert matkit.numerical_rank(np.ones((2, 2)), 1e-10) == 1
    rng = np.random.default_rng(6)
    assert matkit.numerical_rank(rng.standard_normal((30, 10)), 1e-10) == 10


def test_numerical_rank_rejects_bad_tol():
    with pytest.raises(InvalidProblemError):
        matkit.numerical_rank(np.eye(2), 0.0)


def test_numerical_rank_rejects_nan_tol():
    # NaN compares false against every bound, so the check fails on it
    with pytest.raises(InvalidProblemError, match="tol"):
        matkit.numerical_rank(np.eye(2), float("nan"))


# The state-transition matrix exp(A_c T) is the A block of the
# zero-order-hold discretization.
def test_matrix_exp_zero():
    sys_d = lti.zoh_discretize(np.zeros((3, 3)), np.ones((3, 1)), 2.5)
    assert np.allclose(sys_d.A, np.eye(3))
    assert np.allclose(sys_d.B, 2.5 * np.ones((3, 1)))


def test_matrix_exp_power_plant_block():
    A_c = np.array([[-12.5, 0.0, 5.0],
                    [10.0, -10.0, 0.0],
                    [0.0, 6.0, -0.05]])
    sys_d = lti.zoh_discretize(A_c, np.zeros((3, 1)), 0.01)
    assert np.abs(sys_d.A - POWER_A_REF).max() < 5e-5


def _series_lyapunov(F, W, terms=10_000):
    """Independent oracle: truncated sum of (F')^k W F^k."""
    P = np.zeros_like(W)
    term = W.copy()
    for _ in range(terms):
        P += term
        term = F.T @ term @ F
        if np.abs(term).max() < 1e-16:
            break
    return P


def _kronecker_lyapunov(F, W):
    """Independent oracle: the vectorized system
    ``(I - F' kron F') vec(P) = vec(W)``, O(n^6), for small ``n``."""
    n = F.shape[0]
    lhs = np.eye(n * n) - np.kron(F.T, F.T)
    P = np.linalg.solve(lhs, W.ravel(order="F")).reshape((n, n), order="F")
    return (P + P.T) / 2.0, np.linalg.cond(lhs)


def _lyapunov_factor(rng, n, rho, minus_one, pair_share, coupling):
    """Orthogonally rotated real quasi-triangular ``F`` with spectral
    radius ``rho``, attained at ``-rho`` when ``minus_one`` or else by a
    positive eigenvalue or a complex pair.  Other eigenvalues have
    moduli in ``[0, rho)``; about ``pair_share`` of the eigenvalues
    come in complex pairs.  ``coupling`` scales the strictly upper
    triangle, which sets how far ``F`` is from normal."""
    T = np.zeros((n, n))
    k = 0
    while k < n:
        r = rho if k == 0 else rng.uniform(0.0, rho)
        if k == 0 and minus_one:
            T[0, 0] = -rho
            k += 1
        elif n - k >= 2 and rng.random() < pair_share:
            theta = rng.uniform(0.05, np.pi - 0.05)
            a, b = r * np.cos(theta), r * np.sin(theta)
            T[k:k + 2, k:k + 2] = [[a, b], [-b, a]]
            k += 2
        else:
            T[k, k] = r if k == 0 else r * rng.choice([-1.0, 1.0])
            k += 1
    # strictly upper entries, less the (k, k+1) entry of each 2 x 2 block
    upper = np.triu(np.ones((n, n), dtype=bool), 1) & (T.T == 0)
    T[upper] = coupling / np.sqrt(n) * rng.standard_normal(upper.sum())
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ T @ Q.T


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       log_gap=st.floats(-6.0, -0.05), minus_one=st.booleans(),
       pair_share=st.floats(0.0, 1.0), coupling=st.floats(0.0, 1.0),
       definite=st.booleans())
def test_lyapunov_property_sweep(n, seed, log_gap, minus_one, pair_share,
                                 coupling, definite):
    rng = np.random.default_rng(seed)
    rho = 1.0 - 10.0**log_gap
    F = _lyapunov_factor(rng, n, rho, minus_one, pair_share, coupling)
    G = rng.standard_normal((n, n))
    W = G @ G.T if definite else G + G.T
    P = matkit.solve_discrete_lyapunov(F, W)
    assert np.array_equal(P, P.T)
    # Criterion 8's bound, with 1 + ||W|| widened to ||F||^2 ||P|| when
    # the solution is large: near the unit circle P grows like
    # ||W|| / (1 - rho^2), and no solver's residual beats eps ||F||^2 ||P||.
    res = np.linalg.norm(F.T @ P @ F - P + W)
    scale = max(1.0 + np.linalg.norm(W),
                np.linalg.norm(F, 2)**2 * np.linalg.norm(P))
    assert res <= 1e-9 * scale
    if n <= 12:
        P_ref, cond = _kronecker_lyapunov(F, W)
        err = np.linalg.norm(P - P_ref)
        assert err <= 1e-12 * cond * np.linalg.norm(P_ref)


def test_lyapunov_factor_spectrum():
    rng = np.random.default_rng(11)
    for minus_one in (True, False):
        F = _lyapunov_factor(rng, 9, 1.0 - 1e-6, minus_one, 0.5, 1.0)
        w = np.linalg.eigvals(F)
        assert np.abs(w).max() == pytest.approx(1.0 - 1e-6, abs=1e-9)
        if minus_one:
            assert w[np.argmax(np.abs(w))].real < 0


def test_lyapunov_complex_pairs_match_kronecker():
    # rotation blocks only: every eigenvalue of F is one of a complex pair
    rng = np.random.default_rng(12)
    for n in (2, 4, 6, 10):
        F = _lyapunov_factor(rng, n, 0.95, False, 1.0, 0.5)
        W = np.eye(n)
        P_ref, _ = _kronecker_lyapunov(F, W)
        P = matkit.solve_discrete_lyapunov(F, W)
        assert np.abs(np.linalg.eigvals(F).imag).min() > 0
        assert np.abs(P - P_ref).max() < 1e-12 * np.abs(P_ref).max()


def test_lyapunov_zero_factor():
    Q = np.diag([1.0, 2.0])
    assert np.allclose(matkit.solve_discrete_lyapunov(np.zeros((2, 2)), Q), Q)


def test_lyapunov_scalar_geometric():
    P = matkit.solve_discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_lyapunov_matches_series_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        F = rng.standard_normal((3, 3))
        F *= rng.uniform(0.3, 0.9) / matkit.spectral_radius(F)
        G = rng.standard_normal((3, 3))
        W = G @ G.T
        P = matkit.solve_discrete_lyapunov(F, W)
        assert np.abs(P - _series_lyapunov(F, W)).max() < 1e-8


def test_lyapunov_residual_bound():
    rng = np.random.default_rng(8)
    for _ in range(50):
        F = rng.standard_normal((4, 4))
        F *= rng.uniform(0.1, 0.97) / matkit.spectral_radius(F)
        G = rng.standard_normal((4, 4))
        W = G + G.T
        P = matkit.solve_discrete_lyapunov(F, W)
        res = np.linalg.norm(F.T @ P @ F - P + W)
        assert res <= 1e-9 * (1.0 + np.linalg.norm(W))


def test_lyapunov_positive_definite_result():
    rng = np.random.default_rng(9)
    for _ in range(20):
        F = rng.standard_normal((3, 3))
        F *= rng.uniform(0.2, 0.9) / matkit.spectral_radius(F)
        G = rng.standard_normal((3, 3))
        W = G @ G.T + 0.1 * np.eye(3)
        P = matkit.solve_discrete_lyapunov(F, W)
        assert np.linalg.eigvalsh(P).min() > 0


def test_lyapunov_rejects_unstable_factor():
    with pytest.raises(UnstableMatrixError) as err:
        matkit.solve_discrete_lyapunov(np.diag([1.01, 0.5]), np.eye(2))
    assert err.value.rho == pytest.approx(1.01)
    # margin: radius within 1e-9 of 1 is rejected too
    with pytest.raises(UnstableMatrixError):
        matkit.solve_discrete_lyapunov(np.diag([1.0 - 1e-12, 0.5]), np.eye(2))


def test_lyapunov_rejects_mismatched_sizes():
    for F, W, message in (
            (np.zeros((2, 2)), np.eye(3), "W must be 2 x 2, got (3, 3)"),
            (np.zeros((2, 3)), np.eye(2), "F must be square, got (2, 3)")):
        with pytest.raises(DimensionMismatchError,
                           match=f"^{re.escape(message)}$"):
            matkit.solve_discrete_lyapunov(F, W)


def test_lyapunov_rejects_unstable_complex_pair():
    # rotation by 0.3 rad at modulus 1.2: the radius comes from the pair
    a, b = 1.2 * np.cos(0.3), 1.2 * np.sin(0.3)
    F = np.array([[a, b, 0.0], [-b, a, 0.0], [0.0, 0.0, 0.1]])
    with pytest.raises(UnstableMatrixError) as err:
        matkit.solve_discrete_lyapunov(F, np.eye(3))
    assert err.value.rho == pytest.approx(1.2, rel=1e-12)


def test_lyapunov_stable_at_margin_edge():
    # radius 1 - 1e-8 lies inside the margin and is solved
    F = np.diag([-(1.0 - 1e-8), 0.5])
    P = matkit.solve_discrete_lyapunov(F, np.eye(2))
    assert P[0, 0] == pytest.approx(1.0 / (1.0 - (1.0 - 1e-8)**2),
                                    rel=1e-7)


def test_is_positive_definite():
    assert matkit.is_positive_definite(np.eye(2))
    assert not matkit.is_positive_definite(np.diag([1.0, 0.0]))
    assert not matkit.is_positive_definite(np.diag([1.0, -0.1]))


def test_is_positive_semidefinite():
    assert matkit.is_positive_semidefinite(np.eye(2))
    assert matkit.is_positive_semidefinite(np.diag([1.0, 0.0]))
    assert not matkit.is_positive_semidefinite(np.diag([1.0, -0.1]))


def test_definiteness_threshold_scales_with_largest_eigenvalue():
    # an eigenvalue w counts as zero within PD_RTOL max |w|, the same
    # bound for both definiteness tests and for sym_sqrt's check
    big = 1e6
    tol = matkit.PD_RTOL * big
    assert matkit.is_positive_definite(np.diag([big, 2.0 * tol]))
    assert not matkit.is_positive_definite(np.diag([big, 0.5 * tol]))
    assert matkit.is_positive_semidefinite(np.diag([big, -0.5 * tol]))
    assert not matkit.is_positive_semidefinite(np.diag([big, -2.0 * tol]))
    assert np.array_equal(matkit.sym_sqrt(np.diag([big, -0.5 * tol])),
                          np.diag([1e3, 0.0]))
    with pytest.raises(InvalidProblemError):
        matkit.sym_sqrt(np.diag([big, -2.0 * tol]))


def test_lyapunov_rejects_overflowing_solution():
    # P = W / (1 - 0.99^2), about 5e308, exceeds the largest double; the
    # back-substitution's inf arithmetic raises the named error, not a
    # numpy warning, also when warnings are errors
    with pytest.raises(IllConditionedError):
        matkit.solve_discrete_lyapunov(0.99 * np.eye(2), 1e307 * np.eye(2))


def test_sym_sqrt():
    rng = np.random.default_rng(10)
    G = rng.standard_normal((4, 4))
    S = G @ G.T
    root = matkit.sym_sqrt(S)
    assert np.allclose(root @ root, S, atol=1e-10)
    with pytest.raises(InvalidProblemError):
        matkit.sym_sqrt(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
def test_thresholds_are_relative_at_every_scale(scale):
    # neither test has an absolute floor: a matrix and its multiple by any
    # positive scale are judged alike, however small the scale
    assert matkit.is_positive_definite(scale * np.diag([1.0, 1e-9]))
    assert not matkit.is_positive_definite(scale * np.diag([1.0, 1e-11]))
    assert not matkit.is_positive_semidefinite(scale * np.diag([1.0, -1e-9]))
    with pytest.raises(InvalidProblemError, match="S is not symmetric"):
        matkit.check_symmetric(scale * np.array([[1.0, 1e-9], [0.0, 1.0]]),
                               "S")
    S = scale * np.array([[1.0, 1e-11], [0.0, 1.0]])
    assert np.array_equal(matkit.check_symmetric(S), (S + S.T) / 2.0)


def test_check_symmetric_rejects_asymmetry():
    with pytest.raises(InvalidProblemError):
        matkit.check_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # a matrix that is not square, or not a matrix, is a shape error
    with pytest.raises(DimensionMismatchError,
                       match=r"S must be square, got \(2, 3\)"):
        matkit.check_symmetric(np.zeros((2, 3)), "S")
    for A in (np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(DimensionMismatchError,
                           match=f"S must be 2-D, got ndim={A.ndim}"):
            matkit.check_symmetric(A, "S")


def test_triu_indices_built_once_and_read_only():
    i, j = matkit._triu_indices(4)
    assert matkit._triu_indices(4)[0] is i
    assert np.array_equal(i, np.triu_indices(4)[0])
    assert np.array_equal(j, np.triu_indices(4)[1])
    with pytest.raises(ValueError):
        i[0] = 1
    with pytest.raises(ValueError):
        j[0] = 1
