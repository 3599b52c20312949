import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spilqr import lti, matkit, model_free
from spilqr.exceptions import (
    DimensionMismatchError,
    IllConditionedError,
    InvalidProblemError,
    UnstableMatrixError,
)

from conftest import POWER_A_REF, POWER_RHO_OPEN, vec, vecs


# the regression's monomial kernel, private to model_free
def test_vecv_basis_vector():
    assert np.array_equal(model_free._vecv_rows(np.array([[1.0, 0.0]])),
                          [[1.0, 0.0, 0.0]])


def test_vecv_monomials():
    assert np.array_equal(model_free._vecv_rows(np.array([[2.0, 3.0]])),
                          [[4.0, 6.0, 9.0]])


def test_vecs_vecv_quadratic_form():
    rng = np.random.default_rng(0)
    for _ in range(200):
        G = rng.standard_normal((3, 3))
        S = G + G.T
        x = rng.standard_normal(3)
        expected = x @ S @ x
        got = model_free._vecv_rows(x[None])[0] @ vecs(S)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_equilibrate_norms_match_linalg_norm_bit_for_bit():
    # the one np.add.reduce against the sum np.linalg.norm takes
    rng = np.random.default_rng(3)
    for rows, cols in ((1, 1), (30, 10), (7, 3), (200, 45)):
        A = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
            -150, 150, cols)
        A[:, 0] = 0.0
        scaled, norms = matkit._equilibrate(A)
        want = np.linalg.norm(A, axis=0)
        want[want == 0.0] = 1.0
        assert norms.tobytes() == want.tobytes()
        assert scaled.tobytes() == (A / want).tobytes()


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
        got = np.kron(x, x) @ vec(M)
        assert got == pytest.approx(x @ M @ x, rel=1e-12, abs=1e-12)


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
    # of the real Schur form split, with and without complex pairs (a real
    # spectrum at 12 states, above KRONECKER_MAX_N, as _stein factors it)
    rng = np.random.default_rng(13)
    for n, pair_share in ((1, 0.0), (5, 0.0), (6, 1.0), (9, 0.5), (20, 0.5),
                          (12, 0.0)):
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
    assert matkit.numerical_rank(np.zeros((3, 2)), 1e-10) == 0
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
    _check_lyapunov(F, W, matkit.solve_discrete_lyapunov(F, W))


def _check_lyapunov(F, W, P):
    """``P`` is exactly symmetric and solves ``F' P F - P + W = 0`` within
    criterion 8's bound, and within the Kronecker oracle's for n <= 12."""
    assert np.array_equal(P, P.T)
    # Criterion 8's bound, with 1 + ||W|| widened to ||F||^2 ||P|| when
    # the solution is large: near the unit circle P grows like
    # ||W|| / (1 - rho^2), and no solver's residual beats eps ||F||^2 ||P||.
    res = np.linalg.norm(F.T @ P @ F - P + W)
    scale = max(1.0 + np.linalg.norm(W),
                np.linalg.norm(F, 2)**2 * np.linalg.norm(P))
    assert res <= 1e-9 * scale
    if len(F) <= 12:
        P_ref, cond = _kronecker_lyapunov(F, W)
        err = np.linalg.norm(P - P_ref)
        assert err <= 1e-12 * cond * np.linalg.norm(P_ref)


# Settings that open each modal gate: any eigenvector basis, and any
# residual below ||F||_F^2 ||P||_F + ||W||_F (the bound must stay finite).
OPEN_GATES = {"MODAL_MAX_COND": np.inf, "MODAL_RESIDUAL_RTOL": 1.0}


def _modal_kernel(F, W):
    """The modal solve of ``F' P F - P + W = 0`` as its gates leave it:
    ``P``, or ``None`` where a gate hands over to the Schur path."""
    return matkit._modal(F, matkit._modal_factor(F)[1], 1.0, W)


@pytest.mark.parametrize("n", [matkit.KRONECKER_MAX_N,
                               matkit.KRONECKER_MAX_N + 1])
@pytest.mark.parametrize("definite", [True, False])
def test_lyapunov_kernels_near_unit_circle(n, definite):
    # every kernel on both sides of the cutoff, at radius 1 - 1e-6
    # attained at -rho; the public solve runs the one its size and the
    # modal gates select
    rng = np.random.default_rng(15)
    F = _lyapunov_factor(rng, n, 1.0 - 1e-6, True, 0.5, 1.0)
    G = rng.standard_normal((n, n))
    W = G @ G.T if definite else G + G.T
    T, U, rho = matkit.schur(F)
    kernels = {"kronecker": matkit._stein(F, None, rho, W),
               "schur": matkit._stein(T, U, rho, W)}
    modal = _modal_kernel(F, W)
    if modal is not None:
        kernels["modal"] = modal
    for P in kernels.values():
        _check_lyapunov(F, W, P)
    chosen = ("kronecker" if n <= matkit.KRONECKER_MAX_N else
              "schur" if modal is None else "modal")
    assert np.array_equal(matkit.solve_discrete_lyapunov(F, W),
                          kernels[chosen])


def test_stein_factor_chosen_by_size():
    # up to the cutoff the factor is F itself, with the radius schur
    # reads off to the bit; above it, the modal factor F = V diag(lam)
    # V^-1, with unit eigenvector columns and schur's radius
    rng = np.random.default_rng(16)
    for n in range(1, matkit.KRONECKER_MAX_N + 3):
        for pair_share in (0.0, 0.5, 1.0):
            F = _lyapunov_factor(rng, n, 0.9, False, pair_share, 1.0)
            T, U, rho = matkit._stein_factor(F)
            rho_ref = matkit.schur(F)[2]
            assert np.array_equal(T, F)
            if n <= matkit.KRONECKER_MAX_N:
                assert U is None and rho == rho_ref
                continue
            assert isinstance(U, matkit._Modal)
            assert abs(rho - rho_ref) <= 1e-13 * rho_ref
            assert np.abs(np.linalg.norm(U.V, axis=0) - 1.0).max() < 1e-14
            assert np.abs(U.Vinv @ U.V - np.eye(n)).max() < 1e-10
            assert np.abs(U.V * U.lam @ U.Vinv - F).max() < 1e-10
    with pytest.raises(InvalidProblemError):
        matkit._stein_factor(np.array([[np.nan]]))


@pytest.mark.parametrize("n", [matkit.KRONECKER_MAX_N,
                               matkit.KRONECKER_MAX_N + 1])
def test_lyapunov_kernel_refusals(n):
    # each kernel, on its side of the cutoff, refuses a factor near the
    # unit circle with its radius, and an overflowing solution with the
    # named error
    F = np.diag(np.linspace(0.5, 1.01, n))
    with pytest.raises(UnstableMatrixError) as err:
        matkit._stein(*matkit._stein_factor(F), np.eye(n))
    assert err.value.rho == pytest.approx(1.01)
    F = 0.99 * np.eye(n)
    with pytest.raises(IllConditionedError):
        matkit._stein(*matkit._stein_factor(F), 1e307 * np.eye(n))


def test_kronecker_kernel_refuses_singular_system():
    # LAPACK dgesv reports the singular I - F' kron F' of F = I (info > 0),
    # whatever radius the factor carries
    with pytest.raises(IllConditionedError, match="singular"):
        matkit._stein(np.eye(2), None, 0.5, np.eye(2))


@pytest.mark.parametrize("n, diagonal", [(12, 0.5), (12, 0.0), (20, 0.1)])
def test_defective_factor_falls_back_to_the_schur_path(n, diagonal):
    # Jordan blocks have no basis of eigenvectors: at 0.5 (n = 12) vr's
    # inverse reaches ~1e176, the nilpotent shift's vr is singular, and
    # at 0.1 (n = 20) dgesv's inverse of vr overflows; the modal gates
    # refuse all three, and the public solve is the Schur path, bit for
    # bit (under the suite's warnings-as-errors, with no warning)
    F = diagonal * np.eye(n) + np.eye(n, k=1)
    G = np.random.default_rng(17).standard_normal((n, n))
    for W in (np.eye(n), G @ G.T):
        assert _modal_kernel(F, W) is None
        P = matkit.solve_discrete_lyapunov(F, W)
        assert np.array_equal(P, matkit._stein(*matkit.schur(F), W))
        _check_lyapunov(F, W, P)


def test_modal_gates_keep_a_wrong_answer_out(monkeypatch):
    # on this draw (cond(V) ~ 5e10) the modal solve without its gates
    # fails criterion 8's check, corrected or not; each gate alone
    # refuses it, and the public solve passes
    n = 20
    rng = np.random.default_rng(132)
    F = _lyapunov_factor(rng, n, 0.2, False, 0.0, 1.0)
    G = rng.standard_normal((n, n))
    W = G @ G.T
    _check_lyapunov(F, W, matkit.solve_discrete_lyapunov(F, W))
    for gate, value in OPEN_GATES.items():
        with monkeypatch.context() as opened:
            opened.setattr(matkit, gate, value)
            assert _modal_kernel(F, W) is None
    for gate, value in OPEN_GATES.items():
        monkeypatch.setattr(matkit, gate, value)
    with pytest.raises(AssertionError):
        _check_lyapunov(F, W, _modal_kernel(F, W))


def test_conditioning_gate_keeps_an_inaccurate_answer_out(monkeypatch):
    # cond(V) ~ 2e6 with the corrected residual inside its bound: only the
    # conditioning gate refuses, and the modal P it keeps out is ~250x
    # further from the Kronecker oracle than the Schur path's
    rng = np.random.default_rng(6)
    F = _lyapunov_factor(rng, 9, 0.15, True, 0.0, 1.0)
    G = rng.standard_normal((9, 9))
    W = G @ G.T
    P_ref, _ = _kronecker_lyapunov(F, W)

    def error(P):
        return np.linalg.norm(P - P_ref) / np.linalg.norm(P_ref)

    P = matkit.solve_discrete_lyapunov(F, W)
    assert np.array_equal(P, matkit._stein(*matkit.schur(F), W))
    assert error(P) <= 5e-14
    monkeypatch.setattr(matkit, "MODAL_MAX_COND", np.inf)
    assert error(matkit.solve_discrete_lyapunov(F, W)) > 5e-14


def test_residual_gate_checks_the_answer_against_F(monkeypatch):
    # the residual is taken with F itself, so an answer that does not
    # solve F's equation is refused however well conditioned its
    # eigenvectors (cond(V) ~ 24 here): with the factor's eigenvalues off
    # by 1e-3, which the correction cannot undo, opening the gate lets
    # through a P ~4e-5 from the Kronecker oracle's
    rng = np.random.default_rng(18)
    F = _lyapunov_factor(rng, 10, 0.9, False, 0.5, 1.0)
    G = rng.standard_normal((10, 10))
    W = G @ G.T
    P_ref, _ = _kronecker_lyapunov(F, W)
    M = matkit._modal_factor(F)[1]
    off = M._replace(lam=M.lam * (1.0 + 1e-3))
    P = matkit._modal(F, M, 1.0, W)
    assert np.linalg.norm(P - P_ref) <= 1e-13 * np.linalg.norm(P_ref)
    assert matkit._modal(F, off, 1.0, W) is None
    monkeypatch.setattr(matkit, "MODAL_RESIDUAL_RTOL", 1.0)
    P = matkit._modal(F, off, 1.0, W)
    assert np.linalg.norm(P - P_ref) > 1e-9 * np.linalg.norm(P_ref)


def test_modal_correction_reaches_rounding():
    # the one correction on the modal factor brings a well-conditioned
    # solve's residual down to rounding: far inside its gate, and below
    # the uncorrected solve's
    rng = np.random.default_rng(19)
    F = _lyapunov_factor(rng, 20, 0.95, False, 0.5, 1.0)
    G = rng.standard_normal((20, 20))
    W = G @ G.T
    M = matkit._modal_factor(F)[1]
    P = matkit._modal(F, M, 1.0, W)
    X = (M.V.conj().T @ W @ M.V) / (1.0 - M.lam.conj()[:, None] * M.lam)
    P0 = (M.Vinv.conj().T @ X @ M.Vinv).real

    def residual(P):
        return np.linalg.norm(F.T @ P @ F - P + W)

    bound = np.linalg.norm(F)**2 * np.linalg.norm(P) + np.linalg.norm(W)
    assert residual(P) <= 1e-15 * bound
    assert residual(P) < residual((P0 + P0.T) / 2.0)


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


@pytest.mark.parametrize("n", [2, matkit.KRONECKER_MAX_N + 2])
def test_lyapunov_refusal_inside_the_margin_names_it(n):
    # a radius below 1 but within the margin is refused as what it is, by
    # both the Kronecker kernel and the modal one
    rho = 1.0 - 5e-10
    with pytest.raises(UnstableMatrixError) as err:
        matkit.solve_discrete_lyapunov(np.diag([rho] + [0.5] * (n - 1)),
                                       np.eye(n))
    assert err.value.rho == rho
    assert str(err.value) == (f"F must be Schur stable (spectral radius "
                              f"{rho!r} >= 1 - {matkit.STABILITY_MARGIN:g})")


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
    assert matkit._semidefinite(np.eye(2))
    assert matkit._semidefinite(np.diag([1.0, 0.0]))
    assert not matkit._semidefinite(np.diag([1.0, -0.1]))


def test_definiteness_threshold_scales_with_largest_eigenvalue():
    # an eigenvalue w counts as zero within PD_RTOL max |w|, the same
    # bound for both definiteness tests
    big = 1e6
    tol = matkit.PD_RTOL * big
    assert matkit.is_positive_definite(np.diag([big, 2.0 * tol]))
    assert not matkit.is_positive_definite(np.diag([big, 0.5 * tol]))
    assert matkit._semidefinite(np.diag([big, -0.5 * tol]))
    assert not matkit._semidefinite(np.diag([big, -2.0 * tol]))


def test_lyapunov_rejects_overflowing_solution():
    # P = W / (1 - 0.99^2), about 5e308, exceeds the largest double; the
    # solve's inf arithmetic raises the named error, not a numpy warning,
    # also when warnings are errors
    with pytest.raises(IllConditionedError):
        matkit.solve_discrete_lyapunov(0.99 * np.eye(2), 1e307 * np.eye(2))


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
def test_thresholds_are_relative_at_every_scale(scale):
    # neither test has an absolute floor: a matrix and its multiple by any
    # positive scale are judged alike, however small the scale
    assert matkit.is_positive_definite(scale * np.diag([1.0, 1e-9]))
    assert not matkit.is_positive_definite(scale * np.diag([1.0, 1e-11]))
    assert not matkit._semidefinite(scale * np.diag([1.0, -1e-9]))
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


def test_check_symmetric_of_a_given_size():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(matkit.check_symmetric(S, "P", 2), S)
    # with a size, any other shape names that size, square or not
    for A in (np.eye(3), np.zeros((2, 3))):
        shape = re.escape(str(A.shape))
        with pytest.raises(DimensionMismatchError,
                           match=f"P must be 2 x 2, got {shape}"):
            matkit.check_symmetric(A, "P", 2)


def test_triu_indices_built_once_and_read_only():
    i, j = model_free._triu_indices(4)
    assert model_free._triu_indices(4)[0] is i
    assert np.array_equal(i, np.triu_indices(4)[0])
    assert np.array_equal(j, np.triu_indices(4)[1])
    with pytest.raises(ValueError):
        i[0] = 1
    with pytest.raises(ValueError):
        j[0] = 1
