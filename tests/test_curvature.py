import numpy as np
import pytest

from scalarfed import DiagHessian, diagnostics, ema_update, gaussian_vector, inv_sqrt
from scalarfed.curvature import fourth_moment_weighted
from scalarfed.errors import CurvatureError, InvalidDimensionError
from scalarfed.rng import mix


def test_invariants_enforced_at_construction():
    for nonpositive in ([1.0, -1.0], [1.0, 0.0]):
        with pytest.raises(CurvatureError):
            DiagHessian(diag=np.array(nonpositive))
    with pytest.raises(CurvatureError):
        DiagHessian(diag=np.ones(2), nu=1.5)
    with pytest.raises(CurvatureError):
        DiagHessian(diag=np.ones(2), epsilon=0.0)
    with pytest.raises(CurvatureError):
        DiagHessian(diag=np.full(2, 10.0), beta_upper=5.0)


def test_nan_diagonal_rejected_at_construction():
    with pytest.raises(CurvatureError):
        DiagHessian(diag=np.array([1.0, np.nan]))


def test_ema_nu_zero_is_identity():
    H = DiagHessian(diag=np.array([2.0, 3.0]), nu=0.0)
    out = ema_update(H, np.array([100.0, -50.0]))
    assert np.array_equal(out.diag, H.diag)


def test_ema_hand_case_with_floor_clip():
    H = DiagHessian(diag=np.ones(2), nu=1.0, epsilon=0.01,
                    beta_lower=0.1, beta_upper=100.0)
    out = ema_update(H, np.array([2.0, 0.0]))
    # second coordinate: 0.01 floors up to beta_lower
    assert np.allclose(out.diag, [4.01, 0.1], rtol=0, atol=0)


def test_ema_clipping_invariant_under_random_updates():
    H = DiagHessian(diag=np.ones(8), nu=0.3, beta_lower=0.5, beta_upper=2.0)
    for t in range(1000):
        H = ema_update(H, 3.0 * gaussian_vector(mix(42, t), 8))
        assert np.all(H.diag >= 0.5) and np.all(H.diag <= 2.0)


def test_ema_integer_delta_gives_float_diagonal():
    H = DiagHessian(diag=np.ones(2), nu=0.5, epsilon=0.5)
    assert np.array_equal(ema_update(H, np.array([1, 0])).diag, [1.25, 0.75])


def test_ema_dimension_mismatch():
    with pytest.raises(InvalidDimensionError):
        ema_update(DiagHessian.identity(3), np.zeros(4))


def test_ema_zero_deltas_contract_to_closed_form():
    # with all-zero deltas the EMA is the scalar recursion
    # h_{n} = (1-nu)^n h_0 + (eps) (1 - (1-nu)^n), clipped at beta_lower
    nu, eps = 0.2, 1e-4
    H = DiagHessian(diag=np.full(3, 2.0), nu=nu, epsilon=eps, beta_lower=1e-6)
    zero = np.zeros(3)
    for n in range(1, 40):
        H = ema_update(H, zero)
        expected = (1 - nu) ** n * 2.0 + eps * (1 - (1 - nu) ** n)
        assert np.allclose(H.diag, max(expected, 1e-6), rtol=1e-12)


def test_inv_sqrt_identity_and_hand_case():
    assert np.array_equal(inv_sqrt(DiagHessian.identity(4)), np.ones(4))
    H = DiagHessian(diag=np.array([4.0, 0.25]))
    assert np.allclose(inv_sqrt(H), [0.5, 2.0], rtol=0, atol=0)


def test_inv_sqrt_round_trip():
    diag = np.exp(gaussian_vector(9, 64))
    H = DiagHessian(diag=diag)
    assert np.max(np.abs(inv_sqrt(H) ** 2 * diag - 1.0)) <= 1e-14


def test_diagnostics_perfect_approximation_gives_dim():
    sigma = np.array([1.0, 2.0, 5.0])
    H = DiagHessian(diag=sigma.copy())
    d = diagnostics(H, sigma, L=5.0)
    assert d.whitening_rank_zeta == pytest.approx(3.0, rel=1e-14)


def test_diagnostics_hand_case():
    sigma = np.array([3.0, 4.0, 5.0])  # sums to 12
    d = diagnostics(DiagHessian.identity(3), sigma, L=3.0)
    assert d.effective_rank_kappa == pytest.approx(4.0)
    assert d.whitening_rank_zeta == pytest.approx(12.0)
    assert d.spectral_term == pytest.approx(5.0)


def test_diagnostics_rejects_bad_inputs():
    H = DiagHessian.identity(2)
    with pytest.raises(CurvatureError):
        diagnostics(H, np.array([1.0, -1.0]), L=1.0)
    with pytest.raises(CurvatureError):
        diagnostics(H, np.ones(2), L=0.0)


def test_lognormal_spectrum_ordering():
    # long-tailed spectrum: whitened mass ~ d, far below raw spectrum mass,
    # itself far below the worst-case L*d bound
    from scalarfed import make_lognormal_spectrum

    sigma = make_lognormal_spectrum(200, 3.0, 2718)
    L = float(sigma.max())
    H = DiagHessian(diag=sigma + 1e-8)
    d = diagnostics(H, sigma, L)
    zeta, Lk, Ld = d.whitening_rank_zeta, L * d.effective_rank_kappa, L * 200
    assert zeta < Lk < Ld


def test_fourth_moment_closed_form_hand_cases():
    assert np.allclose(fourth_moment_weighted(np.ones(3), np.eye(3)), 5.0 * np.eye(3))
    got = fourth_moment_weighted(np.array([1.0, 4.0]), np.diag([2.0, 0.0]))
    assert np.allclose(got, np.diag([6.0, 8.0]), rtol=0, atol=0)


def test_fourth_moment_monte_carlo_small():
    # reduced-sample version of the harness check (module-level smoke)
    lam = np.array([1.0, 4.0])
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    target = fourth_moment_weighted(lam, W)
    n = 200000
    Z = gaussian_vector(mix(31, 0), n * 2).reshape(n, 2) * np.sqrt(lam)
    q = np.einsum("ni,ij,nj->n", Z, W, Z)
    est = (Z * q[:, None]).T @ Z / n
    assert np.max(np.abs(est - target) / np.abs(target)) <= 0.05


def test_variance_table_contracts():
    # E||u||_Sigma^2 = Tr(Sigma) = L*kappa; E||z||_Sigma^2 = zeta for z ~ N(0, H^-1)
    sigma = np.array([5.0, 1.0, 0.5, 0.1])
    H = DiagHessian(diag=np.array([4.0, 1.0, 1.0, 0.2]))
    n = 400000
    U = gaussian_vector(mix(77, 1), n * 4).reshape(n, 4)
    emp_u = float((U**2 @ sigma).mean())
    assert emp_u == pytest.approx(sigma.sum(), rel=0.02)
    Z = U * inv_sqrt(H)
    emp_z = float((Z**2 @ sigma).mean())
    zeta = diagnostics(H, sigma, L=float(sigma.max())).whitening_rank_zeta
    assert emp_z == pytest.approx(zeta, rel=0.02)
