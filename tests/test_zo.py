import numpy as np
import pytest

from scalarfed import (ClientState, DiagHessian, RoundConfig, client_local_update,
                       gaussian_vector, inv_sqrt, multi_perturbation_delta, scale_direction)
from scalarfed.errors import CurvatureError, EstimatorFailureError, InvalidDimensionError
from scalarfed.rng import mix


class StubTask:
    """One client whose loss is `loss(x, batch)` on every batch `batch`."""

    num_clients = 1

    def __init__(self, loss, batch=None):
        self.loss, self.batch = loss, batch

    def draw_batch(self, client, r, k, schedule):
        return self.batch

    def client_loss(self, client, x, batch=None):
        return self.loss(x, batch)


class FixedDirection:
    """Direction provider whose every round's block holds `z` in each row."""

    schedule = None

    def __init__(self, z):
        self.z = np.asarray(z, dtype=np.float64)

    def block(self, r, shape):
        return np.broadcast_to(self.z, (*shape, self.z.size))


def estimate(loss, x, z, mu, batch=None, P=1):
    """The simulator's forward-difference scalars at x along z (identity curvature,
    so the direction is z itself): one step, P perturbations."""
    config = RoundConfig(num_clients=1, sampled_per_round=1, rounds=1, eta=0.1,
                         perturbations=P, mu=mu)
    x = np.asarray(x, dtype=np.float64)
    client = ClientState(id=0, model=x, hessian=DiagHessian.identity(x.shape[0]))
    return client_local_update(client, 0, config, StubTask(loss, batch), FixedDirection(z))[0]


def test_rge_constant_loss_is_zero():
    g = estimate(lambda x, b: 7.0, np.zeros(3), np.ones(3), 0.01)
    assert g[0] == 0.0


def test_rge_linear_loss_exact():
    a = np.array([1.0, 2.0])
    loss = lambda x, b: float(a @ x)
    for mu in (1e-1, 1e-3, 1e-6):
        g = estimate(loss, np.array([5.0, -3.0]), np.array([1.0, 1.0]), mu)
        assert g[0] == pytest.approx(3.0, rel=1e-9)


def test_rge_quadratic_hand_value():
    # f = ||x||^2 / 2 at the origin: the scalar is the pure curvature term mu/2
    loss = lambda x, b: 0.5 * float(x @ x)
    g = estimate(loss, np.zeros(2), np.array([1.0, 0.0]), 0.01)
    assert g[0] == pytest.approx(0.005, rel=1e-12)


def test_rge_nonfinite_loss_reported():
    def loss(x, b):
        return np.inf if np.any(x != 0) else 1.0

    with pytest.raises(EstimatorFailureError) as err:
        estimate(loss, np.zeros(2), np.ones(2), 0.1)
    assert err.value.which == "perturbed"


def test_rge_same_batch_for_both_evaluations():
    # one base evaluation shared by both perturbations, all on the same batch
    seen = []

    def loss(x, batch):
        seen.append(batch)
        return float(x.sum())

    estimate(loss, np.zeros(2), np.ones(2), 0.1, batch="xi-7", P=2)
    assert seen == ["xi-7", "xi-7", "xi-7"]


def test_direction_identity_reduction():
    u = gaussian_vector(3, 8)
    H = DiagHessian.identity(8)
    assert np.array_equal(scale_direction(u, inv_sqrt(H)), u)


def test_direction_hand_case():
    H = DiagHessian(diag=np.array([4.0, 1.0]))
    z = scale_direction(np.array([1.0, 1.0]), inv_sqrt(H))
    assert np.allclose(z, [0.5, 1.0], rtol=0, atol=0)


def test_direction_round_trip():
    diag = np.exp(gaussian_vector(11, 50))
    H = DiagHessian(diag=diag)
    u = gaussian_vector(12, 50)
    z = scale_direction(u, inv_sqrt(H))
    assert np.max(np.abs(z * np.sqrt(diag) - u)) <= 1e-15 * np.max(np.abs(u))


def test_direction_rejects_nonpositive_curvature():
    # the curvature behind z = u / sqrt(diag) is checked when it is built
    with pytest.raises(CurvatureError):
        scale_direction(np.ones(2), inv_sqrt(DiagHessian(diag=np.array([1.0, 0.0]))))


def test_direction_rejects_nan_curvature():
    with pytest.raises(CurvatureError):
        scale_direction(np.ones(2), inv_sqrt(DiagHessian(diag=np.array([1.0, np.nan]))))


def test_step_delta_basics():
    # the one-perturbation step is g * z
    assert np.array_equal(multi_perturbation_delta([0.0], [np.ones(3)]), np.zeros(3))
    assert np.array_equal(multi_perturbation_delta([2.0], [np.array([1.0, -1.0])]), [2.0, -2.0])


def test_step_delta_unbiased_on_quadratic():
    # mean of g*u over fresh draws matches the analytic gradient (H = I);
    # exactly unbiased on quadratics since the odd-moment term vanishes
    A = np.array([0.5, 1.0, 1.5, 2.0])
    x = np.full(4, 2.0)
    mu = 1e-4
    n = 10**5
    U = gaussian_vector(mix(777, 0), n * 4).reshape(n, 4)
    f0 = 0.5 * float(A @ (x * x))
    fp = 0.5 * ((x + mu * U) ** 2 @ A)
    g = (fp - f0) / mu
    mean_delta = (U * g[:, None]).mean(axis=0)
    rel = np.abs(mean_delta - A * x) / np.abs(A * x)
    assert np.max(rel) <= 0.02


def test_preconditioned_mean_matches_newton_target():
    # with general diagonal H the estimator mean approaches H^-1 grad f
    diag = np.array([0.25, 1.0, 4.0, 9.0])
    H = DiagHessian(diag=diag)
    A = np.array([2.0, 1.0, 3.0, 0.5])
    x = np.array([1.0, -2.0, 0.5, 1.5])
    grad = A * x
    target = grad / diag
    mu = 1e-5
    n = 10**5
    U = gaussian_vector(mix(778, 1), n * 4).reshape(n, 4)
    Z = U / np.sqrt(diag)
    f0 = 0.5 * float(A @ (x * x))
    fp = 0.5 * ((x + mu * Z) ** 2 @ A)
    g = (fp - f0) / mu
    deltas = Z * g[:, None]
    se = deltas.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(deltas.mean(axis=0) - target) <= 3 * se + 10 * mu)


def test_multi_perturbation_reduces_to_step_delta():
    # P = 1 is the rank-one step g * z
    z = gaussian_vector(5, 6)
    assert np.array_equal(multi_perturbation_delta([2.5], [z]), 2.5 * z)


def test_multi_perturbation_mean_hand_case():
    e1 = np.array([1.0, 0.0])
    out = multi_perturbation_delta([1.0, 3.0], [e1, e1])
    assert np.array_equal(out, 2.0 * e1)


def test_multi_perturbation_integer_inputs_give_float_mean():
    e1 = np.array([1, 0])
    out = multi_perturbation_delta([1, 2], [e1, e1])
    assert out.dtype == np.float64 and np.array_equal(out, [1.5, 0.0])


def test_multi_perturbation_empty_rejected():
    with pytest.raises(InvalidDimensionError):
        multi_perturbation_delta([], [])
    with pytest.raises(InvalidDimensionError):
        multi_perturbation_delta([1.0], [])


def test_multi_perturbation_variance_scaling():
    # empirical variance of the first delta coordinate drops ~1/P
    A = np.array([0.5, 1.0, 1.5, 2.0])
    x = np.full(4, 2.0)
    mu = 1e-4
    f0 = 0.5 * float(A @ (x * x))

    def delta_first_var(P, trials, seed):
        firsts = np.empty(trials)
        for t in range(trials):
            U = gaussian_vector(mix(seed, t), P * 4).reshape(P, 4)
            fp = 0.5 * ((x + mu * U) ** 2 @ A)
            gs = (fp - f0) / mu
            firsts[t] = float((gs[:, None] * U).mean(axis=0)[0])
        return float(firsts.var())

    v2 = delta_first_var(2, 10**4, 501)
    v8 = delta_first_var(8, 10**4, 502)
    assert v8 <= 0.25 * v2 * 1.3
