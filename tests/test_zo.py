import numpy as np
import pytest

from scalarfed import (ClientState, DiagHessian, RoundConfig, client_local_update,
                       gaussian_vector, inv_sqrt, multi_perturbation_delta, scale_direction)
from scalarfed.errors import CurvatureError, EstimatorFailureError, InvalidDimensionError
from scalarfed.fedsim import aggregate_scalars
from scalarfed.zo import fold_mean


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


def test_rge_failure_names_the_first_nonfinite_perturbation():
    # the base and perturbation 0 are finite, perturbations 1 and 2 are not
    calls = []

    def loss(x, b):
        calls.append(x)
        return np.inf if len(calls) > 2 else 1.0

    with pytest.raises(EstimatorFailureError) as err:
        estimate(loss, np.zeros(2), np.ones(2), 0.1, P=3)
    assert err.value.which == "perturbed" and err.value.coords == (0, 0, 1)


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
    assert np.array_equal(multi_perturbation_delta([0.0], [np.ones(3)], 1.0), np.zeros(3))
    assert np.array_equal(multi_perturbation_delta([2.0], [np.array([1.0, -1.0])], 1.0),
                          [2.0, -2.0])


def test_multi_perturbation_reduces_to_step_delta():
    # P = 1 is the rank-one step g * z
    z = gaussian_vector(5, 6)
    assert np.array_equal(multi_perturbation_delta([2.5], [z], 1.0), 2.5 * z)


def test_multi_perturbation_mean_hand_case():
    e1 = np.array([1.0, 0.0])
    out = multi_perturbation_delta([1.0, 3.0], [e1, e1], 1.0)
    assert np.array_equal(out, 2.0 * e1)


def test_multi_perturbation_integer_inputs_give_float_mean():
    e1 = np.array([1, 0])
    out = multi_perturbation_delta([1, 2], [e1, e1], 1.0)
    assert out.dtype == np.float64 and np.array_equal(out, [1.5, 0.0])


def test_multi_perturbation_empty_rejected():
    with pytest.raises(InvalidDimensionError):
        multi_perturbation_delta([], [], 1.0)
    with pytest.raises(InvalidDimensionError):
        multi_perturbation_delta([1.0], [], 1.0)


def sequential_mean(stack):
    """The ascending fold written out of place: ((s0 + s1) + s2) + ... then / n."""
    acc = stack[0]
    for row in stack[1:]:
        acc = acc + row
    return acc / len(stack)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# numpy's axis-0 reduce sums pairwise where the trailing axes have size 1, so
# the first three shapes tell an ascending fold from it; the others are the
# shapes a round's blocks take
FOLD_SHAPES = [(8, 1), (16, 1, 1), (256, 1, 1), (5, 200), (256, 5), (8, 100000)]


@pytest.mark.parametrize("shape", FOLD_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("trial", range(4))
def test_every_mean_is_the_ascending_fold(shape, trial):
    gen = np.random.default_rng([sum(shape), trial])
    # magnitudes over six decades, so that another order of the adds mostly rounds differently
    stack = gen.standard_normal(shape) * 10.0 ** gen.uniform(-3, 3, shape)
    want = sequential_mean(stack)
    assert same_bits(fold_mean(stack), want)
    out = np.empty(shape[1:])
    assert fold_mean(stack, out=out) is out and same_bits(out, want)
    assert same_bits(fold_mean(list(stack)), want)

    block = stack.reshape(shape[0], -1)  # (P, d) raw rows
    scalars = gen.standard_normal(shape[0])
    isH = 10.0 ** gen.uniform(-1, 1, block.shape[1])  # an inverse square-root curvature
    for scale in (1.0, isH):
        # the reference scales the whole block, then multiplies, then folds
        want = sequential_mean(scalars[:, None] * (block * scale))
        assert same_bits(multi_perturbation_delta(scalars, block, scale), want)
        out, work = np.empty(block.shape[1]), np.empty(block.shape[1])
        assert multi_perturbation_delta(scalars, block, scale, out=out, work=work) is out
        assert same_bits(out, want)
        assert same_bits(multi_perturbation_delta(scalars, block, scale, out=np.empty_like(out)),
                         want)
        assert same_bits(multi_perturbation_delta(scalars, block, scale, work=work), want)
        # P = 1 is the rank-one step g * z
        one = multi_perturbation_delta(scalars[:1], block[:1], scale, work=work)
        assert same_bits(one, scalars[0] * (block[0] * scale))

    matrices = list(stack.reshape(shape[0], -1, shape[-1]))  # m clients' (tau, P) scalars
    assert same_bits(aggregate_scalars(matrices), sequential_mean(matrices))
