import numpy as np
import pytest

from scalarfed import (LogisticTask, QuadraticTask, make_lognormal_spectrum,
                       partition_dirichlet, rng)
from scalarfed.errors import ConfigError, InvalidDimensionError


def test_lognormal_determinism_and_positivity():
    a = make_lognormal_spectrum(64, 3.0, 5)
    b = make_lognormal_spectrum(64, 3.0, 5)
    assert np.array_equal(a, b)
    assert np.all(a > 0)
    assert np.any(a != make_lognormal_spectrum(64, 3.0, 6))


def test_lognormal_degenerate_variance_limit():
    spec = make_lognormal_spectrum(100, 1e-12, 7)
    assert np.allclose(spec, 1.0, atol=1e-5)


def test_lognormal_median_band():
    spec = make_lognormal_spectrum(200, 3.0, 2718)
    assert np.exp(-0.35) <= np.median(spec) <= np.exp(0.35)


def test_lognormal_rejects_bad_args():
    with pytest.raises(InvalidDimensionError):
        make_lognormal_spectrum(0, 3.0, 1)
    with pytest.raises(ConfigError):
        make_lognormal_spectrum(4, 0.0, 1)


def test_quadratic_minimum_at_center():
    task = QuadraticTask.build(dim=6, num_clients=3, seed=2, offset_scale=0.5)
    for i in range(3):
        c = task.centers[i]
        assert task.client_loss(i, c) == 0.0
    # offsets are centered, so the global optimum (the mean center) is the origin
    assert np.allclose(task.centers.mean(axis=0), 0.0, atol=1e-12)


def test_quadratic_global_is_mean_of_clients():
    task = QuadraticTask.build(dim=5, num_clients=4, seed=3, offset_scale=0.3)
    x = np.linspace(-1, 1, 5)
    mean = np.mean([task.client_loss(i, x) for i in range(4)])
    assert task.global_loss(x) == pytest.approx(mean, rel=1e-14)


def test_quadratic_rotation_flag():
    task = QuadraticTask.build(dim=6, num_clients=2, seed=5, rotate=True)
    assert np.allclose(task.rotation @ task.rotation.T, np.eye(6), atol=1e-12)
    # the rotated Hessian is not diagonal, so there is no diagonal truth
    assert task.curvature_truth() is None


def test_quadratic_curvature_truth():
    task = QuadraticTask.build(dim=7, num_clients=2, seed=6)
    sigma, L = task.curvature_truth()
    assert np.array_equal(sigma, task.spectrum)
    assert L == task.spectrum.max()


@pytest.mark.parametrize("shift", [0.0, 2.0])
@pytest.mark.parametrize("offset_scale", [0.0, 0.3])
def test_quadratic_centers_equal_the_stacked_formula(shift, offset_scale):
    # the in-place build must reproduce shift + scale * (offsets - mean) bit for bit
    dim, M, seed = 9, 5, 13
    offsets = np.stack([rng.gaussian_vector(rng.mix(seed, rng.DOMAIN_TASK, 1, i), dim)
                        for i in range(M)])
    offsets -= offsets.mean(axis=0)
    expected = shift + offset_scale * offsets
    task = QuadraticTask.build(dim=dim, num_clients=M, seed=seed,
                               offset_scale=offset_scale, shift=shift)
    assert task.centers.tobytes() == expected.tobytes()


def test_quadratic_rejects_zero_clients():
    with pytest.raises(ConfigError) as err:
        QuadraticTask.build(dim=4, num_clients=0, seed=1)
    assert err.value.field == "num_clients"


def test_heterogeneity_knob_monotone():
    # the global loss at the optimum is the centers' spread around their mean
    measured = []
    for scale in (0.1, 0.3, 1.0, 3.0):
        task = QuadraticTask.build(dim=6, num_clients=4, seed=7, offset_scale=scale)
        measured.append(task.global_loss(task.centers.mean(axis=0)))
    assert measured[0] > 0
    assert all(a < b for a, b in zip(measured, measured[1:]))


def test_dirichlet_partition_covers_and_deterministic():
    labels = np.arange(1200) % 10
    part = partition_dirichlet(labels, 64, 1.0, seed=11)
    sizes = np.bincount(part.assignment, minlength=64)
    assert sizes.sum() == 1200
    assert np.all(sizes > 0)
    again = partition_dirichlet(labels, 64, 1.0, seed=11)
    assert np.array_equal(part.assignment, again.assignment)
    assert np.any(part.assignment != partition_dirichlet(labels, 64, 1.0, seed=12).assignment)


def test_dirichlet_concentration_limit():
    labels = np.arange(6000) % 3
    part = partition_dirichlet(labels, 5, 1e6, seed=13)
    for cls in range(3):
        counts = np.bincount(part.assignment[labels == cls], minlength=5)
        frac = counts / counts.sum()
        assert np.max(np.abs(frac - 0.2)) <= 0.05 * 0.2 + 0.01


def test_dirichlet_rejects_too_few_samples():
    with pytest.raises(ConfigError) as err:
        partition_dirichlet(np.zeros(3), 10, 1.0, seed=1)
    assert err.value.field == "n_samples"


def test_logistic_loss_grad_consistency():
    # at x = 0 every margin is 0, so each sample (any batch, any client)
    # costs log 2 and the ridge term vanishes; the mean is exact to rounding
    task = LogisticTask.build(dim=12, num_clients=4, seed=21, n_samples=400)
    x = np.zeros(12)
    log2 = pytest.approx(np.log(2.0), rel=1e-15, abs=0)
    assert task.global_loss(x) == log2
    assert all(task.client_loss(i, x) == log2 for i in range(4))
    assert task.client_loss(2, x, np.array([0, 5, 9])) == log2
    assert task.global_loss(np.ones(12)) != log2


def test_logistic_separable_descent():
    # two opposite points, no ridge: along the separating direction the loss
    # is log1p(exp(-t)) and falls as t grows
    from scalarfed.tasks import DirichletPartition

    features = np.array([[1.0, 0.0], [-1.0, 0.0]])
    labels = np.array([1, 0])
    part = DirichletPartition(alpha=1.0, num_clients=1, assignment=np.zeros(2, dtype=np.int64))
    task = LogisticTask(features=features, labels=labels, partition=part, l2=0.0)
    losses = []
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        losses.append(task.global_loss(np.array([t, 0.0])))
        assert losses[-1] == pytest.approx(np.log1p(np.exp(-t)), rel=1e-15)
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_logistic_batches_keyed_and_in_shard():
    from scalarfed.rng import SeedSchedule

    task = LogisticTask.build(dim=8, num_clients=3, seed=22, n_samples=300, batch_size=16)
    sched = SeedSchedule(root=5)
    b1 = task.draw_batch(1, 4, 0, sched)
    b2 = task.draw_batch(1, 4, 0, sched)
    assert np.array_equal(b1, b2)
    shard = set(task.partition.shard(1).tolist())
    assert set(b1.tolist()) <= shard
    assert not np.array_equal(b1, task.draw_batch(1, 5, 0, sched))


def test_desk_scale_guard():
    with pytest.raises(ConfigError) as err:
        LogisticTask.build(dim=1024, num_clients=2, seed=1)
    assert err.value.field == "dim"
