"""Desk-scale federated objectives.

A task gives the simulator `dim`, `num_clients`, `x0`, `draw_batch`,
`client_loss` and `global_loss`, and, where the Hessian is diagonal in closed
form, `curvature_truth()` for the preconditioner diagnostics. Two families:
quadratics with a controlled diagonal spectrum (exact curvature, so the
diagnostics are checkable against closed forms) and synthetic regularized
logistic regression with a Dirichlet non-IID shard assignment (a real
stochastic-batch loss surface, still small enough to evaluate globally in
milliseconds).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .errors import ConfigError, InvalidDimensionError, check_range


# Dirichlet draws per partition before giving up on one with no empty client
_PARTITION_TRIES = 100


def make_lognormal_spectrum(dim: int, variance: float, seed: int) -> np.ndarray:
    """Eigenvalue vector exp(g) with g ~ N(0, variance), deterministic in seed.

    The long right tail (a handful of large eigenvalues over a near-flat bulk)
    is the low-effective-rank regime the preconditioner targets.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    check_range("variance", variance, variance > 0, "positive")
    g = rng.gaussian_vector(rng.mix(seed, rng.DOMAIN_TASK, 0), dim)
    return np.exp(g * np.sqrt(variance))


@dataclass(frozen=True)
class QuadraticTask:
    """Federation of quadratics sharing a spectrum, with per-client centers.

    Client i's loss is 0.5 * (x - c_i)^T A (x - c_i) where A = Diag(spectrum)
    (optionally conjugated by a random rotation). Centers are a common shift
    plus zero-mean per-client offsets, so the global optimum sits exactly at
    the shift and the offset scale is a clean heterogeneity knob.

    Deterministic per client: the batch handle is accepted and ignored.
    """

    spectrum: np.ndarray
    centers: np.ndarray          # (M, d)
    x0: np.ndarray
    rotation: np.ndarray = None  # optional orthogonal map (d, d)

    @classmethod
    def build(cls, *, dim: int, num_clients: int, seed: int, spectrum_variance: float = 3.0,
              offset_scale: float = 0.0, shift: float = 0.0, x0_scale: float = 1.0,
              rotate: bool = False):
        check_range("dim", dim, dim >= 1, ">= 1")
        check_range("num_clients", num_clients, num_clients >= 1, ">= 1")
        check_range("seed", seed, 0 <= seed < 2**64, "in [0, 2**64)")
        check_range("spectrum_variance", spectrum_variance, spectrum_variance > 0, "positive")
        spectrum = make_lognormal_spectrum(dim, spectrum_variance, seed)
        # built in place, one (M, d) block: the same operations in the same
        # order as shift + offset_scale * (offsets - mean), bit for bit
        clients = np.arange(num_clients, dtype=np.uint64)
        centers = rng.gaussian_rows(rng.mix(seed, rng.DOMAIN_TASK, 1, clients), dim)
        centers -= centers.mean(axis=0)  # exact zero mean: optimum stays at the shift
        centers *= offset_scale
        centers += shift
        rotation = None
        if rotate:
            raw = rng.gaussian_vector(rng.mix(seed, rng.DOMAIN_TASK, 2), dim * dim)
            rotation, _ = np.linalg.qr(raw.reshape(dim, dim))
        return cls(
            spectrum=spectrum,
            centers=centers,
            x0=x0_scale * np.ones(dim),
            rotation=rotation,
        )

    @property
    def dim(self) -> int:
        return self.spectrum.shape[0]

    @property
    def num_clients(self) -> int:
        return self.centers.shape[0]

    def _apply_A(self, v):
        if self.rotation is None:
            return self.spectrum * v
        return self.rotation.T @ (self.spectrum * (self.rotation @ v))

    def draw_batch(self, client, r, k, schedule):
        return None

    def client_loss(self, client: int, x: np.ndarray, batch=None) -> float:
        d = x - self.centers[client]
        return 0.5 * float(d @ self._apply_A(d))

    @cached_property
    def _center_stats(self):
        """(mean center c, mean_i 0.5 (c_i - c)^T A (c_i - c)), one row at a time."""
        mean = self.centers.mean(axis=0)
        return mean, float(np.mean([self.client_loss(i, mean) for i in range(self.num_clients)]))

    def global_loss(self, x: np.ndarray) -> float:
        """Mean client loss in O(d): loss at the mean center plus the centers' spread."""
        mean, spread = self._center_stats
        d = x - mean
        return 0.5 * float(d @ self._apply_A(d)) + spread

    def curvature_truth(self):
        """(diagonal Sigma, L) for the preconditioner diagnostics; None under
        rotation, where the Hessian is not diagonal."""
        if self.rotation is not None:
            return None
        return self.spectrum.copy(), float(self.spectrum.max())


@dataclass(frozen=True)
class DirichletPartition:
    """Sample-to-client assignment with Dirichlet(alpha) class proportions."""

    alpha: float
    num_clients: int
    assignment: np.ndarray  # (n_samples,) client index per sample

    def shard(self, client: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == client)


def partition_dirichlet(labels, num_clients: int, alpha: float, seed: int) -> DirichletPartition:
    """Non-IID shard assignment: per-class proportions drawn from
    Dirichlet(alpha * 1_M), resampled until no client is empty."""
    labels = np.asarray(labels)
    check_range("num_clients", num_clients, num_clients >= 1, ">= 1")
    check_range("alpha", alpha, alpha > 0, "positive")
    check_range("n_samples", labels.shape[0], labels.shape[0] >= num_clients,
                f">= num_clients = {num_clients}")
    classes = np.unique(labels)
    for attempt in range(_PARTITION_TRIES):
        gen = np.random.Generator(
            np.random.Philox(key=rng.mix(seed, rng.DOMAIN_TASK, 3, attempt))
        )
        assignment = np.empty(labels.shape[0], dtype=np.int64)
        for cls in classes:
            idx = np.flatnonzero(labels == cls)
            gen.shuffle(idx)
            proportions = gen.dirichlet(np.full(num_clients, alpha))
            cuts = (np.cumsum(proportions)[:-1] * idx.size).astype(int)
            for client, chunk in enumerate(np.split(idx, cuts)):
                assignment[chunk] = client
        if np.all(np.bincount(assignment, minlength=num_clients) > 0):
            return DirichletPartition(alpha=alpha, num_clients=num_clients,
                                      assignment=assignment)
    raise ConfigError(
        f"could not produce a partition with no empty client in {_PARTITION_TRIES} tries",
        field="alpha",
    )


@dataclass(frozen=True)
class LogisticTask:
    """L2-regularized logistic regression on synthetic Gaussian class blobs,
    sharded non-IID across clients."""

    features: np.ndarray   # (n, d)
    labels: np.ndarray     # (n,) in {0, 1}
    partition: DirichletPartition
    l2: float = 0.0
    batch_size: int = 32

    @cached_property
    def _shards(self):
        return tuple(self.partition.shard(i) for i in range(self.num_clients))

    @classmethod
    def build(cls, *, dim: int, num_clients: int, seed: int, n_samples: int = 2000,
              alpha: float = 1.0, separation: float = 2.0, l2: float = 1e-3,
              batch_size: int = 32):
        # synthetic logistic tasks are desk-scale: d <= 512, n <= 10000
        check_range("dim", dim, 1 <= dim <= 512, "in [1, 512]")
        check_range("num_clients", num_clients, num_clients >= 1, ">= 1")
        check_range("seed", seed, 0 <= seed < 2**64, "in [0, 2**64)")
        check_range("n_samples", n_samples, num_clients <= n_samples <= 10_000,
                    f"in [num_clients, 10000] = [{num_clients}, 10000]")
        check_range("batch_size", batch_size, batch_size >= 1, ">= 1")
        gen = np.random.Generator(np.random.Philox(key=rng.mix(seed, rng.DOMAIN_TASK, 4)))
        labels = (np.arange(n_samples) % 2).astype(np.int64)
        direction = gen.normal(size=dim)
        direction /= np.linalg.norm(direction)
        features = gen.normal(size=(n_samples, dim))
        features += np.where(labels[:, None] == 1, 1.0, -1.0) * (separation / 2) * direction
        partition = partition_dirichlet(labels, num_clients, alpha, seed)
        return cls(features=features, labels=labels, partition=partition,
                   l2=l2, batch_size=batch_size)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_clients(self) -> int:
        return self.partition.num_clients

    @property
    def x0(self) -> np.ndarray:
        """Training starts from the zero weight vector."""
        return np.zeros(self.dim)

    def draw_batch(self, client, r, k, schedule) -> np.ndarray:
        """Batch of sample indices from the client's shard, keyed purely by
        (client, round, step) so replays and oracles see identical data."""
        shard = self._shards[client]
        pick = rng.uniform_indices(schedule.batch_seed(client, r, k),
                                   min(self.batch_size, shard.size), shard.size)
        return shard[pick]

    def _loss_on(self, idx, x):
        phi = self.features[idx]
        y = 2.0 * self.labels[idx] - 1.0
        margins = -y * (phi @ x)
        # log(1 + exp(m)) with the large-margin branch kept linear for stability
        losses = np.where(margins > 30, margins, np.log1p(np.exp(np.minimum(margins, 30))))
        return float(losses.mean() + 0.5 * self.l2 * (x @ x))

    def client_loss(self, client: int, x: np.ndarray, batch=None) -> float:
        return self._loss_on(self._shards[client] if batch is None else batch, x)

    def global_loss(self, x: np.ndarray) -> float:
        return self._loss_on(np.arange(self.labels.shape[0]), x)
