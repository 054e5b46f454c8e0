"""Forward-difference zeroth-order gradient scalars and preconditioned directions.

The entire communication trick rests on one identity: a forward difference
along a random direction z compresses a full d-dimensional update into a
single scalar

    g = (f(x + mu*z) - f(x)) / mu,        step = g * z,

because any party holding the seed that generated z can rebuild the step from
g alone. With a diagonal curvature estimate H, directions are drawn as
z = H^(-1/2) u with u standard normal, which makes the expected step a
Newton-style preconditioned gradient H^(-1) grad f(x) (up to O(mu)).
"""

from dataclasses import dataclass

import numpy as np

from .errors import CurvatureError, EstimatorFailureError, InvalidDimensionError

DEFAULT_MU = 1e-3


@dataclass(frozen=True)
class SmoothingParams:
    """Perturbation step size mu for the forward difference."""

    mu: float = DEFAULT_MU

    def __post_init__(self):
        if not self.mu > 0:
            raise InvalidDimensionError(f"mu must be positive, got {self.mu}")


def rge_scalar(loss, x, z, mu: float, batch=None) -> float:
    """Forward-difference gradient scalar along direction z.

    Both evaluations see the same batch: the difference must probe one
    realization of the stochastic objective, not two.
    """
    base = float(loss(x, batch))
    if not np.isfinite(base):
        raise EstimatorFailureError(f"base loss evaluation diverged ({base})", which="base")
    perturbed = float(loss(x + mu * z, batch))
    if not np.isfinite(perturbed):
        raise EstimatorFailureError(
            f"perturbed loss evaluation diverged ({perturbed})", which="perturbed"
        )
    return (perturbed - base) / mu


def scale_direction(u: np.ndarray, inv_sqrt_diag: np.ndarray, out=None) -> np.ndarray:
    """Elementwise u / sqrt(H), into `out` if given. Single shared expression:
    every code path that turns a raw normal vector into a preconditioned
    direction must produce bitwise-identical floats, or ledger replay breaks."""
    return np.multiply(u, inv_sqrt_diag, out=out)


def hessian_informed_direction(hessian, u: np.ndarray) -> np.ndarray:
    """Direction z = H^(-1/2) u; reduces to u itself when H is the identity."""
    diag = np.asarray(hessian.diag if hasattr(hessian, "diag") else hessian, dtype=np.float64)
    if diag.shape != u.shape:
        raise InvalidDimensionError(f"H has shape {diag.shape}, u has shape {u.shape}")
    if not np.all(diag > 0):
        raise CurvatureError("curvature diagonal must be strictly positive")
    return scale_direction(u, 1.0 / np.sqrt(diag))


def step_delta(g: float, z: np.ndarray) -> np.ndarray:
    """Rank-one model step g * z encoded by one scalar and one seed."""
    return g * z


def multi_perturbation_delta(scalars, directions, out=None, work=None) -> np.ndarray:
    """Mean of P rank-one steps, accumulated in ascending perturbation order.

    The fixed accumulation order is part of the wire contract: server and
    rebuilding clients must fold identically for bit-reproducibility. P = 1
    reduces exactly to step_delta (the final /1.0 is lossless). Given `out`
    and a scratch `work`, it allocates nothing.
    """
    if len(scalars) == 0 or len(scalars) != len(directions):
        raise InvalidDimensionError(
            f"need equal, nonzero arity, got {len(scalars)} scalars and {len(directions)} directions"
        )
    acc = np.multiply(scalars[0], directions[0], out=out, dtype=np.float64)
    for p in range(1, len(scalars)):
        acc += np.multiply(scalars[p], directions[p], out=work)
    return np.divide(acc, len(scalars), out=acc)
