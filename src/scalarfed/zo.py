"""Preconditioned directions and rank-one steps for forward-difference scalars.

The entire communication trick rests on one identity: a forward difference
along a random direction z compresses a full d-dimensional update into a
single scalar

    g = (f(x + mu*z) - f(x)) / mu,        step = g * z,

because any party holding the seed that generated z can rebuild the step from
g alone. With a diagonal curvature estimate H, directions are drawn as
z = H^(-1/2) u with u standard normal, which makes the expected step a
Newton-style preconditioned gradient H^(-1) grad f(x) (up to O(mu)). The
simulator's estimator is fedsim.client_local_update; this module holds the
direction and step helpers that every party shares.
"""

import numpy as np

from .errors import InvalidDimensionError


def scale_direction(u: np.ndarray, inv_sqrt_diag: np.ndarray, out=None) -> np.ndarray:
    """Elementwise u / sqrt(H), into `out` if given. Single shared expression:
    every code path that turns a raw normal vector into a preconditioned
    direction must produce bitwise-identical floats, or ledger replay breaks."""
    return np.multiply(u, inv_sqrt_diag, out=out)


def multi_perturbation_delta(scalars, directions, out=None, work=None) -> np.ndarray:
    """Mean of P rank-one steps, accumulated in ascending perturbation order.

    The fixed accumulation order is part of the wire contract: server and
    rebuilding clients must fold identically for bit-reproducibility. P = 1
    reduces exactly to the rank-one step g * z (the final /1.0 is lossless).
    Given `out` and a scratch `work`, it allocates nothing.
    """
    if len(scalars) == 0 or len(scalars) != len(directions):
        raise InvalidDimensionError(
            f"need equal, nonzero arity, got {len(scalars)} scalars and {len(directions)} directions"
        )
    acc = np.multiply(scalars[0], directions[0], out=out, dtype=np.float64)
    for p in range(1, len(scalars)):
        acc += np.multiply(scalars[p], directions[p], out=work)
    return np.divide(acc, len(scalars), out=acc)
