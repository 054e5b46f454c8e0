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
direction and step helpers that every party shares. A step's P directions
are one (P, d) block of raw rows; multi_perturbation_delta preconditions
and folds them one row at a time, in the order of fold_mean, the one helper
every other mean goes through.
"""

import numpy as np

from .errors import InvalidDimensionError


def scale_direction(u: np.ndarray, inv_sqrt_diag: np.ndarray, out=None) -> np.ndarray:
    """Elementwise u / sqrt(H) of a vector or a (P, d) row block, into `out`
    if given. Single shared expression: every path from raw normals to
    preconditioned directions must give the same bits, or ledger replay breaks."""
    return np.multiply(u, inv_sqrt_diag, out=out)


def fold_mean(stack, out=None) -> np.ndarray:
    """Mean over the first axis of `stack`, into `out` if given, as one
    ascending fold: acc = stack[0], acc += stack[i] for i = 1, 2, ..., acc /= n.
    Every mean of the protocol goes through it, so that every party adds in
    one order. numpy's axis-0 reduce is no substitute: it sums pairwise where
    the trailing axes have size 1."""
    out = np.positive(stack[0], out=out, dtype=np.float64)  # acc = stack[0], copied
    for row in stack[1:]:
        out += row
    out /= len(stack)
    return out


def multi_perturbation_delta(scalars, rows, inv_sqrt_diag, out=None, work=None) -> np.ndarray:
    """Mean of the P rank-one steps g_p * z_p, z_p = rows[p] * inv_sqrt_diag,
    folded a row at a time in ascending order: row p is scaled into one-row
    scratch, multiplied by g_p and added to the sum, the bits of scaling the
    whole (P, d) block and taking fold_mean of its steps. P = 1 is exactly
    g * z (the final /1.0 is lossless). Given `out` and a one-row scratch
    `work` it allocates nothing."""
    scalars = np.asarray(scalars)
    if scalars.size == 0 or scalars.shape != (len(rows),):
        raise InvalidDimensionError(
            f"need equal, nonzero arity, got {scalars.size} scalars and {len(rows)} directions"
        )
    out = scale_direction(rows[0], inv_sqrt_diag, out=out)  # acc = step 0
    out *= scalars[0]
    for g, row in zip(scalars[1:], rows[1:]):
        work = scale_direction(row, inv_sqrt_diag, out=work)
        work *= g
        out += work
    out /= len(rows)
    return out
