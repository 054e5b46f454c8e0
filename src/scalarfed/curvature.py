"""Diagonal curvature estimate learned from squared global steps.

The server never sees a gradient, only the aggregated scalar-encoded steps
delta_x. Their squares are a free curvature signal: an exponential moving
average of delta_x^2 (floored by eps, clipped into [beta_lower, beta_upper])
gives every party an identical per-coordinate preconditioner at zero extra
communication, because the global delta is reconstructible from the ledger.

The estimate is frozen while directions for a round are generated and only
advances at aggregation/replay time, one EMA step per local step, so all
clients in a round share the same directions.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import CurvatureError, InvalidDimensionError

DEFAULT_NU = 0.05
DEFAULT_EPSILON = 1e-8
DEFAULT_BETA_LOWER = 1e-6
DEFAULT_BETA_UPPER = 1e6


@dataclass(frozen=True)
class DiagHessian:
    """Strictly positive diagonal curvature estimate with clipping bounds.

    Immutable: updates return new values, so replicas can be shared freely.
    """

    diag: np.ndarray
    nu: float = DEFAULT_NU
    epsilon: float = DEFAULT_EPSILON
    beta_lower: float = DEFAULT_BETA_LOWER
    beta_upper: float = DEFAULT_BETA_UPPER

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=np.float64)
        object.__setattr__(self, "diag", diag)
        if not 0.0 <= self.nu <= 1.0:
            raise CurvatureError(f"nu must lie in [0, 1], got {self.nu}")
        if not self.epsilon > 0:
            raise CurvatureError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.beta_lower <= self.beta_upper:
            raise CurvatureError(
                f"need 0 < beta_lower <= beta_upper, got ({self.beta_lower}, {self.beta_upper})"
            )
        if not np.all((diag >= self.beta_lower) & (diag <= self.beta_upper)):
            raise CurvatureError("diagonal violates its clipping bounds")

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    @classmethod
    def identity(cls, dim: int, **kwargs) -> "DiagHessian":
        """All-ones start: the first round is exactly the unpreconditioned
        protocol, and nu = 0 keeps it that way forever."""
        return cls(diag=np.ones(dim), **kwargs)


def ema_update(hessian: DiagHessian, delta: np.ndarray, out=None, work=None):
    """One EMA step on the squared global delta of a single local step.

    diag' = clip((1 - nu) * diag + nu * (delta^2 + eps), beta_lower, beta_upper)

    Returns a new DiagHessian; given a running diagonal `out` and a scratch
    `work`, advances `out` in place instead and returns it unvalidated.
    """
    if delta.shape != hessian.diag.shape:
        raise InvalidDimensionError(
            f"delta has shape {delta.shape}, curvature diagonal has shape {hessian.diag.shape}"
        )
    step = np.multiply(delta, delta, out=work, dtype=np.float64)
    step += hessian.epsilon
    step *= hessian.nu
    updated = np.multiply(hessian.diag if out is None else out, 1.0 - hessian.nu, out=out)
    updated += step
    np.clip(updated, hessian.beta_lower, hessian.beta_upper, out=updated)
    return updated if out is not None else replace(hessian, diag=updated)


def inv_sqrt(hessian, out=None) -> np.ndarray:
    """Elementwise 1/sqrt(diag) of a DiagHessian or a bare diagonal, into `out`
    if given; values lie in [beta_upper^-1/2, beta_lower^-1/2]."""
    return np.divide(1.0, np.sqrt(getattr(hessian, "diag", hessian), out=out), out=out)


@dataclass(frozen=True)
class CurvatureDiagnostics:
    """Variance-bound quantities for tasks whose true curvature is known.

    effective_rank_kappa:  Tr(Sigma) / L, the spectrum mass relative to its
                           largest eigenvalue; drives the unpreconditioned
                           estimator's variance bound L * kappa.
    whitening_rank_zeta:   Tr(H^-1/2 Sigma H^-1/2), the residual mass after
                           preconditioning; a good H drives zeta toward d
                           while L * kappa can be far larger.
    spectral_term:         max_i Sigma_i / H_i, the matching spectral norm.
    """

    effective_rank_kappa: float
    whitening_rank_zeta: float
    spectral_term: float


def diagnostics(hessian: DiagHessian, sigma: np.ndarray, L: float) -> CurvatureDiagnostics:
    """Compute (kappa, zeta, spectral term) for a diagonal true curvature sigma."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0):
        raise CurvatureError("true curvature diagonal must be nonnegative")
    if not L > 0:
        raise CurvatureError(f"L must be positive, got {L}")
    if sigma.shape != hessian.diag.shape:
        raise InvalidDimensionError(
            f"sigma has shape {sigma.shape}, curvature diagonal has shape {hessian.diag.shape}"
        )
    whitened = sigma / hessian.diag
    return CurvatureDiagnostics(
        effective_rank_kappa=float(sigma.sum() / L),
        whitening_rank_zeta=float(whitened.sum()),
        spectral_term=float(whitened.max()),
    )


def fourth_moment_weighted(lam: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Closed form E[z z^T W z z^T] = Tr(W Lambda) Lambda + 2 Lambda W Lambda
    for z ~ N(0, Lambda) with diagonal Lambda and symmetric W.

    The Monte Carlo verification in the harness checks its estimates against
    this target; keeping the closed form here, next to the EMA that relies on
    it, makes the dependency explicit.
    """
    lam = np.asarray(lam, dtype=np.float64)
    Lam = np.diag(lam)
    return float(np.trace(W @ Lam)) * Lam + 2.0 * Lam @ W @ Lam
