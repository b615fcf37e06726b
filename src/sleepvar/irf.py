"""Impulse responses of a fitted VAR, with bootstrap confidence bands.

``responses[h][i][j]`` is the reaction of variable i, h periods after a
one-time unit impulse in variable j.  Orthogonalized responses premultiply
the impulse by the lower Cholesky factor of the residual covariance, so the
shock ordering is the frame's column order (first variable first).

Bands come from a parametric bootstrap: simulate the fitted process,
refit, recompute the response tensor, and take elementwise percentiles.
Each replication draws from its own counter-based substream, so the result
is bit-identical for a given seed regardless of scheduling, and replication
r's draws do not change when the replication count grows.

The refits run in stacks of replications.  Each stack's lagged designs
come from the estimator's own builder; one QR per augmented matrix
[X | Y], made in one LAPACK call per stack, gives the coefficients and
residual cross-products.  The MA recursion then runs over the whole stack.
Stacks hold about :data:`REFIT_STACK_BYTES` of design, which bounds
memory; a replication's draws do not depend on the stack it lands in, nor
on the BLAS thread count.  A rank-deficient or non-positive-definite refit is
masked and counted in ``IrfResult.n_failed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NotPositiveDefiniteError, NumericError
from .linalg import cholesky_lower, solve_stacked_least_squares
from .simulate import DEFAULT_BURN_IN, iterate_paths, substream
from .var import VarFit, _lagged_design

INNOVATION_MODES = ("gaussian", "empirical")
MIN_REPLICATIONS = 100
MAX_REFIT_FAILURE_RATE = 0.01
# Augmented design bytes per stack of refits (16 replications on the
# bundled data): bounds the working set, never the results.
REFIT_STACK_BYTES = 3 << 20


@dataclass(frozen=True)
class IrfResult:
    """Response tensor over horizons 0..horizon with percentile bands."""

    horizon: int
    responses: np.ndarray  # (horizon+1, K, K)
    lower: np.ndarray
    upper: np.ndarray
    orthogonalized: bool
    level: float
    replications: int
    seed: int
    var_names: tuple[str, ...]
    n_failed: int = 0                # refits masked out of the bands
    failures: tuple[str, ...] = ()   # reasons of the first few failures


def _ma_recursion(coef: np.ndarray, horizon: int) -> np.ndarray:
    """Phi_0..Phi_horizon for lag stacks ``coef`` of shape (..., p, K, K)."""
    *batch, p, k, _ = coef.shape
    phi = np.empty((*batch, horizon + 1, k, k))
    phi[..., 0, :, :] = np.eye(k)
    for h in range(1, horizon + 1):
        acc = np.zeros((*batch, k, k))
        for i in range(1, min(h, p) + 1):
            acc += phi[..., h - i, :, :] @ coef[..., i - 1, :, :]
        phi[..., h, :, :] = acc
    return phi


def ma_coefficients(fit: VarFit, horizon: int) -> np.ndarray:
    """Moving-average representation Phi_0..Phi_horizon of the fitted VAR.

    Phi_0 = I and Phi_h = sum_{i=1..min(h,p)} Phi_{h-i} A_i; column j of
    Phi_h is the system state h steps after a unit impulse in variable j.
    """
    if horizon < 0:
        raise DataError(f"horizon must be non-negative, got {horizon}")
    return _ma_recursion(fit.coef, horizon)


def orthogonalized_irf(fit: VarFit, horizon: int) -> np.ndarray:
    """MA coefficients right-multiplied by the lower Cholesky factor of
    the df-adjusted residual covariance."""
    chol = cholesky_lower(fit.sigma_u)
    return ma_coefficients(fit, horizon) @ chol


def irf_with_bands(
    fit: VarFit,
    horizon: int = 10,
    level: float = 0.95,
    replications: int = 1000,
    seed: int = 0,
    orthogonalized: bool = True,
    innovations: str = "gaussian",
) -> IrfResult:
    """Point responses plus elementwise percentile bands at ``level``.

    ``innovations`` selects the resampler: ``gaussian`` draws fresh shocks
    with the fitted residual covariance; ``empirical`` resamples centered
    residual rows with replacement.  The fit must be stable and have at
    least :data:`MIN_REPLICATIONS` replications; more than 1% failed refits
    abort with diagnostics.
    """
    if not 0.0 < level < 1.0:
        raise DataError(f"level must lie in (0, 1), got {level}")
    if replications < MIN_REPLICATIONS:
        raise DataError(f"replications must be >= {MIN_REPLICATIONS}, got {replications}")
    if innovations not in INNOVATION_MODES:
        raise DataError(f"unknown innovation mode {innovations!r}; choose from {INNOVATION_MODES}")
    if fit.p < 1:
        raise DataError("impulse-response bands require a fitted lag order of at least 1")
    radius = fit.stability_radius()
    if radius >= 1.0:
        raise NumericError(
            f"fitted process is unstable (spectral radius {radius:.6f} >= 1); "
            "bootstrap bands require a stable fit"
        )

    point = orthogonalized_irf(fit, horizon) if orthogonalized else ma_coefficients(fit, horizon)

    k = fit.n_vars
    t_eff = fit.t_eff
    n_steps = DEFAULT_BURN_IN + t_eff
    chol = cholesky_lower(fit.sigma_u)
    centered = fit.residuals - fit.residuals.mean(axis=0)
    mean = np.linalg.solve(np.eye(k) - fit.coef.sum(axis=0), fit.intercept)

    shocks = np.empty((replications, n_steps, k))
    for r in range(replications):
        gen = substream(seed, r + 1)
        if innovations == "gaussian":
            shocks[r] = gen.standard_normal((n_steps, k)) @ chol.T
        else:
            shocks[r] = centered[gen.integers(0, t_eff, n_steps)]
    paths = iterate_paths(fit.intercept, fit.coef, shocks, mean)[:, DEFAULT_BURN_IN :, :]
    del shocks

    p = fit.p
    m = k * p + 1
    dof = t_eff - p - m
    stack = max(1, REFIT_STACK_BYTES // ((t_eff - p) * (m + k) * 8))
    draws = np.empty((replications, horizon + 1, k, k))
    ok = np.ones(replications, dtype=bool)
    failures: list[str] = []
    for start in range(0, replications, stack):
        augmented = _lagged_design(paths[start : start + stack], p, p, with_targets=True)
        solved = solve_stacked_least_squares(augmented, m)
        coef = solved.coefficients[:, 1:].reshape(-1, p, k, k).transpose(0, 1, 3, 2)
        phi = _ma_recursion(coef, horizon)
        for c in range(phi.shape[0]):
            reason = solved.failures.get(c)
            if reason is None and orthogonalized:
                try:
                    phi[c] = phi[c] @ cholesky_lower(solved.residual_cross[c] / dof)
                except NotPositiveDefiniteError as exc:
                    reason = str(exc)
            if reason is not None:
                ok[start + c] = False
                if len(failures) < 5:
                    failures.append(f"replication {start + c}: {reason}")
        draws[start : start + phi.shape[0]] = phi
    n_failed = int((~ok).sum())
    if n_failed > MAX_REFIT_FAILURE_RATE * replications:
        raise NumericError(
            f"bootstrap refits failed in {n_failed}/{replications} replications; "
            "first failures: " + "; ".join(failures)
        )

    tail = (1.0 - level) / 2.0
    lower, upper = np.quantile(draws[ok], [tail, 1.0 - tail], axis=0)
    return IrfResult(
        horizon=horizon,
        responses=point,
        lower=lower,
        upper=upper,
        orthogonalized=orthogonalized,
        level=level,
        replications=replications,
        seed=seed,
        var_names=fit.var_names,
        n_failed=n_failed,
        failures=tuple(failures),
    )
