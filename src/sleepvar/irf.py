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

The bootstrap runs one block of replications at a time: draw, path
recursion, refits, MA recursion.  Blocks are sized by
:data:`PATH_BLOCK_BYTES` and the refits within a block run in stacks of
about :data:`REFIT_STACK_BYTES` of design.  Each call allocates two
buffers, once, and every block and stack reuses them.  One is the
time-major path buffer of :func:`~sleepvar.simulate.iterate_paths`: each
replication's colored shocks are drawn straight into its column, and the
paths then advance there in place.  The other holds one stack of designs,
refilled per stack by the estimator's own builder; the estimator's own
solver (:func:`~sleepvar.linalg.solve_augmented`, one LAPACK ``dgeqrf``
per refit, in place on that buffer, whose contents it destroys) gives the
coefficients, R and the rank mask.  The MA recursion
and the orthogonalization then run over the whole stack; a refit's
Cholesky factor is R_yy' with the signs of R_yy's diagonal, over sqrt(dof).
:func:`~sleepvar.linalg.cholesky_lower` factors ``sigma_u`` once, for the
point responses and the shocks.
Only the response draws the percentiles need are kept for every
replication, so memory does not grow with the paths of all replications.
A replication's results do not depend on the block or stack it lands in,
nor on the BLAS thread count.  A refit whose R fails the rank rule the
fit's own R must pass, at a design column or (orthogonalized) at a residual
column, is masked and counted in ``IrfResult.n_failed``; a fit whose refits
would keep no residual degree of freedom (fewer than K for orthogonalized
bands, whose refit covariances would be singular) is rejected before any
draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import allocating, checked_choice, checked_count, checked_real
from .errors import DataError, NumericError
from .linalg import cholesky_lower, deficient_columns, rank_message, solve_augmented
from .simulate import DEFAULT_BURN_IN, iterate_paths, substream
from .var import VarFit, _lagged_design, unconditional_mean, unstack_params

INNOVATION_MODES = ("gaussian", "empirical")
MIN_REPLICATIONS = 100
MAX_REFIT_FAILURE_RATE = 0.01
# Bytes per block of replications, counted as two copies of its paths (63
# replications on the bundled data; the one path buffer takes half), and
# augmented-design bytes per stack of refits within a block (8, so the
# design buffer stays under numpy's 4 MB huge-page threshold): they bound
# the working set, never the results.
PATH_BLOCK_BYTES = 8 << 20
REFIT_STACK_BYTES = 3 << 19


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
    failures: tuple[str, ...] = ()   # the first five masked replications, in replication order


def _ma_recursion(coef: np.ndarray, horizon: int) -> np.ndarray:
    """Phi_0..Phi_horizon for lag stacks ``coef`` of shape (..., p, K, K)."""
    *batch, p, k, _ = coef.shape
    with allocating(f"horizon {horizon} is too large to compute"):
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
    return _ma_recursion(fit.coef, checked_count(horizon, "horizon"))


def orthogonalized_irf(fit: VarFit, horizon: int) -> np.ndarray:
    """MA coefficients right-multiplied by the lower Cholesky factor of
    the df-adjusted residual covariance."""
    return ma_coefficients(fit, horizon) @ cholesky_lower(fit.sigma_u)


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
    residual rows with replacement.  The fit must be stable and leave each
    refit (t_eff - p rows) a residual degree of freedom, K of them for
    orthogonalized bands, and there must be at least
    :data:`MIN_REPLICATIONS` replications; more than 1% failed refits abort
    with diagnostics.
    """
    level = checked_real(level, "level")
    replications = checked_count(replications, "replications", MIN_REPLICATIONS)
    seed = checked_count(seed, "seed", None)
    innovations = checked_choice(innovations, INNOVATION_MODES, "innovation mode")
    if fit.p < 1:
        raise DataError("impulse-response bands require a fitted lag order of at least 1")
    k, p, t_eff = fit.n_vars, fit.p, fit.t_eff
    m = k * p + 1
    dof = t_eff - p - m  # a refit's residual degrees of freedom
    if dof < 1:
        raise DataError(f"not enough observations for bootstrap refits: t_eff={t_eff} "
                        f"leaves {t_eff - p} rows at lag {p} for {m} regressors")
    if orthogonalized and dof < k:  # a refit's residual covariance would be singular
        raise DataError(f"orthogonalized bands need at least K={k} residual degrees of freedom "
                        f"per refit, got dof={dof}; use plain impulses or more observations")
    radius = fit.stability_radius()
    if radius >= 1.0:
        raise NumericError(
            f"fitted process is unstable (spectral radius {radius:.6f} >= 1); "
            "bootstrap bands require a stable fit"
        )

    chol = cholesky_lower(fit.sigma_u)  # colors the shocks and orthogonalizes the point responses
    horizon = checked_count(horizon, "horizon")
    phi = _ma_recursion(fit.coef, horizon)
    point = phi @ chol if orthogonalized else phi

    n_steps = DEFAULT_BURN_IN + t_eff
    # the fewest blocks the budget allows, of near-equal size
    n_blocks = -(-replications // max(1, PATH_BLOCK_BYTES // ((2 * n_steps + p) * k * 8)))
    block = -(-replications // n_blocks)
    stack = min(block, max(1, REFIT_STACK_BYTES // ((t_eff - p) * (m + k) * 8)))
    centered = fit.residuals - fit.residuals.mean(axis=0)
    mean = unconditional_mean(fit.intercept, fit.coef)

    storage = np.empty((p + n_steps) * k * max(block, 2))  # the paths of the widest block
    design = np.empty((stack, m + k, t_eff - p)).swapaxes(-1, -2)  # _lagged_design's layout
    with allocating(f"{replications} replications at horizon {horizon} are too many to keep"):
        draws = np.empty((replications, horizon + 1, k, k))
    failed: dict[int, str] = {}  # replication -> why its refit is masked
    for first in range(0, replications, block):
        b = min(block, replications - first)
        paths = storage[: (p + n_steps) * k * max(b, 2)].reshape(p + n_steps, k, max(b, 2))
        for j in range(b):
            gen = substream(seed, first + j + 1)
            if innovations == "gaussian":
                paths[p:, :, j] = gen.standard_normal((n_steps, k)) @ chol.T
            else:
                paths[p:, :, j] = centered[gen.integers(0, t_eff, n_steps)]
        sample = iterate_paths(fit.intercept, fit.coef, paths[p:, :, :b].transpose(2, 0, 1), mean,
                               out=paths)[:, DEFAULT_BURN_IN:]
        for at in range(first, first + b, stack):
            rows = sample[at - first : at - first + stack]
            solved = solve_augmented(_lagged_design(rows, p, out=design[: len(rows)]), m,
                                     overwrite_a=True)
            _, coef = unstack_params(solved.coefficients, p)
            phi = _ma_recursion(coef, horizon)
            deficient = deficient_columns(solved.r)[:, : m + k if orthogonalized else m]
            for c in np.flatnonzero(deficient.any(axis=1)):
                j = int(np.argmax(deficient[c]))  # a design column, else a residual's in R_yy
                failed[at + int(c)] = rank_message(j) if j < m else (
                    f"residual covariance is singular: residual {j - m} is collinear with earlier ones")
            if orthogonalized:
                # R_yy' R_yy is the residual cross-product, so R_yy' with its
                # diagonal's signs, over sqrt(dof), factors the refit's covariance
                r_yy = solved.r[:, m:, m:]
                signs = np.sign(np.diagonal(r_yy, axis1=1, axis2=2))
                phi = phi @ (np.swapaxes(r_yy, 1, 2) * signs[:, None, :] / np.sqrt(dof))[:, None]
            draws[at : at + phi.shape[0]] = phi
    failures = tuple(f"replication {r}: {failed[r]}" for r in sorted(failed)[:5])
    if len(failed) > MAX_REFIT_FAILURE_RATE * replications:
        raise NumericError(
            f"bootstrap refits failed in {len(failed)}/{replications} replications; "
            "first failures: " + "; ".join(failures)
        )

    tail = (1.0 - level) / 2.0
    kept = np.delete(draws, list(failed), axis=0) if failed else draws
    lower, upper = np.quantile(kept, [tail, 1.0 - tail], axis=0, overwrite_input=True)
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
        n_failed=len(failed),
        failures=failures,
    )
