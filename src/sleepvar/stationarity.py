"""Unit-root testing, differencing, seasonal decomposition, and PACF.

Conventions worth spelling out once:

* The augmented Dickey-Fuller null hypothesis is "a unit root is present"
  (the series is NOT stationary).  A small p-value is therefore evidence
  of stationarity, and :func:`recommend_differencing` suggests differencing
  exactly when the p-value fails to reject that null.
* The augmentation order is picked by minimizing the regression AIC over
  0..max_lag on a common trimmed sample, then the test regression is refit
  at the chosen order on all usable rows.  Each of the two steps is one QR
  of an augmented matrix [X | dy] (:mod:`sleepvar.linalg`), with no SVD:
  the search reads every order's residual sum of squares from one R
  factor, and the final t-ratio is read from the other.  Both matrices
  come from :mod:`sleepvar.var`'s lagged-design builder: the K = 1 design
  of dy, with the trend and level columns after the constant.
* Neither the order nor the statistic depends on the units: each order's
  SSR is squared at the target's own binary scale, and the t-ratio is a
  ratio of R entries.  :func:`pacf` puts its centered series at that scale.
* A degenerate regression, where the level y_{t-1} lies in the span of the
  other regressors or dy is fitted exactly (a deterministic ramp), carries
  no evidence either way and reports a statistic of 0, in any units.
* p-values come from the bundled response-surface approximation
  (:mod:`sleepvar.mackinnon`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import mackinnon
from ._util import checked_choice, checked_count, checked_real, checked_series, overflow_checked
from .errors import DataError, NumericError
from .linalg import RANK_RTOL, augmented_r, deficient_columns
from .var import _lagged_design

ADF_MIN_OBS = 15
REGRESSIONS = mackinnon.REGRESSIONS  # ("constant", "constant_and_trend")
WHITE_NOISE_Z = 1.96


@dataclass(frozen=True)
class AdfResult:
    """Augmented Dickey-Fuller outcome.

    ``statistic`` is the t-ratio on the lagged level (0.0 for a degenerate
    regression, see the module notes); ``used_lag`` the chosen
    augmentation order; ``n_obs`` the rows in the final regression.
    ``critical_values`` maps '1%', '5%', '10%' to finite-sample thresholds.
    """

    statistic: float
    p_value: float
    used_lag: int
    n_obs: int
    critical_values: dict[str, float]
    regression: str


class DifferencingDecision(NamedTuple):
    p_value: float
    needs_differencing: bool


@dataclass(frozen=True)
class Decomposition:
    """Additive trend/seasonal/residual split; NaN where the trend window
    cannot be centered (half a window at each end)."""

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int


@dataclass(frozen=True)
class PacfResult:
    """Partial autocorrelations at lags 0..n (``values[0] == 1``) plus the
    plotting band ``+-band`` for a white-noise null at the 5% level."""

    values: np.ndarray
    band: float


def _adf_augmented(y: np.ndarray, k: int, ntrend: int) -> np.ndarray:
    """[1, (t,) y_{t-1}, dy_{t-1} .. dy_{t-k} | dy_t] for t = k+1 .. T-1: the
    K = 1 lagged design of dy, with the trend and level columns after the constant."""
    trend = (np.arange(1.0, y.size - k),) if ntrend == 2 else ()
    return _lagged_design(np.diff(y)[:, None], k, lead=(*trend, y[k:-1]))


@overflow_checked("series values are too large: the test regression overflows")
def adf_test(series, regression: str = "constant", max_lag: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller test (null hypothesis: unit root present).

    Regresses dy_t on y_{t-1}, lagged differences, and deterministic terms.
    ``max_lag`` bounds the AIC search for the augmentation order; the
    default is floor(12 * (T/100)^(1/4)), capped so the regression keeps
    positive degrees of freedom.
    """
    regression = checked_choice(regression, REGRESSIONS, "regression")
    y = checked_series(series, ADF_MIN_OBS)
    if np.ptp(y) == 0.0:
        raise DataError("series is constant; unit-root test undefined")

    t_total = y.size
    ntrend = 1 if regression == "constant" else 2
    cap = t_total // 2 - ntrend - 1
    if max_lag is None:
        max_lag = min(int(12.0 * (t_total / 100.0) ** 0.25), cap)
    elif (max_lag := checked_count(max_lag, "max_lag")) > cap:
        raise DataError(f"max_lag {max_lag} too large for series of length {t_total}")

    # Augmentation order by AIC on the common sample trimmed at max_lag: one
    # QR of [X | dy], whose last column below row base+k holds the
    # residual of the order-k regression.  Only the orders whose lag columns
    # all pass the rank rule compete: the Householder reflector of a
    # collinear column is built on rounding residue and removes a random
    # direction from the target.  The SSR floor, relative to the target's norm
    # (R's last column, read at unit binary scale, where its norm is at least
    # 1/2 unless it is all zero), makes exact fits tie, not rank rounding noise.
    augmented = _adf_augmented(y, max_lag, ntrend)
    n, m_full = augmented.shape[0], augmented.shape[1] - 1
    base = ntrend + 1
    r = augmented_r(augmented, m_full, overwrite_a=True)
    target = np.ldexp(r[:, -1], -np.frexp(np.abs(r[:, -1]).max())[1])
    floor = (RANK_RTOL * max(np.linalg.norm(target), 0.5)) ** 2
    orders = 1 + int(np.cumprod(~deficient_columns(r)[base:m_full]).sum())
    ssr = np.cumsum(target[::-1] ** 2)[::-1][base : base + orders]
    aic = n * np.log(np.maximum(ssr, floor) / n) + 2.0 * (base + np.arange(orders))
    used_lag = int(np.argmin(aic))

    # Final regression at the chosen order uses every available row.  With
    # the level y_{t-1} moved to the last design column, its R diagonal is
    # its distance from the other columns' span, and the t-ratio
    # beta / se = sign(R[m-1, m-1]) R[m-1, m] sqrt(dof) / |R[m, m]| is read
    # off R.  The rank rule on R's last two columns finds a level inside that
    # span, or a target fitted exactly: no unit-root evidence, a statistic of 0.
    augmented = _adf_augmented(y, used_lag, ntrend)
    n_obs, m = augmented.shape[0], augmented.shape[1] - 1
    dof = n_obs - m  # >= ntrend, as max_lag <= cap
    level = ntrend  # index of the y_{t-1} column
    moved = augmented.T[[*range(level), *range(level + 1, m), level, m]].T  # column-major
    r = augmented_r(moved, m, overwrite_a=True)
    statistic = 0.0 if deficient_columns(r)[m - 1 :].any() else float(
        np.sign(r[m - 1, m - 1]) * r[m - 1, m] * np.sqrt(dof) / abs(r[m, m]))

    return AdfResult(
        statistic=statistic,
        p_value=mackinnon.approx_p_value(statistic, regression),
        used_lag=used_lag,
        n_obs=n_obs,
        critical_values=mackinnon.critical_values(regression, n_obs),
        regression=regression,
    )


def recommend_differencing(series, alpha: float = 0.05) -> DifferencingDecision:
    """ADF with constant terms; differencing is needed when p > alpha."""
    alpha = checked_real(alpha, "alpha", closed=True)
    res = adf_test(series, regression="constant")
    return DifferencingDecision(res.p_value, res.p_value > alpha)


@overflow_checked("series values are too large: a difference overflows")
def difference(series, order: int = 1) -> np.ndarray:
    """Order-fold first differences; output length is T - order.  Missing
    values (NaN) are allowed and propagate."""
    order = checked_count(order, "differencing order", 1)
    return np.diff(checked_series(series, order + 1, complete=False), n=order)


@overflow_checked("series values are too large: the decomposition overflows")
def classical_decompose(series, period: int = 7) -> Decomposition:
    """Additive classical decomposition with a centered moving-average trend.

    For an even period the trend window spans period+1 points with
    half-weight endpoints; seasonal effects are per-phase means of the
    detrended series, re-centered to sum to zero over one period.
    """
    period = checked_count(period, "period", 2)
    y = checked_series(series, 2 * period)
    n = y.size

    half = period // 2
    weights = np.full(2 * half + 1, 1.0 / period)
    if period % 2 == 0:
        weights[0] = weights[-1] = 0.5 / period
    trend = np.full(n, np.nan)
    trend[half : n - half] = np.convolve(y, weights, mode="valid")

    detrended = y - trend
    profile = np.empty(period)
    for phase in range(period):
        vals = detrended[phase::period]
        profile[phase] = np.nanmean(vals)
    profile -= profile.mean()
    seasonal = np.resize(profile, n)

    residual = y - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual, period=period)


def _autocovariances(y: np.ndarray, n_lags: int) -> np.ndarray:
    """Adjusted (unbiased-denominator) sample autocovariances at lags 0..n_lags,
    up to a common power-of-two factor.

    The centered series is put at unit binary scale first.  That is exact,
    so the ratios keep their bits, and its products neither underflow nor
    overflow in any units.
    """
    centered = y - y.mean()
    centered = np.ldexp(centered, -np.frexp(np.abs(centered).max())[1])
    n = y.size
    acov = np.empty(n_lags + 1)
    for k in range(n_lags + 1):
        acov[k] = centered[: n - k] @ centered[k:] / (n - k)
    return acov


@overflow_checked("series values are too large: the autocovariances overflow")
def pacf(series, n_lags: int) -> PacfResult:
    """Partial autocorrelations via the Durbin-Levinson recursion.

    ``values[k]`` is the correlation between y_t and y_{t-k} after removing
    the influence of the intervening lags; ``values[0]`` is 1 by definition.
    """
    n_lags = checked_count(n_lags, "n_lags")
    y = checked_series(series, 2)
    if n_lags >= y.size / 2:
        raise DataError(f"n_lags {n_lags} must be below half the series length {y.size}")
    if np.ptp(y) == 0.0:
        raise DataError("series is constant; autocorrelation undefined")

    acov = _autocovariances(y, n_lags)
    r = acov / acov[0]
    out = np.empty(n_lags + 1)
    out[0] = 1.0
    phi = np.zeros(n_lags + 1)  # phi[j] = coefficient j of the current order
    for k in range(1, n_lags + 1):
        num = r[k] - phi[1:k] @ r[1:k][::-1]
        den = 1.0 - phi[1:k] @ r[1:k]
        if den <= 0.0:
            raise NumericError(
                f"autocovariance sequence is numerically degenerate at lag {k}"
            )
        phi[k] = num / den
        # the right side is formed before it overwrites phi[1:k]
        phi[1:k] = phi[1:k] - phi[k] * phi[1:k][::-1]
        out[k] = phi[k]
    return PacfResult(values=out, band=WHITE_NOISE_Z / np.sqrt(y.size))
