"""Granger causality tests on a fitted VAR.

The test is the joint-system Wald form: the null "X does not Granger-cause
Y" restricts every lag coefficient of each causing variable to zero in each
caused variable's equation.  The Wald statistic divided by the number of
restrictions is referred to the F distribution with denominator degrees of
freedom K * (t_eff - K*p - 1), matching the fitted system's residual
degrees of freedom across all K equations.

The F distribution is computed here in stdlib ``math`` (the runtime imports
no scipy), and only its upper tail: ``f_sf`` gives the p-value and
``f_isf`` the critical value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from reprlib import repr as brief
from typing import Sequence

import numpy as np

from ._util import checked_names, checked_real
from .errors import ConvergenceError, DataError, NotPositiveDefiniteError, NumericError
from .linalg import cholesky_lower
from .var import VarFit

# Stopping rule of the incomplete-beta continued fraction (relative change
# of its value in one step) and its iteration cap.
_CF_EPS = 1e-15
_CF_MAXIT = 100_000
_CF_TINY = 1e-30
# Stopping rule of the quantile search: the last Halley step in log F, after
# which the error is of the order of its cube.
_ISF_TOL = 1e-7
_ISF_MAXIT = 200
_LOG_F_BOUND = math.log(sys.float_info.max)  # exp(+-bound) stays finite
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2) by the Stirling series, z >= 10."""
    w = 1.0 / (z * z)
    series = -691.0 / 360360.0 + w / 156.0
    for c in (1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0):
        series = c + w * series
    return series / z


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), accurate to a few ulps of the result for large a or b.

    ``lgamma(a + b) - lgamma(a) - lgamma(b)`` loses the large common part
    of lgamma(a + b) and lgamma(max(a, b)).  From 10 up, the Stirling terms
    of the large arguments are cancelled in closed form and only their
    small series tails are differenced (DiDonato & Morris, 1992, ACM TOMS
    Algorithm 708).
    """
    a, b = min(a, b), max(a, b)
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = a / b
    tails = _stirling_tail(b) - _stirling_tail(a + b)
    if a < 10.0:
        # lgamma(b) - lgamma(a + b) = -(b - 1/2) log(1 + a/b) - a log(a + b) + a + tails
        return math.lgamma(a) + tails + a - a * math.log(a + b) - (b - 0.5) * math.log1p(h)
    return (
        tails + _stirling_tail(a) + _HALF_LOG_2PI - 0.5 * math.log(b)
        + (a - 0.5) * math.log(h / (1.0 + h)) - b * math.log1p(h)
    )


def _beta_cf(a: float, b: float, u: float, w: float) -> float:
    """I_u(a, b) * a * B(a, b) / (u^a w^b), with w = 1 - u given exactly.

    The continued fraction of Numerical Recipes 6.4 has coefficients
    d_{2m} = m(b-m)u / ((a+2m-1)(a+2m)) and
    d_{2m+1} = -(a+m)(a+b+m)u / ((a+2m)(a+2m+1)); it converges quickly for
    u < (a+1)/(a+b+2), and the caller swaps the tails to stay there.  It is
    evaluated in its even contraction, whose partial denominators are
    1 + d_{2m+1} + d_{2m+2}, by modified Lentz.  For u near 1 the odd
    coefficients approach -1, so 1 + d_{2m+1} is expanded in w rather than
    formed by a subtraction that would lose u's rounding.
    """
    # The value is T / T' with T = 1 + d_2 + S, T' = 1 + d_1 + d_2 + S and
    # S = alpha_2 / (beta_2 + alpha_3 / (beta_3 + ...)), where
    # alpha_k = -d_{2k-2} d_{2k-1} and beta_k = 1 + d_{2k-1} + d_{2k}.
    ab = a + b
    near_one = u > 0.5
    d_even = head = head_odd = 0.0
    f = c = _CF_TINY
    d = 0.0
    for m in range(_CF_MAXIT + 1):
        # Step m forms d_{2m+1} = -pu / den (as 1 + d_{2m+1} and alpha_{m+1})
        # and d_{2m+2}, the next d_even.
        a2m = a + 2 * m
        p = (a + m) * (ab + m)
        den = a2m * (a2m + 1.0)
        pu = p * u
        if near_one:
            one_odd = (a * (2 * m + 1 - b) + m * (3 * m + 2 - b) + p * w) / den
        else:
            one_odd = (den - pu) / den
        alpha = d_even * pu / den
        d_even = (m + 1) * (b - m - 1) * u / ((a2m + 1.0) * (a2m + 2.0))
        beta = one_odd + d_even
        if m == 0:
            head, head_odd = 1.0 + d_even, beta
            continue
        d = beta + alpha * d
        d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
        c = beta + alpha / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return (head + f) / (head_odd + f)
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, u={u})"
    )


def _f_tails(x: float, df_num: float, df_den: float) -> tuple[float, float]:
    """(survival function, x times the density) of F(df_num, df_den) at x.

    With s = df_num x + df_den, the CDF is the regularized incomplete beta
    I_u(a, b) at u = df_num x / s, a = df_num / 2, b = df_den / 2, and
    x times the density is u^a (1 - u)^b / B(a, b).  1 - u is formed as
    df_den / s, and the log of whichever of u, 1 - u lies near 1 by
    log1p.  The continued fraction gives the tail it converges on directly.
    Below the switch, u = (a + 1) / (a + b + 2), the survival function is
    its complement, but there it is above about 0.08 (the chi-square(1)
    tail beyond 3), so a small one is never a complement.
    """
    if not x > 0.0:
        return (math.nan, math.nan) if math.isnan(x) else (1.0, 0.0)
    a, b = 0.5 * df_num, 0.5 * df_den
    s = df_num * x + df_den
    # where df_num * x overflows, 1 - u is far below the rounding of 1
    u, v = (df_num * x / s, df_den / s) if s < math.inf else (1.0, df_den / df_num / x)
    if v == 0.0:
        return 0.0, 0.0
    if u == 0.0:
        return 1.0, 0.0
    if u < 0.5:
        log_u, log_v = math.log(u), math.log1p(-u)
    else:
        log_u, log_v = math.log1p(-v), math.log(v)
        if v < sys.float_info.min:  # a subnormal v keeps too few bits: log its parts
            log_v = (math.log(df_den) - math.log(s) if s < math.inf
                     else math.log(df_den) - math.log(df_num) - math.log(x))
    front = math.exp(a * log_u + b * log_v - _log_beta(a, b))
    if u < (a + 1.0) / (a + b + 2.0):
        return 1.0 - front * _beta_cf(a, b, u, v) / a, front
    return front * _beta_cf(b, a, v, u) / b, front


def _check_df(df_num, df_den) -> None:
    if not (df_num > 0 and df_den > 0):
        raise DataError(f"F degrees of freedom must be positive, got ({df_num}, {df_den})")


def f_sf(x: float, df_num: int, df_den: int) -> float:
    """Survival function 1 - CDF, computed without cancellation."""
    _check_df(df_num, df_den)
    return _f_tails(x, df_num, df_den)[0]


def _log_f_guess(log_alpha: float, df_num: float, df_den: float) -> float:
    """Log of Paulson's cube-root normal approximation to the F quantile, or 0.

    It only starts the quantile search, so the normal quantile comes from
    Abramowitz & Stegun 26.2.23 (error below 4.5e-4), and 0 (x = 1) stands
    in where the approximation has no positive root.
    """
    r = math.sqrt(-2.0 * log_alpha)
    z = r - (2.515517 + r * (0.802853 + r * 0.010328)) / (
        1.0 + r * (1.432788 + r * (0.189269 + r * 0.001308))
    )
    c1, c2 = 2.0 / (9.0 * df_num), 2.0 / (9.0 * df_den)
    lead = (1.0 - c2) ** 2 - z * z * c2
    disc = (1.0 - c1) ** 2 * c2 + (1.0 - c2) ** 2 * c1 - z * z * c1 * c2
    if lead <= 0.0 or disc < 0.0:
        return 0.0
    cube_root = ((1.0 - c1) * (1.0 - c2) + z * math.sqrt(disc)) / lead
    return 3.0 * math.log(cube_root) if cube_root > 0.0 else 0.0


def f_isf(alpha: float, df_num: int, df_den: int) -> float:
    """The x with ``f_sf(x) == alpha``: the critical value of an F test at level ``alpha``.

    Halley's method on t = log x for log f_sf(x) = log(alpha) (1 - alpha
    would round a small alpha away), started from Paulson's approximation.
    Each evaluation narrows a bracket on t up to the float maximum; a step
    that would leave it bisects instead.
    """
    _check_df(df_num, df_den)
    log_alpha = math.log(checked_real(alpha, "probability"))
    a, b = 0.5 * df_num, 0.5 * df_den
    lo, hi = -_LOG_F_BOUND, _LOG_F_BOUND
    t = min(max(_log_f_guess(log_alpha, df_num, df_den), lo), hi)
    for _ in range(_ISF_MAXIT):
        x = math.exp(t)
        sf, front = _f_tails(x, df_num, df_den)
        # g = log(alpha) - log(sf) rises with t, and
        # g' = front / sf, g'' / g' = d log(front) / dt + front / sf.
        g = log_alpha - math.log(sf) if sf > 0.0 else math.inf
        if g > 0.0:
            hi = t
        elif g < 0.0:
            lo = t
        else:
            return x
        step = math.nan  # an underflowed tail or density bisects
        if front > 0.0 and sf > 0.0:
            step = -g * sf / front
            u = df_num * x / (df_num * x + df_den)  # NaN if df_num * x overflows: no Halley
            halley = 0.5 * step * (a - (a + b) * u + front / sf)
            if abs(halley) < 0.5:
                step /= 1.0 + halley
        if abs(step) <= _ISF_TOL:
            return math.exp(min(t + step, _LOG_F_BOUND))  # exp raises one ulp past it
        t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
    if lo == -_LOG_F_BOUND or hi == _LOG_F_BOUND:  # g kept one sign: the root is past the bracket
        where = "above e^" if hi == _LOG_F_BOUND else "below e^-"
        raise DataError(f"F quantile of the upper tail {alpha:.6g} with df=({df_num}, {df_den}) is "
                        f"outside the float range the search covers (e^-{_LOG_F_BOUND:.6g} to "
                        f"e^{_LOG_F_BOUND:.6g}): it lies {where}{_LOG_F_BOUND:.6g}")
    raise ConvergenceError(f"F quantile search did not converge (upper tail {alpha!r}, "
                           f"df=({df_num}, {df_den}))")


@dataclass(frozen=True)
class GrangerResult:
    """One causality test: does ``causing`` help predict ``caused``?"""

    causing: tuple[str, ...]
    caused: tuple[str, ...]
    statistic: float
    critical_value: float
    p_value: float
    df_num: int
    df_den: int
    alpha: float
    reject_null: bool


def _as_name_tuple(fit: VarFit, names, what: str) -> tuple[str, ...]:
    names = checked_names([names] if isinstance(names, str) else names, what)
    for n in names:
        if n not in fit.var_names:
            raise DataError(f"unknown variable {brief(n)}; model has {brief(fit.var_names)}")
    return names


def granger_test(
    fit: VarFit,
    causing: str | Sequence[str],
    caused: str | Sequence[str],
    alpha: float = 0.05,
) -> GrangerResult:
    """Test the joint nullity of all lag coefficients of ``causing`` in the
    equations of ``caused``.

    ``causing`` and ``caused`` must be disjoint subsets of the fitted
    variables; the restriction count is p * |causing| * |caused|.
    """
    alpha = checked_real(alpha, "alpha")
    causing_t = _as_name_tuple(fit, causing, "causing")
    caused_t = _as_name_tuple(fit, caused, "caused")
    overlap = set(causing_t) & set(caused_t)
    if overlap:
        raise DataError(f"causing and caused sets overlap: {brief(sorted(overlap))}")
    if fit.p < 1:
        raise DataError("Granger test requires a fitted lag order of at least 1")

    k = fit.n_vars
    index = fit.var_names.index
    # Restrictions run equation-major: each caused equation's causing-variable
    # lags, so their covariance is the block sigma_u (x) (X'X)^-1.
    eqs = [index(n) for n in caused_t]
    cols = [1 + lag * k + index(n) for n in causing_t for lag in range(fit.p)]
    restricted = fit.params_matrix()[np.ix_(cols, eqs)].T.ravel()
    cov = np.kron(fit.sigma_u[np.ix_(eqs, eqs)], fit.normal_matrix_inverse[np.ix_(cols, cols)])
    try:
        chol = cholesky_lower(cov)
    except NotPositiveDefiniteError as exc:
        raise NumericError(f"restriction covariance is singular: {exc}") from None
    z = np.linalg.solve(chol, restricted)
    wald = float(z @ z)

    df_num = fit.p * len(causing_t) * len(caused_t)
    df_den = k * (fit.t_eff - k * fit.p - 1)  # >= K: every VarFit keeps a residual dof
    statistic = wald / df_num
    p_value = f_sf(statistic, df_num, df_den)
    critical_value = f_isf(alpha, df_num, df_den)
    return GrangerResult(
        causing=causing_t,
        caused=caused_t,
        statistic=statistic,
        critical_value=critical_value,
        p_value=p_value,
        df_num=df_num,
        df_den=df_den,
        alpha=alpha,
        reject_null=p_value < alpha,
    )


def granger_all_pairs(fit: VarFit, causing: str, alpha: float = 0.05) -> list[GrangerResult]:
    """One test per remaining variable, in the fitted column order."""
    if not isinstance(causing, str) or causing not in fit.var_names:
        raise DataError(f"unknown variable {brief(causing)}; model has {brief(fit.var_names)}")
    if fit.n_vars < 2:
        raise DataError("all-pairs testing needs at least two variables")
    return [
        granger_test(fit, causing, name, alpha=alpha)
        for name in fit.var_names
        if name != causing
    ]
