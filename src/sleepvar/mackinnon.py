"""Response-surface constants for unit-root test p-values and critical values.

The polynomials below are the published MacKinnon (1994) approximations of
the Dickey-Fuller t-distribution CDF, together with the MacKinnon (2010)
finite-sample critical-value surfaces, restricted to the single-series case
and the two deterministic-term layouts this package supports:

* ``constant``            (drift only)
* ``constant_and_trend``  (drift plus linear trend)

p-values: below ``tau_star`` the small-p quadratic applies, above it the
large-p cubic; outside [``tau_min``, ``tau_max``] the p-value saturates at
0 or 1.  The polynomial value is mapped through the standard normal CDF.

Critical values at level q: ``b0 + b1/N + b2/N^2 + b3/N^3`` with N the
number of regression observations.
"""

from __future__ import annotations

from ._util import checked_choice, norm_cdf
from .errors import DataError

_SURFACES = {
    "constant": {
        "tau_max": 2.74,
        "tau_min": -18.83,
        "tau_star": -1.61,
        "small_p": (2.1659, 1.4412, 0.038269),
        "large_p": (1.7339, 0.93202, -0.12745, -0.010368),
        "crit": {
            "1%": (-3.43035, -6.5393, -16.786, -79.433),
            "5%": (-2.86154, -2.8903, -4.234, -40.04),
            "10%": (-2.56677, -1.5384, -2.809, 0.0),
        },
    },
    "constant_and_trend": {
        "tau_max": 0.7,
        "tau_min": -16.18,
        "tau_star": -2.89,
        "small_p": (3.2512, 1.6047, 0.049588),
        "large_p": (2.5261, 0.61654, -0.37956, -0.060285),
        "crit": {
            "1%": (-3.95877, -9.0531, -28.428, -134.155),
            "5%": (-3.41049, -4.3904, -9.036, -45.374),
            "10%": (-3.12705, -2.5856, -3.925, -22.38),
        },
    },
}

REGRESSIONS = tuple(_SURFACES)


def _surface(regression: str) -> dict:
    return _SURFACES[checked_choice(regression, REGRESSIONS, "regression")]


def _polyval(coeffs, x: float) -> float:
    # coeffs in ascending order: c0 + c1*x + c2*x^2 + ...
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def approx_p_value(statistic: float, regression: str) -> float:
    """Approximate p-value of a Dickey-Fuller t statistic (null: unit root)."""
    s = _surface(regression)
    if statistic > s["tau_max"]:
        return 1.0
    if statistic < s["tau_min"]:
        return 0.0
    coeffs = s["small_p"] if statistic <= s["tau_star"] else s["large_p"]
    return norm_cdf(_polyval(coeffs, statistic))


def critical_values(regression: str, n_obs: int) -> dict[str, float]:
    """Finite-sample 1%/5%/10% critical values for ``n_obs`` regression rows."""
    if n_obs < 1:
        raise DataError(f"n_obs must be positive, got {n_obs}")
    s = _surface(regression)
    inv = 1.0 / float(n_obs)
    return {level: _polyval(b, inv) for level, b in s["crit"].items()}
