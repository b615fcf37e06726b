"""SVG figures: byte-for-byte goldens from small hand-built results, and
well-formed XML for any variable name."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

import sleepvar as sv
from sleepvar import svgplot

from conftest import GOLDEN_DIR

NAN = np.nan
FIGURES = GOLDEN_DIR / "figures"


def _irf(horizon: int, names: tuple[str, ...], lower_nan: bool = False) -> sv.IrfResult:
    k, h = len(names), np.arange(horizon + 1.0)
    grid = np.arange(k * k).reshape(k, k) * 0.3 - 0.4
    responses = 0.5 ** h[:, None, None] * grid - 0.05 * h[:, None, None]
    lower, upper = responses - 0.25 - 0.1 * h[:, None, None], responses + 0.375
    if lower_nan:
        lower[1, 0, 1] = NAN
    return sv.IrfResult(horizon, responses, lower, upper, True, 0.95, 100, 7, names)


# Each input's values are written out or made elementwise, so the bytes do
# not hang on numpy's summation order.  They cover the NaN ends of a
# centered trend, an all-NaN trend, a constant series, a NaN band cell and
# horizon 0 (a single x value).
CASES = {
    "decomposition.svg": lambda: svgplot.decomposition_figure(
        np.array([3.0, 4.5, 2.25, 5.0, 3.5, 6.0, 2.75, 4.0, 5.5, 3.25]),
        sv.Decomposition(
            trend=np.array([NAN, NAN, 3.75, 3.8, 4.1, 4.0, 4.35, 4.2, NAN, NAN]),
            seasonal=np.array([-0.5, 0.25, -1.0, 1.25] * 2 + [-0.5, 0.25]),
            residual=np.array([NAN, NAN, -0.5, -0.05, -0.35, 0.75, -0.6, 0.55, NAN, NAN]),
            period=4,
        ),
    ),
    "decomposition_flat.svg": lambda: svgplot.decomposition_figure(
        np.full(5, 2.5),
        sv.Decomposition(trend=np.full(5, NAN), seasonal=np.zeros(5),
                         residual=np.full(5, NAN), period=7),
    ),
    "pacf.svg": lambda: svgplot.pacf_figure(
        sv.PacfResult(values=np.array([1.0, 0.62, -0.31, 0.12, -0.05, 0.0, 0.08]), band=0.196)
    ),
    "irf.svg": lambda: svgplot.irf_figure(_irf(4, ("sleep", "mood"), lower_nan=True)),
    "irf_horizon0.svg": lambda: svgplot.irf_figure(_irf(0, ("a", "b", "c"))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_figure_matches_golden(name):
    assert CASES[name]() == (FIGURES / name).read_text()


def test_irf_titles_are_escaped():
    names = ("a<b", "x&y", '"q"', "t\x01")
    k = len(names)
    res = sv.IrfResult(1, np.zeros((2, k, k)), np.full((2, k, k), -1.0), np.ones((2, k, k)),
                       True, 0.95, 100, 0, names)
    root = ET.fromstring(svgplot.irf_figure(res))
    titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")
              if t.get("font-size") == "11"]
    shown = ("a<b", "x&y", '"q"', "t\\x01")  # a control character prints as its escape
    assert titles == [f"{shown[j]} \u2192 {shown[i]}" for i in range(k) for j in range(k)]
