"""Dependency-free SVG rendering of line panels, stem plots, and band plots.

Every panel plots against the index 0..n-1: the days of a series, the PACF
lags or the IRF horizons.  The emitted documents are deliberately plain
(polylines, polygons, text) and contain nothing nondeterministic, so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .irf import IrfResult
from .stationarity import Decomposition, PacfResult

PANEL_W = 320
PANEL_H = 180
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 46, 10, 22, 26

LINE_COLOR = "#1f77b4"
BAND_COLOR = "#9ecae1"
GUIDE_COLOR = "#999999"


@dataclass
class Panel:
    """A panel over x = 0..n-1 with at most one line, a band (lo, hi),
    stems and dashed guides at the ``hlines`` levels; NaN values are skipped."""

    title: str
    n: int
    line: np.ndarray | None = None
    band: tuple[np.ndarray, np.ndarray] | None = None
    stems: np.ndarray | None = None
    hlines: tuple[float, ...] = ()


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The ``points`` attribute of a polyline or polygon through (xs, ys)."""
    return ("%.2f,%.2f " * xs.size % tuple(np.column_stack((xs, ys)).ravel().tolist()))[:-1]


def _text(name: str) -> str:
    """``name`` as XML character data: each control character, which XML 1.0
    forbids even as a reference, as its Python escape, then &, < and > escaped."""
    from .report import printable  # not at module level: report loads inference, unused here
    return printable(name).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _data_ranges(panel: Panel) -> tuple[float, float, float, float]:
    ys = [y for y in (panel.line, *(panel.band or ()), panel.stems) if y is not None]
    if panel.stems is not None:
        ys.append(np.zeros(1))
    y_all = np.concatenate([*ys, np.array(panel.hlines, dtype=float)])
    y_all = y_all[~np.isnan(y_all)]
    x0, x1 = (0.0, float(panel.n - 1)) if panel.n > 1 else (-0.5, 0.5)
    y0, y1 = (float(y_all.min()), float(y_all.max())) if y_all.size else (0.0, 1.0)
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    return x0, x1, y0 - pad, y1 + pad


def _render_panel(panel: Panel, ox: float, oy: float, out: list[str]) -> None:
    x0, x1, y0, y1 = _data_ranges(panel)
    px0, px1 = ox + MARGIN_L, ox + PANEL_W - MARGIN_R
    py0, py1 = oy + PANEL_H - MARGIN_B, oy + MARGIN_T  # y axis points up
    xs = px0 + (np.arange(panel.n, dtype=float) - x0) / (x1 - x0) * (px1 - px0)

    def sy(y):
        return py0 + (np.asarray(y, dtype=float) - y0) / (y1 - y0) * (py1 - py0)

    out.append(f'<text x="{px0:.2f}" y="{oy + 14:.2f}" font-size="11" '
               f'font-family="sans-serif">{panel.title}</text>')
    out.append(f'<polyline fill="none" stroke="#333333" stroke-width="1" points="'  # axes
               f'{px0:.2f},{py1:.2f} {px0:.2f},{py0:.2f} {px1:.2f},{py0:.2f}"/>')
    for val, x, y, anchor in ((y1, px0 - 3, py1 + 4, "end"), (y0, px0 - 3, py0, "end"),
                              (x0, px0, py0 + 12, "middle"), (x1, px1, py0 + 12, "middle")):
        out.append(f'<text x="{x:.2f}" y="{y:.2f}" font-size="9" text-anchor="{anchor}" '
                   f'font-family="sans-serif">{val:.4g}</text>')

    if panel.band is not None:
        lo, hi = panel.band
        keep = ~(np.isnan(lo) | np.isnan(hi))
        bx, by = xs[keep], np.concatenate((hi[keep], lo[keep][::-1]))
        poly = _points(np.concatenate((bx, bx[::-1])), sy(by))
        out.append(f'<polygon fill="{BAND_COLOR}" fill-opacity="0.45" points="{poly}"/>')

    for yy in map(float, sy(panel.hlines)):
        out.append(f'<line x1="{px0:.2f}" y1="{yy:.2f}" x2="{px1:.2f}" y2="{yy:.2f}" '
                   f'stroke="{GUIDE_COLOR}" stroke-width="1" stroke-dasharray="4,3"/>')

    if panel.stems is not None:
        stem = (f'<line x1="%.2f" y1="{float(sy(0.0)):.2f}" x2="%.2f" y2="%.2f" '
                f'stroke="{LINE_COLOR}" stroke-width="1.5"/>')
        coords = np.column_stack((xs, xs, sy(panel.stems))).ravel().tolist()
        out.append("\n".join([stem] * panel.n) % tuple(coords))

    if panel.line is not None:
        keep = ~np.isnan(panel.line)
        out.append(f'<polyline fill="none" stroke="{LINE_COLOR}" stroke-width="1.3" '
                   f'points="{_points(xs[keep], sy(panel.line[keep]))}"/>')


def render_grid(panels: list[Panel], n_cols: int) -> str:
    """Lay panels out row-major in a grid and return the SVG document."""
    n_rows = (len(panels) + n_cols - 1) // n_cols
    width, height = n_cols * PANEL_W, n_rows * PANEL_H
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for idx, panel in enumerate(panels):
        _render_panel(panel, (idx % n_cols) * PANEL_W, (idx // n_cols) * PANEL_H, out)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def decomposition_figure(observed: np.ndarray, dec: Decomposition) -> str:
    """Four stacked panels: observed, trend, seasonal, residual."""
    observed = np.asarray(observed, dtype=float)
    n = observed.size
    panels = [
        Panel("observed", n, line=observed),
        Panel(f"trend (window {dec.period})", n, line=dec.trend),
        Panel(f"seasonal (period {dec.period})", n, line=dec.seasonal),
        Panel("residual", n, line=dec.residual, hlines=(0.0,)),
    ]
    return render_grid(panels, n_cols=1)


def pacf_figure(res: PacfResult) -> str:
    """Stem plot of partial autocorrelations with the white-noise band."""
    panel = Panel("partial autocorrelation", res.values.size, stems=res.values,
                  hlines=(res.band, 0.0, -res.band))
    return render_grid([panel], n_cols=1)


def irf_figure(res: IrfResult) -> str:
    """K x K grid; the panel in row i, column j shows the response of
    variable i to an impulse in variable j, with shaded bands."""
    names, k = [_text(name) for name in res.var_names], len(res.var_names)
    panels = [
        Panel(f"{names[j]} &#8594; {names[i]}", res.horizon + 1, line=res.responses[:, i, j],
              band=(res.lower[:, i, j], res.upper[:, i, j]), hlines=(0.0,))
        for i in range(k) for j in range(k)
    ]
    return render_grid(panels, n_cols=k)
