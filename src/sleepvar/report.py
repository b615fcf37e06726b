"""Plain-text tables, tidy CSV, and JSON views of analysis results.

Formatting conventions: selection criteria print with 4 significant digits,
coefficients and their standard errors with 6 decimals, test statistics and
p-values with 3 decimals.  All output is deterministic.

Only results that need reshaping have a JSON view here.  The JSON of a flat
result (``SummaryStats``, ``AdfResult``, ``GrangerResult``) is
``dataclasses.asdict``, so its field order is the key order of the document.
"""

from __future__ import annotations

import numpy as np

from .frame import SummaryStats
from .inference import GrangerResult
from .irf import IrfResult
from .stationarity import AdfResult, Decomposition, PacfResult
from .var import CRITERIA, OrderSelection, VarFit, stack_params


def _table(rows: list[list[str]], align: str = "r", pad: int = 2) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    out = []
    for r in rows:
        cells = []
        for c, cell in enumerate(r):
            cells.append(cell.ljust(widths[c]) if align == "l" or c == 0 else cell.rjust(widths[c]))
        out.append((" " * pad).join(cells).rstrip())
    return "\n".join(out)


def format_summary(stats: SummaryStats) -> str:
    rows = [
        ["Total", str(stats.total)],
        ["Missing", str(stats.missing)],
        ["Mean", f"{stats.mean:.2f}"],
        ["SD", f"{stats.sd:.2f}"],
        ["Max", f"{stats.max:.2f}"],
        ["Min", f"{stats.min:.2f}"],
    ]
    return _table(rows)


def format_adf(res: AdfResult) -> str:
    crit = "   ".join(f"{k}: {v:.3f}" for k, v in res.critical_values.items())
    rows = [
        ["ADF statistic", f"{res.statistic:.3f}"],
        ["p-value", f"{res.p_value:.3f}"],
        ["used lag", str(res.used_lag)],
        ["n obs", str(res.n_obs)],
        ["critical values", crit],
        ["regression", res.regression],
    ]
    return _table(rows, align="l")


def format_order_selection(sel: OrderSelection) -> str:
    header = [""] + [c.upper() for c in CRITERIA]
    rows = [header]
    for lag in range(sel.max_lags + 1):
        row = [str(lag)]
        for i, c in enumerate(CRITERIA):
            mark = "*" if sel.minima[c] == lag else ""
            row.append(f"{sel.table[lag, i]:.4g}{mark}")
        rows.append(row)
    footer = f"\nselected lag: {sel.selected} ({sel.selection_rule})"
    return _table(rows) + footer


def order_selection_dict(sel: OrderSelection) -> dict:
    return {
        "max_lags": sel.max_lags,
        "criteria": list(CRITERIA),
        "table": {str(lag): {c: float(sel.table[lag, i]) for i, c in enumerate(CRITERIA)}
                  for lag in range(sel.max_lags + 1)},
        "minima": dict(sel.minima),
        "selected": sel.selected,
        "selection_rule": sel.selection_rule,
    }


def format_fit_report(fit: VarFit) -> str:
    labels = fit.lag_labels()
    params = fit.params_matrix()
    se = stack_params(fit.intercept_se, fit.coef_se)
    tt = stack_params(fit.intercept_t, fit.coef_t)
    pp = stack_params(fit.intercept_p, fit.coef_p)

    blocks = [
        f"VAR({fit.p}) estimation, {fit.n_vars} variable(s), {fit.t_eff} observations"
    ]
    for i, name in enumerate(fit.var_names):
        rows = [["", "coefficient", "std. error", "t-stat", "prob"]]
        for a, label in enumerate(labels):
            rows.append([
                label,
                f"{params[a, i]:.6f}",
                f"{se[a, i]:.6f}",
                f"{tt[a, i]:.3f}",
                f"{pp[a, i]:.3f}",
            ])
        table = _table(rows)
        rule = "-" * max(len(line) for line in table.splitlines())
        blocks.append(f"Results for equation {name}\n{rule}\n{table}")
    return "\n\n".join(blocks)


def format_granger_table(results: list[GrangerResult]) -> str:
    rows = [["Causal Variable", "Variable", "Test statistic", "Critical value", "p-value", "df"]]
    for r in results:
        rows.append([
            ",".join(r.causing),
            ",".join(r.caused),
            f"{r.statistic:.3f}",
            f"{r.critical_value:.3f}",
            f"{r.p_value:.3f}",
            f"({r.df_num}, {r.df_den})",
        ])
    return _table(rows, align="l")


def decomposition_dict(observed: np.ndarray, dec: Decomposition) -> dict:
    def cells(a: np.ndarray) -> list:
        return [None if np.isnan(v) else float(v) for v in a]

    return {
        "period": dec.period,
        "observed": cells(observed),
        "trend": cells(dec.trend),
        "seasonal": cells(dec.seasonal),
        "residual": cells(dec.residual),
    }


def pacf_dict(res: PacfResult) -> dict:
    return {"values": [float(v) for v in res.values], "band": float(res.band)}


def decomposition_csv(observed: np.ndarray, dec: Decomposition) -> str:
    def cell(v: float) -> str:
        return "" if np.isnan(v) else repr(float(v))

    lines = ["index,observed,trend,seasonal,residual"]
    for i in range(observed.size):
        lines.append(
            f"{i},{cell(observed[i])},{cell(dec.trend[i])},"
            f"{cell(dec.seasonal[i])},{cell(dec.residual[i])}"
        )
    return "\n".join(lines) + "\n"


def pacf_csv(res: PacfResult) -> str:
    lines = ["lag,pacf,band"]
    for lag, v in enumerate(res.values):
        lines.append(f"{lag},{float(v)!r},{float(res.band)!r}")
    return "\n".join(lines) + "\n"


def irf_csv(res: IrfResult) -> str:
    lines = ["horizon,impulse,response,estimate,lower,upper"]
    for h in range(res.horizon + 1):
        for j, impulse in enumerate(res.var_names):
            for i, response in enumerate(res.var_names):
                lines.append(
                    f"{h},{impulse},{response},{float(res.responses[h, i, j])!r},"
                    f"{float(res.lower[h, i, j])!r},{float(res.upper[h, i, j])!r}"
                )
    return "\n".join(lines) + "\n"


def irf_dict(res: IrfResult) -> dict:
    return {
        "horizon": res.horizon,
        "level": res.level,
        "replications": res.replications,
        "seed": res.seed,
        "orthogonalized": res.orthogonalized,
        "var_names": list(res.var_names),
        "responses": res.responses.tolist(),
        "lower": res.lower.tolist(),
        "upper": res.upper.tolist(),
    }
