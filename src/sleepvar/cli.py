"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data or numeric error.  Results go
to stdout or the ``-o`` path; diagnostics go to stderr.  Every subcommand
is deterministic for fixed inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import __version__, frame as fr, inference, irf as irf_mod, report, simulate, stationarity, svgplot, var
from ._util import write_text
from .errors import SleepVarError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: {message}")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        write_text(out, text)


def _emit_json(doc, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", out)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _load_frame(path: str) -> fr.SeriesFrame:
    return fr.read_frame_csv(path)


def _pick_column(frame: fr.SeriesFrame, column: str | None) -> str:
    if column is not None:
        frame.index_of(column)  # validate
        return column
    if frame.n_vars == 1:
        return frame.names[0]
    raise _UsageError(f"--column is required (frame has {frame.names})")


def _cmd_ingest(args) -> int:
    frames = []
    if args.oura:
        frames.append(fr.ingest_sleep(args.oura))
    if args.emood:
        frames.append(fr.ingest_mood(args.emood, absent_as_zero=args.absent_as_zero))
    if not frames:
        raise _UsageError("ingest: provide --oura and/or --emood")
    merged = fr.merge(frames) if len(frames) > 1 else frames[0]
    if args.impute != "none":
        before = int(np.isnan(merged.values).sum())
        merged = fr.impute(merged, policy=args.impute, max_gap=args.max_gap)
        after = int(np.isnan(merged.values).sum())
        _note(
            f"imputed {before - after} missing cell(s) with policy={args.impute} "
            f"max_gap={args.max_gap}; {after} remain missing"
        )
    buf = io.StringIO()
    fr.write_frame_csv(merged, buf)
    _emit(buf.getvalue(), args.output)
    return 0


def _cmd_describe(args) -> int:
    frame = _load_frame(args.frame)
    names = [args.column] if args.column else list(frame.names)
    stats = {name: fr.describe(frame, name) for name in names}
    if args.json:
        _emit_json({name: report.summary_dict(s) for name, s in stats.items()}, args.output)
    else:
        blocks = [f"{name}\n{report.format_summary(s)}" for name, s in stats.items()]
        _emit("\n\n".join(blocks) + "\n", args.output)
    return 0


def _cmd_adf(args) -> int:
    frame = _load_frame(args.frame)
    name = _pick_column(frame, args.column)
    regression = "constant_and_trend" if args.trend else "constant"
    res = stationarity.adf_test(frame.column(name), regression=regression, max_lag=args.maxlag)
    if args.json:
        _emit_json(report.adf_dict(res), args.output)
    else:
        _emit(report.format_adf(res) + "\n", args.output)
    return 0


def _cmd_decompose(args) -> int:
    frame = _load_frame(args.frame)
    name = _pick_column(frame, args.column)
    series = frame.column(name)
    dec = stationarity.classical_decompose(series, period=args.period)
    if args.json:
        _emit_json(report.decomposition_dict(series, dec), args.output)
    else:
        _emit(report.decomposition_csv(series, dec), args.output)
    if args.svg:
        _emit(svgplot.decomposition_figure(series, dec), args.svg)
    return 0


def _cmd_pacf(args) -> int:
    frame = _load_frame(args.frame)
    name = _pick_column(frame, args.column)
    series = frame.column(name)
    n_lags = args.nlags if args.nlags is not None else min(40, series.size // 2 - 1)
    res = stationarity.pacf(series, n_lags)
    if args.json:
        _emit_json(report.pacf_dict(res), args.output)
    else:
        _emit(report.pacf_csv(res), args.output)
    if args.svg:
        _emit(svgplot.pacf_figure(res), args.svg)
    return 0


def _cmd_select_order(args) -> int:
    frame = _load_frame(args.frame)
    sel = var.select_order(frame, args.maxlags, override=args.override)
    if args.json:
        _emit_json(report.order_selection_dict(sel), args.output)
    else:
        _emit(report.format_order_selection(sel) + "\n", args.output)
    return 0


def _cmd_fit(args) -> int:
    frame = _load_frame(args.frame)
    fit = var.fit_var(frame, args.lags)
    if args.output:
        var.save_model(fit, args.output)
        _note(f"model written to {args.output}")
    if args.json:
        var.save_model(fit, sys.stdout)
    else:
        sys.stdout.write(report.format_fit_report(fit) + "\n")
    return 0


def _cmd_granger(args) -> int:
    fit = var.load_model(args.model)
    if args.caused:
        results = [inference.granger_test(fit, args.causing, args.caused, alpha=args.alpha)]
    else:
        results = inference.granger_all_pairs(fit, args.causing, alpha=args.alpha)
    if args.json:
        _emit_json([report.granger_dict(r) for r in results], args.output)
    else:
        _emit(report.format_granger_table(results) + "\n", args.output)
    return 0


def _cmd_irf(args) -> int:
    fit = var.load_model(args.model)
    res = irf_mod.irf_with_bands(
        fit,
        horizon=args.horizon,
        level=args.level,
        replications=args.replications,
        seed=args.seed,
        orthogonalized=not args.no_orth,
        innovations="empirical" if args.empirical else "gaussian",
    )
    if args.json:
        _emit_json(report.irf_dict(res), args.output)
    else:
        _emit(report.irf_csv(res), args.output)
    if args.svg:
        _emit(svgplot.irf_figure(res), args.svg)
    return 0


def _cmd_simulate(args) -> int:
    spec = simulate.load_process_spec(args.spec)
    sim = simulate.simulate_var(spec, args.t, args.seed)
    buf = io.StringIO()
    fr.write_frame_csv(sim, buf)
    _emit(buf.getvalue(), args.output)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sleepvar", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sleepvar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="read sleep/mood CSVs, align, impute, write a merged frame")
    p.add_argument("--oura", help="sleep export CSV (date,score)")
    p.add_argument("--emood", help="mood log CSV (date,depressed,anxious,irritable,elevated)")
    p.add_argument("--impute", choices=fr.IMPUTE_POLICIES, default=fr.DEFAULT_IMPUTE_POLICY)
    p.add_argument("--max-gap", type=int, default=fr.DEFAULT_MAX_GAP)
    p.add_argument("--absent-as-zero", action=argparse.BooleanOptionalAction, default=True,
                   help="treat mood days absent from the log as 0 (not present)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("describe", help="summary statistics of frame columns")
    p.add_argument("frame")
    p.add_argument("--column")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("adf", help="augmented Dickey-Fuller unit-root test")
    p.add_argument("frame")
    p.add_argument("--column")
    p.add_argument("--trend", action="store_true", help="include a linear trend term")
    p.add_argument("--maxlag", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_adf)

    p = sub.add_parser("decompose", help="classical trend/seasonal/residual decomposition")
    p.add_argument("frame")
    p.add_argument("--column")
    p.add_argument("--period", type=int, default=7)
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", help="also write an SVG figure to this path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("pacf", help="partial autocorrelation function")
    p.add_argument("frame")
    p.add_argument("--column")
    p.add_argument("--nlags", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", help="also write an SVG stem plot to this path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_pacf)

    p = sub.add_parser("select-order", help="information-criteria table over lag orders")
    p.add_argument("frame")
    p.add_argument("--maxlags", type=int, default=15)
    p.add_argument("--override", type=int, default=None,
                   help="pin the selected lag instead of the AIC argmin")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_select_order)

    p = sub.add_parser("fit", help="estimate a VAR(p) and print the coefficient report")
    p.add_argument("frame")
    p.add_argument("--lags", type=int, required=True)
    p.add_argument("--json", action="store_true", help="print the model document instead")
    p.add_argument("-o", "--output", help="write the model JSON here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("granger", help="Granger causality tests from a saved model")
    p.add_argument("model")
    p.add_argument("--causing", required=True)
    p.add_argument("--caused", help="test a single outcome instead of all pairs")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_granger)

    p = sub.add_parser("irf", help="impulse responses with bootstrap bands")
    p.add_argument("model")
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--replications", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-orth", action="store_true", help="plain (non-orthogonalized) impulses")
    p.add_argument("--empirical", action="store_true", help="resample residual rows")
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", help="also write the response-grid SVG here")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_irf)

    p = sub.add_parser("simulate", help="sample a VAR process from a spec document")
    p.add_argument("--spec", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("run 'sleepvar --help' for usage", file=sys.stderr)
        return 1
    except SleepVarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
