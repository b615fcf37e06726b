"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data or numeric error.  Diagnostics
go to stderr.  Every subcommand is deterministic for fixed inputs, flags,
and seed.

One output rule: each subcommand writes one document, which ends in a
newline, to stdout (no ``-o``, or ``-o -``) or to the ``-o`` path;
``--json`` swaps the text document for its JSON view.  ``fit`` prints its
coefficient report, and ``fit -o -`` (or ``--json``) prints the model
document instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from reprlib import repr as brief

import numpy as np

from . import __version__, frame as fr, inference, irf as irf_mod, report, simulate, stationarity, svgplot, var
from ._util import write_text
from .errors import SleepVarError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: {message}")


def _os_error(exc: OSError) -> str:
    """``str(exc)`` with the file names it echoes cut by ``reprlib.repr``."""
    if exc.strerror is None:
        return str(exc)
    names = " -> ".join(brief(name) for name in (exc.filename, exc.filename2) if name is not None)
    return f"[Errno {exc.errno}] {exc.strerror}" + (f": {names}" if names else "")


def _sink(out: str | None):
    return sys.stdout if out is None or out == "-" else out


def _emit(text: str, out: str | None) -> None:
    """Write one document to stdout or the path ``out``, ending it in a newline."""
    write_text(_sink(out), text if text.endswith("\n") else text + "\n")


def _show(args, result, text, view) -> None:
    """Emit ``result`` as JSON (``view(result)``) under ``--json``, else as ``text(result)``."""
    _emit(json.dumps(view(result), indent=2) if args.json else text(result), args.output)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _series(args) -> np.ndarray:
    """The ``--column`` of the frame at ``args.frame``, or its only column."""
    frame = fr.read_frame_csv(args.frame)
    if args.column is None and frame.n_vars != 1:
        raise _UsageError(f"--column is required (frame has {brief(frame.names)})")
    return frame.column(frame.names[0] if args.column is None else args.column)


def _cmd_ingest(args) -> int:
    frames = []
    if args.oura:
        frames.append(fr.ingest_sleep(args.oura))
    if args.emood:
        frames.append(fr.ingest_mood(args.emood, absent_as_zero=args.absent_as_zero))
    if not frames:
        raise _UsageError("ingest: provide --oura and/or --emood")
    merged = fr.merge(frames)
    if args.impute != "none":
        before = int(np.isnan(merged.values).sum())
        merged = fr.impute(merged, policy=args.impute, max_gap=args.max_gap)
        after = int(np.isnan(merged.values).sum())
        _note(
            f"imputed {before - after} missing cell(s) with policy={args.impute} "
            f"max_gap={args.max_gap}; {after} remain missing"
        )
    fr.write_frame_csv(merged, _sink(args.output))
    return 0


def _cmd_describe(args) -> int:
    frame = fr.read_frame_csv(args.frame)
    names = list(frame.names) if args.column is None else [args.column]
    _show(
        args,
        {name: fr.describe(frame, name) for name in names},
        lambda stats: "\n\n".join(
            f"{report.printable(name)}\n{report.format_summary(s)}" for name, s in stats.items()
        ),
        lambda stats: {name: dataclasses.asdict(s) for name, s in stats.items()},
    )
    return 0


def _cmd_adf(args) -> int:
    regression = "constant_and_trend" if args.trend else "constant"
    res = stationarity.adf_test(_series(args), regression=regression, max_lag=args.maxlag)
    _show(args, res, report.format_adf, dataclasses.asdict)
    return 0


def _cmd_decompose(args) -> int:
    series = _series(args)
    dec = stationarity.classical_decompose(series, period=args.period)
    _show(
        args,
        dec,
        lambda d: report.decomposition_csv(series, d),
        lambda d: report.decomposition_dict(series, d),
    )
    if args.svg:
        _emit(svgplot.decomposition_figure(series, dec), args.svg)
    return 0


def _cmd_pacf(args) -> int:
    series = _series(args)
    n_lags = args.nlags if args.nlags is not None else max(0, min(40, series.size // 2 - 1))
    res = stationarity.pacf(series, n_lags)
    _show(args, res, report.pacf_csv, report.pacf_dict)
    if args.svg:
        _emit(svgplot.pacf_figure(res), args.svg)
    return 0


def _cmd_select_order(args) -> int:
    frame = fr.read_frame_csv(args.frame)
    sel = var.select_order(frame, args.maxlags, override=args.override)
    _show(args, sel, report.format_order_selection, report.order_selection_dict)
    return 0


def _cmd_fit(args) -> int:
    frame = fr.read_frame_csv(args.frame)
    fit = var.fit_var(frame, args.lags)
    if args.output and args.output != "-":
        var.save_model(fit, args.output)
        _note(f"model written to {args.output}")
    if args.json or args.output == "-":
        var.save_model(fit, sys.stdout)
    else:
        _emit(report.format_fit_report(fit), None)
    return 0


def _cmd_granger(args) -> int:
    fit = var.load_model(args.model)
    if args.caused:
        results = [inference.granger_test(fit, args.causing, args.caused, alpha=args.alpha)]
    else:
        results = inference.granger_all_pairs(fit, args.causing, alpha=args.alpha)
    _show(args, results, report.format_granger_table,
          lambda rs: [dataclasses.asdict(r) for r in rs])
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
    _show(args, res, report.irf_csv, report.irf_dict)
    if args.svg:
        _emit(svgplot.irf_figure(res), args.svg)
    return 0


def _cmd_simulate(args) -> int:
    spec = simulate.load_process_spec(args.spec)
    sim = simulate.simulate_var(spec, args.t, args.seed)
    fr.write_frame_csv(sim, _sink(args.output))
    return 0


@functools.cache  # parse_args leaves the parser as built, so one serves every main() call
def _build_parser() -> _Parser:
    parser = _Parser(prog="sleepvar", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sleepvar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def shared(*names, **kwargs) -> argparse.ArgumentParser:
        """A parent parser holding the one argument ``names``, for subparsers to list."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    output, as_json = shared("-o", "--output"), shared("--json", action="store_true")
    frame, model, column = shared("frame"), shared("model"), shared("--column")

    p = sub.add_parser("ingest", help="read sleep/mood CSVs, align, impute, write a merged frame",
                       parents=[output])
    p.add_argument("--oura", help="sleep export CSV (date,score)")
    p.add_argument("--emood", help="mood log CSV (date,depressed,anxious,irritable,elevated)")
    p.add_argument("--impute", choices=fr.IMPUTE_POLICIES, default=fr.DEFAULT_IMPUTE_POLICY)
    p.add_argument("--max-gap", type=int, default=fr.DEFAULT_MAX_GAP)
    p.add_argument("--absent-as-zero", action=argparse.BooleanOptionalAction, default=True,
                   help="treat mood days absent from the log as 0 (not present)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("describe", help="summary statistics of frame columns",
                       parents=[frame, column, as_json, output])
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("adf", help="augmented Dickey-Fuller unit-root test",
                       parents=[frame, column, as_json, output])
    p.add_argument("--trend", action="store_true", help="include a linear trend term")
    p.add_argument("--maxlag", type=int, default=None)
    p.set_defaults(func=_cmd_adf)

    p = sub.add_parser("decompose", help="classical trend/seasonal/residual decomposition",
                       parents=[frame, column, as_json, output])
    p.add_argument("--period", type=int, default=7)
    p.add_argument("--svg", help="also write an SVG figure to this path")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("pacf", help="partial autocorrelation function",
                       parents=[frame, column, as_json, output])
    p.add_argument("--nlags", type=int, default=None)
    p.add_argument("--svg", help="also write an SVG stem plot to this path")
    p.set_defaults(func=_cmd_pacf)

    p = sub.add_parser("select-order", help="information-criteria table over lag orders",
                       parents=[frame, as_json, output])
    p.add_argument("--maxlags", type=int, default=15)
    p.add_argument("--override", type=int, default=None,
                   help="pin the selected lag instead of the AIC argmin")
    p.set_defaults(func=_cmd_select_order)

    # fit declares its own --json and -o: both select the model document
    p = sub.add_parser("fit", help="estimate a VAR(p) and print the coefficient report",
                       parents=[frame])
    p.add_argument("--lags", type=int, required=True)
    p.add_argument("--json", action="store_true", help="print the model document instead")
    p.add_argument("-o", "--output", help="write the model JSON here ('-': to stdout, instead of the report)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("granger", help="Granger causality tests from a saved model",
                       parents=[model, as_json, output])
    p.add_argument("--causing", required=True)
    p.add_argument("--caused", help="test a single outcome instead of all pairs")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_granger)

    p = sub.add_parser("irf", help="impulse responses with bootstrap bands",
                       parents=[model, as_json, output])
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--replications", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-orth", action="store_true", help="plain (non-orthogonalized) impulses")
    p.add_argument("--empirical", action="store_true", help="resample residual rows")
    p.add_argument("--svg", help="also write the response-grid SVG here")
    p.set_defaults(func=_cmd_irf)

    p = sub.add_parser("simulate", help="sample a VAR process from a spec document", parents=[output])
    p.add_argument("--spec", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
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
        print(f"error: {_os_error(exc)}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
