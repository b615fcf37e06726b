"""One benchmark child process: set up, run one workload, print one JSON line.

The parent fixes the BLAS thread environment before this process starts,
so numpy is imported under the workload's setting.  Set-up is exactly
``import sleepvar, sleepvar.cli``: nothing else is imported before it, so
whatever sleepvar loads (numpy, scipy) is what set-up costs.  With
``--probe`` the process only sets up and exits.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
           --trace 0|1 --tmp DIR [--spans FILE]
       python3 perfbench/worker.py --probe
"""

import time

import sleepvar  # noqa: E402,F401
import sleepvar.cli  # noqa: E402,F401

READY = time.monotonic()  # CLOCK_MONOTONIC: comparable with the parent's clock

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import sleepvar as sv  # noqa: E402
from sleepvar.linalg import cholesky_lower, solve_least_squares  # noqa: E402
from sleepvar.simulate import DEFAULT_BURN_IN, iterate_paths, substream  # noqa: E402

from tracer import Tracer, group_time, self_times  # noqa: E402
from workloads import KINDS, PIPELINE_REPLICATIONS, Ops, UnitFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Per-layer times read from spans: metric -> (span names, divisor span, scale).
# A name ending in "." covers a whole module; the divisor defaults to the
# number of outermost spans of the group, so each value is a time per call.
LAYER_SPANS = {
    **{f"cli.{sub}_ms": ((f"cli.{sub}",), None, 1e3) for sub in (
        "ingest", "describe", "adf", "decompose", "pacf", "select-order", "fit", "granger", "irf")},
    "frame.ingest_ms": (("frame.ingest_sleep", "frame.ingest_mood", "frame.merge", "frame.impute"),
                        "frame.ingest_sleep", 1e3),
    "frame.csv_write_ms": (("frame.write_frame_csv",), None, 1e3),
    "frame.csv_read_ms": (("frame.read_frame_csv",), None, 1e3),
    "stationarity.adf_ms": (("stationarity.adf_test",), None, 1e3),
    "stationarity.decompose_ms": (("stationarity.classical_decompose",), None, 1e3),
    "stationarity.pacf_ms": (("stationarity.pacf",), None, 1e3),
    "var.select_order_ms": (("var.select_order",), None, 1e3),
    "var.fit_ms": (("var.fit_var",), None, 1e3),
    "var.model_save_ms": (("var.save_model",), None, 1e3),
    "var.model_load_ms": (("var.load_model",), None, 1e3),
    "inference.granger_ms": (("inference.granger_test",), None, 1e3),
    "irf.bands_s": (("irf.irf_with_bands",), None, 1.0),
    "simulate.iterate_paths_ms": (("simulate.iterate_paths",), None, 1e3),
    "svgplot.figures_ms": (("svgplot.",), None, 1e3),
    "report.render_ms": (("report.",), None, 1e3),
}
MODULES = ("cli", "frame", "stationarity", "var", "linalg", "inference", "irf",
           "simulate", "report", "svgplot")


def run_loop(workload, ops: Ops, seconds: float, tracer: Tracer | None):
    """Closed loop with one caller, for ``seconds``.  With a tracer, every
    other unit is traced, and there are at least two units.  Inputs are
    prepared outside the timer.  No unit starts that would, at the median
    pace so far, end after ``seconds``, so a run lasts at most about
    ``seconds``.  Returns the latencies of untraced and traced units, and
    the sub-latencies (sessions) of untraced units."""
    plain, traced, parts, paces = [], [], [], []
    least = 2 if tracer else 1
    start = time.perf_counter()
    i = 0
    while i < least or time.perf_counter() - start + statistics.median(paces) < seconds:
        began = time.perf_counter()
        inputs = workload.prepare(i)
        trace = tracer is not None and i % 2 == 1
        record = tracer.recording(i) if trace else contextlib.nullcontext()
        span = tracer.span if trace else _no_span
        t = time.perf_counter()
        try:
            with record:
                sub = workload.unit(inputs, ops, span)
        except UnitFailed:
            pass
        else:
            (traced if trace else plain).append(time.perf_counter() - t)
            if sub and not trace:
                parts.extend(sub)
        paces.append(time.perf_counter() - began)
        i += 1
    return plain, traced, parts


def _no_span(name):
    return contextlib.nullcontext()


def layer_metrics(spans: list, n_units: int, counts: dict) -> dict:
    """Per-layer values that one source of spans and counts reaches."""
    out = {}
    for metric, (names, per, scale) in LAYER_SPANS.items():
        total, calls = group_time(spans, names, per)
        if calls:
            out[metric] = total / calls * scale
    for module, seconds in self_times(spans).items():
        if module in MODULES and n_units:
            out[f"self.{module}_ms"] = seconds / n_units * 1e3
    for metric, values in counts.items():
        if values:
            out[metric] = statistics.fmean(values)
    return out


def coverage_pass(workload, root: Path, tmp: Path, seed: int, ops: Ops, tracer: Tracer):
    """One small traced unit of every other workload, under this process's
    threads, so that layers this workload never reaches are still timed.
    Returns the per-layer values and the names of the counts among them."""
    first = len(tracer.spans)
    others = [cls(root, tmp, seed) for kind, cls in KINDS.items() if kind != workload.kind]
    for unit_id, other in enumerate(others, start=1_000_000):
        try:
            with tracer.recording(unit_id):
                other.unit(other.coverage_inputs(), ops, tracer.span)
        except UnitFailed:
            pass
    counts = {}
    for other in others:
        counts.update(other.counts)
    spans = [[n, s, e, p - first if p >= 0 else -1, u] for n, s, e, p, u in tracer.spans[first:]]
    return layer_metrics(spans, 1, counts), set(counts)


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t, out


def _repeat(fn, budget: float = 0.5, most: int = 200) -> float:
    """Median seconds of ``fn()`` over up to ``most`` calls in about ``budget`` s."""
    samples, start = [], time.perf_counter()
    while len(samples) < most and (len(samples) < 5 or time.perf_counter() - start < budget):
        samples.append(_timed(fn)[0])
    return statistics.median(samples)


def replay(root: Path, seed: int) -> dict:
    """The bootstrap split into the public calls it is built from, replayed
    untraced on the pipeline's shapes (bundled data, VAR(2), B replications),
    plus the two least-squares shapes that matter most."""
    frame = sv.impute(sv.merge([sv.ingest_sleep(root / "data" / "sleep.csv"),
                                sv.ingest_mood(root / "data" / "mood.csv")]))
    fit = sv.fit_var(frame, 2)
    k, p, b, horizon = fit.n_vars, fit.p, PIPELINE_REPLICATIONS, 10
    n_steps = DEFAULT_BURN_IN + fit.t_eff
    chol = cholesky_lower(fit.sigma_u)
    mean = np.linalg.solve(np.eye(k) - fit.coef.sum(axis=0), fit.intercept)

    def draw():
        return np.stack([substream(seed, r + 1).standard_normal((n_steps, k)) @ chol.T
                         for r in range(b)])

    t_draws, shocks = _timed(draw)
    t_paths, paths = _timed(iterate_paths, fit.intercept, fit.coef, shocks, mean)
    paths = paths[:, DEFAULT_BURN_IN:, :]
    n = fit.t_eff - p
    designs = np.empty((b, n, k * p + 1))
    designs[:, :, 0] = 1.0
    for lag in range(1, p + 1):
        designs[:, :, 1 + (lag - 1) * k: 1 + lag * k] = paths[:, p - lag: fit.t_eff - lag]

    def refit():
        for r in range(b):
            _, resid, _ = solve_least_squares(designs[r], paths[r, p:])
            cholesky_lower(resid.T @ resid / (n - k * p - 1))

    t_refit, _ = _timed(refit)
    draws = np.random.Generator(np.random.Philox(key=[seed, 1])).standard_normal((b, horizon + 1, k, k))
    t_quant, _ = _timed(np.quantile, draws, [0.025, 0.975], 0)

    x_refit, y_refit = sv.build_lagged_design(frame, p)
    x_order, y_order = sv.build_lagged_design(frame, 15)
    return {
        "irf.replay.shock_draws_ms": t_draws * 1e3,
        "irf.replay.paths_ms": t_paths * 1e3,
        "irf.replay.refit_ms": t_refit * 1e3,
        "irf.replay.quantiles_ms": t_quant * 1e3,
        "linalg.lstsq_refit_us": _repeat(lambda: solve_least_squares(x_refit, y_refit)) * 1e6,
        "linalg.lstsq_order_ms": _repeat(lambda: solve_least_squares(x_order, y_order)) * 1e3,
    }


def p50_and_tail(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    out = {"p50_ms": statistics.median(xs) * 1e3, "samples": n}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(n * pct / 100)  # nearest-rank percentile
        if n - rank >= 10:
            out.update(tail_pct=pct, tail_ms=xs[rank - 1] * 1e3)
            break
    return out


def units_per_s(latencies: list[float]) -> float:
    """Units completed per second spent inside units, over the middle half
    of the units by latency (all of them when there are fewer than four),
    so that one stalled unit does not move it."""
    xs = sorted(latencies)
    q = len(xs) // 4
    middle = xs[q:len(xs) - q]
    return len(middle) / sum(middle)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),  # without importing it
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "sleepvar": sv.__version__,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(KINDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, help="scratch directory for the run's files")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()
    result = {"ready": READY}
    if args.probe:
        print(json.dumps(result))
        return

    workload = KINDS[args.workload](ROOT, args.tmp, args.seed)
    ops = Ops()
    tracer = Tracer(str(ROOT / "src" / "sleepvar")) if args.trace else None
    plain, traced, parts = run_loop(workload, ops, args.seconds, tracer)
    result.update(
        environment=environment(),
        units=len(plain),
        latency=p50_and_tail(plain) if plain else {},
        latencies_ms=[x * 1e3 for x in plain],
        part_latency=p50_and_tail(parts) if parts else {},
        units_per_s=units_per_s(plain) if plain else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        loop = layer_metrics(tracer.spans, len(traced), workload.counts)
        covered, covered_counts = coverage_pass(workload, ROOT, args.tmp, args.seed, ops, tracer)
        replayed = replay(ROOT, args.seed)
        layers = {**covered, **loop, **replayed}
        source = {m: "workload" if m in loop else "coverage" for m in {**covered, **loop}}
        for m in source.keys() & (workload.counts.keys() | covered_counts):
            source[m] = f"computed from {source[m]} inputs"
        source.update(dict.fromkeys(replayed, "replay"))
        if plain and traced:
            layers["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1) * 100
            source["trace.overhead_pct"] = "workload, traced against untraced units"
        result.update(layers=layers, layer_source=source, traced_units=len(traced),
                      traced_p50_ms=statistics.median(traced) * 1e3 if traced else None)
        with open(args.spans, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    result.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors)
    if workload.kind == "pipeline":
        result.update(model=str(workload.model), irf_csv=str(workload.irf_csv),
                      replications=PIPELINE_REPLICATIONS)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
