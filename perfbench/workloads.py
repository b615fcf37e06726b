"""The benchmark's workloads: seeded inputs, one timed unit, correctness checks.

Each workload is a closed loop with one caller.  ``prepare(i)`` builds the
inputs of unit ``i`` from the seed and is never timed; ``unit`` makes the
calls into sleepvar that are timed, and checks their outputs.  The
benchmark imports no scipy of its own, so that set-up time and memory
show only what sleepvar loads.  Every call and check goes through
:class:`Ops`, which counts attempted and failed operations.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sleepvar as sv
from sleepvar.cli import main as cli_main
from sleepvar.simulate import DEFAULT_BURN_IN

GOLDENS = {
    "select-order": "select_order_maxlags15.txt",
    "fit": "fit_report_p2.txt",
    "granger": "granger_score_all.txt",
}
# Bootstrap size of the pipeline workloads.  The README quickstart uses
# 1000; at default BLAS threads that is one 15 s sequence per run, too few
# samples for a steady median, so the workloads use 200.
PIPELINE_REPLICATIONS = 200


class UnitFailed(Exception):
    """An operation of the current unit failed; the unit is abandoned."""


class Ops:
    """Attempted and failed operations: calls into sleepvar and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any error fails the operation, not the run
            self._fail(f"{fn.__module__}.{fn.__qualname__}: {exc!r}")
            raise UnitFailed from exc

    def cli(self, span, argv: list[str]) -> str:
        """Run one CLI subcommand in-process; returns its stdout."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli_main(argv)
        except Exception as exc:  # a raw traceback is a failure of the contract
            self._fail(f"sleepvar {argv[0]} raised {exc!r}")
            raise UnitFailed from exc
        if code != 0:
            self._fail(f"sleepvar {argv[0]} exited {code}: {err.getvalue().strip()}")
            raise UnitFailed
        return out.getvalue()

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {what}")
        return ok


def adf_solves(t: int, regression: str = "constant") -> int:
    """Least-squares solves of one ADF call at the default lag bound.

    The bound is floor(12 (T/100)^(1/4)) capped at T//2 - ntrend - 1, as
    documented by ``adf_test``; the search solves every order 0..bound and
    the final regression once more.
    """
    ntrend = 1 if regression == "constant" else 2
    return min(int(12.0 * (t / 100.0) ** 0.25), t // 2 - ntrend - 1) + 2


class Workload:
    kind = ""

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.root, self.tmp, self.seed = root, tmp, seed
        # Per-unit work counts, computed from the inputs, by per-layer metric.
        self.counts: dict[str, list[float]] = defaultdict(list)

    def prepare(self, i: int):
        return i

    def coverage_inputs(self):
        """Inputs of one small unit, for a traced run of another workload."""
        return self.prepare(0)

    def unit(self, inputs, ops: Ops, span) -> list[float] | None:
        """One timed unit; may return the latencies of its parts."""
        raise NotImplementedError


class Pipeline(Workload):
    """The README quickstart on the bundled data, through ``sleepvar.cli.main``."""

    kind = "pipeline"

    def __init__(self, root, tmp, seed):
        super().__init__(root, tmp, seed)
        self.goldens = {
            sub: (root / "tests" / "golden" / name).read_text(encoding="utf-8")
            for sub, name in GOLDENS.items()
        }
        self.irf_csv = tmp / "irf.csv"
        self.model = tmp / "model.json"
        self.first_irf: bytes | None = None
        raw = sv.merge([sv.ingest_sleep(root / "data" / "sleep.csv"),
                        sv.ingest_mood(root / "data" / "mood.csv")])
        frame = sv.impute(raw)
        n, k = frame.n_obs, frame.n_vars
        array_bytes = PIPELINE_REPLICATIONS * (DEFAULT_BURN_IN + n - 2) * k * 8
        self.counts.update({
            "frame.rows": [n],
            "frame.imputed_cells": [int(np.isnan(raw.values).sum() - np.isnan(frame.values).sum())],
            "stationarity.adf_calls": [1],
            "stationarity.adf_solves": [adf_solves(n)],
            "var.select_order_solves": [15 + 1],
            "inference.tests": [k - 1],
            "irf.replications": [PIPELINE_REPLICATIONS],
            "irf.shocks_bytes": [array_bytes],
            "irf.paths_bytes": [array_bytes],
            "simulate.steps": [DEFAULT_BURN_IN + n - 2],
        })

    def unit(self, _, ops, span):
        data, tmp = self.root / "data", self.tmp
        merged = str(tmp / "merged.csv")

        def run(*argv):
            return ops.cli(span, [str(a) for a in argv])

        run("ingest", "--oura", data / "sleep.csv", "--emood", data / "mood.csv", "-o", merged)
        run("describe", merged, "-o", tmp / "describe.txt")
        run("adf", merged, "--column", "score", "-o", tmp / "adf.txt")
        run("decompose", merged, "--column", "score", "-o", tmp / "decomposition.csv",
            "--svg", tmp / "decomposition.svg")
        run("pacf", merged, "--column", "score", "-o", tmp / "pacf.csv", "--svg", tmp / "pacf.svg")
        stdout = {
            "select-order": run("select-order", merged, "--maxlags", 15),
            "fit": run("fit", merged, "--lags", 2, "-o", self.model),
            "granger": run("granger", self.model, "--causing", "score"),
        }
        run("irf", self.model, "--seed", self.seed, "--replications", PIPELINE_REPLICATIONS,
            "-o", self.irf_csv, "--svg", tmp / "irf.svg")
        for sub, text in stdout.items():
            ops.check(f"{sub} stdout matches tests/golden/{GOLDENS[sub]}", text == self.goldens[sub])
        irf = self.irf_csv.read_bytes()
        self.first_irf = self.first_irf or irf
        ops.check("IRF CSV bytes repeat within the run", irf == self.first_irf)


# --- explore: one analyst's exports per session -----------------------------

EXPLORE_NAMES = ("score",) + sv.MOOD_VARIABLES
PLANTED_P = 2
# One unit is a round of five sessions: every span (2 to 10 years), the
# order-search depth alternating between 30 and 15, so each unit holds the
# same mix of session sizes whatever its seed, and the median unit is not
# an order statistic that falls between two size classes.
EXPLORE_CLASSES = tuple(zip((730, 1460, 2190, 2920, 3650), (30, 15, 30, 15, 30)))


def _latent_coefficients() -> np.ndarray:
    """A stable K=5 VAR(2) whose lag-2 terms are strong enough that BIC
    recovers p=2 after the moods are cut to levels 0..3."""
    a1 = np.diag([0.35, 0.30, 0.30, 0.30, 0.25])
    a2 = np.diag([0.35, 0.35, 0.30, 0.35, 0.35])
    a2[1, 0] = -0.30               # poor sleep two nights back raises depression
    a1[2, 0], a2[2, 0] = -0.20, -0.20  # anxiety reacts at both lags
    return np.stack([a1, a2])


@dataclass
class Session:
    sleep: Path
    mood: Path
    frame: Path
    model: Path
    maxlags: int


def write_exports(rng: np.random.Generator, days: int, sleep: Path, mood: Path) -> None:
    """Sleep and mood CSV exports of one analyst: missing nights, sparse and
    repeated mood rows, as the two ingest schemas expect."""
    coef, k, burn = _latent_coefficients(), len(EXPLORE_NAMES), 100
    shocks = rng.standard_normal((burn + days, k))
    z = np.zeros((burn + days, k))
    for t in range(PLANTED_P, burn + days):
        z[t] = coef[0] @ z[t - 1] + coef[1] @ z[t - 2] + shocks[t]
    z = z[burn:]
    start = dt.date(2015, 1, 1) + dt.timedelta(days=int(rng.integers(0, 2000)))
    dates = [(start + dt.timedelta(days=i)).isoformat() for i in range(days)]

    score = np.clip(np.round(73.8 + 11.5 * z[:, 0] / z[:, 0].std()), 1, 100).astype(int)
    # Gaps of 1..3 nights, one per block of 8 nights at most, so forward
    # fill (max gap 3) closes every one; half are absent rows, half empty cells.
    gap_of = {}
    for block in rng.choice(np.arange(1, days // 8 - 1), size=days // 80, replace=False):
        first = 8 * int(block) + int(rng.integers(0, 4))
        absent = bool(rng.integers(0, 2))
        for i in range(first, first + int(rng.integers(1, 4))):
            gap_of[i] = absent
    lines = ["date,score"]
    for i, day in enumerate(dates):
        if i not in gap_of:
            lines.append(f"{day},{score[i]}")
        elif not gap_of[i]:
            lines.append(f"{day},")
    sleep.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cuts = np.quantile(z[:, 1:], [0.5, 0.75, 0.9], axis=0)
    levels = (z[:, 1:][None] > cuts[:, None, :]).sum(axis=0)
    lines = ["date," + ",".join(sv.MOOD_VARIABLES)]
    for i, day in enumerate(dates):
        row = levels[i]
        if not row.any() and i not in (0, days - 1):
            continue  # the export has no row for a day with no symptoms
        if row.any() and rng.random() < 0.2:  # a weaker entry logged the same day
            lines.append(f"{day}," + ",".join(str(max(v - 1, 0)) for v in row))
        lines.append(f"{day}," + ",".join(str(v) for v in row))
    mood.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Explore(Workload):
    """Repeated analysis sessions on generated exports, without a bootstrap."""

    kind = "explore"

    def _session(self, i: int, j: int) -> Session:
        days, maxlags = EXPLORE_CLASSES[j]
        rng = np.random.Generator(np.random.Philox(key=[self.seed, i * len(EXPLORE_CLASSES) + j]))
        s = Session(*(self.tmp / f"explore-{j}-{name}" for name in
                      ("sleep.csv", "mood.csv", "frame.csv", "model.json")), maxlags)
        write_exports(rng, days, s.sleep, s.mood)
        return s

    def prepare(self, i):
        return [self._session(i, j) for j in range(len(EXPLORE_CLASSES))]

    def coverage_inputs(self):
        return [self._session(0, 0)]  # the smallest session only

    def unit(self, sessions: list[Session], ops, span):
        latencies = []
        for s in sessions:
            t = time.perf_counter()
            self.session(s, ops)
            latencies.append(time.perf_counter() - t)
        return latencies

    def session(self, s: Session, ops: Ops) -> None:
        merged = ops.call(sv.merge, [ops.call(sv.ingest_sleep, s.sleep),
                                     ops.call(sv.ingest_mood, s.mood)])
        frame = ops.call(sv.impute, merged)
        ops.call(sv.write_frame_csv, frame, s.frame)
        back = ops.call(sv.read_frame_csv, s.frame)
        ops.check("frame CSV round trip is exact",
                  back.start_date == frame.start_date and back.names == frame.names
                  and np.array_equal(back.values, frame.values, equal_nan=True))
        for name in frame.names:
            for regression in ("constant", "constant_and_trend"):
                ops.call(sv.adf_test, frame.column(name), regression=regression)
        sel = ops.call(sv.select_order, frame, s.maxlags)
        bic = sel.minima["bic"]
        ops.check(f"BIC picks the planted lag {PLANTED_P} (got {bic})", bic == PLANTED_P)
        fit = ops.call(sv.fit_var, frame, bic)
        ops.call(sv.save_model, fit, s.model)
        loaded = ops.call(sv.load_model, s.model)
        ops.check("model round trip is exact", _fits_equal(fit, loaded))
        for name in fit.var_names:
            ops.call(sv.granger_all_pairs, fit, name)

        c = self.counts
        c["frame.rows"].append(frame.n_obs)
        c["frame.imputed_cells"].append(int(np.isnan(merged.values).sum() - np.isnan(frame.values).sum()))
        c["stationarity.adf_calls"].append(2 * frame.n_vars)
        c["stationarity.adf_solves"].extend(
            adf_solves(frame.n_obs, r) for _ in frame.names for r in ("constant", "constant_and_trend"))
        c["var.select_order_solves"].append(s.maxlags + 1)
        c["inference.tests"].append(frame.n_vars * (frame.n_vars - 1))


def _fits_equal(a: sv.VarFit, b: sv.VarFit) -> bool:
    arrays = ("intercept", "coef", "sigma_u", "sigma_u_ml", "intercept_se", "intercept_t",
              "intercept_p", "coef_se", "coef_t", "coef_p", "residuals", "normal_matrix_inverse")
    return (a.var_names == b.var_names and a.p == b.p and a.t_eff == b.t_eff
            and all(np.array_equal(getattr(a, n), getattr(b, n)) for n in arrays))


KINDS = {w.kind: w for w in (Pipeline, Explore)}
