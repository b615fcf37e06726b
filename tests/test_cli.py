"""Command-line behavior: exit codes, outputs, determinism, JSON schemas."""

import base64
import contextlib
import dataclasses
import datetime as dt
import io
import json
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sleepvar as sv
from sleepvar._util import packed
from sleepvar.cli import _build_parser, _UsageError, main

from conftest import DATA_DIR, GOLDEN_DIR, REPO, run_python, v1_model_text

SLEEP = str(DATA_DIR / "sleep.csv")
MOOD = str(DATA_DIR / "mood.csv")
# A stable two-variable VAR(1) process document.
SPEC_DOC = {"var_names": ["x", "y"], "p": 1, "intercept": [0.0, 0.0],
            "coef": [[[0.5, 0.1], [0.0, 0.4]]], "sigma_u": [[1.0, 0.0], [0.0, 1.0]]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Bound on the peak-RSS growth of `irf` from 100 to 2000 replications on
# the bundled data.  Measured: 8.0 MB (Linux x86-64, one OpenBLAS thread):
# the draws, plus blocks of 63 replications instead of two of 50.
IRF_RSS_GROWTH_MB = 20.0


def child_peak_rss_mb(*argv) -> float:
    """Run the CLI in a fresh one-thread interpreter; its own peak RSS in MB."""
    script = (
        "import resource, runpy, sys\n"
        "sys.argv[0] = 'sleepvar'\n"
        "try:\n"
        "    runpy.run_module('sleepvar.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    proc = run_python("-c", script, *argv, threads=1)
    # ru_maxrss is in bytes on macOS, in KiB elsewhere
    return int(proc.stdout) / (2**20 if sys.platform == "darwin" else 2**10)


def test_runtime_loads_no_scipy():
    # The F and normal tails are in-repo: a CLI process pays numpy's import
    # and nothing heavier.  A fresh interpreter, since the oracle tests load
    # scipy into this one.
    script = """
import sys
import sleepvar as sv
import sleepvar.cli
frame = sv.impute(sv.merge([sv.ingest_sleep(sys.argv[1]), sv.ingest_mood(sys.argv[2])]))
sv.adf_test(frame.column("score"))
sv.granger_all_pairs(sv.fit_var(frame, 2), "score")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    assert run_python("-c", script, SLEEP, MOOD).stdout.strip() == "[]"


def test_irf_peak_memory_flat_in_replications(quickstart_files, tmp_path):
    # bootstrap replications run in blocks of fixed size, so peak memory
    # grows only by the response draws the quantiles need (2.2 KB per
    # replication here); a (replications x (200+T) x K) array would add
    # 130 MB at 2000 replications
    small, large = (child_peak_rss_mb("irf", quickstart_files["model"], "--replications",
                                      str(reps), "-o", str(tmp_path / f"irf{reps}.csv"))
                    for reps in (100, 2000))
    assert large - small < IRF_RSS_GROWTH_MB, (small, large)


class TestExitCodes:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip() == f"sleepvar {sv.__version__}"

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "describe", SLEEP, "--wat")
        assert code == 1 and "usage error" in err

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_ingest_requires_a_source(self, capsys):
        code, _, err = run(capsys, "ingest")
        assert code == 1 and "--oura" in err

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "describe", "/nonexistent.csv")
        assert code == 2 and "error" in err

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,score\nnot-a-date,50\n")
        code, _, err = run(capsys, "ingest", "--oura", str(bad))
        assert code == 2 and "malformed date" in err

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys, eol):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(eol.join([b"date,score", b"2020-01-01,50", b"2020-01-02,5\xff1", b""]))
        code, out, err = run(capsys, "describe", str(bad))
        assert code == 2 and out == ""
        assert err == "error: line 3: not UTF-8 text (byte 0xff: invalid start byte)\n"

    def test_oversized_csv_field_is_data_error(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("date,score\n2020-01-01," + "5" * 140_000 + "\n")
        code, out, err = run(capsys, "ingest", "--oura", str(big))
        assert code == 2 and out == ""
        assert err == "error: line 2: field larger than field limit (131072)\n"

    def test_deeply_nested_model_is_data_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run(capsys, "granger", str(deep), "--causing", "score")
        assert code == 2 and out == ""
        assert err.startswith("error: corrupted model document: maximum recursion depth")
        assert "Traceback" not in err

    def test_fit_on_missing_cells_is_data_error(self, tmp_path, capsys):
        merged = tmp_path / "m.csv"
        run(capsys, "ingest", "--oura", SLEEP, "--impute", "none", "-o", str(merged))
        code, _, err = run(capsys, "fit", str(merged), "--lags", "1")
        assert code == 2 and "missing" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_model_is_data_error(self, quickstart_files, tmp_path, capsys, bad):
        model = tmp_path / "model.json"
        doc = json.loads(Path(quickstart_files["model"]).read_text())
        doc["coef"][0][0][0] = bad
        model.write_text(json.dumps(doc))  # writes the NaN / Infinity tokens
        for argv in (("irf", str(model), "--replications", "100"),
                     ("granger", str(model), "--causing", "score")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, cell, argv", [
        ("normal_matrix_inverse", (1, 6), ("granger", "--causing", "score")),
    ])
    def test_asymmetric_model_is_data_error(self, quickstart_files, tmp_path, capsys,
                                            field, cell, argv):
        model = tmp_path / "model.json"
        doc = json.loads(Path(quickstart_files["model"]).read_text())
        doc[field][cell[0]][cell[1]] += 1.0  # a cell the command reads, its mirror untouched
        model.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(model), *argv[1:])
        assert code == 2 and out == ""
        assert f"{field} is not symmetric" in err and "Traceback" not in err

    @pytest.mark.parametrize("names", [["score"] * 5, [1, 2, 3, 4, 5]])
    def test_bad_var_names_model_is_data_error(self, quickstart_files, tmp_path, capsys, names):
        model = tmp_path / "model.json"
        doc = json.loads(Path(quickstart_files["model"]).read_text())
        doc["var_names"] = names
        model.write_text(json.dumps(doc))
        code, out, err = run(capsys, "granger", str(model), "--causing", "score")
        assert code == 2 and out == ""
        assert "corrupted model document: var_names" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, causing, caused", [
        (lambda doc: doc.update(p=10**400), "score", ()),  # echoed in the coef shape
        (lambda doc: doc["var_names"].__setitem__(0, "v" * 5000), "nope", ()),
        (lambda doc: doc["var_names"].__setitem__(0, "v" * 5000), "v" * 5000,
         ("--caused", "v" * 5000)),  # echoed as the overlap of the two sets
    ], ids=["huge-p", "long-name", "overlap"])
    def test_error_message_caps_what_it_repeats(self, quickstart_files, tmp_path, capsys,
                                                edit, causing, caused):
        model = tmp_path / "model.json"
        doc = json.loads(Path(quickstart_files["model"]).read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        code, out, err = run(capsys, "granger", str(model), "--causing", causing, *caused)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, argv", [
        ("date,score\n{long},50\n", ("ingest", "--oura")),
        ("date,score\n2020-01-01,{long}\n", ("ingest", "--oura")),
        ("date,{long}\n2020-01-01,50\n", ("ingest", "--oura")),
        ("date,depressed,anxious,irritable,elevated\n2020-01-01,{long},0,0,0\n", ("ingest", "--emood")),
        ("date,a\n2020-01-01,{long}\n", ("describe",)),
        ("{long}", ("describe",)),  # the path itself, echoed by the open error
        ("date,a,{long}\n" + "".join(f"2020-01-{d:02d},{d % 3},5\n" for d in range(1, 29)),
         ("fit", "--lags", "1")),  # the constant column's design label
    ], ids=["date", "score", "header", "level", "number", "path", "rank-label"])
    def test_csv_error_caps_what_it_repeats(self, tmp_path, capsys, text, argv):
        long = "x" * 100_000
        path = tmp_path / "long.csv"
        path.write_text(text.format(long=long))
        code, out, err = run(capsys, *argv, long if text == "{long}" else str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["adf", "decompose", "pacf"])
    def test_usage_error_caps_the_names_it_repeats(self, tmp_path, capsys, command):
        # without --column, the usage error lists the frame's column names
        path = tmp_path / "wide.csv"
        path.write_text(f"date,a,{'x' * 100_000}\n2020-01-01,1,2\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 1 and out == ""
        assert err.startswith("usage error: --column is required") and len(err) < 300

    @pytest.mark.parametrize("command", ["describe", "adf", "decompose", "pacf"])
    def test_empty_column_is_unknown(self, quickstart_files, capsys, command):
        code, out, err = run(capsys, command, quickstart_files["merged"], "--column", "")
        assert code == 2 and out == ""
        assert err.startswith("error: unknown column ''; frame has ('score', ")

    def test_pacf_default_lags_on_one_row_report_the_short_series(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("date,a\n2020-01-01,1\n")
        code, out, err = run(capsys, "pacf", str(path))
        assert code == 2 and out == ""
        assert err == "error: series too short: need at least 2 observations, got 1\n"

    def test_overflowing_fpe_is_data_error(self, dataset_frame, tmp_path, capsys):
        path = tmp_path / "big.csv"
        sv.write_frame_csv(dataclasses.replace(dataset_frame, values=dataset_frame.values * 1e60),
                           path)
        code, out, err = run(capsys, "select-order", str(path))
        assert code == 2 and out == ""
        assert err == ("error: frame values are too large: the final prediction error "
                       "overflows at lag 0\n")

    # 2**62 only: numpy refuses an array that large before allocating anything.
    @pytest.mark.parametrize("argv, burn_in, message", [
        (("simulate", "--spec", "{spec}", "--t", "5"), 2**62, f"burn_in + t = {2**62 + 5} steps"),
        (("simulate", "--spec", "{spec}", "--t", str(2**62)), 200,
         f"burn_in + t = {2**62 + 200} steps"),
        (("irf", "{model}", "--horizon", str(2**62)), 200, f"horizon {2**62} is too large"),
        (("irf", "{model}", "--replications", str(2**62)), 200,
         f"{2**62} replications at horizon 10 are too many"),
    ])
    def test_oversized_count_is_data_error(self, analysis_inputs, tmp_path, capsys,
                                           argv, burn_in, message):
        spec = json.loads(Path(analysis_inputs["spec"]).read_text())
        (tmp_path / "spec.json").write_text(json.dumps({**spec, "burn_in": burn_in}))
        inputs = {**analysis_inputs, "spec": str(tmp_path / "spec.json")}
        code, out, err = run(capsys, *[a.format(**inputs) for a in argv])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    # Sizes past the 47-bit address space only: malloc refuses them without
    # allocating.  A size that fits is never tried.
    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--spec", "{spec}", "--t", str(10**13)),
         f"burn_in + t = {10**13 + 200} steps are too many"),
        (("irf", "{model}", "--horizon", str(10**13)), f"horizon {10**13} is too large"),
        (("irf", "{model}", "--replications", str(10**13)),
         f"{10**13} replications at horizon 10 are too many"),
    ])
    def test_unallocatable_count_is_data_error(self, analysis_inputs, capsys, argv, message):
        code, out, err = run(capsys, *[a.format(**analysis_inputs) for a in argv])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_irf_without_refit_degrees_of_freedom_is_data_error(self, tmp_path, capsys):
        # 6 rows at lag 2: the fit keeps t_eff 4 and a stable root (0.74), but
        # each refit would have 2 rows for 3 regressors
        frame, model = tmp_path / "f.csv", tmp_path / "m.json"
        values = sv.substream(0, 0).standard_normal(6)[:, None]
        sv.write_frame_csv(sv.SeriesFrame(dt.date(2020, 1, 1), ("x",), values), frame)
        assert run(capsys, "fit", str(frame), "--lags", "2", "-o", str(model))[0] == 0
        assert sv.load_model(model).stability_radius() < 1.0
        code, out, err = run(capsys, "irf", str(model), "--replications", "100")
        assert code == 2 and out == ""
        assert err.startswith("error: not enough observations for bootstrap refits")
        assert "Traceback" not in err

    def test_orthogonalized_irf_without_k_refit_degrees_of_freedom(self, tmp_path, capsys):
        # 6 rows at lag 1, K=2: each refit keeps 1 residual degree of freedom,
        # enough for plain impulses, not for a full-rank 2x2 covariance
        frame, model = tmp_path / "f.csv", tmp_path / "m.json"
        values = sv.substream(0, 0).standard_normal((6, 2))
        sv.write_frame_csv(sv.SeriesFrame(dt.date(2020, 1, 1), ("x", "y"), values), frame)
        assert run(capsys, "fit", str(frame), "--lags", "1", "-o", str(model))[0] == 0
        code, out, err = run(capsys, "irf", str(model), "--replications", "100")
        assert code == 2 and out == ""
        assert err.startswith("error: orthogonalized bands need at least K=2 residual degrees "
                              "of freedom per refit, got dof=1")
        code, out, _ = run(capsys, "irf", str(model), "--replications", "100", "--no-orth")
        assert code == 0 and out

    def test_granger_singular_restriction_covariance_exits_2(self, dataset_fit, tmp_path,
                                                              capsys):
        resid = np.array(dataset_fit.residuals)
        resid[:, dataset_fit.var_names.index("anxious")] = 0.0
        model = tmp_path / "m.json"
        sv.save_model(dataclasses.replace(dataset_fit, residuals=resid), model)
        code, out, err = run(capsys, "granger", str(model), "--causing", "score")
        assert code == 2 and out == ""
        assert err.startswith("error: restriction covariance is singular: matrix is not "
                              "positive definite: pivot 0 is 0.000e+00")
        assert "Traceback" not in err

    def test_simulate_indefinite_innovation_cov_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"var_names": ["x", "y", "z"], "p": 1,
                                    "intercept": [0.0, 0.0, 0.0],
                                    "coef": [(0.5 * np.eye(3)).tolist()],
                                    "innovation_cov": [[1.0, 0.0, 0.5], [0.0, 1.0, 2.0],
                                                       [0.5, 2.0, 1.0]]}))
        code, out, err = run(capsys, "simulate", "--spec", str(spec), "--t", "30")
        assert code == 2 and out == ""
        assert err.startswith("error: corrupted process document: innovation covariance is not "
                              "symmetric positive definite: matrix is not positive definite: "
                              "pivot 2 is -3.250e+00")
        assert "Traceback" not in err

    def test_select_order_limit_is_a_count(self, analysis_inputs, capsys):
        code, out, err = run(capsys, "select-order", analysis_inputs["merged"],
                             "--maxlags", "100000")
        assert code == 2 and out == ""
        assert err == ("error: not enough observations to compare lags up to 100000: "
                       "600006 are needed, the frame has 1455\n")

    def test_select_order_top_lag_keeps_k_residual_degrees_of_freedom(self, analysis_inputs,
                                                                      capsys):
        # 242 lags leave 1213 rows for 1211 regressors: 2 residual degrees
        # of freedom cannot make the 5x5 ML covariance full rank
        code, out, err = run(capsys, "select-order", analysis_inputs["merged"],
                             "--maxlags", "242")
        assert code == 2 and out == ""
        assert err == ("error: not enough observations to compare lags up to 242: "
                       "1458 are needed, the frame has 1455\n")
        code, out, err = run(capsys, "select-order", analysis_inputs["merged"],
                             "--maxlags", "241")
        assert code == 0 and err == ""
        assert len(out.splitlines()) > 242


class TestIngest:
    def test_merged_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "merged.csv"
        code, _, err = run(capsys, "ingest", "--oura", SLEEP, "--emood", MOOD,
                           "-o", str(out))
        assert code == 0
        assert "imputed 1 missing cell(s)" in err
        frame = sv.read_frame_csv(out)
        assert frame.names == ("score", "depressed", "anxious", "irritable", "elevated")
        assert frame.n_obs == 1455 and not frame.has_missing()

    def test_stdout_when_no_output_path(self, capsys):
        code, out, _ = run(capsys, "ingest", "--oura", SLEEP)
        assert code == 0
        assert out.startswith("date,score\n")

    def test_no_absent_as_zero_keeps_missing(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code, _, _ = run(capsys, "ingest", "--emood", MOOD, "--no-absent-as-zero",
                         "--impute", "none", "-o", str(out))
        assert code == 0
        assert sv.read_frame_csv(out).has_missing()


class TestAnalysisCommands:
    @pytest.fixture()
    def merged(self, quickstart_files):
        return quickstart_files["merged"]

    def test_describe_text_and_json(self, merged, capsys):
        code, out, _ = run(capsys, "describe", merged, "--column", "score")
        assert code == 0 and "Mean" in out and "73.77" in out
        code, out, _ = run(capsys, "describe", merged, "--json")
        doc = json.loads(out)
        assert set(doc) == {"score", "depressed", "anxious", "irritable", "elevated"}
        assert doc["score"]["total"] == 1455

    def test_adf_text_and_json(self, merged, capsys):
        code, out, _ = run(capsys, "adf", merged, "--column", "score")
        assert code == 0 and "ADF statistic" in out and "critical values" in out
        code, out, _ = run(capsys, "adf", merged, "--column", "score", "--json")
        doc = json.loads(out)
        assert doc["regression"] == "constant" and doc["p_value"] <= 1.0
        code, out, _ = run(capsys, "adf", merged, "--column", "score", "--trend", "--json")
        assert json.loads(out)["regression"] == "constant_and_trend"

    def test_decompose_csv_and_svg(self, merged, tmp_path, capsys):
        svg = tmp_path / "dec.svg"
        code, out, _ = run(capsys, "decompose", merged, "--column", "score",
                           "--period", "7", "--svg", str(svg))
        assert code == 0
        header, first = out.splitlines()[:2]
        assert header == "index,observed,trend,seasonal,residual"
        assert float(first.split(",")[1]) == 77.0  # first bundled score
        assert svg.read_text().startswith("<svg ")

    def test_pacf_csv(self, merged, capsys):
        code, out, _ = run(capsys, "pacf", merged, "--column", "score", "--nlags", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lag,pacf,band"
        assert len(lines) == 12
        assert float(lines[1].split(",")[1]) == 1.0

    def test_decompose_and_pacf_json(self, merged, capsys):
        code, out, _ = run(capsys, "decompose", merged, "--column", "score", "--json")
        doc = json.loads(out)
        assert doc["period"] == 7
        assert doc["trend"][0] is None and doc["trend"][3] is not None
        code, out, _ = run(capsys, "pacf", merged, "--column", "score",
                           "--nlags", "8", "--json")
        doc = json.loads(out)
        assert doc["values"][0] == 1.0 and len(doc["values"]) == 9

    def test_select_order_table(self, merged, capsys):
        code, out, _ = run(capsys, "select-order", merged, "--maxlags", "6")
        assert code == 0 and "AIC" in out and "*" in out and "selected lag: 2" in out
        code, out, _ = run(capsys, "select-order", merged, "--maxlags", "6",
                           "--override", "1", "--json")
        doc = json.loads(out)
        assert doc["selected"] == 1 and doc["selection_rule"] == "override(1)"

    def test_fit_report_and_model(self, merged, tmp_path, capsys):
        model = tmp_path / "model.json"
        code, out, _ = run(capsys, "fit", merged, "--lags", "2", "-o", str(model))
        assert code == 0
        assert "Results for equation score" in out
        assert "L2.elevated" in out
        fit = sv.load_model(model)
        assert fit.p == 2 and fit.var_names[0] == "score"

    def test_fit_model_to_stdout(self, merged, tmp_path, capsys, monkeypatch):
        model = tmp_path / "model.json"
        run(capsys, "fit", merged, "--lags", "2", "-o", str(model))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "fit", merged, "--lags", "2", "-o", "-")
        assert code == 0 and err == ""
        assert out == model.read_text()
        assert sv.load_model(io.StringIO(out)).p == 2
        assert not (tmp_path / "-").exists()

    def test_granger_table(self, quickstart_files, capsys):
        model = quickstart_files["model"]
        code, out, _ = run(capsys, "granger", model, "--causing", "score")
        assert code == 0
        assert out.splitlines()[0].startswith("Causal Variable")
        assert len(out.splitlines()) == 5
        code, out, _ = run(capsys, "granger", model, "--causing", "score",
                           "--caused", "depressed", "--json")
        doc = json.loads(out)
        assert len(doc) == 1 and doc[0]["reject_null"] is True

    def test_irf_csv_svg_and_json(self, quickstart_files, tmp_path, capsys):
        model = quickstart_files["model"]
        svg = tmp_path / "irf.svg"
        code, out, _ = run(capsys, "irf", model, "--replications", "120",
                           "--horizon", "4", "--svg", str(svg))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "horizon,impulse,response,estimate,lower,upper"
        assert len(lines) == 1 + 5 * 5 * 5
        est = [float(l.split(",")[3]) for l in lines[1:]]
        lo = [float(l.split(",")[4]) for l in lines[1:]]
        hi = [float(l.split(",")[5]) for l in lines[1:]]
        assert all(a <= b <= c for a, b, c in zip(lo, est, hi))
        assert "polygon" in svg.read_text()
        code, out, _ = run(capsys, "irf", model, "--replications", "120",
                           "--horizon", "4", "--json")
        doc = json.loads(out)
        assert doc["replications"] == 120 and len(doc["responses"]) == 5


class TestSimulateCommand:
    def test_simulate_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DOC))
        out = tmp_path / "sim.csv"
        code, _, _ = run(capsys, "simulate", "--spec", str(spec_path), "--t", "200",
                         "--seed", "3", "-o", str(out))
        assert code == 0
        frame = sv.read_frame_csv(out)
        assert frame.n_obs == 200 and frame.names == ("x", "y")
        # byte-identical on rerun
        out2 = tmp_path / "sim2.csv"
        run(capsys, "simulate", "--spec", str(spec_path), "--t", "200",
            "--seed", "3", "-o", str(out2))
        assert out.read_bytes() == out2.read_bytes()


class TestModelDocuments:
    """A version-1 model document reads as its version-2 form does, and a
    model document is a process spec."""

    @pytest.fixture(scope="class")
    def v1_model(self, analysis_inputs, dataset_fit):
        path = Path(analysis_inputs["spec"]).with_name("model_v1.json")
        path.write_text(v1_model_text(dataset_fit))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("granger", "--causing", "score"),
        ("granger", "--causing", "score", "--json"),
        ("irf", "--replications", "100", "--horizon", "3"),
    ], ids=lambda argv: "-".join(argv))
    def test_version1_gives_the_same_bytes(self, analysis_inputs, v1_model, capsys, argv):
        v2 = run(capsys, argv[0], analysis_inputs["model"], *argv[1:])
        assert v2[0] == 0
        assert run(capsys, argv[0], v1_model, *argv[1:]) == v2

    def test_model_is_a_process_spec(self, analysis_inputs, v1_model, capsys):
        # version 2 derives sigma_u from the residuals, version 1 stores it:
        # the same covariance, so the same draws
        argv = ("--t", "30", "--seed", "0")
        v2 = run(capsys, "simulate", "--spec", analysis_inputs["model"], *argv)
        assert v2[0] == 0 and v2[1].startswith("date,score,depressed,")
        assert run(capsys, "simulate", "--spec", v1_model, *argv) == v2


def test_parser_reused_across_calls(capsys):
    # the parser is built once per process; a usage error, --version and a
    # repeated command must read as they do in a fresh interpreter
    calls = [("describe", SLEEP, "--wat"), ("--version",),
             ("ingest", "--oura", SLEEP), ("ingest", "--oura", SLEEP)]
    in_process = [run(capsys, *argv) for argv in calls]
    assert in_process[2] == in_process[3] and in_process[2][0] == 0
    assert [c for c, _, _ in in_process] == [1, 0, 0, 0]
    fresh = [run_python("-m", "sleepvar.cli", *argv, check=False) for argv in calls]
    assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]


# Each subcommand's shortest valid argv, and the shared flags it accepts.
SHARED_FLAG_ARGV = {
    "ingest": ((), {"-o"}),
    "describe": (("f",), {"-o", "--json", "--column"}),
    "adf": (("f",), {"-o", "--json", "--column"}),
    "decompose": (("f",), {"-o", "--json", "--column", "--svg"}),
    "pacf": (("f",), {"-o", "--json", "--column", "--svg"}),
    "select-order": (("f",), {"-o", "--json"}),
    "fit": (("f", "--lags", "1"), {"-o", "--json"}),
    "granger": (("m", "--causing", "x"), {"-o", "--json"}),
    "irf": (("m",), {"-o", "--json", "--svg"}),
    "simulate": (("--spec", "s", "--t", "1"), {"-o"}),
}


@pytest.mark.parametrize("flag", ["-o", "--json", "--column", "--svg"])
@pytest.mark.parametrize("command", sorted(SHARED_FLAG_ARGV))
def test_shared_flags_per_subcommand(command, flag):
    rest, accepted = SHARED_FLAG_ARGV[command]
    argv = [command, *rest, flag, *(() if flag == "--json" else ("x",))]
    if flag in accepted:
        _build_parser().parse_args(argv)
    else:
        with pytest.raises(_UsageError, match="unrecognized arguments"):
            _build_parser().parse_args(argv)


def test_json_flag_matches_readme():
    readme = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    assert "`--json` (all but `ingest` and `simulate`)" in readme
    assert {c for c, (_, flags) in SHARED_FLAG_ARGV.items() if "--json" not in flags} == {
        "ingest", "simulate"}
    assert set(SHARED_FLAG_ARGV) == set(_build_parser()._subparsers._group_actions[0].choices)


@pytest.fixture(scope="module")
def analysis_inputs(tmp_path_factory, quickstart_files):
    """The quickstart's merged frame and VAR(2) model, and a process spec in a
    directory of this module's own, as files."""
    spec = tmp_path_factory.mktemp("contract") / "spec.json"
    spec.write_text(json.dumps(SPEC_DOC))
    return {**quickstart_files, "spec": str(spec)}


DOCUMENT_COMMANDS = [
    ("describe", "{merged}"),
    ("adf", "{merged}", "--column", "score"),
    ("decompose", "{merged}", "--column", "score"),
    ("pacf", "{merged}", "--column", "score", "--nlags", "10"),
    ("select-order", "{merged}", "--maxlags", "4"),
    ("granger", "{model}", "--causing", "score"),
    ("irf", "{model}", "--replications", "100", "--horizon", "3"),
]


class TestOutputContract:
    """One document per subcommand: the same bytes on stdout and in ``-o FILE``."""

    @pytest.mark.parametrize("argv", [
        *DOCUMENT_COMMANDS,
        *[(*argv, "--json") for argv in DOCUMENT_COMMANDS],
        ("ingest", "--oura", SLEEP, "--emood", MOOD),
        ("simulate", "--spec", "{spec}", "--t", "30", "--seed", "1"),
    ], ids=lambda argv: "-".join(a for a in argv if not a.startswith(("{", "/"))))
    def test_file_bytes_equal_stdout_bytes(self, argv, analysis_inputs, tmp_path, capsys):
        argv = [a.format(**analysis_inputs) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 0
        target = tmp_path / "doc"
        assert run(capsys, *argv, "-o", str(target)) == (0, "", err)
        assert run(capsys, *argv, "-o", "-")[1] == out
        assert target.read_bytes() == out.encode("utf-8")
        assert out.endswith("\n") and not out.endswith("\n\n")

    # With dataclasses.asdict as the JSON view, field order is the schema.
    def test_describe_json_key_order(self, analysis_inputs, capsys):
        doc = json.loads(run(capsys, "describe", analysis_inputs["merged"], "--json")[1])
        assert list(doc) == ["score", "depressed", "anxious", "irritable", "elevated"]
        for stats in doc.values():
            assert list(stats) == ["total", "missing", "mean", "sd", "max", "min"]

    def test_adf_json_key_order(self, analysis_inputs, capsys):
        doc = json.loads(run(capsys, "adf", analysis_inputs["merged"],
                             "--column", "score", "--json")[1])
        assert list(doc) == ["statistic", "p_value", "used_lag", "n_obs",
                             "critical_values", "regression"]
        assert list(doc["critical_values"]) == ["1%", "5%", "10%"]

    def test_granger_json_key_order(self, analysis_inputs, capsys):
        doc = json.loads(run(capsys, "granger", analysis_inputs["model"],
                             "--causing", "score", "--json")[1])
        assert len(doc) == 4
        for entry in doc:
            assert list(entry) == ["causing", "caused", "statistic", "critical_value",
                                   "p_value", "df_num", "df_den", "alpha", "reject_null"]
            assert entry["causing"] == ["score"]


class TestIdempotence:
    def test_every_artifact_is_byte_stable(self, quickstart_files, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for d in (a, b):
            assert run(capsys, "ingest", "--oura", SLEEP, "--emood", MOOD,
                       "-o", str(d / "merged.csv"))[0] == 0
            assert run(capsys, "fit", str(d / "merged.csv"), "--lags", "2",
                       "-o", str(d / "model.json"))[0] == 0
            assert run(capsys, "granger", str(d / "model.json"), "--causing", "score",
                       "-o", str(d / "granger.txt"))[0] == 0
            assert run(capsys, "irf", str(d / "model.json"), "--replications", "120",
                       "--seed", "0", "-o", str(d / "irf.csv"),
                       "--svg", str(d / "irf.svg"))[0] == 0
        for name in ("merged.csv", "model.json", "granger.txt", "irf.csv", "irf.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for path in map(Path, quickstart_files.values()):  # the shared inputs are these bytes
            assert path.read_bytes() == (a / path.name).read_bytes(), path.name

    @pytest.mark.parametrize("mode", [(), ("--empirical",), ("--no-orth",)],
                             ids=["default", "empirical", "no-orth"])
    def test_irf_bytes_independent_of_blas_threads(self, quickstart_files, tmp_path, mode):
        outputs = []
        for threads in (1, 2):
            csv, svg = tmp_path / f"irf{threads}.csv", tmp_path / f"irf{threads}.svg"
            run_python("-m", "sleepvar.cli", "irf", quickstart_files["model"], "--replications",
                       "120", "--seed", "0", "-o", str(csv), "--svg", str(svg), *mode,
                       threads=threads)
            outputs.append((csv.read_bytes(), svg.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_select_order_bytes_independent_of_blas_threads(self, quickstart_files):
        outputs = [
            run_python("-m", "sleepvar.cli", "select-order", quickstart_files["merged"],
                       "--maxlags", "15", threads=threads, text=False).stdout
            for threads in (1, 2)
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0] == (GOLDEN_DIR / "select_order_maxlags15.txt").read_bytes()


# Any JSON value.  Integers stay within 10^4 of zero: a larger `burn_in` is
# a valid count, and `simulate` runs that many steps.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**4, 10**4) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)
DELETE = object()
MODEL_FIELDS = ("version", "var_names", "p", "t_eff", "intercept", "coef", "residuals",
                "normal_matrix_inverse")
SPEC_FIELDS = ("version", "var_names", "p", "intercept", "coef", "sigma_u", "burn_in")


def packed_forms(real: dict):
    """The packed form of a model's residuals, ``real``, with its shape, its
    text, or both drawn from variants that are almost all broken: other
    shapes (``[-1, K]`` among them), text cut short, lengthened, with a
    character outside the alphabet or a leading newline, the right length of
    non-finite entries, short base64 of any bytes, and any JSON value.  Only
    ``real`` itself is a valid draw."""
    t_eff, k = real["shape"]
    text = real["float64le"]
    shapes = st.sampled_from([[t_eff, k], [k, t_eff], [-1, k], [t_eff, -1], [t_eff], [t_eff, k, 1],
                              [t_eff + 1, k], [0, k], [2**62, 2**62]]) | JSON_VALUES
    texts = st.one_of(
        st.just(text),
        st.sampled_from([text[:-4], text + "AAAA", "\n" + text, text.replace("A", "-", 1), ""]),
        st.sampled_from([math.nan, math.inf, -math.inf]).map(
            lambda v: packed(np.full((t_eff, k), v))["float64le"]),
        st.binary(max_size=64).map(lambda b: base64.b64encode(b).decode("ascii")),
        JSON_VALUES,
    )
    forms = st.fixed_dictionaries({"shape": shapes, "float64le": texts})
    return forms | st.builds(lambda form, extra: {**form, **extra}, forms,
                             st.dictionaries(st.sampled_from(["dtype", "Shape"]), JSON_VALUES,
                                             min_size=1))


def conforms(field: str, value) -> bool:
    """Whether ``value`` has the form the document format gives ``field``."""
    if field == "var_names":
        return (isinstance(value, list) and bool(value)
                and all(isinstance(n, str) and n for n in value) and len(set(value)) == len(value))
    return type(value) is int and value >= 0


class TestDocumentFuzz:
    """One field of a model or process document deleted or replaced by any JSON
    value: the command succeeds or exits 2 with a message, never a traceback."""

    @pytest.fixture(scope="class")
    def fields_json(self, analysis_inputs):
        """Each document's fields as JSON texts, serialized once (the model is 80 KB)."""
        return {kind: {k: json.dumps(v) for k, v in json.loads(Path(path).read_text()).items()}
                for kind, path in analysis_inputs.items() if kind in ("model", "spec")}

    def run_edited(self, tmp_dir: Path, fields: dict, field: str, value, argv) -> None:
        fields = dict(fields)
        if value is DELETE:
            fields.pop(field, None)
        else:
            fields[field] = json.dumps(value)
        edited = tmp_dir / "edited.json"
        edited.write_text("{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(doc=edited) for a in argv])
        assert code in (0, 2) and "Traceback" not in err.getvalue(), err.getvalue()
        if field in ("var_names", "p", "t_eff") and (value is DELETE or not conforms(field, value)):
            assert code == 2 and "corrupted" in err.getvalue(), err.getvalue()
        return code, err.getvalue()

    @given(field=st.sampled_from(MODEL_FIELDS), value=st.just(DELETE) | JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_granger_model(self, analysis_inputs, fields_json, field, value):
        self.run_edited(Path(analysis_inputs["spec"]).parent, fields_json["model"], field, value,
                        ("granger", "{doc}", "--causing", "score"))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_granger_model_packed_residuals(self, analysis_inputs, fields_json, data):
        real = json.loads(fields_json["model"]["residuals"])
        value = data.draw(packed_forms(real), label="residuals")
        code, err = self.run_edited(Path(analysis_inputs["spec"]).parent, fields_json["model"],
                                    "residuals", value, ("granger", "{doc}", "--causing", "score"))
        # as data: the draw may put float64le before shape, but 5.0 is not 5
        if json.dumps(value, sort_keys=True) != json.dumps(real, sort_keys=True):
            assert code == 2 and err.startswith("error: corrupted model document: residuals"), err

    def test_granger_model_packed_residuals_key_order(self, analysis_inputs, fields_json):
        real = json.loads(fields_json["model"]["residuals"])
        swapped = {"float64le": real["float64le"], "shape": real["shape"]}
        code, err = self.run_edited(Path(analysis_inputs["spec"]).parent, fields_json["model"],
                                    "residuals", swapped, ("granger", "{doc}", "--causing", "score"))
        assert code == 0, err

    @given(field=st.sampled_from(MODEL_FIELDS), value=st.just(DELETE) | JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_simulate_model_spec(self, analysis_inputs, fields_json, field, value):
        self.run_edited(Path(analysis_inputs["spec"]).parent, fields_json["model"], field, value,
                        ("simulate", "--spec", "{doc}", "--t", "5"))

    @given(field=st.sampled_from(SPEC_FIELDS), value=st.just(DELETE) | JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_simulate_spec(self, analysis_inputs, fields_json, field, value):
        self.run_edited(Path(analysis_inputs["spec"]).parent, fields_json["spec"], field, value,
                        ("simulate", "--spec", "{doc}", "--t", "5"))


# --- Contract fuzz of cli.main: CSV inputs and argv ----------------------------
# Whatever the input, the CLI exits 0, 1 (usage) or 2 (one `error:` line of
# under 300 characters), never with a traceback, and never prints a NaN.

CSV_ALPHABET = '0123456789-.e," \r\nxé'
CSV_JUNK = st.text(CSV_ALPHABET, max_size=8)
CSV_HEADERS = ["date,score", "date," + ",".join(sv.MOOD_VARIABLES), "date,x,x2"]
# Cells every reader accepts, then cells some or all of them reject.
CSV_CLEAN = st.sampled_from(["1", "2", "3"])
CSV_VALUES = st.sampled_from(["", "0", "50", "101", "-1", "1.5", "-2e3", "1e999"]) | CSV_JUNK
NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"])


@st.composite
def csv_texts(draw):
    """A header, mostly one the readers know, and up to 30 clean rows of its
    width, dated in a ten-day span or on a contiguous grid; then up to two
    faults: a cell replaced, or a row of another width."""
    header = draw(st.sampled_from(CSV_HEADERS) | st.sampled_from(CSV_HEADERS) | CSV_JUNK)
    width = header.count(",") + 1
    n = draw(st.integers(0, 30))
    if draw(st.booleans()):  # a contiguous grid, as a frame needs
        days = [str(dt.date(2020, 1, 1) + dt.timedelta(days=i)) for i in range(n)]
    else:
        days = draw(st.lists(st.dates(dt.date(2019, 12, 28), dt.date(2020, 1, 6)).map(str),
                             min_size=n, max_size=n))
    rows = [[day, *draw(st.lists(CSV_CLEAN, min_size=width - 1, max_size=width - 1))]
            for day in days]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(CSV_VALUES)
        else:
            row[1:] = draw(st.lists(CSV_VALUES, max_size=5))
    end = draw(st.sampled_from(["", "\n", "\r\n"]))
    return "\n".join([header, *map(",".join, rows)]) + end


CSV_DOCUMENTS = st.one_of(
    csv_texts().map(str.encode),
    csv_texts().map(str.encode),
    st.builds(lambda doc, bad, at: doc[:at] + bad + doc[at:],
              csv_texts().map(str.encode), NOT_UTF8, st.integers(0, 400)),
    st.binary(max_size=64),
)
CSV_COMMANDS = [("ingest", "--oura", "{csv}"), ("ingest", "--emood", "{csv}"),
                ("describe", "{csv}"), ("select-order", "{csv}", "--maxlags", "2")]

# Counts stay small or past any allocation (2**62): a count in between is
# valid, and the command would compute or allocate that much.  Every path
# lies in the fixture's directory, so no draw writes anywhere else.
HUGE = str(2**62)
FRAMES = ["{frame}", "{column}", "{huge}", "{tiny}"]
COLUMNS = ["score", "depressed", "nope", "x" * 400]
COUNTS = ["-1", "0", "1", "2", "3", "7", HUGE, "1e3", "x"]
PROBABILITIES = ["0.05", "0.9", "0", "1", "-1", "nan", "inf", "x", "1e-300"]
OUTPUTS = ["{out}", "-", "{dir}", "{missing}/out"]
ARGV_POSITIONAL = {"describe": FRAMES, "adf": FRAMES, "decompose": FRAMES, "pacf": FRAMES,
                   "select-order": FRAMES, "fit": FRAMES, "granger": ["{model}"],
                   "irf": ["{model}"], "ingest": [], "simulate": []}
ARGV_FLAGS = {  # each flag with the values it is given, None for a switch
    "ingest": {"--oura": ["{sleep}"], "--emood": ["{mood}"],
               "--impute": ["forward_fill", "linear", "none"], "--max-gap": COUNTS,
               "--absent-as-zero": None, "--no-absent-as-zero": None, "-o": OUTPUTS},
    "describe": {"--column": COLUMNS, "--json": None, "-o": OUTPUTS},
    "adf": {"--column": COLUMNS, "--trend": None, "--maxlag": COUNTS, "--json": None,
            "-o": OUTPUTS},
    "decompose": {"--column": COLUMNS, "--period": COUNTS, "--json": None, "--svg": OUTPUTS,
                  "-o": OUTPUTS},
    "pacf": {"--column": COLUMNS, "--nlags": COUNTS, "--json": None, "--svg": OUTPUTS,
             "-o": OUTPUTS},
    "select-order": {"--maxlags": COUNTS, "--override": COUNTS, "--json": None, "-o": OUTPUTS},
    "fit": {"--lags": COUNTS, "--json": None, "-o": OUTPUTS},
    "granger": {"--causing": COLUMNS, "--caused": COLUMNS, "--alpha": PROBABILITIES,
                "--json": None, "-o": OUTPUTS},
    "irf": {"--horizon": COUNTS, "--level": PROBABILITIES, "--replications": ["100", "99", HUGE],
            "--seed": COUNTS, "--no-orth": None, "--empirical": None, "--json": None,
            "--svg": OUTPUTS, "-o": OUTPUTS},
    "simulate": {"--spec": ["{spec}", "{model}", "{frame}", "{missing}"], "--t": COUNTS,
                 "--seed": COUNTS, "-o": OUTPUTS},
}
ARGV_REQUIRED = {"fit": ["--lags"], "granger": ["--causing"], "simulate": ["--spec", "--t"]}
# Values any argument may be given instead.
ARGV_ANY = st.sampled_from(["", "{missing}", "{dir}/" + "x" * 400])


@st.composite
def argvs(draw):
    """A subcommand, its positional argument (mostly a fitting file), then
    mostly its required flags and up to five of its flags, each mostly with
    a value of its kind."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    flags = ARGV_FLAGS[command]
    argv = [command]
    if ARGV_POSITIONAL[command]:
        argv += draw(st.lists(st.sampled_from(ARGV_POSITIONAL[command]) | ARGV_ANY,
                              min_size=1, max_size=1))
    required = ARGV_REQUIRED.get(command, []) if draw(st.integers(0, 3)) else []
    for flag in required + draw(st.lists(st.sampled_from(sorted(flags)), max_size=5)):
        values = st.sampled_from(flags[flag]) if flags[flag] else st.nothing()
        argv += [flag, *draw(st.lists(values | values | ARGV_ANY, max_size=1,
                                      min_size=0 if flags[flag] is None else 1))]
    return argv


# A NaN or an infinity as Python, numpy or JSON print it; not letters inside base64.
NON_FINITE = re.compile(r"(?<![\w+/])(nan|inf|infinity)(?![\w+/])", re.IGNORECASE)


def assert_cli_contract(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err, (code, err)
    if code == 2:
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and len(errors[0]) < 300, err
    assert not NON_FINITE.search(out), out


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, dataset_frame):
    """Small inputs for every subcommand, so a draw runs in milliseconds,
    copies of the bundled exports, and paths to write or not to find."""
    root = tmp_path_factory.mktemp("fuzz")
    inputs = {name: str(root / file) for name, file in [
        ("sleep", "sleep.csv"), ("mood", "mood.csv"), ("frame", "frame.csv"),
        ("column", "column.csv"), ("huge", "huge.csv"), ("tiny", "tiny.csv"),
        ("model", "model.json"), ("spec", "spec.json"),
        ("csv", "doc.csv"), ("out", "out"), ("missing", "missing.csv")]}
    shutil.copy(SLEEP, inputs["sleep"])
    shutil.copy(MOOD, inputs["mood"])
    two = sv.SeriesFrame(dataset_frame.start_date, ("score", "depressed"), dataset_frame.values[:60, :2])
    sv.write_frame_csv(two, inputs["frame"])
    sv.write_frame_csv(sv.SeriesFrame(two.start_date, ("score",), two.values[:, :1]), inputs["column"])
    for name, scale in (("huge", 1e100), ("tiny", 1e-170)):
        sv.write_frame_csv(dataclasses.replace(two, values=two.values * scale), inputs[name])
    sv.save_model(sv.fit_var(two, 1), inputs["model"])
    Path(inputs["spec"]).write_text(json.dumps(SPEC_DOC))
    return {**inputs, "dir": str(root)}


class TestCliFuzz:
    @given(document=CSV_DOCUMENTS)
    @settings(max_examples=150, deadline=None)
    def test_csv_inputs(self, fuzz_inputs, document):
        Path(fuzz_inputs["csv"]).write_bytes(document)
        for argv in CSV_COMMANDS:
            assert_cli_contract([a.format(**fuzz_inputs) for a in argv])

    @given(argv=argvs())
    @settings(max_examples=200, deadline=None)
    def test_argv(self, fuzz_inputs, argv):
        assert_cli_contract([a.format(**fuzz_inputs) for a in argv])
