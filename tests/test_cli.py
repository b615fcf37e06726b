"""Command-line behavior: exit codes, outputs, determinism, JSON schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sleepvar as sv
from sleepvar.cli import main

from conftest import DATA_DIR, GOLDEN_DIR

SLEEP = str(DATA_DIR / "sleep.csv")
MOOD = str(DATA_DIR / "mood.csv")
SRC = str(Path(sv.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_with_threads(threads: str, *argv) -> bytes:
    """Run the CLI in a fresh interpreter with ``threads`` BLAS threads; its stdout bytes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sleepvar.cli", *argv],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


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
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, SLEEP, MOOD],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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

    def test_fit_on_missing_cells_is_data_error(self, tmp_path, capsys):
        merged = tmp_path / "m.csv"
        run(capsys, "ingest", "--oura", SLEEP, "--impute", "none", "-o", str(merged))
        code, _, err = run(capsys, "fit", str(merged), "--lags", "1")
        assert code == 2 and "missing" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_model_is_data_error(self, tmp_path, capsys, bad):
        merged, model = tmp_path / "m.csv", tmp_path / "model.json"
        run(capsys, "ingest", "--oura", SLEEP, "--emood", MOOD, "-o", str(merged))
        run(capsys, "fit", str(merged), "--lags", "2", "-o", str(model))
        doc = json.loads(model.read_text())
        doc["coef"][0][0][0] = bad
        model.write_text(json.dumps(doc))  # writes the NaN / Infinity tokens
        for argv in (("irf", str(model), "--replications", "100"),
                     ("granger", str(model), "--causing", "score")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "non-finite" in err and "Traceback" not in err


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
    def merged(self, tmp_path, capsys):
        path = tmp_path / "merged.csv"
        assert run(capsys, "ingest", "--oura", SLEEP, "--emood", MOOD,
                   "-o", str(path))[0] == 0
        return str(path)

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

    def test_granger_table(self, merged, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(capsys, "fit", merged, "--lags", "2", "-o", str(model))
        code, out, _ = run(capsys, "granger", str(model), "--causing", "score")
        assert code == 0
        assert out.splitlines()[0].startswith("Causal Variable")
        assert len(out.splitlines()) == 5
        code, out, _ = run(capsys, "granger", str(model), "--causing", "score",
                           "--caused", "depressed", "--json")
        doc = json.loads(out)
        assert len(doc) == 1 and doc[0]["reject_null"] is True

    def test_irf_csv_svg_and_json(self, merged, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(capsys, "fit", merged, "--lags", "2", "-o", str(model))
        svg = tmp_path / "irf.svg"
        code, out, _ = run(capsys, "irf", str(model), "--replications", "120",
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
        code, out, _ = run(capsys, "irf", str(model), "--replications", "120",
                           "--horizon", "4", "--json")
        doc = json.loads(out)
        assert doc["replications"] == 120 and len(doc["responses"]) == 5


class TestSimulateCommand:
    def test_simulate_round_trip(self, tmp_path, capsys):
        spec_doc = {
            "var_names": ["x", "y"],
            "p": 1,
            "intercept": [0.0, 0.0],
            "coef": [[[0.5, 0.1], [0.0, 0.4]]],
            "sigma_u": [[1.0, 0.0], [0.0, 1.0]],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_doc))
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


class TestIdempotence:
    def test_every_artifact_is_byte_stable(self, tmp_path, capsys):
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

    def test_irf_bytes_independent_of_blas_threads(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(capsys, "ingest", "--oura", SLEEP, "--emood", MOOD, "-o", str(tmp_path / "m.csv"))
        run(capsys, "fit", str(tmp_path / "m.csv"), "--lags", "2", "-o", str(model))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"irf{threads}.csv"
            cli_with_threads(threads, "irf", str(model), "--replications", "120",
                             "--seed", "0", "-o", str(out))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_select_order_bytes_independent_of_blas_threads(self, tmp_path, capsys):
        merged = tmp_path / "m.csv"
        run(capsys, "ingest", "--oura", SLEEP, "--emood", MOOD, "-o", str(merged))
        outputs = [
            cli_with_threads(threads, "select-order", str(merged), "--maxlags", "15")
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0] == (GOLDEN_DIR / "select_order_maxlags15.txt").read_bytes()
