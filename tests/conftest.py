"""Shared fixtures: the bundled dataset, canonical simulation specs, helpers."""

from __future__ import annotations

import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sleepvar as sv

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = REPO / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC = str(Path(sv.__file__).resolve().parents[1])


def run_python(*argv: str, threads: int | None = None, check: bool = True,
               text: bool = True) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a fresh interpreter that imports this sleepvar,
    at ``threads`` BLAS threads when given.  ``check`` asserts that it exits
    0, showing its stderr otherwise."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    if threads is not None:
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                 str(threads)))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=text,
                          timeout=300)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def frames_equal(a: sv.SeriesFrame, b: sv.SeriesFrame) -> bool:
    return (
        a.start_date == b.start_date
        and a.names == b.names
        and np.array_equal(a.values, b.values, equal_nan=True)
    )


def v1_model_text(fit: sv.VarFit) -> str:
    """``fit`` as a version-1 model document, the layout that schema wrote:
    every array as nested JSON lists, the eight derived ones included."""
    doc = {"version": 1, "var_names": list(fit.var_names), "p": fit.p, "t_eff": fit.t_eff}
    for name in ("intercept", "coef", "sigma_u", "sigma_u_ml", "intercept_se", "intercept_t",
                 "intercept_p", "coef_se", "coef_t", "coef_p", "residuals",
                 "normal_matrix_inverse"):
        doc[name] = getattr(fit, name).tolist()
    return json.dumps(doc) + "\n"


def make_frame(columns: dict[str, list], start=dt.date(2019, 2, 1)) -> sv.SeriesFrame:
    names = tuple(columns)
    vals = np.array(
        [[np.nan if v is None else float(v) for v in columns[n]] for n in names]
    ).T
    return sv.SeriesFrame(start, names, vals)


# A stable two-variable VAR(2) used across estimator/inference/irf tests.
VAR2_SPEC = sv.VarProcessSpec(
    var_names=("x", "y"),
    p=2,
    intercept=np.array([0.4, -0.1]),
    coef=np.array([[[0.5, 0.1], [0.0, 0.4]], [[0.25, 0.0], [0.1, 0.2]]]),
    innovation_cov=np.array([[1.0, 0.3], [0.3, 2.0]]),
)


@pytest.fixture(scope="session")
def var2_spec() -> sv.VarProcessSpec:
    return VAR2_SPEC


@pytest.fixture(scope="session")
def dataset_frame() -> sv.SeriesFrame:
    """Bundled synthetic dataset: ingested, merged, imputed."""
    merged = sv.merge([
        sv.ingest_sleep(DATA_DIR / "sleep.csv"),
        sv.ingest_mood(DATA_DIR / "mood.csv"),
    ])
    return sv.impute(merged)


@pytest.fixture(scope="session")
def dataset_fit(dataset_frame) -> sv.VarFit:
    return sv.fit_var(dataset_frame, 2)


@pytest.fixture(scope="session")
def quickstart_files(tmp_path_factory, dataset_frame, dataset_fit) -> dict[str, str]:
    """The quickstart's ``merged.csv`` and ``model.json`` of the bundled data,
    the bytes ``ingest`` and ``fit --lags 2`` write.  Shared: copy to edit."""
    root = tmp_path_factory.mktemp("quickstart")
    sv.write_frame_csv(dataset_frame, root / "merged.csv")
    sv.save_model(dataset_fit, root / "model.json")
    return {"merged": str(root / "merged.csv"), "model": str(root / "model.json")}
