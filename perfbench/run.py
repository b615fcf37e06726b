#!/usr/bin/env python3
"""Benchmark of the sleepvar pipeline; see perfbench/README.md.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

This parent process imports no numpy.  It starts every child with its
BLAS thread setting already in the environment: the set-up probes, the
workload (perfbench/worker.py) and, on ``pipeline``, an ``irf`` run with
one BLAS thread whose CSV must match the workload's byte for byte.
The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``).  The full record, with the environment, goes to
``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / "perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# workload -> (kind run by the worker, BLAS threads: None keeps the default)
WORKLOADS = {
    "pipeline": ("pipeline", None),
    "pipeline-1t": ("pipeline", "1"),
    "explore": ("explore", "1"),
}
SETUP_PROBES = 4  # fresh interpreters per run besides the worker itself
DEADLINE_S = 170.0
REQUIRED = ("src/sleepvar/__init__.py", "data/sleep.csv", "data/mood.csv",
            "tests/golden/select_order_maxlags15.txt", "tests/golden/fit_report_p2.txt",
            "tests/golden/granger_score_all.txt", "BENCHMARK.json")


class BenchError(Exception):
    pass


def child_env(threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env.update(dict.fromkeys(THREAD_VARS, threads))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> tuple[str, str]:
    """Run a child to completion (killed and reaped at the deadline); its
    stdout and stderr."""
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child ran past the deadline: {' '.join(argv[1:3])}") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {' '.join(argv[1:3])}\n{proc.stderr[-4000:]}")
    return proc.stdout, proc.stderr


def spawn_worker(args: list[str], env: dict, deadline: float,
                 python_flags: tuple = ()) -> tuple[dict, float, str]:
    """A fresh worker; returns its JSON line, its set-up time in seconds and
    its stderr."""
    start = time.monotonic()
    out, err = run_child([sys.executable, *python_flags, str(WORKER), *args], env, deadline)
    doc = json.loads(out.splitlines()[-1])
    return doc, doc["ready"] - start, err


def import_split(importtime: str) -> dict:
    """Import milliseconds by package, from ``python -X importtime`` output.

    Each module's self time goes to the innermost numpy, scipy or sleepvar
    module that imported it (itself included), so stdlib modules count
    towards the package that needed them and the three parts do not
    overlap.  Modules the interpreter loads on its own count nowhere.  Also
    counts the scipy modules loaded, to show which parts sleepvar pulls in.
    """
    rows = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        cols = line.split("|")
        self_us = int(cols[0].split(":")[1])
        label = cols[2][1:]
        depth = (len(label) - len(label.lstrip(" "))) // 2
        rows.append((depth, label.strip(), self_us))
    totals = dict.fromkeys(("numpy", "scipy", "sleepvar"), 0)
    scipy_modules = 0
    stack: list[tuple[int, str | None]] = []
    for depth, name, self_us in reversed(rows):  # post-order reversed: parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".", 1)[0]
        tag = top if top in totals else (stack[-1][1] if stack else None)
        stack.append((depth, tag))
        if tag is not None:
            totals[tag] += self_us
        scipy_modules += top == "scipy"
    out = {f"setup.{k}_ms": v / 1e3 for k, v in totals.items()}
    out["setup.scipy_modules"] = scipy_modules
    return out


def environment(workload: str, threads: str | None) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sleepvar").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "blas_threads_env": {v: threads for v in THREAD_VARS} if threads else "unset (library default)",
        "blas_threads_by_workload": {w: t or "default" for w, (_, t) in WORKLOADS.items()},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def workload_metrics(kind: str, doc: dict) -> dict:
    """The end-to-end metrics under the names each workload gives them."""
    latency = doc["latency"]
    if not latency:
        return {}
    if kind == "pipeline":
        return {"pipeline_s": (latency["p50_ms"] / 1e3, "s")}
    out = {"round_p50_ms (5 sessions)": (latency["p50_ms"], "ms")}
    sessions = doc["part_latency"]
    out["session_p50_ms"] = (sessions["p50_ms"], "ms")
    if "tail_ms" in sessions:
        out[f"session_tail_ms (p{sessions['tail_pct']:g} of {sessions['samples']})"] = (sessions["tail_ms"], "ms")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a sleepvar checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    kind, threads = WORKLOADS[args.workload]
    env = child_env(threads)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT))
    try:
        # Traced runs split the probes' set-up by package with -X importtime.
        flags = ("-X", "importtime") if args.trace else ()
        probes = [spawn_worker(["--probe"], env, deadline, flags) for _ in range(SETUP_PROBES)]
        doc, worker_setup, _ = spawn_worker(
            ["--workload", kind, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--tmp", str(tmp), "--spans", str(OUT / f"{stem}-spans.jsonl")],
            env, deadline)
        attempted, failed, errors = doc["attempted"], doc["failed"], list(doc["errors"])
        if kind == "pipeline" and threads is None:
            # Cross-thread determinism: one BLAS thread must give the same IRF bytes.
            other = tmp / "irf-one-thread.csv"
            attempted += 2
            try:
                run_child([sys.executable, "-m", "sleepvar.cli", "irf", doc["model"], "--seed",
                           str(args.seed), "--replications", str(doc["replications"]), "-o", str(other)],
                          child_env("1"), deadline)
                same = other.read_bytes() == Path(doc["irf_csv"]).read_bytes()
                failed += not same
                if not same:
                    errors.append("check failed: IRF CSV bytes differ between BLAS thread settings")
            except BenchError as exc:
                failed += 2
                errors.append(f"irf with one BLAS thread: {exc}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setups = [s for _, s, _ in probes] + [worker_setup]
    imports = [import_split(err) for _, _, err in probes]
    latency = doc["latency"]
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": latency.get("p50_ms"),
        "ops_per_s": doc["units_per_s"],
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    if args.trace:
        values = dict(doc["layers"])
        values.update({k: statistics.median(i[k] for i in imports) for k in imports[0]})
    metrics = {}
    for m in wanted:
        if values.get(m["name"]) is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record = {
        "environment": {**environment(args.workload, threads), **doc["environment"]},
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_s_samples": setups,
        "units": doc["units"],
        "latency": latency,
        "latencies_ms": doc["latencies_ms"],
        "workload_metrics": workload_metrics(kind, doc),
        "fail_ratio": failed / attempted,
        "errors": errors,
        "metrics": metrics,
    }
    if args.trace:
        source = {**doc["layer_source"], **dict.fromkeys(imports[0], "setup probes, -X importtime")}
        record.update(layer_source=source, traced_units=doc["traced_units"],
                      traced_p50_ms=doc["traced_p50_ms"])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"environment {json.dumps(record['environment'])}")
    for name, m in metrics.items():
        tag = f"  [{record['layer_source'][name]}]" if args.trace else ""
        print(f"{name:34s} {m['value']:16.6g} {m['unit']}{tag}")
    if not args.trace:
        for name, (value, unit) in record["workload_metrics"].items():
            print(f"{name:34s} {value:16.6g} {unit}")
    print(f"{'fail_ratio':34s} {failed / attempted:16.6g} ({failed}/{attempted})")
    for e in errors:
        print(f"  {e}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
