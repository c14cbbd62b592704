"""surfdiff benchmark: time to a stability verdict, set-up, memory, per-layer trace.

Run from the root of a source checkout (the one holding ``src/surfdiff``):

    python3 perfbench/run.py --workload stationary-bubbles --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every measurement is a fresh interpreter (``worker.py``) with
``PYTHONPATH=src``, one BLAS/OpenMP thread, and its outputs in a temporary
directory under ``.bench_build/``.  A run first times ``SETUP_PROBES``
set-up-only processes, then runs the workload closed-loop, one process at a
time, until ``--seconds`` have been measured and at least ``MIN_RUNS`` runs
are done, and checks every run's outputs (Gronwall verdict, inequality
slacks, horizon or isoperimetric stop, byte-identical outputs across runs).

With ``--trace 0`` the result line carries the end-to-end metrics:
``wall_s`` (median time of the call into surfdiff, export included),
``setup_s`` (median fresh-process import plus input build) and
``peak_rss_mb`` (median process peak resident memory).  ``failed_frac`` is
printed above the result line and carried as ``failed`` / ``attempted``.
With ``--trace 1`` ``MIN_RUNS`` untraced runs and one traced run are made
and the result line carries the per-layer metrics of the traced run, plus
the tracing overhead (traced ``wall_s`` minus the untraced median).

The last line of standard output is the JSON result; the line starting with
``RECORD`` above it holds the seed, the generated inputs, the environment
and every sample.  The exit code is 0 only when every run passed the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2
MIN_RUNS = 2            # two runs per set, so every set checks byte-identical outputs
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170


def run_seconds() -> float:
    """The run length the benchmark declares in BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


class BenchError(Exception):
    """A process of the benchmark itself failed; no result can be given."""


def pinned_env(root: str, tmp: str) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
        TMPDIR=tmp,
    )
    return env


def spawn(root: str, env: dict, tmp: str, workload: str, seed: int, mode: str) -> dict:
    """Run one fresh worker process and return its result record."""
    out = tempfile.mkdtemp(prefix=f"{mode}-", dir=tmp)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out, "--mode", mode,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(os.path.join(out, "result.json")) as fh:
        record = json.load(fh)
    shutil.rmtree(out)
    return record


def environment(root: str, probe_env: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "surfdiff")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **probe_env,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def quartiles(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_workload(root: str, env: dict, tmp: str, workload: str, seed: int,
                 seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the record behind the result line."""
    probes = [spawn(root, env, tmp, workload, seed, "setup") for _ in range(SETUP_PROBES)]
    runs = []
    if trace:
        runs += [spawn(root, env, tmp, workload, seed, "run") for _ in range(MIN_RUNS)]
        runs.append(spawn(root, env, tmp, workload, seed, "trace"))
    else:
        measured = 0.0
        while measured < seconds or len(runs) < MIN_RUNS:
            t0 = time.monotonic()
            runs.append(spawn(root, env, tmp, workload, seed, "run"))
            measured += time.monotonic() - t0

    layers = None
    if trace:
        layers = tracer.layer_metrics(runs[-1]["trace"])
        untraced = statistics.median(r["wall_s"] for r in runs[:-1])
        layers["trace.untraced_wall_s"] = (untraced, "s")
        layers["trace.overhead_s"] = (runs[-1]["wall_s"] - untraced, "s")

    failures = []
    for k, run in enumerate(runs):
        failures.append(list(run["failures"]))
        if run["digest"] != runs[0]["digest"]:
            failures[k].append("outputs differ from the first run of this seed")
    return {
        "workload": workload,
        "seed": seed,
        "inputs": probes[0]["inputs"],
        "environment": environment(root, probes[0]["environment"]),
        "setup_s": [p["setup_s"] for p in probes] + [r["setup_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "digests": [r["digest"] for r in runs],
        "failures": failures,
        "series": runs[0]["series"],
        "layers": layers,
    }


def metrics_of(record: dict, trace: bool) -> dict:
    """The metrics of the result line: end-to-end, or per-layer when traced."""
    if not trace:
        return {name: {"value": statistics.median(record[name]), "unit": unit}
                for name, unit in (("wall_s", "s"), ("setup_s", "s"),
                                   ("peak_rss_mb", "MB"))}
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in record["layers"].items()}


def report(record: dict, metrics: dict, trace: bool) -> None:
    failed = sum(1 for f in record["failures"] if f)
    attempted = len(record["failures"])
    print(f"workload {record['workload']}  seed {record['seed']}  runs {attempted}")
    for name, m in metrics.items():
        line = f"  {name:<40} {m['value']:.6g} {m['unit']}"
        if not trace:
            q1, _, q3 = quartiles(record[name])
            line += f"  (median of {len(record[name])}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    print(f"  {'failed_frac':<40} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} runs)")
    for k, fails in enumerate(record["failures"]):
        for msg in fails:
            print(f"  FAILED run {k}: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    # a terminated run still kills its worker and removes its temporary files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "surfdiff", "__init__.py")):
        print(f"error: no src/surfdiff under {root}; run from the root of a "
              "surfdiff source checkout", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=build)
    env = pinned_env(root, tmp)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = {}
    try:
        for name in names:
            record = run_workload(root, env, tmp, name, args.seed, args.seconds, trace)
            metrics = metrics_of(record, trace)
            report(record, metrics, trace)
            print("RECORD " + json.dumps(record))
            failed = sum(1 for f in record["failures"] if f)
            results[name] = {"correct": failed == 0, "attempted": len(record["failures"]),
                             "failed": failed, "metrics": metrics}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
