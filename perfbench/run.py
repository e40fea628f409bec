"""Benchmark of fermiwell: three seeded workloads, checked, timed end to end.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

Run from the root of a checkout: fermiwell is imported from ./src.  Each
workload runs in fresh processes: SETUP_REPEATS of them time import and
warm-up, one more runs the closed loop.  Its outputs are then checked
against ``reference.py``.  With ``--trace 1`` the loop process also runs the
same rounds with every layer wrapped and the per-layer metrics are printed
instead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics (per workload with ``--all``); the
environment is printed on the line before and written with the metrics to
perfbench-out/.  Exit code 0 when every output passed its checks, 1 when
one did not, 2 when fermiwell or a worker could not be run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    """fermiwell or a worker process could not be run."""


def worker(job: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['workload']} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{job['workload']} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fermiwell").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(using_numba: bool) -> dict:
    return {
        "using_numba": using_numba,
        "python": platform.python_version(),
        **{name: importlib.metadata.version(name) for name in ("numpy", "scipy", "mpmath")},
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def make_job(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> tuple[dict, list[dict]]:
    """The worker's job, and the expectations that stay with the checks."""
    ins, expects = inputs.make(workload, seed)
    if quick:
        # The fixed rows come first; keep one of them and the last (seeded) two.
        ins, expects = ins[:1] + ins[-2:], expects[:1] + expects[-2:]
    job = {"workload": workload, "src": str(SRC), "warmup": inputs.WARMUP[workload], "inputs": ins,
           "seconds": seconds, "trace": trace, "quick": quick,
           "trace_file": str(OUT / f"trace-{workload}-seed{seed}.json") if trace else None}
    return job, expects


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    job, expects = make_job(workload, seed, seconds, trace, quick)
    ins = job["inputs"]
    setups = [worker(dict(job, mode="setup")) for _ in range(1 if quick else SETUP_REPEATS)]
    if trace:
        OUT.mkdir(exist_ok=True)
    run = worker(dict(job, mode="run"))
    problems = checks.check_round(workload, ins, expects, run["results"])
    if run["mismatched"]:
        problems.append(f"repeat: {run['mismatched']} operations gave another result than in round 1")
    errors = list(run["errors"])
    attempted = len(run["op_s"])
    if trace:
        errors += run["trace"]["errors"]
        attempted += run["trace"]["ops"]
        if run["trace"]["mismatched"]:
            problems.append(f"repeat: {run['trace']['mismatched']} traced operations gave another result")
        values = {**run["trace"]["values"], "setup.import_s": statistics.median(s["import_s"] for s in setups)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracer.PER_LAYER if name in values}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": len(run["op_s"]) / run["wall_s"],
            "op_p50_ms": 1e3 * statistics.median(run["op_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "workload": workload, "seed": seed, "rounds": run["rounds"], "inputs_per_round": len(ins),
        "environment": environment(run["using_numba"]),
        "result": {"correct": not problems, "attempted": attempted, "failed": len(errors), "metrics": metrics},
        "problems": problems, "errors": errors,
    }


def _report(rec: dict) -> None:
    res = rec["result"]
    for line in rec["problems"] + rec["errors"]:
        print(f"{rec['workload']}: {line}", file=sys.stderr)
    print(f"{rec['workload']} seed={rec['seed']} rounds={rec['rounds']}x{rec['inputs_per_round']} "
          f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")


def _save(name: str, data) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=inputs.WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one round of three inputs, one set-up")
    args = parser.parse_args(argv)
    if not (SRC / "fermiwell" / "__init__.py").is_file():
        print(f"no fermiwell sources under {SRC}; run from the root of a fermiwell checkout", file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.all else (args.workload,)
    records = []
    try:
        for workload in workloads:
            records.append(run_workload(workload, args.seed, args.seconds, bool(args.trace), args.quick))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    for rec in records:
        _report(rec)
    tag = "all" if args.all else args.workload
    _save(f"{tag}-seed{args.seed}-trace{args.trace}.json", records)
    print(json.dumps({"environment": records[0]["environment"]}))
    if args.all:
        print(json.dumps({rec["workload"]: rec["result"] for rec in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0 if all(rec["result"]["correct"] for rec in records) else 1


if __name__ == "__main__":
    sys.exit(main())
