"""xlmimo benchmark: four pinned CLI sweeps, timed end to end and traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sumrate --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): sumrate, sinr-m, corr-dist, heatmap, or
``all`` to run each in turn.  Every workload runs in fresh worker
processes (worker.py) through the public entry points ``cli.parse_config``
and ``cli.run``, with XLMIMO_THREADS unset (1 worker), and every table is
checked against references/ (tables.py).

--trace 0 measures the end-to-end metrics with tracing off:
points_per_s (sweep points per second: one random drop for sumrate, one
table row otherwise), sweep_s (median wall time of one complete sweep,
CSV and sidecar included), setup_s (median time to import xlmimo and
resolve the config in a fresh process), peak_rss_mb (peak resident memory
of the sweeping process).  failed_frac (failed / attempted sweeps) is
printed beside them and is the JSON's failed and attempted; a sweep fails
when it raises or its table fails the check.
--trace 1 runs the traced worker (tracer.py) and reports the per-layer
metrics, per sweep and as the median over the traced sweeps, together
with the tracing overhead and a thread-scaling diagnostic.

Metric names and units come from BENCHMARK.json.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exit code 1 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
RUNS = ROOT / ".bench_build" / "perfbench"

# Fresh processes timed for setup_s: the sweeping process plus probes.
SETUP_SAMPLES = 5
# Every worker process of one workload must finish within this budget.
WORKLOAD_BUDGET_S = 170.0


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed sweep)."""


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"cannot read {path.name}: {exc}") from None


def _worker_env() -> dict:
    """The environment users get: XLMIMO_THREADS unset, meaning 1 worker."""
    env = dict(os.environ)
    env.pop("XLMIMO_THREADS", None)
    return env


def _worker(mode: str, name: str, seed: int, seconds: float, out_dir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--out-dir", str(out_dir),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"{name}: out of time before the {mode} worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{name}: {mode} worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{name}: {mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _commit() -> str:
    """The checkout's git commit, or 'unknown' outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int, dict]:
    """Run one workload; returns (metric values, attempted, failed, environment)."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    RUNS.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS))
    try:
        # Warm-up process: compiles bytecode and fills the file cache, untimed.
        _worker("setup", name, seed, 0, out_dir, deadline)
        if trace:
            report = _worker("trace", name, seed, seconds, out_dir, deadline)
            values = report["metrics"]
            print(f"{name}: {report['traced_sweeps']} traced sweeps, "
                  f"{report['attempted']} sweeps, {report['failed']} failed")
        else:
            setups = [
                _worker("setup", name, seed, 0, out_dir, deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            report = _worker("sweeps", name, seed, seconds, out_dir, deadline)
            setups.append(report["setup_s"])
            times = report["sweep_s"]
            completed = report["attempted"] - report["failed"]
            values = {
                "points_per_s": report["points_per_sweep"] * completed / sum(times),
                "sweep_s": statistics.median(times),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": report["peak_rss_mb"],
            }
            print(f"{name}: sweep_s {_spread(times)}; setup_s {_spread(setups)}; "
                  f"{report['points_per_sweep']} points per sweep")
            print(f"{name}: failed_frac = {report['failed'] / report['attempted']:.6g} ratio "
                  f"({report['failed']} of {report['attempted']} sweeps)")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return values, report["attempted"], report["failed"], report["environment"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        wanted = _spec()["per_layer" if args.trace else "end_to_end"]
        attempted = failed = 0
        metrics = {}
        for name in names:
            values, tried, bad, env = measure(name, args.seed, args.seconds, bool(args.trace))
            attempted += tried
            failed += bad
            env.update(commit=_commit(), XLMIMO_THREADS_caller=os.environ.get("XLMIMO_THREADS"))
            print(f"{name}: environment {json.dumps(env, sort_keys=True)}")
            for metric in wanted:
                if metric["name"] not in values:
                    raise BenchmarkError(f"{name}: no value for metric {metric['name']}")
                value = values[metric["name"]]
                key = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
                metrics[key] = {"value": value, "unit": metric["unit"]}
                print(f"{name}: {metric['name']} = {value:.6g} {metric['unit']}")
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
