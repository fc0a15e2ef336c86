"""One workload process of the benchmark: set up, time sweeps, check tables.

run.py starts this script in a fresh process for every measurement and
reads the JSON object it prints on its last line.  Modes:

* ``setup``: import xlmimo and resolve the config, then exit.
* ``sweeps``: also run complete sweeps (``cli.run``: dispatch, CSV and
  sidecar) until --seconds is used up, checking every table.
* ``trace``: untraced sweeps at 1 worker and at nproc workers, then
  traced sweeps that yield the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from tables import check
from workloads import SRC, WORKLOADS


def import_cli():
    """Import xlmimo from this checkout's src/, refusing any other copy."""
    if not (SRC / "xlmimo" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no xlmimo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import xlmimo.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"benchmark: imported xlmimo from {cli.__file__}, not {SRC}")
    return cli


class Sweeper:
    """Runs complete sweeps of one workload and checks every table they write."""

    def __init__(self, cli, workload, seed: int, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.reference = workload.reference(seed)
        self.csv = out_dir / f"{workload.name}.csv"
        self.sidecar = Path(cli.sidecar_path(str(self.csv)))
        self.first_table: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def sweep(self, cfg) -> float:
        """One sweep from cli.run to CSV plus sidecar; returns its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            self.cli.run(cfg, str(self.csv))
        except Exception as exc:  # a failed sweep is counted, and measuring goes on
            elapsed = time.perf_counter() - start
            self._fail(f"raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        self._check()
        return elapsed

    def _check(self) -> None:
        table = self.csv.read_bytes()
        if self.first_table is None:
            self.first_table = table
        elif table != self.first_table:
            self._fail("table differs from the first sweep of this run")
            return
        sidecar = json.loads(self.sidecar.read_text())
        rows = table.count(b"\n") - 1
        if sidecar["run"]["n_rows"] != rows:
            self._fail(f"sidecar n_rows {sidecar['run']['n_rows']} != {rows} table rows")
            return
        problems = check(self.csv, self.reference)
        if problems:
            self._fail("; ".join(problems[:3]))

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"benchmark: {self.workload.name} sweep {self.attempted} failed: {message}",
              file=sys.stderr)

    def timed(self, cfg, seconds: float) -> tuple[list[float], float]:
        """Sweep until the next sweep would end past `seconds`; at least one sweep.

        Returns the sweep times and the process CPU time per wall second.
        """
        times: list[float] = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while True:
            times.append(self.sweep(cfg))
            used = time.perf_counter() - wall0
            if used + statistics.median(times) > seconds:
                break
        cpu = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        return times, cpu


def _environment(cli) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "XLMIMO_THREADS": os.environ.get(cli.xp.THREADS_ENV),
        "xlmimo": cli.__version__,
    }


def _trace(cli, workload, cfg, sweeper: Sweeper, seconds: float) -> dict:
    """Untraced sweeps at 1 and nproc workers, then traced sweeps at 1 worker."""
    from tracer import Tracer, layer_metrics

    single, cpu_single = sweeper.timed(cfg, 0.3 * seconds)
    workers = os.cpu_count() or 1
    os.environ[cli.xp.THREADS_ENV] = str(workers)
    try:
        multi, cpu_multi = sweeper.timed(cfg, 0.25 * seconds)
    finally:
        del os.environ[cli.xp.THREADS_ENV]

    per_sweep: list[dict] = []
    traced_times: list[float] = []
    deadline = time.perf_counter() + 0.45 * seconds
    with Tracer() as tracer:
        while True:
            tracer.reset()
            traced_cfg = workload.config(cli, sweeper.seed)
            traced_times.append(sweeper.sweep(traced_cfg))
            tracer.verify()
            per_sweep.append(layer_metrics(tracer.spans, tracer.counts))
            if time.perf_counter() + statistics.median(traced_times) > deadline:
                break

    metrics = {
        name: statistics.median(m[name] for m in per_sweep) for name in per_sweep[0]
    }
    untraced = statistics.median(single)
    metrics.update({
        "process.cpu_per_wall": cpu_single,
        "trace.overhead_frac": statistics.median(traced_times) / untraced - 1.0,
        "scaling.threads_1.sweep_s": untraced,
        "scaling.threads_n.sweep_s": statistics.median(multi),
        "scaling.threads_n.cpu_per_wall": cpu_multi,
        "scaling.threads_n.workers": float(workers),
    })
    return {"metrics": metrics, "traced_sweeps": len(traced_times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "sweeps", "trace"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out-dir", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup_start = time.perf_counter()
    cli = import_cli()
    cfg = workload.config(cli, args.seed)
    setup_s = time.perf_counter() - setup_start
    report = {"setup_s": setup_s}
    if args.mode != "setup":
        sweeper = Sweeper(cli, workload, args.seed, args.out_dir)
        if args.mode == "sweeps":
            times, _ = sweeper.timed(cfg, args.seconds)
            report.update(sweep_s=times, points_per_sweep=workload.points(cfg))
        else:
            report.update(_trace(cli, workload, cfg, sweeper, args.seconds))
        report.update(
            attempted=sweeper.attempted,
            failed=sweeper.failed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            environment=_environment(cli),
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
