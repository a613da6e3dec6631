"""nfdof benchmark: seeded CLI jobs run in-process, timed, checked and optionally traced.

    python3 perfbench/run.py --workload kmax --seed 1 --seconds 15 --trace 0

One client runs jobs one after another (a closed loop).  With ``--trace 0``
the run measures whole rounds of jobs until ``--seconds`` of job time
has passed and reports the end-to-end metrics, with every time scaled to
the machine's reference speed (speed.py).  With ``--trace 1`` it
does the same untraced pass, then replays some of its rounds with every
probed package function wrapped in a span, and reports the per-layer
metrics and the tracing overhead.  Each job's output is checked after the
job, outside its timed region.  The last line of standard output is the
result as JSON; the lines before it list every metric with its unit.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # fresh interpreters per run, after one that fills the bytecode cache
WORKLOADS = ("kmax", "spectrum", "maps", "validate")  # workloads.WORKLOADS, which imports numpy
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_FEW = 90.0  # reported when no ladder percentile has TAIL_BEYOND samples above it

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def pin_blas_threads() -> int:
    """Run BLAS/OpenMP pools single-threaded; returns the CPUs this process may use.

    The spectrum jobs make many tiny matrix products; with a second OpenBLAS
    thread they used about 30% more CPU for the same wall time and their
    run-to-run spread grew from about 3% to about 10% on a 2-CPU machine.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest ladder percentile with TAIL_BEYOND samples above it.

    With fewer than 4 * TAIL_BEYOND samples no ladder percentile qualifies and
    TAIL_FEW is reported: the maximum of the 20 to 30 jobs of a validate run
    moved with single jobs.  The median is left off the ladder: it is close to
    job_p50_s, and a workload whose job count straddled the step would flip
    between two different statistics from run to run.
    """
    import numpy as np

    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 100.0 * TAIL_BEYOND - 1e-6:
            return float(np.percentile(latencies, p)), p
    return float(np.percentile(latencies, TAIL_FEW)), TAIL_FEW


def provenance(nfdof, nproc: int) -> dict:
    import numpy as np

    def git(*args: str) -> str | None:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(HERE.parent.parent))
        try:
            out = subprocess.run(
                ["git", "--no-optional-locks", "-C", str(HERE.parent), *args],
                capture_output=True, text=True, timeout=30, env=env,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if sha else None,
        "nproc": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nfdof": nfdof.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up seconds (at the reference speed, wall) of SETUP_REPEATS fresh interpreters.

    One more interpreter runs first, untimed.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=HERE.parent,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
        if i:
            scaled, wall = out.stdout.split()[-2:]
            times.append((float(scaled), float(wall)))
    return times


class Pass:
    """One sequence of jobs: latencies, CPU time, machine speed and failures."""

    def __init__(self) -> None:
        # (job index, wall s, cpu s, speed scale: reference-speed s per wall s)
        self.records: list[tuple[int, float, float, float]] = []
        self.failures: list[str] = []

    @property
    def wall_s(self) -> float:
        return sum(r[1] for r in self.records)

    def latencies(self) -> list[float]:
        """Job latencies in seconds at the reference speed (see speed.py)."""
        return [r[1] * r[3] for r in self.records]


def run_jobs(cli, prepared, order: list[int], p: Pass, checker, recorder=None) -> None:
    """Run jobs in ``order``; ``checker`` (a check_worker.CheckWorker) checks each output."""
    from execute import run_job
    from speed import SpeedProbe

    for index in order:
        prep = prepared[index]
        if recorder is not None:
            recorder.job_id = len(p.records)
        with SpeedProbe() as probe:
            run = run_job(cli.main, prep.argv)
        p.records.append((index, run.wall_s, run.cpu_s, probe.scale()))
        mismatch = checker.check(prep.job, run.code, run.stdout, prep.out_path)
        if mismatch is not None:
            p.failures.append(f"job {index} {' '.join(prep.argv)}: {mismatch} {run.error}".strip())


def timed_rounds(cli, prepared, round_slices, seconds: float, p: Pass,
                 checker) -> list[tuple[list[int], float]]:
    """Run whole rounds, cycling through the pool from the second round, until ``seconds`` of job time.

    Returns each round's job indices with its job time at the reference speed.
    """
    done = []
    while p.wall_s < seconds:
        order = round_slices[1 + len(done) % (len(round_slices) - 1)]
        before = len(p.records)
        run_jobs(cli, prepared, order, p, checker)
        done.append((order, sum(p.latencies()[before:])))
    return done


def replay_rounds(done: list[tuple[list[int], float]], seconds: float) -> tuple[list[int], float]:
    """Rounds for the traced pass: about a quarter of the measured time, at least one round."""
    order, total = [], 0.0
    for indices, round_s in done:
        if order and total >= 0.25 * seconds:
            break
        order += indices
        total += round_s
    return order, total


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nfdof benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="job time measured per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="with --trace 1, also write every span as JSON lines")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    nproc = pin_blas_threads()
    try:
        from execute import SetupError, import_nfdof, prepare, scratch_dir

        nfdof = import_nfdof()
    except (ImportError, SetupError) as exc:
        print(f"perfbench: cannot import the package from this checkout: {exc}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from check_worker import CheckWorker
    from spans import SpanRecorder

    prov = provenance(nfdof, nproc)
    cli = nfdof.cli
    rounds = workloads.rounds(args.workload, args.seed)
    jobs = [job for round_ in rounds for job in round_]
    round_slices, start = [], 0
    for round_ in rounds:
        round_slices.append(list(range(start, start + len(round_))))
        start += len(round_)

    # Outputs are checked in a child process, so that the check's memory
    # (a whole 361,201-row CSV, parsed) does not set this process's peak RSS.
    with CheckWorker() as checker, scratch_dir() as workdir:
        prepared = prepare(jobs, workdir)
        setup = measure_setup(args.workload, args.seed)

        # The first round runs untimed: in one process only the first jobs pay
        # first-call costs (fresh pages, cold caches), and timing them with
        # warm jobs would make the tail a measure of the first job alone.
        warmup = Pass()
        run_jobs(cli, prepared, round_slices[0], warmup, checker)
        untraced = Pass()
        done = timed_rounds(cli, prepared, round_slices, args.seconds, untraced, checker)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = len(warmup.records) + len(untraced.records)
        failures = warmup.failures + untraced.failures
        latencies = untraced.latencies()

        if args.trace:
            order, replay_s = replay_rounds(done, args.seconds)
            recorder = SpanRecorder()
            traced = Pass()
            patches = layers.install(recorder)
            try:
                run_jobs(cli, prepared, order, traced, checker, recorder)
            finally:
                patches.restore()
            attempted += len(traced.records)
            failures += traced.failures
            spans = recorder.table()
            problems = layers.self_check(spans, [jobs[i] for i in order])
            layer = layers.layer_metrics(spans, len(order), sum(r[2] for r in traced.records))
            layer["trace_overhead_frac"] = sum(traced.latencies()) / replay_s - 1.0
            if args.spans:
                spans.write_jsonl(args.spans)

    n = len(latencies)
    tail_value, tail_pct = tail(latencies)
    end_to_end = {
        "jobs_per_s": n / sum(latencies),
        # The median over rounds of a round's mean job latency.  In the maps
        # and spectrum workloads a round mixes job kinds whose sizes differ up
        # to tenfold, and the median job then sits at the edge of one kind (the
        # fastest maxbw-map of a run, say) and moves with that one job.  A
        # kmax or validate round is one job, so there it is the median job.
        "job_p50_s": statistics.median(round_s / len(order) for order, round_s in done),
        "job_tail_s": tail_value,
        "setup_s": statistics.median(t for t, _ in setup),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - len(failures)) / attempted,
    }

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"jobs={n} rounds={len(done)} pass_wall_s={untraced.wall_s:.4f}")
    print(f"  job wall times (s): {' '.join(f'{r[1]:.3f}' for r in untraced.records)}")
    print(f"  machine speed per job (reference = 1): {' '.join(f'{r[3]:.3f}' for r in untraced.records)}")
    print(f"  job latencies at the reference speed (s): {' '.join(f'{t:.3f}' for t in latencies)}")
    print(f"  job_tail_s is p{tail_pct:g} of {n} jobs; setup_s is the median of {len(setup)} "
          f"fresh interpreters ({' '.join(f'{t:.3f}' for t, _ in setup)} at the reference speed; "
          f"{' '.join(f'{w:.3f}' for _, w in setup)} wall); "
          f"fail_frac = {len(failures)}/{attempted}")
    for name, value in end_to_end.items():
        print(f"  {name:<34} {value:>14.6g} {END_TO_END_UNITS[name]}")
    if args.trace:
        units = {name: unit for name, (unit, _) in layers.LAYER_UNITS.items()}
        print(f"traced: {len(order)} jobs, {len(spans)} spans")
        for name, value in layer.items():
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        for line in problems:
            print(f"SELF-CHECK {line}", file=sys.stderr)

    if args.trace:
        metrics = {name: metric(value, units[name]) for name, value in layer.items()}
        correct = not failures and not problems
    else:
        metrics = {name: metric(value, END_TO_END_UNITS[name]) for name, value in end_to_end.items()}
        correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
