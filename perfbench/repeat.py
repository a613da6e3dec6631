"""Run the benchmark once per seed and workload; print each metric's median and spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads kmax,maps] [--trace 0] [--out FILE]

Runs are sequential, each in a fresh process, with ``run_seconds`` from
BENCHMARK.json; for each seed in turn every workload runs once.  For every
workload and metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, which is what each
end-to-end metric's bound in BENCHMARK.json is compared with, and the
longest run's wall time.  ``--out`` writes the same summary, with every
run's values, wall times and provenance, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {out.returncode}: {out.stderr.strip()}")
    prov = next((json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("provenance: ")), {})
    return json.loads(lines[-1]), prov


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    report = {"run_seconds": BENCHMARK["run_seconds"], "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    names = args.workloads.split(",")
    runs = {w: [] for w in names}
    durations = {w: [] for w in names}
    provenance = {}
    # Seeds outside, workloads inside: a slow spell of the machine then falls
    # on every workload instead of on the consecutive runs of one.
    for seed in args.seeds:
        for workload in names:
            t0 = time.perf_counter()
            result, provenance[workload] = one_run(workload, seed, args.trace)
            durations[workload].append(time.perf_counter() - t0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)", file=sys.stderr)
            runs[workload].append(result)
    for workload in names:
        metrics = {}
        for name in runs[workload][0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs[workload]])
            metrics[name]["unit"] = runs[workload][0]["metrics"][name]["unit"]
        report["workloads"][workload] = {
            "metrics": metrics,
            "attempted": sum(r["attempted"] for r in runs[workload]),
            "failed": sum(r["failed"] for r in runs[workload]),
            "run_wall_s": durations[workload],
            "provenance": provenance[workload],
        }
        summary = report["workloads"][workload]
        print(f"{workload}: {len(runs[workload])} runs, {summary['failed']} failed jobs, "
              f"longest run {max(durations[workload]):.1f} s")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:g}{'  OVER A THIRD' if s['spread'] > bound / 3 else ''}"
            print(f"  {name:<34} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} {s['unit']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
