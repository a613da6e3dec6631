"""One set-up of a benchmark workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what a run does before its first job: import the package,
generate the workload's configs from the seed, write them and parse them
back the way the CLI does.  Prints its seconds at the reference speed
(speed.py) and its wall seconds.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

from speed import SpeedProbe  # noqa: E402

SETUP_INTERVAL_S = 0.005  # set-up takes a few tenths of a second


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    with SpeedProbe(SETUP_INTERVAL_S) as probe:
        from execute import import_nfdof, prepare, scratch_dir
        from workloads import rounds

        nfdof = import_nfdof()
        jobs = [job for round_ in rounds(workload, seed) for job in round_]
        with scratch_dir() as workdir:
            for prep in prepare(jobs, workdir):
                if prep.job.config is None:
                    continue
                with open(prep.argv[prep.argv.index("--config") + 1], encoding="utf-8") as fh:
                    text = fh.read()
                if prep.job.command == "svd-spectrum":
                    nfdof.scenario.parse_scenarios(text)
                else:
                    nfdof.scenario.parse_scenario(text)
            elapsed = time.perf_counter() - T0
    print(repr(elapsed * probe.scale()), repr(elapsed))


if __name__ == "__main__":
    main()
