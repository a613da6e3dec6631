"""Running benchmark jobs in-process through ``nfdof.cli.main``.

The benchmark imports the package from the ``src`` tree next to this
directory and nowhere else, so it measures the checkout it sits in.
Scratch files (configs and CSVs) go to a directory inside that checkout
which is removed when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import Job, job_argv, job_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH_PREFIX = ".perfbench-"


class SetupError(RuntimeError):
    """The benchmark cannot run here: no package source, or another copy of it was imported."""


def import_nfdof():
    """Import ``nfdof`` from ``<checkout>/src``; refuse any other copy."""
    if not (SRC / "nfdof" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'nfdof'}")
    sys.path.insert(0, str(SRC))
    import nfdof
    import nfdof.cli

    if Path(nfdof.__file__).resolve().parent != SRC / "nfdof":
        raise SetupError(f"imported nfdof from {nfdof.__file__}, expected {SRC / 'nfdof'}")
    return nfdof


def scratch_dir() -> tempfile.TemporaryDirectory:
    return tempfile.TemporaryDirectory(prefix=SCRATCH_PREFIX, dir=ROOT)


@dataclass(frozen=True)
class Prepared:
    """A job with its files: the config is written, the CSV path is reserved."""

    job: Job
    argv: list[str]
    out_path: str | None


def prepare(jobs: list[Job], workdir: str) -> list[Prepared]:
    out = []
    for i, job in enumerate(jobs):
        config_path = out_path = None
        if job.config is not None:
            config_path = os.path.join(workdir, f"job{i:03d}.json")
            out_path = os.path.join(workdir, f"job{i:03d}.csv")
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write(job_text(job))
        out.append(Prepared(job, job_argv(job, config_path, out_path), out_path))
    return out


@dataclass(frozen=True)
class JobRun:
    code: int | None  # None when the job raised
    wall_s: float
    cpu_s: float
    stdout: str
    error: str = ""


def run_job(main, argv: list[str]) -> JobRun:
    """Run one CLI job; only the call itself is timed."""
    buf = io.StringIO()
    error = ""
    code = None
    with contextlib.redirect_stdout(buf):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a job that raises is counted as failed, the run goes on
            error = traceback.format_exc()
        t1 = time.perf_counter()
        cpu1 = time.process_time()
    return JobRun(code, t1 - t0, cpu1 - cpu0, buf.getvalue(), error)
