"""Recompute kmax_reference.json: EK for every placement of the kmax pool.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

Each placement runs as one ``kmax-sweep`` job through the CLI, exactly as
the benchmark runs it, so the stored EK is what the program printed at the
commit the file was made from.  A change that alters EK on purpose
regenerates this file in a change of its own.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from checks import read_csv
from execute import import_nfdof, prepare, run_job, scratch_dir
from workloads import KMAX_POOL_SEED, KMAX_REFERENCE, kmax_job, kmax_pool


def ek_of(placement: tuple[float, float]) -> float:
    nfdof = import_nfdof()
    with scratch_dir() as workdir:
        (prep,) = prepare([kmax_job(*placement)], workdir)
        run = run_job(nfdof.cli.main, prep.argv)
        if run.code != 0:
            raise RuntimeError(f"kmax-sweep failed at {placement}: {run.code} {run.error}")
        with open(prep.out_path, encoding="utf-8") as fh:
            _, body = read_csv(fh.read())
    return float(body[0, 3])


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    pool = kmax_pool()
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1), mp_context=ctx) as ex:
        eks = list(ex.map(ek_of, pool))
    nfdof = import_nfdof()
    doc = {
        "pool_seed": KMAX_POOL_SEED,
        "made_with": {
            "nfdof": nfdof.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "placements": [{"R": R, "theta": theta, "EK": ek} for (R, theta), ek in zip(pool, eks)],
    }
    with open(KMAX_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
