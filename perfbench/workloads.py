"""Seeded jobs for the four benchmark workloads.

A job is one ``nfdof`` CLI invocation: a subcommand, a scenario document
(or none, for ``validate``) and extra options.  A workload is a list of
rounds; a round is the smallest group of jobs whose total work does not
depend on the seed, so a run always measures whole rounds.  Every
workload generates ``POOL_JOBS`` jobs up front; a run that finishes them
before its time is up starts over from the first round.

The seed changes which inputs are drawn and their order, never the
amount of work in a round.  ``job_text`` renders a scenario with sorted
keys, so the same seed gives byte-identical configs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("kmax", "spectrum", "maps", "validate")
POOL_JOBS = 64

LAMBDA_M = 0.01
LS = 100.0
LP = 100.0

# kmax: placements come from a fixed pool whose EK values were computed by
# the program and stored, so every kmax job has a reference answer.
KMAX_POOL_SEED = 20_241_205
KMAX_REFERENCE = Path(__file__).with_name("kmax_reference.json")

# spectrum: each round holds every Lp once.  The Jacobi cost grows with the
# K number (about Lp * alpha), so the subtended angle is drawn from a narrow
# band (R about 1000 to 2000, K about 2.5 to 11): with R drawn freely from
# [300, 1000] one job's time varied about twofold with the placement, which
# a 15 s run could not average out.
SPECTRUM_LP = (50.0, 100.0, 150.0, 200.0)
SPECTRUM_ALPHA = (0.05, 0.055)
SPECTRUM_SEARCH = {"grid": [8, 8], "quad_points": 3}

MAXBW_GRID = 601
LOCALBW_GRID = 181
VALIDATE_CASES = 200


@dataclass(frozen=True)
class Job:
    command: str
    options: tuple[str, ...] = ()
    config: dict | None = None
    # What the output check needs beyond the config (e.g. a reference EK).
    expect: dict = field(default_factory=dict)


def job_text(job: Job) -> str:
    """The scenario document exactly as the program reads it."""
    return json.dumps(job.config, sort_keys=True, indent=1) + "\n"


def job_argv(job: Job, config_path: str | None, out_path: str | None) -> list[str]:
    argv = [job.command]
    if job.config is not None:
        argv += ["--config", config_path, "--out", out_path]
    return argv + list(job.options)


def rounds(workload: str, seed: int) -> list[list[Job]]:
    """All rounds of ``workload`` for ``seed`` (POOL_JOBS jobs in total)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng)


def placement_from_alpha(alpha: float, theta: float, Ls: float) -> float:
    """Distance R at which a length-Ls segment subtends ``alpha`` from polar angle ``theta``.

    From tan(alpha) = Ls R cos(theta) / (R^2 - (Ls/2)^2), the positive root.
    """
    h = 0.5 * Ls
    c = math.cos(theta)
    t = math.tan(alpha)
    return h * (c + math.sqrt(c * c + t * t)) / t


def kmax_pool(n: int = POOL_JOBS) -> list[tuple[float, float]]:
    """The (R, theta) placements of the kmax pool: R in [300, 1000], theta in [0, pi/3]."""
    rng = np.random.default_rng(KMAX_POOL_SEED)
    return [
        (float(rng.uniform(300.0, 1000.0)), float(rng.uniform(0.0, math.pi / 3.0)))
        for _ in range(n)
    ]


def load_kmax_reference() -> list[dict]:
    with open(KMAX_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["placements"]


def kmax_job(R: float, theta: float, expect: dict | None = None) -> Job:
    config = {
        "lambda_m": LAMBDA_M,
        "Ls": LS,
        "Lp": LP,
        "placement": {"R": R, "theta": theta},
        "sweep": {"variable": "R", "start": R, "stop": R, "count": 1},
        "theta_list": [theta],
    }
    return Job("kmax-sweep", config=config, expect=expect or {})


def _kmax(rng: np.random.Generator) -> list[list[Job]]:
    pool = load_kmax_reference()
    order = rng.permutation(len(pool))[:POOL_JOBS]
    return [[kmax_job(pool[i]["R"], pool[i]["theta"], {"EK": pool[i]["EK"]})] for i in order]


def _spectrum(rng: np.random.Generator) -> list[list[Job]]:
    out = []
    for _ in range(POOL_JOBS // len(SPECTRUM_LP)):
        round_ = []
        for Lp in rng.permutation(SPECTRUM_LP):
            theta = float(rng.uniform(0.0, math.pi / 3.0))
            alpha = float(rng.uniform(*SPECTRUM_ALPHA))
            R = placement_from_alpha(alpha, theta, LS)
            config = {
                "lambda_m": LAMBDA_M,
                "Ls": LS,
                "Lp": float(Lp),
                "placement": {"R": R, "theta": theta},
                "orientation": "optimal",
                "spacing_s": 0.5,
                "spacing_p": 0.5,
                **SPECTRUM_SEARCH,
            }
            round_.append(Job("svd-spectrum", config=config))
        out.append(round_)
    return out


def _map_scenario(rng: np.random.Generator) -> dict:
    return {
        "lambda_m": LAMBDA_M,
        "Ls": float(rng.uniform(50.0, 150.0)),
        "Lp": LP,
        "placement": {
            "R": float(rng.uniform(300.0, 1000.0)),
            "theta": float(rng.uniform(0.0, math.pi / 3.0)),
        },
    }


def _maps(rng: np.random.Generator) -> list[list[Job]]:
    out = []
    for _ in range(POOL_JOBS // 2):
        extent = float(rng.uniform(100.0, 400.0))
        maxbw = Job(
            "maxbw-map",
            ("--grid", str(MAXBW_GRID), "--extent", repr(extent)),
            _map_scenario(rng),
            {"grid": MAXBW_GRID, "extent": extent},
        )
        localbw = Job(
            "localbw-sweep",
            ("--grid", str(LOCALBW_GRID)),
            _map_scenario(rng),
            {"grid": LOCALBW_GRID},
        )
        out.append([maxbw, localbw])
    return out


def _validate(rng: np.random.Generator) -> list[list[Job]]:
    seeds = rng.integers(0, 2**31 - 1, size=POOL_JOBS)
    return [
        [Job("validate", ("--seed", str(int(s)), "--cases", str(VALIDATE_CASES)))]
        for s in seeds
    ]


_GENERATORS = {"kmax": _kmax, "spectrum": _spectrum, "maps": _maps, "validate": _validate}
