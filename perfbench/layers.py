"""Per-layer metrics: which package functions are traced and what is derived from their spans.

The layers are the ``nfdof`` modules.  ``install`` wraps each probed
function at every module binding that holds it (and probed methods on
their class); ``layer_metrics`` turns the recorded spans into per-job
numbers; ``self_check`` compares recorded counts with the counts the
program is known to produce, so a wrapper that misses a binding fails the
run instead of reporting zero.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from spans import After, Before, Patches, SpanRecorder, SpanTable, traced

REFINE_POINTS = 21  # knumber._REFINE_POINTS: the refine grid is 21 x 21
PERIODICITY_GRID = 41  # validation.check_periodicity default grid_n
PERIODICITY_CASES = 10  # run_validation caps the periodicity check at 10 cases


class _CountingIntegrand:
    __slots__ = ("f", "calls")

    def __init__(self, f) -> None:
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def _count_integrand(args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    return (_CountingIntegrand(args[0]),) + args[1:], kwargs


def _integrate_attrs(args, kwargs, result) -> dict:
    rule = args[3] if len(args) > 3 else kwargs["rule"]
    return {"nodes": rule.nodes, "f_evals": args[0].calls}


def _gram_attrs(args, kwargs, result) -> dict:
    m, n = args[0].entries.shape
    k = min(m, n)
    # complex128: H read once, the k x k Gram matrix written once
    return {"gram_bytes": 16 * (m * n + k * k)}


def _stream_bytes(stream) -> int:
    try:
        return int(stream.tell())
    except (OSError, ValueError):
        return 0


@dataclass(frozen=True)
class Probe:
    module: str  # defining module, without the package prefix
    name: str  # function name, or Class.method
    before: Before | None = None
    after: After | None = None


PROBES = (
    Probe("geometry", "canonicalize"),
    Probe("geometry", "geometry_angles"),
    Probe("bandwidth", "local_bandwidth_closed"),
    Probe("bandwidth", "local_bandwidth_oracle"),
    Probe("bandwidth", "omega_grid"),
    Probe("numerics", "integrate", _count_integrand, _integrate_attrs),
    Probe("numerics", "hermitian_eigenvalues", after=lambda a, k, r: {"order": int(np.shape(a[0])[0])}),
    Probe("knumber", "k_number_numeric", after=lambda a, k, r: {"k": r.value}),
    Probe("knumber", "k_number_center"),
    Probe("knumber", "k_number_max"),
    Probe(
        "knumber",
        "maximize_k",
        after=lambda a, k, r: {"grid": list(r.grid_resolution), "ek": r.best_k.value},
    ),
    Probe("channel", "antenna_grid"),
    Probe("channel", "los_channel", after=lambda a, k, r: {"entries": int(r.entries.size)}),
    Probe("channel", "singular_spectrum", after=_gram_attrs),
    Probe("channel", "edof_threshold"),
    Probe("channel", "edof_quadratic"),
    Probe("scenario", "parse_scenario"),
    Probe("scenario", "parse_scenarios"),
    Probe(
        "scenario",
        "SweepTable.write_csv",
        after=lambda a, k, r: {"rows": len(a[0].rows), "bytes": _stream_bytes(a[1])},
    ),
    Probe("validation", "run_validation", after=lambda a, k, r: {"cases": sum(c.cases for c in r.results)}),
    Probe("validation", "check_closed_vs_oracle"),
    Probe("validation", "check_angles"),
    Probe("validation", "check_orientation_maximum"),
    Probe("validation", "check_branch_continuity"),
    Probe("validation", "check_periodicity"),
    Probe("cli", "main"),
    Probe("cli", "cmd_localbw_sweep"),
    Probe("cli", "cmd_maxbw_map"),
    Probe("cli", "cmd_kmax_sweep"),
    Probe("cli", "cmd_svd_spectrum"),
)

VALIDATION_CHECKS = {
    "closed_vs_oracle": "check_closed_vs_oracle",
    "angles": "check_angles",
    "orientation_maximum": "check_orientation_maximum",
    "branch_continuity": "check_branch_continuity",
    "periodicity": "check_periodicity",
}
# name -> (unit, better); BENCHMARK.json lists the same names in this order.
LAYER_UNITS = {
    "knumber.search_calls": ("count", "lower"),
    "knumber.search_s": ("s", "lower"),
    "knumber.quad_calls": ("count", "lower"),
    "knumber.quad_s": ("s", "lower"),
    "knumber.evals_per_search": ("count", "lower"),
    "knumber.refine_gain": ("K", "higher"),
    "knumber.closed_s": ("s", "lower"),
    "bandwidth.closed_calls": ("count", "lower"),
    "bandwidth.closed_s": ("s", "lower"),
    "bandwidth.closed_us_per_call": ("us", "lower"),
    "bandwidth.oracle_calls": ("count", "lower"),
    "bandwidth.oracle_s": ("s", "lower"),
    "bandwidth.grid_s": ("s", "lower"),
    "geometry.canonicalize_calls": ("count", "lower"),
    "geometry.canonicalize_s": ("s", "lower"),
    "geometry.angles_calls": ("count", "lower"),
    "geometry.angles_s": ("s", "lower"),
    "numerics.integrate_calls": ("count", "lower"),
    "numerics.integrate_s": ("s", "lower"),
    "numerics.f_evals": ("count", "lower"),
    "numerics.useful_eval_frac": ("frac", "higher"),
    "numerics.jacobi_calls": ("count", "lower"),
    "numerics.jacobi_s": ("s", "lower"),
    "numerics.jacobi_order": ("count", "lower"),
    "channel.los_calls": ("count", "lower"),
    "channel.los_s": ("s", "lower"),
    "channel.entries": ("count", "lower"),
    "channel.spectrum_self_s": ("s", "lower"),
    "channel.gram_bytes": ("B", "lower"),
    "scenario.parse_s": ("s", "lower"),
    "scenario.emit_s": ("s", "lower"),
    "scenario.rows": ("count", "higher"),
    "scenario.bytes": ("B", "lower"),
    "scenario.emit_rows_per_s": ("1/s", "higher"),
    "cli.job_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.cpu_s": ("s", "lower"),
    "validation.cases": ("count", "higher"),
    **{f"validation.check_s.{short}": ("s", "lower") for short in VALIDATION_CHECKS},
    "trace_overhead_frac": ("frac", "lower"),
}


# Probes every job of a subcommand reaches at this commit.
REQUIRED = {
    "kmax-sweep": (
        "scenario.parse_scenario", "cli.cmd_kmax_sweep", "knumber.k_number_max",
        "knumber.maximize_k", "knumber.k_number_numeric", "numerics.integrate",
        "bandwidth.local_bandwidth_closed", "geometry.canonicalize",
        "geometry.geometry_angles", "scenario.SweepTable.write_csv",
    ),
    "svd-spectrum": (
        "scenario.parse_scenarios", "cli.cmd_svd_spectrum", "channel.antenna_grid",
        "channel.los_channel", "channel.singular_spectrum", "numerics.hermitian_eigenvalues",
        "knumber.k_number_center", "knumber.maximize_k", "knumber.k_number_numeric",
        "numerics.integrate", "channel.edof_threshold", "channel.edof_quadratic",
        "scenario.SweepTable.write_csv",
    ),
    "maxbw-map": ("scenario.parse_scenario", "cli.cmd_maxbw_map", "scenario.SweepTable.write_csv"),
    "localbw-sweep": (
        "scenario.parse_scenario", "cli.cmd_localbw_sweep", "geometry.geometry_angles",
        "bandwidth.omega_grid", "scenario.SweepTable.write_csv",
    ),
    "validate": (
        "validation.run_validation", "bandwidth.local_bandwidth_closed",
        "bandwidth.local_bandwidth_oracle", "bandwidth.omega_grid", "geometry.canonicalize",
        "geometry.geometry_angles",
    ) + tuple(f"validation.{fn}" for fn in VALIDATION_CHECKS.values()),
}


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every probe at every binding in the loaded ``nfdof`` modules."""
    modules = {
        name: mod for name, mod in sys.modules.items()
        if (name == "nfdof" or name.startswith("nfdof.")) and mod is not None
    }
    patches = Patches()
    for probe in PROBES:
        owner = modules[f"nfdof.{probe.module}"]
        full = f"{probe.module}.{probe.name}"
        if "." in probe.name:
            cls_name, meth = probe.name.split(".")
            cls = getattr(owner, cls_name)
            patches.set(cls, meth, traced(recorder, full, getattr(cls, meth), probe.before, probe.after))
            continue
        original = getattr(owner, probe.name)
        for mod_name, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    site = mod_name.rpartition(".")[2]
                    wrapper = traced(recorder, f"{full}@{site}", original, probe.before, probe.after)
                    patches.set(mod, attr, wrapper)
    return patches


class _Index:
    """Per-span lookups by probe name (bindings merged unless a site is given)."""

    def __init__(self, spans: SpanTable) -> None:
        self.spans = spans
        self.dur = spans.durations()
        self.self_t = spans.self_times()
        self._base = np.array([n.split("@")[0] for n in spans.names] or [""], dtype=object)
        self._site = np.array([n.partition("@")[2] for n in spans.names] or [""], dtype=object)

    def base_of(self, name_id: int) -> str:
        return self._base[name_id]

    def mask(self, base: str, site: str | None = None) -> np.ndarray:
        ids = self._base == base
        if site is not None:
            ids &= self._site == site
        return ids[self.spans.name] if len(self.spans) else np.zeros(0, dtype=bool)

    def attr(self, base: str, key: str) -> np.ndarray:
        idx = np.flatnonzero(self.mask(base))
        return np.array([self.spans.attrs[i][key] for i in idx], dtype=float)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: SpanTable, n_jobs: int, cpu_s: float) -> dict[str, float]:
    """Per-layer numbers, per job unless the name says otherwise (a ratio, a rate, a size)."""
    ix = _Index(spans)
    per_job = 1.0 / max(n_jobs, 1)

    def calls(base, site=None):
        return float(ix.mask(base, site).sum())

    def secs(base, site=None):
        return float(ix.dur[ix.mask(base, site)].sum())

    def self_secs(base):
        return float(ix.self_t[ix.mask(base)].sum())

    search = ix.mask("knumber.maximize_k")
    search_idx = np.flatnonzero(search)
    knn = ix.mask("knumber.k_number_numeric")
    in_search = knn & np.isin(spans.parent, search_idx)
    gains = []
    for s in search_idx:
        n_psi, n_phi = spans.attrs[s]["grid"]
        child = np.flatnonzero(in_search & (spans.parent == s))
        coarse = [spans.attrs[i]["k"] for i in child[: n_psi * n_phi]]
        gains.append(spans.attrs[s]["ek"] - max(coarse) if coarse else 0.0)

    nodes = ix.attr("numerics.integrate", "nodes").sum()
    f_evals = ix.attr("numerics.integrate", "f_evals").sum()
    orders = ix.attr("numerics.hermitian_eigenvalues", "order")
    rows = ix.attr("scenario.SweepTable.write_csv", "rows").sum()
    emit_s = secs("scenario.SweepTable.write_csv")
    closed_n, closed_s = calls("bandwidth.local_bandwidth_closed"), secs("bandwidth.local_bandwidth_closed")
    cmd_self = sum(self_secs(f"cli.{c}") for c in
                   ("cmd_localbw_sweep", "cmd_maxbw_map", "cmd_kmax_sweep", "cmd_svd_spectrum"))

    m = {
        "knumber.search_calls": calls("knumber.maximize_k") * per_job,
        "knumber.search_s": secs("knumber.maximize_k") * per_job,
        "knumber.quad_calls": calls("knumber.k_number_numeric") * per_job,
        "knumber.quad_s": secs("knumber.k_number_numeric") * per_job,
        "knumber.evals_per_search": _ratio(float(in_search.sum()), float(search_idx.size)),
        "knumber.refine_gain": float(np.mean(gains)) if gains else 0.0,
        "knumber.closed_s": secs("bandwidth.local_bandwidth_closed", "knumber") * per_job,
        "bandwidth.closed_calls": closed_n * per_job,
        "bandwidth.closed_s": closed_s * per_job,
        "bandwidth.closed_us_per_call": 1e6 * _ratio(closed_s, closed_n),
        "bandwidth.oracle_calls": calls("bandwidth.local_bandwidth_oracle") * per_job,
        "bandwidth.oracle_s": secs("bandwidth.local_bandwidth_oracle") * per_job,
        "bandwidth.grid_s": secs("bandwidth.omega_grid") * per_job,
        "geometry.canonicalize_calls": calls("geometry.canonicalize") * per_job,
        "geometry.canonicalize_s": secs("geometry.canonicalize") * per_job,
        "geometry.angles_calls": calls("geometry.geometry_angles") * per_job,
        "geometry.angles_s": secs("geometry.geometry_angles") * per_job,
        "numerics.integrate_calls": calls("numerics.integrate") * per_job,
        "numerics.integrate_s": secs("numerics.integrate") * per_job,
        "numerics.f_evals": f_evals * per_job,
        "numerics.useful_eval_frac": _ratio(nodes, f_evals),
        "numerics.jacobi_calls": calls("numerics.hermitian_eigenvalues") * per_job,
        "numerics.jacobi_s": secs("numerics.hermitian_eigenvalues") * per_job,
        "numerics.jacobi_order": float(orders.mean()) if orders.size else 0.0,
        "channel.los_calls": calls("channel.los_channel") * per_job,
        "channel.los_s": secs("channel.los_channel") * per_job,
        "channel.entries": ix.attr("channel.los_channel", "entries").sum() * per_job,
        "channel.spectrum_self_s": self_secs("channel.singular_spectrum") * per_job,
        "channel.gram_bytes": ix.attr("channel.singular_spectrum", "gram_bytes").sum() * per_job,
        "scenario.parse_s": (secs("scenario.parse_scenario") + secs("scenario.parse_scenarios")) * per_job,
        "scenario.emit_s": emit_s * per_job,
        "scenario.rows": rows * per_job,
        "scenario.bytes": ix.attr("scenario.SweepTable.write_csv", "bytes").sum() * per_job,
        "scenario.emit_rows_per_s": _ratio(rows, emit_s),
        "cli.job_s": secs("cli.main") * per_job,
        "cli.self_s": cmd_self * per_job,
        "cli.cpu_s": cpu_s * per_job,
        "validation.cases": ix.attr("validation.run_validation", "cases").sum() * per_job,
    }
    for short, fn in VALIDATION_CHECKS.items():
        m[f"validation.check_s.{short}"] = secs(f"validation.{fn}") * per_job
    return m


def validate_closed_calls(cases: int) -> int:
    """Scalar bandwidth calls of one validate job: one per oracle case, two per periodicity point."""
    return cases + 2 * PERIODICITY_GRID**2 * min(cases, PERIODICITY_CASES)


def self_check(spans: SpanTable, jobs: list) -> list[str]:
    """Recorded counts that differ from the known ones; empty when all agree.

    ``jobs[j]`` is the Job traced under job id ``j``.
    """
    ix = _Index(spans)
    problems = []

    search_idx = np.flatnonzero(ix.mask("knumber.maximize_k"))
    knn_parent = spans.parent[ix.mask("knumber.k_number_numeric")]
    per_search = np.bincount(knn_parent[knn_parent >= 0], minlength=len(spans))
    for s in search_idx:
        n_psi, n_phi = spans.attrs[s]["grid"]
        want = n_psi * n_phi + REFINE_POINTS**2
        if per_search[s] != want:
            problems.append(f"search {n_psi}x{n_phi}: {per_search[s]} K evaluations, expected {want}")

    for i in np.flatnonzero(ix.mask("numerics.integrate")):
        a = spans.attrs[i]
        if a["f_evals"] != a["nodes"] + 1:
            problems.append(f"integrate: {a['f_evals']} integrand calls for {a['nodes']} nodes, "
                            f"expected {a['nodes'] + 1}")

    closed_per_job = np.bincount(spans.job[ix.mask("bandwidth.local_bandwidth_closed")], minlength=len(jobs))
    for j, job in enumerate(jobs):
        if job.command == "validate":
            cases = int(job.options[job.options.index("--cases") + 1])
            want = validate_closed_calls(cases)
            if closed_per_job[j] != want:
                problems.append(f"validate --cases {cases}: {closed_per_job[j]} scalar bandwidth calls, "
                                f"expected {want}")

    k = max(len(spans.names), 1)
    keys = np.unique(spans.job.astype(np.int64) * k + spans.name)
    seen = {(int(key // k), ix.base_of(int(key % k))) for key in keys}
    for j, job in enumerate(jobs):
        for base in ("cli.main",) + REQUIRED[job.command]:
            if (j, base) not in seen:
                problems.append(f"job {j} ({job.command}): no {base} span; a binding was not wrapped")
    return problems
