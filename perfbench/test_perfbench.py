"""Tests of the benchmark itself: seeded inputs, output checks, span arithmetic, speed scaling.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
import speed
import workloads
from check_worker import CheckWorker
from execute import import_nfdof, prepare, run_job
from spans import Patches, SpanRecorder, self_times, traced

nfdof = import_nfdof()
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def fingerprint(workload: str, seed: int) -> list:
    return [
        (job.command, job.options, workloads.job_text(job) if job.config is not None else None)
        for round_ in workloads.rounds(workload, seed)
        for job in round_
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs_other_seed_other_configs(workload):
    first = fingerprint(workload, 7)
    assert first == fingerprint(workload, 7)
    assert first != fingerprint(workload, 8)
    assert len(first) == workloads.POOL_JOBS


def test_spectrum_rounds_hold_every_size_once():
    for round_ in workloads.rounds("spectrum", 3):
        assert sorted(job.config["Lp"] for job in round_) == list(workloads.SPECTRUM_LP)
        for job in round_:
            p = job.config["placement"]
            alpha = checks.subtended_angle(p["R"], p["theta"], job.config["Ls"])
            assert workloads.SPECTRUM_ALPHA[0] <= alpha * (1 + 1e-12)
            assert alpha <= workloads.SPECTRUM_ALPHA[1] * (1 + 1e-12)


def test_kmax_reference_covers_the_pool():
    stored = [(p["R"], p["theta"]) for p in workloads.load_kmax_reference()]
    assert stored == workloads.kmax_pool()


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.LAYER_UNITS.items()
    ]


# --- output checks -----------------------------------------------------------


def run_cli(tmp_path, job: workloads.Job):
    (prep,) = prepare([job], str(tmp_path))
    result = run_job(nfdof.cli.main, prep.argv)
    assert result.code == 0, result.error
    text = Path(prep.out_path).read_text() if prep.out_path else None
    return result, text


def perturb(text: str, row: int | None, col: int, rel: float) -> str:
    """The CSV with a body value (every row's, for row None) scaled by (1 + rel)."""
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    for i in body if row is None else [body[row]]:
        cells = lines[i].split(",")
        cells[col] = f"{float(cells[col]) * (1.0 + rel):.17g}"
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def small_scenario(**extra) -> dict:
    return {"lambda_m": 0.01, "Ls": 20.0, "Lp": 10.0, "placement": {"R": 80.0, "theta": 0.4}, **extra}


def test_maxbw_check_accepts_output_and_rejects_a_1e9_perturbation(tmp_path):
    job = workloads.Job("maxbw-map", ("--grid", "41", "--extent", "30.0"), small_scenario(),
                        {"grid": 41, "extent": 30.0})
    _, text = run_cli(tmp_path, job)
    checks.check_maxbw(job.config, job.expect, text)
    with pytest.raises(checks.OutputMismatch):
        checks.check_maxbw(job.config, job.expect, perturb(text, 500, 2, 1e-9))
    with pytest.raises(checks.OutputMismatch):
        checks.check_maxbw(job.config, job.expect, perturb(text, 7, 0, 1e-9))


def test_localbw_check_accepts_output_and_rejects_a_1e9_perturbation(tmp_path):
    job = workloads.Job("localbw-sweep", ("--grid", "41"), small_scenario(), {"grid": 41})
    _, text = run_cli(tmp_path, job)
    checks.check_localbw(job.config, job.expect, text)
    with pytest.raises(checks.OutputMismatch):
        checks.check_localbw(job.config, job.expect, perturb(text, 820, 2, 1e-9))


def test_spectrum_check_accepts_output_and_rejects_corruption(tmp_path):
    config = small_scenario(orientation="optimal", spacing_s=0.5, spacing_p=0.5, **workloads.SPECTRUM_SEARCH)
    job = workloads.Job("svd-spectrum", config=config)
    _, text = run_cli(tmp_path, job)
    checks.check_spectrum(config, {}, text)
    for row, col, rel in [
        (None, 3, 1e-9),  # AK
        (None, 6, 1e-9),  # edof_quadratic
        (4, 2, 1e-4),  # one sigma, far above the Gram-route bound
        (None, 5, 0.25),  # edof_threshold off by a quarter of itself
    ]:
        with pytest.raises(checks.OutputMismatch):
            checks.check_spectrum(config, {}, perturb(text, row, col, rel))


def test_gram_tolerance_is_near_two_micro_at_the_benchmark_size():
    flat = np.ones(20)  # a plateau of 20 equal singular values, then zeros
    ref = np.concatenate([flat, np.zeros(181)])
    assert 1e-6 < checks.gram_tolerance(ref) < 3e-6


def kmax_text(R: float, theta: float, ak: float, ek: float) -> str:
    return f"# nfdof\nR,theta,AK,EK\n{R:.17g},{theta:.17g},{ak:.17g},{ek:.17g}\n"


def test_kmax_check_against_stored_reference():
    ref = workloads.load_kmax_reference()[0]
    job = workloads.kmax_job(ref["R"], ref["theta"], {"EK": ref["EK"]})
    ak = checks.ak_closed_form(job.config)
    checks.check_kmax(job.config, job.expect, kmax_text(ref["R"], ref["theta"], ak, ref["EK"]))
    for bad in (
        kmax_text(ref["R"], ref["theta"], ak, ref["EK"] * (1 + 1e-9)),
        kmax_text(ref["R"], ref["theta"], ak * (1 + 1e-9), ref["EK"]),
        kmax_text(ref["R"] * (1 + 1e-9), ref["theta"], ak, ref["EK"]),
    ):
        with pytest.raises(checks.OutputMismatch):
            checks.check_kmax(job.config, job.expect, bad)


def test_validate_check_rejects_zero_case_and_failed_lines(tmp_path):
    result, _ = run_cli(tmp_path, workloads.Job("validate", ("--seed", "3", "--cases", "2")))
    checks.check_output(workloads.Job("validate"), 0, result.stdout, None)
    lines = result.stdout.splitlines()
    zero = lines[:2] + [lines[2].replace(": 2 cases", ": 0 cases")] + lines[3:]
    failed = ["FAIL" + lines[0][4:]] + lines[1:]
    for stdout in ("\n".join(zero), "\n".join(failed), "\n".join(lines[:4])):
        with pytest.raises(checks.OutputMismatch):
            checks.check_validate(stdout)
    with pytest.raises(checks.OutputMismatch):
        checks.check_output(workloads.Job("validate"), 1, result.stdout, None)


def test_check_worker_answers_in_a_child_that_has_ended_after_close(tmp_path):
    job = workloads.Job("validate", ("--seed", "3", "--cases", "2"))
    result, _ = run_cli(tmp_path, job)
    with CheckWorker() as worker:
        assert worker.check(job, 0, result.stdout, None) is None
        assert "exit code 1" in worker.check(job, 1, result.stdout, None)
        proc = worker._proc
    assert proc.returncode == 0


# --- spans ---------------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_recorder_links_parents_and_self_times_sum_to_the_root():
    rec = SpanRecorder()
    leaf = traced(rec, "leaf", lambda x: x + 1)
    mid = traced(rec, "mid", lambda x: leaf(leaf(x)))
    root = traced(rec, "root", lambda: mid(1) + leaf(0))
    rec.job_id = 4
    assert root() == 4
    table = rec.table()
    assert [table.names[i] for i in table.name] == ["root", "mid", "leaf", "leaf", "leaf"]
    assert table.parent.tolist() == [-1, 0, 1, 1, 0]
    assert set(table.job.tolist()) == {4}
    assert table.self_times().sum() == pytest.approx(table.durations()[0], rel=1e-12)


def test_spans_write_jsonl(tmp_path):
    rec = SpanRecorder()
    traced(rec, "f", lambda: None, after=lambda a, k, r: {"n": 3})()
    path = tmp_path / "spans.jsonl"
    rec.table().write_jsonl(str(path))
    (row,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert row["name"] == "f" and row["parent"] == -1 and row["n"] == 3


def test_patches_restore_originals():
    class Box:
        value = 1

    patches = Patches()
    patches.set(Box, "value", 2)
    patches.set(Box, "value", 3)
    patches.restore()
    assert Box.value == 1


# --- traced jobs and their self-checks -------------------------------------------


def traced_jobs(tmp_path, jobs, unwrap=None):
    rec = SpanRecorder()
    patches = layers.install(rec)
    try:
        if unwrap is not None:
            module, attr = unwrap
            patches.set(module, attr, getattr(module, attr).__wrapped__)
        for j, prep in enumerate(prepare(jobs, str(tmp_path))):
            rec.job_id = j
            assert run_job(nfdof.cli.main, prep.argv).code == 0
    finally:
        patches.restore()
    return rec.table()


def small_kmax_job() -> workloads.Job:
    job = workloads.kmax_job(500.0, 0.3)
    job.config.update(grid=[8, 8], quad_points=3)
    return job


def test_install_wraps_every_binding_and_restore_undoes_it():
    original = nfdof.bandwidth.local_bandwidth_closed
    rec = SpanRecorder()
    patches = layers.install(rec)
    try:
        for mod in (nfdof.bandwidth, nfdof.knumber, nfdof.validation, nfdof):
            assert mod.local_bandwidth_closed.__wrapped__ is original
    finally:
        patches.restore()
    for mod in (nfdof.bandwidth, nfdof.knumber, nfdof.validation, nfdof):
        assert mod.local_bandwidth_closed is original


def test_traced_counts_match_the_known_ones(tmp_path):
    jobs = [small_kmax_job(), workloads.Job("validate", ("--seed", "1", "--cases", "3"))]
    spans = traced_jobs(tmp_path, jobs)
    assert layers.self_check(spans, jobs) == []
    m = layers.layer_metrics(spans, len(jobs), cpu_s=1.0)
    assert m["knumber.evals_per_search"] == 8 * 8 + 21 * 21
    assert m["numerics.useful_eval_frac"] == pytest.approx(3 / 4)
    assert m["knumber.refine_gain"] >= 0.0
    assert m["bandwidth.closed_calls"] * len(jobs) == (505 * 4) + layers.validate_closed_calls(3)
    assert layers.validate_closed_calls(200) == 33_820


def test_a_missed_binding_fails_the_self_check(tmp_path):
    jobs = [small_kmax_job()]
    spans = traced_jobs(tmp_path, jobs, unwrap=(nfdof.knumber, "local_bandwidth_closed"))
    problems = layers.self_check(spans, jobs)
    assert any("bandwidth.local_bandwidth_closed" in p for p in problems)


# --- machine speed -------------------------------------------------------------------


def test_robust_mean_keeps_both_speeds_and_drops_interrupted_samples():
    assert speed.robust_mean([1.0] * 6 + [1.5] * 4 + [40.0, 90.0]) == pytest.approx(1.2)
    assert speed.robust_mean([2.0, 3.0]) == 2.5
    assert speed.robust_mean([7.0]) == 7.0


def test_probe_samples_during_the_job_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval_s=0.005) as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2 + 10  # one before, one after, and the timer's
    assert probe.scale() > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- reporting ---------------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(5, 90.0), (39, 90.0), (40, 75.0), (100, 90.0), (200, 95.0),
                                    (1000, 99.0), (10_000, 99.9)])
def test_tail_keeps_ten_samples_beyond(n, pct):
    value, got = run.tail(list(np.arange(n, dtype=float)))
    assert got == pct
    assert sum(1 for t in range(n) if t > value) >= 10 or n < 40


def test_a_short_traced_run_end_to_end(tmp_path, capsys):
    spans_path = tmp_path / "spans.jsonl"
    argv = ["--workload", "validate", "--seed", "1", "--seconds", "0.1", "--trace", "1",
            "--spans", str(spans_path)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert set(result["metrics"]) == set(layers.LAYER_UNITS)
    assert result["metrics"]["bandwidth.closed_calls"]["value"] == layers.validate_closed_calls(200)
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert {s["job"] for s in spans} == {0}
    assert spans[0]["name"] == "cli.main@cli" and spans[0]["parent"] == -1
