"""Output checks, run after each job and outside its timed region.

Every check recomputes what the job printed from the scenario alone, with
numpy and without calling the package, and raises ``OutputMismatch`` on
the first disagreement.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

K0 = 2.0 * math.pi
SEGMENT_TOL = 1e-9  # the package's degeneracy band around the transmit segment

MAP_TOL = 1e-12
"Absolute tolerance on bandwidth over k0 (values lie in [0, 2])."

KMAX_REL_TOL = 1e-12
"Relative tolerance on AK and on EK against the stored references."

JACOBI_TOL = 1e-12
"numerics.HERMITIAN_TOL: Jacobi stops once the off-diagonal Frobenius norm is below this times ||G||_F."


def gram_tolerance(reference: np.ndarray) -> float:
    """Bound on |sigma/sigma_max - reference| for the package's Gram-plus-Jacobi spectrum.

    channel.py states the Gram route is accurate to roughly sqrt(machine
    epsilon) relative to the largest value.  What its numerics guarantee is
    weaker: Jacobi stops with an off-diagonal residual up to
    JACOBI_TOL * ||G||_F, which by Weyl's inequality moves each eigenvalue by
    at most that much, and forming the k x k Gram matrix adds about
    k * eps * sigma_max^2.  An eigenvalue error d moves a singular value by at
    most sqrt(d), hence this bound (about 2e-6 at k = 201).
    """
    k = reference.size
    gram_fro = math.sqrt(float(np.sum(reference**4)))  # ||G||_F / sigma_max^2
    return math.sqrt(JACOBI_TOL * gram_fro + k * np.finfo(float).eps)


SPECTRUM_TAU = 0.1  # the CLI's default edof threshold
VALIDATE_CHECKS = 5
_PASS_LINE = re.compile(r"^PASS (?P<name>.+): (?P<cases>-?\d+) cases, worst ")


class OutputMismatch(Exception):
    """A job's output disagrees with the benchmark's recomputation."""


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and body of a SweepTable CSV; comment lines are skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        raise OutputMismatch("empty CSV")
    columns = lines[0].split(",")
    if len(lines) == 1:
        return columns, np.empty((0, len(columns)))
    try:
        body = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise OutputMismatch(f"unreadable CSV body: {exc}") from exc
    if body.shape[1] != len(columns):
        raise OutputMismatch(f"{body.shape[1]} values per row, expected {len(columns)}")
    return columns, body


def subtended_angle(R: float, theta: float, Ls: float) -> float:
    """Angle alpha that a length-Ls segment on the z axis subtends at (0, R cos theta, R sin theta)."""
    y, z, h = R * math.cos(theta), R * math.sin(theta), 0.5 * Ls
    return math.atan2(z + h, y) - math.atan2(z - h, y)


def ak_closed_form(config: dict) -> float:
    """AK at the optimal orientation: (K0 Lp / pi) sin(alpha / 2) = 2 Lp sin(alpha / 2)."""
    p = config["placement"]
    return 2.0 * config["Lp"] * math.sin(0.5 * subtended_angle(p["R"], p["theta"], config["Ls"]))


def bandwidth_over_k0(psi: np.ndarray, phi_prime: np.ndarray, alpha: float) -> np.ndarray:
    """sin(psi) (fmax - fmin) over the arrival fan, straight from its definition."""
    half = 0.5 * alpha
    fmax = np.where(phi_prime <= half, 1.0, np.cos(phi_prime - half))
    fmin = np.where(phi_prime >= math.pi - half, -1.0, np.cos(phi_prime + half))
    return np.sin(psi) * (fmax - fmin)


def _expect_columns(columns: list[str], expected: list[str]) -> None:
    if columns != expected:
        raise OutputMismatch(f"columns {columns}, expected {expected}")


def _expect_close(name: str, got: np.ndarray, want: np.ndarray, atol: float = 0.0, rtol: float = 0.0) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise OutputMismatch(f"{name}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    bad = ~(err <= atol + rtol * np.abs(want))
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        raise OutputMismatch(
            f"{name}: {int(bad.sum())} value(s) off, first at {i}: "
            f"{got.ravel()[i]!r} vs {want.ravel()[i]!r}"
        )


def _grid_columns(body: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    n_a, n_b = a.size, b.size
    if body.shape[0] != n_a * n_b:
        raise OutputMismatch(f"{body.shape[0]} rows, expected {n_a * n_b}")
    _expect_close("outer grid column", body[:, 0], np.repeat(a, n_b))
    _expect_close("inner grid column", body[:, 1], np.tile(b, n_a))


def check_maxbw(config: dict, expect: dict, text: str) -> None:
    columns, body = read_csv(text)
    _expect_columns(columns, ["y", "z", "omega_max_over_k0"])
    axis = np.linspace(-expect["extent"], expect["extent"], expect["grid"])
    _grid_columns(body, axis, axis)
    half = 0.5 * config["Ls"]
    y, z = np.abs(body[:, 0]), np.abs(body[:, 1])
    alpha = np.arctan2(z + half, y) - np.arctan2(z - half, y)
    want = np.where((y <= SEGMENT_TOL) & (z <= half + SEGMENT_TOL), 2.0, 2.0 * np.sin(0.5 * alpha))
    _expect_close("omega_max_over_k0", body[:, 2], want, atol=MAP_TOL)


def check_localbw(config: dict, expect: dict, text: str) -> None:
    columns, body = read_csv(text)
    _expect_columns(columns, ["psi", "phi_prime", "omega_over_k0"])
    axis = np.linspace(0.0, math.pi, expect["grid"])
    _grid_columns(body, axis, axis)
    p = config["placement"]
    alpha = subtended_angle(p["R"], p["theta"], config["Ls"])
    _expect_close("omega_over_k0", body[:, 2], bandwidth_over_k0(body[:, 0], body[:, 1], alpha), atol=MAP_TOL)


def check_kmax(config: dict, expect: dict, text: str) -> None:
    columns, body = read_csv(text)
    _expect_columns(columns, ["R", "theta", "AK", "EK"])
    p = config["placement"]
    if body.shape[0] != 1:
        raise OutputMismatch(f"{body.shape[0]} rows, expected 1")
    _expect_close("R, theta", body[0, :2], [p["R"], p["theta"]])
    _expect_close("AK", body[0, 2], ak_closed_form(config), rtol=KMAX_REL_TOL)
    _expect_close("EK", body[0, 3], expect["EK"], rtol=KMAX_REL_TOL)


def channel_normalized_sv(config: dict) -> np.ndarray:
    """sigma / sigma_max of the LoS channel at the optimal orientation, by np.linalg.svd."""
    p = config["placement"]
    R, theta, Ls, Lp = p["R"], p["theta"], config["Ls"], config["Lp"]
    y, z, h = R * math.cos(theta), R * math.sin(theta), 0.5 * Ls
    beta = 0.5 * (math.atan2(z - h, y) + math.atan2(z + h, y))
    direction = np.array([0.0, -math.sin(beta), math.cos(beta)])

    def offsets(length: float, spacing: float) -> np.ndarray:
        steps = round(length / spacing)
        return (np.arange(steps + 1) - 0.5 * steps) * spacing

    tx = offsets(Ls, config["spacing_s"])[:, None] * np.array([0.0, 0.0, 1.0])
    rx = np.array([0.0, y, z]) + offsets(Lp, config["spacing_p"])[:, None] * direction
    r = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=2)
    H = np.exp(2j * math.pi * (r - np.floor(r))) / (4.0 * math.pi * r)
    s = np.linalg.svd(H, compute_uv=False)
    return s / s[0]


def check_spectrum(config: dict, expect: dict, text: str) -> None:
    columns, body = read_csv(text)
    _expect_columns(
        columns, ["config_id", "n", "sigma_normalized", "AK", "EK", "edof_threshold", "edof_quadratic"]
    )
    ref = channel_normalized_sv(config)
    k = ref.size
    if body.shape[0] != k:
        raise OutputMismatch(f"{body.shape[0]} rows, expected {k}")
    _expect_close("config_id", body[:, 0], np.zeros(k))
    _expect_close("n", body[:, 1], np.arange(1, k + 1))
    for col in range(3, 7):
        _expect_close(f"{columns[col]} constant", body[:, col], np.full(k, body[0, col]))
    sigma = body[:, 2]
    if sigma[0] != 1.0 or (np.diff(sigma) > 0.0).any():
        raise OutputMismatch("sigma_normalized must start at 1 and not increase")
    tol = gram_tolerance(ref)
    _expect_close("sigma_normalized vs np.linalg.svd", sigma, ref, atol=tol)

    _expect_close("AK", body[0, 3], ak_closed_form(config), rtol=KMAX_REL_TOL)

    n_dof = body[0, 5]
    if n_dof != np.count_nonzero(sigma >= SPECTRUM_TAU):
        raise OutputMismatch(f"edof_threshold {n_dof} disagrees with the printed sigma")
    lo = np.count_nonzero(ref >= SPECTRUM_TAU + tol)
    hi = np.count_nonzero(ref >= SPECTRUM_TAU - tol)
    if not lo <= n_dof <= hi:
        raise OutputMismatch(f"edof_threshold {n_dof}, np.linalg.svd gives {lo}..{hi}")
    s2 = np.sum(sigma**2)
    _expect_close("edof_quadratic", body[0, 6], s2 * s2 / np.sum(sigma**4), rtol=KMAX_REL_TOL)


def check_validate(stdout: str) -> None:
    lines = stdout.splitlines()
    if len(lines) != VALIDATE_CHECKS:
        raise OutputMismatch(f"{len(lines)} report lines, expected {VALIDATE_CHECKS}")
    for line in lines:
        m = _PASS_LINE.match(line)
        if m is None:
            raise OutputMismatch(f"not a PASS line: {line!r}")
        if int(m["cases"]) <= 0:
            raise OutputMismatch(f"PASS over zero cases: {line!r}")


_CSV_CHECKS = {
    "kmax-sweep": check_kmax,
    "svd-spectrum": check_spectrum,
    "maxbw-map": check_maxbw,
    "localbw-sweep": check_localbw,
}


def check_output(job, code: int | None, stdout: str, csv_text: str | None) -> None:
    """Raise OutputMismatch unless the job exited 0 with a correct output."""
    if code != 0:
        raise OutputMismatch(f"exit code {code}")
    if job.command == "validate":
        check_validate(stdout)
    else:
        _CSV_CHECKS[job.command](job.config, job.expect, csv_text or "")


def check_job(job, code: int | None, stdout: str, out_path: str | None) -> None:
    """check_output on the CSV the job wrote to ``out_path``, which is then removed.

    The benchmark calls this in a child process, so the memory the check
    needs (the whole CSV, parsed) never counts in the measured process's
    peak_rss_mb.
    """
    csv_text = None
    if out_path is not None and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            csv_text = fh.read()
        os.remove(out_path)
    check_output(job, code, stdout, csv_text)
