"""Self-check harness: cross-validates the closed forms against their oracles.

Each check draws seeded random configurations, compares two computation
routes (the seam check: two branches of the one closed form), and reports
the worst deviation.  The harness backs the ``nfdof validate`` subcommand.
Cases are drawn in blocks of rows from the stream that one scalar draw per
value would read, so no case, and no report line, depends on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bandwidth import (
    DEFAULT_ORACLE_SAMPLES,
    OrientationAngles,
    local_bandwidth_closed,
    local_bandwidth_oracle,
    max_bandwidth,
    omega_from_angles,
    omega_grid,
)
from .geometry import (
    K0,
    PolarPlacement,
    Vec3,
    geometry_angles,
    subtended_angle_oracle,
)

ROUNDOFF_FLOOR = 1e-9 * K0
LS = 100.0  # transmit-segment length of every check
MAX_CASES = 10_000  # the angle and continuity checks run 50 times as many
MAXIMUM_GRID = 501  # (psi, phi') points per axis of the orientation-maximum check
PERIODICITY_GRID = 41  # (psi, phi) points per axis of the periodicity check
_DRAW_BLOCK = 1024  # rows per rng.uniform call; one block's rows live as a Python list
_R_RANGE = (60.0, 2000.0)  # distance of every random point from the origin
# the (low, high) of a random configuration's R, theta, psi, phi, azimuth and z-mirror draws
_CONFIG_BOUNDS = (_R_RANGE, (0.0, 0.5 * math.pi * 0.999999), (0.0, math.pi), (0.0, math.pi),
                  (0.0, 2.0 * math.pi), (0.0, 1.0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    worst: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: {self.cases} cases, "
            f"worst {self.worst:.3e} (tolerance {self.tolerance:.3e})"
        )


def _result(name: str, cases: int, worst: float, tolerance: float) -> CheckResult:
    """A check passes only if it ran at least one case and stayed within tolerance."""
    return CheckResult(name, cases > 0 and worst <= tolerance, cases, worst, tolerance)


@dataclass(frozen=True)
class ValidationReport:
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _draws(rng: np.random.Generator, n: int, *bounds: tuple[float, float]) -> Iterator[list[float]]:
    """``n`` rows of uniform draws, one per ``(low, high)`` bound, in blocks of ``_DRAW_BLOCK`` rows.

    Row-major order is the stream that ``n * len(bounds)`` scalar
    ``rng.uniform(low, high)`` calls read, so the values are the same bit for bit.
    """
    lows, highs = zip(*bounds)
    for start in range(0, n, _DRAW_BLOCK):
        yield from rng.uniform(lows, highs, size=(min(_DRAW_BLOCK, n - start), len(bounds))).tolist()


def _random_points(rng: np.random.Generator, n: int, theta_max: float) -> Iterator[Vec3]:
    for R, theta in _draws(rng, n, _R_RANGE, (0.0, theta_max)):
        yield PolarPlacement(R=R, theta=theta).point()


def _random_configs(rng: np.random.Generator, n: int) -> Iterator[tuple[Vec3, Vec3]]:
    for R, theta, psi, phi, azimuth, flip in _draws(rng, n, *_CONFIG_BOUNDS):
        _, rho, z = PolarPlacement(R=R, theta=theta).point()
        z_sign = 1.0 if flip < 0.5 else -1.0
        # place the point anywhere in 3D; canonicalization brings it back
        p = (rho * math.cos(azimuth), rho * math.sin(azimuth), z_sign * z)
        yield p, OrientationAngles(psi, phi).vector()


def check_closed_vs_oracle(seed: int, n_cases: int) -> CheckResult:
    """Closed form against the definition-level discretization, each case within its own bound."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    tol = 0.0
    for p, v in _random_configs(rng, n_cases):
        closed = local_bandwidth_closed(p, v, LS)
        oracle = local_bandwidth_oracle(p, v, LS, DEFAULT_ORACLE_SAMPLES)
        alpha, _ = geometry_angles(p, LS)
        bound = 2.0 * K0 * alpha / DEFAULT_ORACLE_SAMPLES + ROUNDOFF_FLOOR
        deviation = abs(closed - oracle)
        if deviation * tol >= worst * bound:  # report the case nearest its bound
            worst, tol = deviation, bound
    return _result("closed form vs definition oracle", n_cases, worst, tol)


def check_angles(seed: int, n_cases: int) -> CheckResult:
    """Subtended angle against the cross/dot construction, plus the bisector tilt."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for P in _random_points(rng, n_cases, 0.5 * math.pi * 0.999999):
        alpha, beta = geometry_angles(P, LS)
        ref = subtended_angle_oracle(P, (0.0, 0.0, 0.5 * LS), (0.0, 0.0, -0.5 * LS))
        worst = max(worst, abs(alpha - ref))
        if alpha > 0.0:
            ra = _arrival_direction(P, 0.5 * LS)
            rb = _arrival_direction(P, -0.5 * LS)
            by, bz = ra[0] + rb[0], ra[1] + rb[1]
            worst = max(worst, abs(beta - math.atan2(bz, by)))
    return _result("geometry angles vs oracles", n_cases, worst, 1e-12)


def _arrival_direction(P, z_src: float) -> tuple[float, float]:
    dy, dz = P[1], P[2] - z_src
    n = math.hypot(dy, dz)
    return dy / n, dz / n


def check_orientation_maximum(seed: int, n_cases: int) -> CheckResult:
    """Grid maximum against 2*K0*sin(alpha/2) to roundoff: the odd grid has the maximizer (pi/2, pi/2) as a node."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    psis = phis = np.linspace(0.0, math.pi, MAXIMUM_GRID)
    for P in _random_points(rng, n_cases, 0.5 * math.pi * 0.98):
        alpha, _ = geometry_angles(P, LS)
        grid_max = float(omega_grid(psis, phis, alpha).max())
        worst = max(worst, abs(grid_max - max_bandwidth(alpha)))
    return _result("orientation maximum vs closed grid", n_cases, worst, ROUNDOFF_FLOOR)


def check_branch_continuity(seed: int, n_cases: int) -> CheckResult:
    """Clipped branches one float outside their seams against the unclipped value at alpha/2, taken at both."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for alpha, psi in _draws(rng, n_cases, (1e-6, math.pi * 0.999), (0.0, math.pi)):
        half = 0.5 * alpha
        seam = omega_from_angles(psi, half, alpha)
        low = omega_from_angles(psi, math.nextafter(half, 0.0), alpha)
        high = omega_from_angles(psi, math.nextafter(math.pi - half, math.pi), alpha)
        worst = max(worst, abs(low - seam), abs(high - seam))
    return _result("branch continuity at the seams", n_cases, worst, 1e-12)


def check_periodicity(seed: int, n_cases: int) -> CheckResult:
    """Bandwidth must be unchanged under phi -> phi + pi (opposite projection)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    grid = np.linspace(0.0, math.pi, PERIODICITY_GRID).tolist()
    phi_trig = [(math.cos(phi), math.sin(phi)) for phi in grid]
    for p in _random_points(rng, n_cases, 0.5 * math.pi * 0.98):
        for psi in grid:
            cp, sp = math.cos(psi), math.sin(psi)
            for cos_phi, sin_phi in phi_trig:
                y, z = sp * cos_phi, sp * sin_phi
                v, w = (cp, y, z), (cp, -y, -z)  # -y is (-sp) * cos(phi) exactly
                worst = max(
                    worst,
                    abs(local_bandwidth_closed(p, v, LS) - local_bandwidth_closed(p, w, LS)),
                )
    return _result("periodicity under phi + pi", n_cases, worst, 1e-12)


def run_validation(seed: int, n_cases: int) -> ValidationReport:
    """Run every check; ``n_cases`` (0 to MAX_CASES) scales the sampling effort of each."""
    if not 0 <= n_cases <= MAX_CASES:
        raise ValueError(f"need 0 to {MAX_CASES} cases, got {n_cases}")
    results = [
        check_closed_vs_oracle(seed, n_cases),
        check_angles(seed + 1, 50 * n_cases),
        check_orientation_maximum(seed + 2, max(0, min(n_cases, 50))),
        check_branch_continuity(seed + 3, 50 * n_cases),
        check_periodicity(seed + 4, max(0, min(n_cases, 10))),
    ]
    return ValidationReport(results=results)
