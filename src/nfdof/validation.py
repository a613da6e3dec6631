"""Self-check harness: cross-validates the closed forms against their oracles.

Each check draws seeded random configurations, compares two independent
computation routes, and reports the worst deviation.  The harness backs
the ``nfdof validate`` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    geometry_angles,
    subtended_angle_oracle,
)

ROUNDOFF_FLOOR = 1e-9 * K0
LS = 100.0  # transmit-segment length of every check
MAX_CASES = 10_000  # the angle and continuity checks run 50 times as many
MAXIMUM_GRID = 501  # (psi, phi') points per axis of the orientation-maximum check
PERIODICITY_GRID = 41  # (psi, phi) points per axis of the periodicity check


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


def _random_point(rng: np.random.Generator, theta_max: float) -> tuple[float, float, float]:
    return PolarPlacement(R=rng.uniform(60.0, 2000.0), theta=rng.uniform(0.0, theta_max)).point()


def _random_config(rng: np.random.Generator):
    _, rho, z = _random_point(rng, 0.5 * math.pi * 0.999999)
    psi = rng.uniform(0.0, math.pi)
    phi = rng.uniform(0.0, math.pi)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    z_sign = 1.0 if rng.uniform() < 0.5 else -1.0
    # place the point anywhere in 3D; canonicalization brings it back
    p = (rho * math.cos(azimuth), rho * math.sin(azimuth), z_sign * z)
    return p, OrientationAngles(psi, phi).vector()


def check_closed_vs_oracle(seed: int, n_cases: int) -> CheckResult:
    """Closed form against the definition-level discretization, each case within its own bound."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    tol = 0.0
    for _ in range(n_cases):
        p, v = _random_config(rng)
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
    for _ in range(n_cases):
        P = _random_point(rng, 0.5 * math.pi * 0.999999)
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
    """Grid maximum of the closed form against 2*K0*sin(alpha/2)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    psis = phis = np.linspace(0.0, math.pi, MAXIMUM_GRID)
    h = math.pi / (MAXIMUM_GRID - 1)
    tol = K0 * h * h + ROUNDOFF_FLOOR  # quadratic dip of the max between grid nodes
    for _ in range(n_cases):
        alpha, _ = geometry_angles(_random_point(rng, 0.5 * math.pi * 0.98), LS)
        grid_max = float(omega_grid(psis, phis, alpha).max())
        worst = max(worst, abs(grid_max - max_bandwidth(alpha)))
    return _result("orientation maximum vs closed grid", n_cases, worst, tol)


def check_branch_continuity(seed: int, n_cases: int) -> CheckResult:
    """Branch values must agree at the seams phi' = alpha/2 and pi - alpha/2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        alpha = rng.uniform(1e-6, math.pi * 0.999)
        psi = rng.uniform(0.0, math.pi)
        s, half = math.sin(psi), 0.5 * alpha
        lo_a = K0 * s * (1.0 - math.cos(half + half))
        lo_b = 2.0 * K0 * s * math.sin(half) * math.sin(half)
        hi_a = 2.0 * K0 * s * math.sin(half) * math.sin(math.pi - half)
        hi_b = K0 * s * (1.0 + math.cos(half - (math.pi - half)))
        lo = omega_from_angles(psi, half, alpha)
        hi = omega_from_angles(psi, math.pi - half, alpha)
        worst = max(
            worst,
            abs(lo - lo_a),
            abs(lo - lo_b),
            abs(hi - hi_a),
            abs(hi - hi_b),
        )
    return _result("branch continuity at the seams", n_cases, worst, 1e-12)


def check_periodicity(seed: int, n_cases: int) -> CheckResult:
    """Bandwidth must be unchanged under phi -> phi + pi (opposite projection)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    psis = phis = np.linspace(0.0, math.pi, PERIODICITY_GRID)
    for _ in range(n_cases):
        p = _random_point(rng, 0.5 * math.pi * 0.98)
        for psi in psis:
            sp = math.sin(psi)
            for phi in phis:
                v = (math.cos(psi), sp * math.cos(phi), sp * math.sin(phi))
                w = (math.cos(psi), -sp * math.cos(phi), -sp * math.sin(phi))
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
