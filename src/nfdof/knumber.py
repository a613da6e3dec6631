"""K numbers: Nyquist sample counts of the field along the receive array.

``K = (1/2pi) * integral of the local bandwidth along the array``; when the
array is short relative to the link distance the center value suffices,
and at the optimal orientation the center value has the closed form
``(K0 * Lp / pi) * sin(alpha/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandwidth import OrientationAngles, local_bandwidth_closed, max_bandwidth, reduce_phi_prime
from .geometry import ArraySegment, PolarPlacement, geometry_angles, require_open_fan
from .numerics import QuadratureRule, integrate

DEFAULT_QUAD_POINTS = 129
DEFAULT_SEARCH_GRID = (64, 64)
MIN_SEARCH_AXIS = 8
MAX_GRID = 1024  # per axis: a 1024 x 1024 search is 256 times the default one
_REFINE_POINTS = 21  # spans one coarse cell on each side of the best point


@dataclass(frozen=True)
class KNumber:
    value: float


@dataclass(frozen=True)
class OrientationSearchResult:
    best_orientation: OrientationAngles
    best_k: KNumber
    grid_resolution: tuple[int, int]


def k_number_numeric(
    receiver: ArraySegment, Ls: float, quad_points: int = DEFAULT_QUAD_POINTS
) -> KNumber:
    """Quadrature K number: integrate the closed-form bandwidth along the receiver."""
    rule = QuadratureRule(quad_points)
    cx, cy, cz = receiver.center
    dx, dy, dz = receiver.direction
    v = receiver.direction

    def omega_at(l: float) -> float:
        return local_bandwidth_closed((cx + l * dx, cy + l * dy, cz + l * dz), v, Ls)

    half = 0.5 * receiver.length
    value = integrate(omega_at, -half, half, rule) / (2.0 * math.pi)
    return KNumber(value)


def k_number_center(receiver: ArraySegment, Ls: float) -> KNumber:
    """Center approximation: (Lp / 2pi) times the bandwidth at the array center."""
    omega = local_bandwidth_closed(receiver.center, receiver.direction, Ls)
    return KNumber(receiver.length * omega / (2.0 * math.pi))


def _require_Lp(Lp: float) -> None:
    if not 0.0 < Lp < math.inf:  # also NaN
        raise ValueError(f"Lp must be positive and finite, got {Lp}")


def k_number_max(placement: PolarPlacement, Lp: float, Ls: float) -> KNumber:
    """Center approximation at the optimal orientation: (Lp / 2pi) max_bandwidth(alpha)."""
    _require_Lp(Lp)
    alpha, _ = require_open_fan(geometry_angles(placement.point(), Ls))
    return KNumber(Lp * max_bandwidth(alpha) / (2.0 * math.pi))


def maximize_k(
    placement: PolarPlacement,
    Lp: float,
    Ls: float,
    grid: tuple[int, int] = DEFAULT_SEARCH_GRID,
    quad_points: int = DEFAULT_QUAD_POINTS,
) -> OrientationSearchResult:
    """Exhaustive orientation search for the largest quadrature K number.

    Evaluates a coarse (psi, phi') grid over [0, pi] x [0, pi), then a 10x
    finer grid spanning one coarse cell around the best point.  phi' is
    measured from the fan bisector, so the landscape is placement-independent
    up to the bisector tilt beta; ties break to the lowest grid index.  An Lp
    that is not positive and finite, and a placement within Lp/2 of the
    segment, are refused before any K evaluation.
    """
    _require_Lp(Lp)
    n_psi, n_phi = grid
    if not all(isinstance(n, (int, np.integer)) and MIN_SEARCH_AXIS <= n <= MAX_GRID for n in grid):
        raise ValueError(f"each search grid axis must be an integer in [{MIN_SEARCH_AXIS}, {MAX_GRID}], got {grid}")
    p0 = placement.point()
    _, beta = require_open_fan(geometry_angles(p0, Ls, 0.5 * Lp))

    def orientation(psi: float, phi_prime: float) -> OrientationAngles:
        return OrientationAngles(psi=psi, phi=reduce_phi_prime(phi_prime, -beta))  # phi' + beta mod pi

    def k_at(psi: float, phi_prime: float) -> float:
        seg = ArraySegment(center=p0, direction=orientation(psi, phi_prime).vector(), length=Lp)
        return k_number_numeric(seg, Ls, quad_points).value

    def scan(psis: np.ndarray, phis: np.ndarray, best: tuple) -> tuple:
        """(K, psi, phi') of ``best`` and the grid, psi outer; a tie keeps the earlier point."""
        for psi in psis:
            for pp in phis:
                pp = reduce_phi_prime(float(pp), 0.0)
                k = k_at(psi, pp)
                if k > best[0]:
                    best = (k, float(psi), pp)
        return best

    psis = np.linspace(0.0, math.pi, n_psi)
    phis = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    best = scan(psis, phis, (-1.0, 0.0, 0.0))
    psi_step = math.pi / (n_psi - 1)
    phi_step = math.pi / n_phi
    fine_psis = np.clip(
        best[1] + np.linspace(-psi_step, psi_step, _REFINE_POINTS), 0.0, math.pi
    )
    fine_phis = best[2] + np.linspace(-phi_step, phi_step, _REFINE_POINTS)
    k_best, psi_best, pp_best = scan(fine_psis, fine_phis, best)
    return OrientationSearchResult(
        best_orientation=orientation(psi_best, pp_best),
        best_k=KNumber(k_best),
        grid_resolution=(n_psi, n_phi),
    )
