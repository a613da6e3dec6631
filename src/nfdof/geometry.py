"""Canonical frame and angle geometry for a pair of linear arrays.

Conventions used throughout the package:

* all lengths are in wavelength units, so the wavenumber is ``K0 = 2*pi``;
* the transmit segment is centered at the origin and oriented along z;
* observation points are reduced to the first quadrant of the yOz plane
  (x = 0, y >= 0, z >= 0) by a rotation about z plus an optional z-mirror,
  both of which leave the transmit segment (and hence every propagation
  angle) unchanged;
* the fan of arrival directions at a point is the pair ``(alpha, beta)``
  of two floats from ``geometry_angles``, the one fan function; it depends
  only on the point's distance rho from the z-axis and its height |z|.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateGeometry, DegeneratePoint, positive

Vec3 = tuple[float, float, float]

K0 = 2.0 * math.pi
"Wavenumber for lengths expressed in wavelengths."

SEGMENT_TOL = 1e-9
"Half-width of the degeneracy band around the transmit segment, in wavelengths."

_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max


def unit(v: Sequence[float]) -> Vec3:
    """Normalize a 3-vector; raises DegenerateGeometry on a zero or non-finite vector.

    A vector whose squared norm overflows or leaves the normal range is first
    scaled by the power of two of its largest component, which is exact and
    keeps the direction; any other vector is divided by sqrt(x*x + y*y + z*z).
    """
    x, y, z = v  # exactly three components, or ValueError
    x, y, z = float(x), float(y), float(z)
    s = x * x + y * y + z * z
    if not _NORMAL_MIN <= s <= _NORMAL_MAX:  # also NaN
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise DegenerateGeometry(f"direction vector has a non-finite component: {(x, y, z)}")
        m = max(abs(x), abs(y), abs(z))
        if m == 0.0:
            raise DegenerateGeometry("direction vector has zero norm")
        e = -math.frexp(m)[1]
        x, y, z = math.ldexp(x, e), math.ldexp(y, e), math.ldexp(z, e)
        s = x * x + y * y + z * z
    n = math.sqrt(s)
    return (x / n, y / n, z / n)


@dataclass(frozen=True)
class ArraySegment:
    """A linear antenna array: center point, unit direction, length.

    ``length`` may be zero, which degenerates to a single point (useful for
    one-antenna grids); all bandwidth and K-number operations require the
    transmit length to be positive.
    """

    center: Vec3
    direction: Vec3
    length: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != 3:
            raise ValueError(f"segment center must have 3 components, got {self.center}")
        if len(self.direction) != 3:
            raise ValueError(f"segment direction must have 3 components, got {tuple(self.direction)}")
        object.__setattr__(self, "direction", unit(self.direction))
        object.__setattr__(self, "length", float(self.length))
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"segment center must be finite, got {self.center}")
        if not 0.0 <= self.length < math.inf:  # also NaN
            raise ValueError(f"segment length must be >= 0 and finite, got {self.length}")


@dataclass(frozen=True)
class PolarPlacement:
    """Receive-array center in the canonical frame: p0 = (0, R cos(theta), R sin(theta))."""

    R: float
    theta: float

    def __post_init__(self) -> None:
        positive(self.R, "R")
        if not 0.0 <= self.theta <= 0.5 * math.pi:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")

    def point(self) -> Vec3:
        return (0.0, self.R * math.cos(self.theta), self.R * math.sin(self.theta))


def canonicalize(p: Sequence[float], v: Sequence[float]) -> tuple[Vec3, Vec3]:
    """Reduce an arbitrary point and direction to the canonical yOz first quadrant.

    Parameters
    ----------
    p : observation point (wavelengths).
    v : receive-array direction (normalized on input).

    Returns
    -------
    (point, direction): a rotation about z, then a mirror z -> -z when
    z < 0, takes ``p`` to ``point`` = (0, rho, |z|), with rho the distance
    from the z-axis, and the unit ``v`` to ``direction``.  Both maps fix the
    transmit segment, so the local spatial bandwidth is invariant under this
    reduction.  No segment test is made here; ``geometry_angles`` makes it.
    The rotation's cosine and sine are y/rho and x/rho (of (x, y) scaled by a
    power of two when rho leaves the normal range); on the z-axis or the +y
    half-axis v is kept, and on the -y half-axis (vx, vy) is negated exactly.
    """
    x, y, z = p
    x, y, z = float(x), float(y), float(z)
    vx, vy, vz = unit(v)

    rho = math.hypot(x, y)
    if x != 0.0:
        r, sx, sy = rho, x, y
        if not _NORMAL_MIN <= r <= _NORMAL_MAX:  # subnormal or overflowing (also NaN)
            e = -math.frexp(max(abs(x), abs(y)))[1]
            sx, sy = math.ldexp(x, e), math.ldexp(y, e)
            r = math.hypot(sx, sy)
        c, s = sy / r, sx / r
        vx, vy = c * vx - s * vy, s * vx + c * vy
    elif y < 0.0:
        vx, vy = -vx, -vy

    if z < 0.0:
        vz = -vz

    # exact: the rotation sends (x, y) to (0, rho)
    return (0.0, rho, abs(z)), (vx, vy, vz)


def geometry_angles(p: Sequence[float], Ls: float, reach: float = 0.0) -> tuple[float, float]:
    """The fan of arrival directions at the point ``p``, as ``(alpha, beta)``.

    ``alpha`` is the angle subtended by the transmit segment's endpoints,
    ``beta`` the tilt of the fan bisector from the +y axis of the canonical
    frame, where ``p`` has y = hypot(x, y) and z = |z|; the arrival direction
    angles (from +y, in the yOz plane) span [beta - alpha/2, beta + alpha/2].
    This is the package's one segment test and fan formula: a point within
    ``reach`` (Lp/2 for a receive array centered there) plus ``SEGMENT_TOL``
    of the segment, the origin included, raises DegeneratePoint.  On the
    z-axis beyond the segment tip all arrival directions are parallel:
    alpha = 0, beta = pi/2.
    """
    if not 0.0 < Ls < math.inf:  # errors.positive inline (also NaN): 589,813 calls a 64 x 64, 129-node search
        raise ValueError(f"Ls must be positive and finite, got {Ls}")
    if not 0.0 <= reach < math.inf:
        raise ValueError(f"reach (Lp/2) must be >= 0 and finite, got {reach}")
    x, y, z = p
    y, z = math.hypot(x, y), abs(z)
    if not (y < math.inf and z < math.inf):  # also NaN
        raise ValueError(f"point must have a finite rho and |z|, got rho={y}, |z|={z}")
    h = 0.5 * Ls
    distance = y if z <= h else math.hypot(y, z - h)  # to the segment
    if distance <= reach + SEGMENT_TOL:
        reached = f"the receive array reaches the transmit segment: distance {distance:g} <= Lp/2 = {reach:g}"
        raise DegeneratePoint(reached if reach > 0.0 else "placement intersects the transmit segment")

    gamma_a = math.atan2(z - h, y)  # arrival angle from endpoint (0, 0, +h)
    gamma_b = math.atan2(z + h, y)  # arrival angle from endpoint (0, 0, -h)
    d = gamma_b - gamma_a
    return (d if d > 0.0 else 0.0), 0.5 * (gamma_a + gamma_b)  # max(0.0, d), also at -0.0 and NaN


def subtended_angle_oracle(
    P: Sequence[float], A: Sequence[float], B: Sequence[float]
) -> float:
    """Angle at P subtended by A and B, in [0, pi].

    Independent cross/dot construction used to validate geometry_angles.
    """
    ux, uy, uz = A[0] - P[0], A[1] - P[1], A[2] - P[2]
    wx, wy, wz = B[0] - P[0], B[1] - P[1], B[2] - P[2]
    if ux == uy == uz == 0.0 or wx == wy == wz == 0.0:
        raise DegeneratePoint("vertex coincides with an endpoint")
    dot = ux * wx + uy * wy + uz * wz
    cx = uy * wz - uz * wy
    cy = uz * wx - ux * wz
    cz = ux * wy - uy * wx
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), dot)


def require_open_fan(angles: tuple[float, float]) -> tuple[float, float]:
    """``(alpha, beta)`` if the fan is open; a zero fan (on the segment's axis) raises DegenerateGeometry."""
    if angles[0] <= 0.0:
        raise DegenerateGeometry("the segment subtends a zero angle; every orientation has zero bandwidth")
    return angles


def optimal_orientation(angles: tuple[float, float]) -> Vec3:
    """Bandwidth-maximizing receive direction for ``(alpha, beta)``: in plane, perpendicular to the bisector."""
    beta = require_open_fan(angles)[1]
    return (0.0, -math.sin(beta), math.cos(beta))
