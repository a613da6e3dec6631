"""Local spatial bandwidth of a line source observed along a direction.

The spatial frequency of the wave arriving at ``p`` from a source point
``s``, measured along the receive direction ``v``, is ``K0 * r_hat . v``
with ``r_hat = (p - s)/|p - s|``.  The local bandwidth is the spread
(max minus min) of that frequency over all source points.  For a linear
transmit segment the frequency is K0 sin(psi) cos(x) over the fan x in
[phi' - alpha/2, phi' + alpha/2]; clipped to [0, pi], with center c and
half-width w, the fan gives the closed form 2 K0 sin(psi) sin(w) sin(c).
The brute-force discretization of the definition is kept as an oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegeneratePoint
from .geometry import K0, Vec3, canonicalize, geometry_angles, unit

DEFAULT_ORACLE_SAMPLES = 100_000
_ORACLE_BLOCK = 16_384  # samples per spatial_frequency call: its 128 KiB temporaries stay in a 2 MiB L2


@dataclass(frozen=True)
class OrientationAngles:
    """Receive direction in spherical form: v = (cos psi, sin psi cos phi, sin psi sin phi)."""

    psi: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.psi <= math.pi:
            raise ValueError(f"psi must lie in [0, pi], got {self.psi}")
        if not 0.0 <= self.phi <= math.pi:
            raise ValueError(f"phi must lie in [0, pi], got {self.phi}")

    def vector(self) -> Vec3:
        sp = math.sin(self.psi)
        return (math.cos(self.psi), sp * math.cos(self.phi), sp * math.sin(self.phi))


def _direction_angles(v: Vec3) -> tuple[float, float]:
    """(psi, phi) of a unit direction, phi unreduced; acos(v_x) would lose a small sin(psi)."""
    return math.atan2(math.hypot(v[1], v[2]), v[0]), math.atan2(v[2], v[1])


def reduce_phi_prime(phi: float, beta: float) -> float:
    """Map phi - beta into [0, pi); a zero result is +0.0."""
    t = math.fmod(phi - beta, math.pi)
    if t < 0.0:
        t += math.pi
    return t + 0.0 if t < math.pi else 0.0  # + 0.0 turns the -0.0 of fmod(-pi, pi) into +0.0


def spatial_frequency(p: Sequence[float], s: Sequence, v: Sequence[float]) -> float | np.ndarray:
    """Spatial frequency K0 * ((p - s)/|p - s|) . v in [-K0, K0], elementwise over array sources."""
    vx, vy, vz = unit(v)
    (px, py, pz), (sx, sy, sz) = p, s
    rx, ry, rz = px - sx, py - sy, pz - sz
    n = np.sqrt(rx * rx + ry * ry + rz * rz)
    if not np.all(n):
        raise DegeneratePoint("observation point coincides with the source point")
    return K0 * (rx * vx + ry * vy + rz * vz) / n


def omega_from_angles(psi: float, phi_prime: float, alpha: float) -> float:
    """Closed-form local bandwidth for orientation (psi, phi') and fan width alpha.

    2 K0 sin(psi) sin(w) sin(c), with c and w the center and half-width of
    the fan [phi' - alpha/2, phi' + alpha/2] clipped to [0, pi]: one formula,
    continuous across the clip points phi' = alpha/2 and pi - alpha/2.
    Total on psi in [0, pi], phi' in [0, pi], alpha in [0, pi).
    """
    half = 0.5 * alpha
    if phi_prime < half:  # clipped at 0
        c = w = 0.5 * (phi_prime + half)
    elif phi_prime > math.pi - half:  # clipped at pi
        w = 0.5 * (math.pi - phi_prime + half)
        c = math.pi - w
    else:
        c, w = phi_prime, half
    return 2.0 * K0 * math.sin(psi) * math.sin(w) * math.sin(c)


def omega_grid(psi: np.ndarray, phi_prime: np.ndarray, alpha: float) -> np.ndarray:
    """Closed-form bandwidth on the tensor grid psi x phi', shape (len(psi), len(phi')).

    sin(psi) times the in-plane profile omega_from_angles(pi/2, phi', alpha), one
    scalar call per phi', so a row at psi = pi/2 equals the scalar form bit for bit.
    """
    phis = np.asarray(phi_prime, dtype=float).ravel().tolist()
    profile = [omega_from_angles(0.5 * math.pi, x, alpha) for x in phis]
    return np.outer(np.sin(np.asarray(psi, dtype=float)), profile)


def local_bandwidth_closed(p: Sequence[float], v: Sequence[float], Ls: float) -> float:
    """Closed-form local bandwidth at point ``p`` for receive direction ``v``.

    The point is first reduced to the canonical frame; a collinear point
    (zero fan) or a direction along the segment gives 0.  The segment test
    and the fan ``(alpha, beta)`` are ``geometry_angles`` of the reduced point.
    """
    p_c, v_c = canonicalize(p, v)
    alpha, beta = geometry_angles(p_c, Ls)
    psi, phi = _direction_angles(v_c)
    return omega_from_angles(psi, reduce_phi_prime(phi, beta), alpha)


@functools.lru_cache(maxsize=1)
def _oracle_grid(Ls: float, n_samples: int) -> np.ndarray:
    """The read-only sample heights ``linspace(-Ls/2, Ls/2, n_samples)``; one grid is kept."""
    z = np.linspace(-0.5 * Ls, 0.5 * Ls, n_samples)
    z.flags.writeable = False
    return z


def local_bandwidth_oracle(
    p: Sequence[float],
    v: Sequence[float],
    Ls: float,
    n_samples: int = DEFAULT_ORACLE_SAMPLES,
) -> float:
    """Brute-force bandwidth: max minus min spatial frequency over sampled sources.

    Samples ``n_samples`` points uniformly on the transmit segment,
    endpoints included.  Discretization error is bounded by
    2*K0*alpha/n_samples; n_samples = 2 gives the two-endpoint fan,
    a lower bound on the true bandwidth.  The grid is built once per
    ``(Ls, n_samples)``, read-only, and kept until the next pair; the
    frequency is evaluated in blocks of ``_ORACLE_BLOCK`` samples, whose
    extremes give the one-pass spread bit for bit, NaN included.
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    if not 0.0 < Ls < math.inf:  # also NaN
        raise ValueError(f"Ls must be positive and finite, got {Ls}")
    z = _oracle_grid(float(Ls), int(n_samples))
    hi, lo = -math.inf, math.inf
    for start in range(0, n_samples, _ORACLE_BLOCK):
        f = spatial_frequency(p, (0.0, 0.0, z[start:start + _ORACLE_BLOCK]), v)
        hi, lo = np.maximum(hi, f.max()), np.minimum(lo, f.min())  # a NaN propagates, unlike max()
    return float(hi - lo)


def max_bandwidth(alpha: float) -> float:
    """Largest local bandwidth over all orientations: 2*K0*sin(alpha/2).

    Attained exactly at (psi, phi') = (pi/2, pi/2), i.e. the in-plane
    direction perpendicular to the fan bisector; the largest value on a
    clipped fan, K0*(1 - cos alpha), never exceeds it.
    """
    if not 0.0 <= alpha < math.pi:
        raise ValueError(f"alpha must lie in [0, pi), got {alpha}")
    return 2.0 * K0 * math.sin(0.5 * alpha)
