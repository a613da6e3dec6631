"""Near-field line-of-sight channel matrices and their singular spectra.

Antennas are placed on uniform grids along each array segment; the gain
between a transmit/receive pair at distance r (wavelengths) is
``exp(j * 2*pi * r) / (4*pi*r)``: the free-space amplitude ``lambda/(4*pi*r_m)``
expressed in wavelength units, where the physical wavelength cancels.
Singular values below the spectrum's noise floor (NOISE_FLOOR * ||H||_F) are
reported as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroSpectrum, CoincidentAntennas, NonIntegerGrid
from .geometry import ArraySegment
from .numerics import hermitian_eigenvalues

GRID_INTEGRALITY_TOL = 1e-9
MAX_GRID_STEPS = 10_000
"Most antenna spacings along one array: a 10,001 x 10,001 channel is 1.6 GB."
MAX_CHANNEL_ENTRIES = 4_000_000
"Most n_rx * n_tx entries of one channel: los_channel's (n_rx, n_tx, 3) differences take 96 MB here."
DEFAULT_TAU = 0.1
"EDoF threshold on normalized singular values when none is given."
NOISE_FLOOR = 1e-11
"""delta of singular_spectrum: its QR stops once the unreduced block's Frobenius norm is at most delta * ||H||_F.

A channel's pivoted R flattens at its own rounding level, about 5e-13 * |r_00| at R = 2000.
On the benchmark channels 1e-12 to 1e-10 kept 14 to 29 rows and ran alike; 1e-13 kept 79 to
187 rows of rounding noise and ran slower than no floor at all."""
KEPT_JACOBI_TOL = 1e-14
"""Jacobi tolerance on the kept rows' R R^H, tighter than HERMITIAN_TOL.

Jacobi's stop is absolute in the Frobenius norm and its skip bound grows as the order
shrinks, so at HERMITIAN_TOL the kept block stops early: on the benchmark channels the
values above 1e-6 * sigma_0 then drifted up to 1.1e-9 from np.linalg.svd, against 2.0e-13
at this tolerance."""


@dataclass(frozen=True)
class AntennaGrid:
    """Uniformly spaced antenna positions along a segment, endpoints included."""

    positions: np.ndarray  # (count, 3), wavelengths
    spacing: float
    count: int


@dataclass(frozen=True)
class ChannelMatrix:
    """Dense complex LoS gain matrix, receive antennas on rows."""

    entries: np.ndarray  # (n_rx, n_tx) complex
    lambda_m: float  # physical wavelength in meters; amplitude bookkeeping only


@dataclass(frozen=True)
class SingularSpectrum:
    values: np.ndarray  # descending, >= 0
    normalized: np.ndarray  # values / values[0] (zeros if the matrix is zero)


def grid_steps(length: float, spacing: float) -> int:
    """Whole number of spacings along an array of ``length``, at most MAX_GRID_STEPS.

    Raises NonIntegerGrid when the length is not an integer multiple of
    the spacing, and ValueError for a non-positive spacing or too many steps.
    """
    if spacing <= 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    ratio = length / spacing
    if not ratio <= MAX_GRID_STEPS:
        raise ValueError(f"length {length} over spacing {spacing} exceeds {MAX_GRID_STEPS} steps")
    steps = round(ratio)
    if abs(ratio - steps) > GRID_INTEGRALITY_TOL:
        raise NonIntegerGrid(f"length {length} is not an integer multiple of spacing {spacing}")
    return steps


def antenna_grid(segment: ArraySegment, spacing: float) -> AntennaGrid:
    """Place length/spacing + 1 antennas on the segment, symmetric about its center."""
    steps = grid_steps(segment.length, spacing)
    count = steps + 1
    offsets = (np.arange(count) - 0.5 * steps) * spacing
    positions = np.asarray(segment.center) + offsets[:, None] * np.asarray(segment.direction)
    return AntennaGrid(positions=positions, spacing=spacing, count=count)


def check_channel_size(n_rx: int, n_tx: int) -> None:
    """Refuse an n_rx x n_tx channel of more than MAX_CHANNEL_ENTRIES entries."""
    if n_rx * n_tx > MAX_CHANNEL_ENTRIES:
        raise ValueError(f"{n_rx} x {n_tx} antennas exceed {MAX_CHANNEL_ENTRIES} entries")


def los_channel(tx: AntennaGrid, rx: AntennaGrid, lambda_m: float) -> ChannelMatrix:
    """Spherical-wave LoS channel between two antenna grids.

    The phase 2*pi*r is computed from the fractional part of r (in
    wavelengths) so that no precision is lost at large link distances.
    The size is checked before any array is allocated.
    """
    if lambda_m <= 0.0:
        raise ValueError(f"lambda_m must be positive, got {lambda_m}")
    check_channel_size(len(rx.positions), len(tx.positions))
    diff = rx.positions[:, None, :] - tx.positions[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if not r.all():
        raise CoincidentAntennas("a transmit and a receive antenna coincide")
    phase = 2.0 * math.pi * (r - np.floor(r))
    entries = np.exp(1j * phase) / (4.0 * math.pi * r)
    return ChannelMatrix(entries=entries, lambda_m=lambda_m)


def singular_spectrum(H: ChannelMatrix) -> SingularSpectrum:
    """All singular values of the channel, descending, with the normalized copy.

    The taller of H and H^H is reduced by a Householder QR with column
    pivoting, A P = Q R, which stops at the first step whose trailing block
    has a Frobenius norm of at most delta * ||H||_F, delta = NOISE_FLOOR
    (Businger & Golub 1965).  The r rows reduced by then are kept, and the
    values are the square roots of the eigenvalues of R[:r] R[:r]^H, found by
    ``hermitian_eigenvalues`` at KEPT_JACOBI_TOL; the other min(m, n) - r
    values are 0.  Dropping the trailing block moves each value by at most
    its norm (Weyl's inequality), so by at most delta * ||H||_F.  The
    pivoted R is graded (its row norms fall off with the singular values),
    so most Jacobi pivots are already below the skip threshold and the
    sweeps stay few (Drmac & Veselic 2008; Demmel & Veselic 1992 for the
    accuracy of Jacobi on graded matrices).

    Measured against ``np.linalg.svd`` on the 192 benchmark channels of
    seeds 1-3 (101 to 201 antennas, r = 15 to 28) and the criterion-5
    channels (R=500, r = 27 to 40), the normalized values differ by at
    most 2.0e-13 wherever they exceed 1e-6 and by at most 6.7e-9 anywhere.
    The larger errors sit in small kept values, where Jacobi's stop,
    absolute in the Frobenius norm, moves sigma^2 rather than sigma.
    """
    A = H.entries
    if not np.isfinite(A).all():
        raise ValueError("channel matrix has non-finite entries")
    if A.shape[0] < A.shape[1]:
        A = A.conj().T
    R = _pivoted_r(A)
    kept = R[: np.count_nonzero(np.diagonal(R))]  # the rows below the floor are zero
    eig = hermitian_eigenvalues(kept @ kept.conj().T, tol=KEPT_JACOBI_TOL)
    values = np.zeros(R.shape[0])
    values[: eig.size] = np.sqrt(np.maximum(eig, 0.0))
    top = values[0] if values.size else 0.0
    normalized = values / top if top > 0.0 else np.zeros_like(values)
    return SingularSpectrum(values=values, normalized=normalized)


def _pivoted_r(A: np.ndarray) -> np.ndarray:
    """R of the Householder QR with column pivoting A P = Q R, min(m, n) x n.

    Each step moves the trailing column of largest norm to the front and
    reflects it onto the axis.  The trailing norms are recomputed at every
    step rather than downdated, so no pivot rests on a cancelled norm, and
    |R[j, j]| does not increase with j.  The steps stop once the trailing
    block's Frobenius norm is at most NOISE_FLOOR * ||A||_F; the rows not
    reduced by then are zero, as is their diagonal.
    """
    R = np.array(A, dtype=np.complex128)
    m, n = R.shape
    k = min(m, n)
    floor = NOISE_FLOOR * np.linalg.norm(R)
    for j in range(k):
        block = R[j:, j:]
        squares = (np.einsum("ij,ij->j", block.real, block.real)
                   + np.einsum("ij,ij->j", block.imag, block.imag))
        if math.sqrt(squares.sum()) <= floor:  # the trailing block's Frobenius norm
            R[j:k] = 0.0
            break
        norms = np.sqrt(squares)
        p = int(np.argmax(norms))
        if p:
            R[:, [j, j + p]] = R[:, [j + p, j]]
        v = block[:, 0].copy()
        # numpy's v[0] / |v[0]| multiplies by 1 / |v[0]|, which overflows for a subnormal v[0]
        scale = max(abs(v[0].real), abs(v[0].imag))
        u = complex(v[0].real / scale, v[0].imag / scale) if scale else 1.0
        v[0] += u / abs(u) * norms[p]  # v = x - alpha e1 with alpha = -(u / |u|) * |x|
        v /= np.linalg.norm(v)
        # 2.0 * v is exact and np.outer takes the loop of np.outer(v, ...), so this equals
        # 2.0 * np.outer(v, ...) without its second temporary, bit for bit wherever the
        # products are normal numbers
        block -= np.outer(2.0 * v, v.conj() @ block)
    return np.triu(R[:k])


def threshold_tau(tau: float, path: str = "tau") -> float:
    """A threshold on normalized singular values: inside (0, 1)."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"{path}: {tau} outside (0, 1)")
    return tau


def edof_threshold(spectrum: SingularSpectrum, tau: float = DEFAULT_TAU) -> int:
    """Count of normalized singular values at or above tau, for tau in (0, 1)."""
    return int(np.count_nonzero(spectrum.normalized >= threshold_tau(tau)))


def edof_quadratic(spectrum: SingularSpectrum) -> float:
    """Threshold-free effective rank (sum s^2)^2 / sum s^4, in [1, #nonzero]."""
    s2 = float(np.sum(spectrum.values**2))
    if s2 == 0.0:
        raise AllZeroSpectrum("all singular values are zero")
    s4 = float(np.sum(spectrum.values**4))
    return s2 * s2 / s4
