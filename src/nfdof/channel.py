"""Near-field line-of-sight channel matrices and their singular spectra.

Antennas are placed on uniform grids along each array segment; the gain
between a transmit/receive pair at distance r (wavelengths) is
``exp(j * 2*pi * r) / (4*pi*r)``: the free-space amplitude ``lambda/(4*pi*r_m)``
expressed in wavelength units, where the physical wavelength cancels.
The singular spectrum is read in five steps: LAPACK's QR of the channel with
its columns in bit-reversed order, a cut of the trailing rows at half the
noise floor (NOISE_FLOOR * ||H||_F), GRADING_PASSES unpivoted QRs of the kept
rows' conjugate transpose, a second cut at the other half, and cyclic Jacobi
on the Gram matrix of the result.  Values cut at the floor are reported as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroSpectrum, CoincidentAntennas, NonIntegerGrid, positive
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
"""delta of singular_spectrum: its two row cuts each drop a block of Frobenius norm at most delta * ||H||_F / 2.

On the 192 benchmark channels of seeds 1-3, 1e-12 to 1e-10 kept 14 to 30 values and ran
alike; 1e-13 kept 84 to 188, mostly rounding noise, and ran as slowly as no floor at all."""
KEPT_JACOBI_TOL = 1e-14
"""Jacobi tolerance on the Gram matrix of the conditioned kept rows, tighter than HERMITIAN_TOL.

Jacobi's stop is absolute in the Frobenius norm and its skip bound grows as the order
shrinks, so at HERMITIAN_TOL the kept block stops early: on the 192 benchmark channels of
seeds 1-3 the values above 1e-6 * sigma_0 then drifted up to 1.7e-11 from np.linalg.svd,
against 9.1e-14 at this tolerance."""
GRADING_PASSES = 4
"""Unpivoted QR passes X <- R of X^H on the kept rows before Jacobi.

Measured on the 192 benchmark channels of seeds 1-3: Jacobi made 1048, 530, 392, 318, 274
and 242 rotations per channel after 0 to 5 passes, and the worst normalized error read
7.0e-9, 1.8e-9, 8.6e-11, 1.3e-11, 1.3e-11 and 1.3e-11.  Two passes leave the worst value
near the 1e-10 bound that the README states; past three the error stays and the rotations
still fall."""


@dataclass(frozen=True)
class ChannelMatrix:
    """Dense complex LoS gain matrix, receive antennas on rows."""

    entries: np.ndarray  # (n_rx, n_tx) complex


@dataclass(frozen=True)
class SingularSpectrum:
    values: np.ndarray  # descending, >= 0
    normalized: np.ndarray  # values / values[0] (zeros if the matrix is zero)


def grid_steps(length: float, spacing: float) -> int:
    """Whole number of spacings along an array of ``length``, at most MAX_GRID_STEPS.

    Raises NonIntegerGrid when the length is not an integer multiple of
    the spacing, and ValueError for a length that is negative or not finite,
    a spacing that ``errors.positive`` refuses, or too many steps.
    """
    if not 0.0 <= length < math.inf:  # also NaN
        raise ValueError(f"length must be >= 0 and finite, got {length}")
    ratio = length / positive(spacing, "spacing")
    if not ratio <= MAX_GRID_STEPS:
        raise ValueError(f"length {length} over spacing {spacing} exceeds {MAX_GRID_STEPS} steps")
    steps = round(ratio)
    if abs(ratio - steps) > GRID_INTEGRALITY_TOL:
        raise NonIntegerGrid(f"length {length} is not an integer multiple of spacing {spacing}")
    return steps


def antenna_grid(segment: ArraySegment, spacing: float) -> np.ndarray:
    """Positions of length/spacing + 1 antennas on the segment, symmetric about its center.

    Returns a (count, 3) array in wavelengths, endpoints included, ordered
    along the segment's direction.
    """
    steps = grid_steps(segment.length, spacing)
    offsets = (np.arange(steps + 1) - 0.5 * steps) * spacing
    return np.asarray(segment.center) + offsets[:, None] * np.asarray(segment.direction)


def check_channel_size(n_rx: int, n_tx: int) -> None:
    """Refuse an n_rx x n_tx channel of more than MAX_CHANNEL_ENTRIES entries."""
    if n_rx * n_tx > MAX_CHANNEL_ENTRIES:
        raise ValueError(f"{n_rx} x {n_tx} antennas exceed {MAX_CHANNEL_ENTRIES} entries")


def los_channel(tx: np.ndarray, rx: np.ndarray) -> ChannelMatrix:
    """Spherical-wave LoS channel between two antenna grids.

    ``tx`` and ``rx`` are (count, 3) position arrays, as ``antenna_grid``
    returns them; the receive antennas index the rows.  The phase 2*pi*r is
    computed from the fractional part of r (in wavelengths) so that no
    precision is lost at large link distances.  The size is checked before
    any array is allocated; a distance whose square overflows is refused.
    """
    check_channel_size(len(rx), len(tx))
    diff = rx[:, None, :] - tx[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if not np.isfinite(r).all():  # a squared distance past the float range: about 1.3e154 wavelengths
        raise ValueError("an antenna distance overflows the float range")
    if not r.all():
        raise CoincidentAntennas("a transmit and a receive antenna coincide")
    phase = 2.0 * math.pi * (r - np.floor(r))
    entries = np.exp(1j * phase) / (4.0 * math.pi * r)
    return ChannelMatrix(entries=entries)


def singular_spectrum(H: ChannelMatrix) -> SingularSpectrum:
    """All singular values of the channel, descending, with the normalized copy.

    The taller of H and H^H, A, is reduced by LAPACK's unpivoted QR with its
    columns in bit-reversed order, so that any leading k of them sample the
    whole array and no pivoting is needed to bring the R factor's trailing
    rows down to rounding noise.  The trailing rows whose block has a
    Frobenius norm of at most delta * ||H||_F / 2, delta = NOISE_FLOOR, are
    dropped, and the kept rows X then pass GRADING_PASSES times through
    LAPACK's unpivoted QR of their conjugate transpose, X <- R factor of X^H.
    Each pass is a unitary change of basis, so the singular values stay
    those of X, and each grades X X^H further (its diagonal falls off with
    the singular values and its off-diagonal mass shrinks): this is the
    second QR of Drmac & Veselic (2008).  The graded rows are cut once more
    at delta * ||H||_F / 2, and the values are the square roots of the
    eigenvalues of X X^H, found by ``hermitian_eigenvalues`` at
    KEPT_JACOBI_TOL; the other values are 0.  Each cut moves each value by at
    most the norm of the dropped block (Weyl's inequality), so the two by at
    most delta * ||H||_F.  A 0 means a value cut at the floor, but a kept
    value can lie below it: diag(1, 1e-6, 1e-12, 1e-20) keeps the 1e-12,
    whose row sits above the 1e-6 in the bit-reversed order.  On the graded
    X X^H most Jacobi pivots are already below the skip threshold, so the
    sweeps stay few (Demmel & Veselic 1992 for the accuracy of Jacobi on
    graded matrices).  The first QR runs on H times the power of two that
    puts its largest real or imaginary part in [0.5, 1); values past the
    float range come back inf (numpy warns), their normalized copy finite.

    Measured against ``np.linalg.svd`` on the 192 benchmark channels of
    seeds 1-3 (101 to 201 antennas, r = 15 to 28 kept values), the
    normalized values differ by at most 9.1e-14 wherever they exceed 1e-6
    and by at most 1.3e-11 anywhere; on the criterion-5 channels (R=500,
    r = 27 to 39) by 4.4e-16 and 1.7e-11.  Against a 40-digit SVD of four
    41 x 41 channels the worst error is 6.0e-12 * sigma_0.  The larger
    errors sit in small kept values, where Jacobi's stop, absolute in the
    Frobenius norm, moves sigma^2 rather than sigma.
    """
    A = H.entries
    if not np.isfinite(A).all():
        raise ValueError("channel matrix has non-finite entries")
    if A.shape[0] < A.shape[1]:
        A = A.conj().T
    e = int(np.frexp(max(np.abs(A.real).max(initial=0.0), np.abs(A.imag).max(initial=0.0)))[1])
    A = np.ldexp(A.real, -e) + 1j * np.ldexp(A.imag, -e)
    floor = 0.5 * NOISE_FLOOR * np.linalg.norm(A)
    X = _kept_rows(np.linalg.qr(A[:, _bit_reversed(A.shape[1])], mode="r"), floor)
    for _ in range(GRADING_PASSES):
        X = np.linalg.qr(X.conj().T, mode="r")
    X = _kept_rows(X, floor)
    eig = hermitian_eigenvalues(X @ X.conj().T, tol=KEPT_JACOBI_TOL)
    scaled = np.zeros(A.shape[1])
    scaled[: eig.size] = np.sqrt(np.maximum(eig, 0.0))
    top = scaled[0] if scaled.size else 0.0
    normalized = scaled / top if top > 0.0 else np.zeros_like(scaled)
    return SingularSpectrum(values=np.ldexp(scaled, e), normalized=normalized)


def _bit_reversed(n: int) -> list[int]:
    """0 .. n-1 in bit-reversed order: any leading k of them spread over the whole range."""
    bits = (n - 1).bit_length()
    return [j for j in (int(f"{i:0{bits}b}"[::-1], 2) for i in range(1 << bits)) if j < n]


def _kept_rows(R: np.ndarray, floor: float) -> np.ndarray:
    """The leading rows of R, without the trailing rows whose block has a Frobenius norm <= floor."""
    tail = np.cumsum((R.real**2 + R.imag**2).sum(axis=1)[::-1])[::-1]
    return R[: np.count_nonzero(tail > floor * floor)]


def threshold_tau(tau: float) -> float:
    """A threshold on normalized singular values: inside (0, 1)."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau!r}")
    return tau


def edof_threshold(spectrum: SingularSpectrum, tau: float = DEFAULT_TAU) -> int:
    """Count of normalized singular values at or above tau, for tau in (0, 1)."""
    return int(np.count_nonzero(spectrum.normalized >= threshold_tau(tau)))


def edof_quadratic(spectrum: SingularSpectrum) -> float:
    """Threshold-free effective rank (sum s^2)^2 / sum s^4, in [1, #nonzero].

    The ratio does not depend on the scale, so it is read from the normalized
    values, whose powers neither overflow nor underflow to zero.
    """
    s2 = float(np.sum(spectrum.normalized**2))
    if s2 == 0.0:
        raise AllZeroSpectrum("all singular values are zero")
    return s2 * s2 / float(np.sum(spectrum.normalized**4))
