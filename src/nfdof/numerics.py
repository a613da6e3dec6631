"""Self-contained numerical kernels: composite quadrature and a Hermitian eigensolver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidRule, NumericalFailure

HERMITIAN_TOL = 1e-12
"Relative Frobenius tolerance for both the input symmetry check and convergence."
MIN_NODES = 3  # fewest nodes of a composite rule
MAX_QUAD_POINTS = 10_001  # most nodes: caps the sample list that integrate builds


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Simpson rule over an odd number of equispaced nodes."""

    nodes: int

    def __post_init__(self) -> None:
        if not isinstance(self.nodes, (int, np.integer)):
            raise InvalidRule(f"need an integer node count, got {self.nodes!r}")
        if not MIN_NODES <= self.nodes <= MAX_QUAD_POINTS:
            raise InvalidRule(f"need {MIN_NODES} to {MAX_QUAD_POINTS} nodes, got {self.nodes}")
        if self.nodes % 2 == 0:
            raise InvalidRule(f"composite Simpson needs an odd node count, got {self.nodes}")


def integrate(f: Callable[[float], float], a: float, b: float, rule: QuadratureRule) -> float:
    """Composite Simpson estimate of the integral of f over [a, b]; exact for cubics."""
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    n = rule.nodes
    h = (b - a) / (n - 1)
    ys = [f(a + i * h) for i in range(n)]
    ys[-1] = f(b)  # avoid drift at the right endpoint
    total = ys[0] + ys[-1] + 4.0 * sum(ys[1:-1:2]) + 2.0 * sum(ys[2:-1:2])
    return h * total / 3.0


def hermitian_eigenvalues(
    M: np.ndarray,
    tol: float = HERMITIAN_TOL,
    max_sweeps: int = 100,
) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, descending, by cyclic Jacobi rotations.

    Each sweep visits every upper-triangle pivot, column by column and top
    to bottom, and applies the unitary 2x2 rotation that annihilates it
    when its modulus is above the skip bound ``tol * ||M||_F / (2n)``
    (Demmel & Veselic 1992).  Off-diagonal mass decreases monotonically and
    the iteration stops once its Frobenius norm falls below ``tol`` times
    the matrix norm.

    Raises
    ------
    ValueError
        If ``tol`` is negative, NaN or infinite, if ``max_sweeps`` is
        negative, or if the input is not square, has a non-finite entry, or
        is not Hermitian to HERMITIAN_TOL.
    NumericalFailure
        If the sweep budget is exhausted before convergence.
    """
    if not 0.0 <= tol < math.inf:  # at NaN or inf every pivot is skipped, below 0 none is
        raise ValueError(f"tol must be non-negative and finite, got {tol}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be non-negative, got {max_sweeps}")
    A = np.array(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    n = A.shape[0]
    fro = float(np.linalg.norm(A))
    herm_dev = float(np.linalg.norm(A - A.conj().T))
    if herm_dev > HERMITIAN_TOL * fro:
        raise ValueError(f"matrix is not Hermitian: relative deviation {herm_dev / fro:.3e}")
    A = 0.5 * (A + A.conj().T)

    target = tol * fro
    # Pivots this small cannot push the off-norm above target even all together.
    skip = target / (2.0 * max(n, 1))  # max: a 0 x 0 input has no pivots

    for _ in range(max_sweeps):
        off = _offdiag_norm(A)
        if off <= target:
            break
        for q in range(1, n):
            for p in range(q):
                m = abs(A[p, q])
                if m <= skip:
                    continue
                app = A[p, p].real
                aqq = A[q, q].real
                u = A[p, q] / m
                tau = (aqq - app) / (2.0 * m)
                if tau >= 0.0:
                    t = -1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # A <- U^H A U with U = I except the (p, q) block [[c, -s u], [s conj(u), c]].
                U2 = np.array([[c, -s * u], [s * np.conj(u), c]])
                cols = A[:, p : q + 1 : q - p]
                cols[...] = cols @ U2
                rows = A[p : q + 1 : q - p, :]
                rows[...] = U2.conj().T @ rows
                A[p, p] = app + t * m
                A[q, q] = aqq - t * m
                A[p, q] = 0.0
                A[q, p] = 0.0
    else:
        if _offdiag_norm(A) > target:
            raise NumericalFailure(
                f"Jacobi iteration did not converge within {max_sweeps} sweeps"
            )

    eig = np.real(np.diag(A)).copy()
    eig[::-1].sort()
    return eig


def _offdiag_norm(A: np.ndarray) -> float:
    d = np.diag(np.diag(A))
    return float(np.linalg.norm(A - d))
