"""The spectrum kernels against the slow loops they replaced, bit for bit.

``cyclic_jacobi`` steps through every upper-triangle pivot in Python and
rotates through list-index copies; ``kept_rows_loop`` adds the trailing rows'
squared norms one row at a time.  Both keep the kernels' stop rules: the rows
are cut at the noise floor, and the Jacobi on the kept rows' Gram matrix runs
at KEPT_JACOBI_TOL.  ``hermitian_eigenvalues`` and ``_kept_rows`` must give
the same arrays, so ``np.array_equal`` is the only comparison used here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nfdof import ChannelMatrix, channel, hermitian_eigenvalues, singular_spectrum
from nfdof.channel import KEPT_JACOBI_TOL, _kept_rows
from nfdof.numerics import HERMITIAN_TOL

from test_channel import build_channel


def cyclic_jacobi(M, tol=HERMITIAN_TOL, max_sweeps=100):
    """The pivot-by-pivot cyclic Jacobi loop, with its input checks left out."""
    A = np.array(M, dtype=np.complex128)
    n = A.shape[0]
    A = 0.5 * (A + A.conj().T)
    target = tol * float(np.linalg.norm(A))
    skip = target / (2.0 * max(n, 1))
    for _ in range(max_sweeps):
        if float(np.linalg.norm(A - np.diag(np.diag(A)))) <= target:
            break
        for q in range(1, n):
            for p in range(0, q):
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
                U2 = np.array([[c, -s * u], [s * np.conj(u), c]])
                A[:, [p, q]] = A[:, [p, q]] @ U2
                A[[p, q], :] = U2.conj().T @ A[[p, q], :]
                A[p, p] = app + t * m
                A[q, q] = aqq - t * m
                A[p, q] = 0.0
                A[q, p] = 0.0
    else:
        assert float(np.linalg.norm(A - np.diag(np.diag(A)))) <= target, "no convergence"
    eig = np.real(np.diag(A)).copy()
    eig[::-1].sort()
    return eig


def kept_rows_loop(R, floor):
    """R down to its last row whose trailing block has a squared norm above floor^2."""
    tail = 0.0
    for i in reversed(range(R.shape[0])):
        tail += float(np.sum(R[i].real ** 2 + R[i].imag ** 2))
        if tail > floor * floor:
            return R[: i + 1]
    return R[:0]


def kept_gram(H, monkeypatch):
    """The spectrum of H and the Gram matrix that singular_spectrum hands to Jacobi."""
    grams = []

    def record(M, tol):
        assert tol == KEPT_JACOBI_TOL
        grams.append(M)
        return hermitian_eigenvalues(M, tol=tol)

    monkeypatch.setattr(channel, "hermitian_eigenvalues", record)
    s = singular_spectrum(H)
    (G,) = grams
    return s, G


def random_hermitian(rng, eigenvalues):
    n = len(eigenvalues)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    M = Q @ np.diag(eigenvalues) @ Q.conj().T
    return 0.5 * (M + M.conj().T)


class TestChannels:
    # (Ls, Lp): the QR runs on the taller of H and H^H, so the Gram matrix never exceeds
    # the smaller antenna count.  The kept rank is the order of that Gram matrix.
    @pytest.mark.parametrize(
        "Ls, Lp, order, tall, rank",
        [
            (50.0, 100.0, 101, True, 25),
            (100.0, 50.0, 101, False, 25),
            (100.0, 200.0, 201, True, 56),
            (200.0, 100.0, 201, False, 56),
        ],
    )
    def test_channel_spectra_equal_the_cyclic_loop(self, Ls, Lp, order, tall, rank, monkeypatch):
        H = build_channel(500.0, math.pi / 6.0, Ls, Lp, 0.5)
        assert (H.entries.shape[0] > H.entries.shape[1]) == tall
        s, G = kept_gram(H, monkeypatch)
        assert np.array_equal(hermitian_eigenvalues(G, tol=KEPT_JACOBI_TOL), cyclic_jacobi(G, tol=KEPT_JACOBI_TOL))
        assert s.values.shape == (order,)
        assert G.shape == (rank, rank)
        assert (s.values[:rank] > 0.0).all() and not s.values[rank:].any()

    def test_rank_deficient_channel_stops_at_a_zero_norm(self, monkeypatch):
        entries = build_channel(500.0, math.pi / 6.0, 50.0, 100.0, 0.5).entries.copy()
        entries[:, 7] = 0.0  # a dead transmit antenna: rank 100 of 101
        s, G = kept_gram(ChannelMatrix(entries=entries), monkeypatch)
        assert np.array_equal(hermitian_eigenvalues(G, tol=KEPT_JACOBI_TOL), cyclic_jacobi(G, tol=KEPT_JACOBI_TOL))
        # the rows are cut at the noise floor, long before the zero column
        assert G.shape == (25, 25)
        assert np.isfinite(s.values).all()
        assert s.values[-1] == 0.0


class TestKeptRows:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        parts=st.tuples(st.integers(0, 8), st.integers(1, 8)).flatmap(
            lambda shape: hnp.arrays(np.float64, (2, *shape), elements=st.floats(-1e3, 1e3, width=64))
        ),
        floor=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
    )
    def test_small_triangular_matrices(self, parts, floor):
        R = np.triu(parts[0] + 1j * parts[1])
        assert np.array_equal(_kept_rows(R, floor), kept_rows_loop(R, floor))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_floor_at_a_row_norm(self, n):
        # a floor at a trailing block's own norm, where the rounding of the sums decides the cut
        R = np.triu(np.random.default_rng(80 + n).normal(size=(n, n)) + 0j)
        for i in range(n):
            floor = math.sqrt(float(np.sum(R[i:].real ** 2)))
            assert np.array_equal(_kept_rows(R, floor), kept_rows_loop(R, floor))


class TestHermitianMatrices:
    def test_repeated_eigenvalues(self):
        M = random_hermitian(np.random.default_rng(71), [3.0, 3.0, 3.0, 1.0, 1.0, -2.0, -2.0, 0.5])
        assert np.array_equal(hermitian_eigenvalues(M), cyclic_jacobi(M))

    def test_f_ordered_input(self):
        M = np.asfortranarray(random_hermitian(np.random.default_rng(72), np.linspace(-1.0, 4.0, 9)))
        assert np.array_equal(hermitian_eigenvalues(M), cyclic_jacobi(M))

    def test_diagonal(self):
        M = np.diag([5.0, -1.0, 2.0, 2.0, 0.0])
        assert np.array_equal(hermitian_eigenvalues(M), cyclic_jacobi(M))

    @pytest.mark.parametrize("n", [0, 1])
    def test_smallest_orders(self, n):
        M = np.full((n, n), 4.0 - 0.0j)
        assert np.array_equal(hermitian_eigenvalues(M), cyclic_jacobi(M))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        parts=st.integers(0, 8).flatmap(
            lambda n: hnp.arrays(np.float64, (2, n, n), elements=st.floats(-1e3, 1e3, width=64))
        ),
        grading=st.lists(st.integers(-8, 0), min_size=8, max_size=8),
    )
    def test_small_hermitian_matrices(self, parts, grading):
        # D (X + X^H) D: a row and column scale of 10^-8 to 1 grades the matrix
        # as the QR passes grade X X^H, so many pivots fall below the skip bound
        n = parts.shape[1]
        X = parts[0] + 1j * parts[1]
        d = 10.0 ** np.array(grading[:n], dtype=float)
        M = d[:, None] * (X + X.conj().T) * d[None, :]
        assert np.array_equal(hermitian_eigenvalues(M), cyclic_jacobi(M))
