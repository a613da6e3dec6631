"""The spectrum kernels against the slow loops they replaced, bit for bit.

``cyclic_jacobi`` steps through every upper-triangle pivot in Python and
rotates through list-index copies; ``householder_r`` swaps a pivot column
into place even when it is there already.
Both keep the kernels' stop rules: the QR stops at the noise floor, the kept
rows pass through GRADING_PASSES unpivoted LAPACK QRs of their conjugate
transpose, and the Jacobi on their Gram matrix runs at KEPT_JACOBI_TOL.
``hermitian_eigenvalues`` and ``_pivoted_r`` must give the same arrays, so
``np.array_equal`` is the only comparison used here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nfdof import ChannelMatrix, hermitian_eigenvalues, singular_spectrum
from nfdof.channel import GRADING_PASSES, KEPT_JACOBI_TOL, NOISE_FLOOR, _pivoted_r
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


def householder_r(A):
    """The pivoted Householder R with an unconditional swap."""
    R = np.array(A, dtype=np.complex128)
    m, n = R.shape
    k = min(m, n)
    floor = NOISE_FLOOR * np.linalg.norm(R)
    for j in range(k):
        block = R[j:, j:]
        squares = (np.einsum("ij,ij->j", block.real, block.real)
                   + np.einsum("ij,ij->j", block.imag, block.imag))
        if math.sqrt(squares.sum()) <= floor:
            R[j:k] = 0.0
            break
        norms = np.sqrt(squares)
        p = int(np.argmax(norms))
        R[:, [j, j + p]] = R[:, [j + p, j]]
        v = block[:, 0].copy()
        scale = max(abs(v[0].real), abs(v[0].imag))
        u = complex(v[0].real / scale, v[0].imag / scale) if scale else 1.0
        v[0] += u / abs(u) * norms[p]
        v /= np.linalg.norm(v)
        # 2.0 * np.outer(v, ...), the form this loop first had, rounds unlike this where a
        # product is subnormal
        block -= np.outer(2.0 * v, v.conj() @ block)
    return np.triu(R[:k])


def assert_same_route(H):
    """Each stage of singular_spectrum equals the replaced one on the same input.

    Returns R and the kept rank, the count of rows above the noise floor.
    """
    A = H.entries if H.entries.shape[0] >= H.entries.shape[1] else H.entries.conj().T
    R = householder_r(A)
    assert np.array_equal(_pivoted_r(A), R)
    rank = int(np.count_nonzero(np.diagonal(R)))
    assert not R[rank:].any()
    X = R[:rank]
    for _ in range(GRADING_PASSES):
        X = np.linalg.qr(X.conj().T, mode="r")
    G = X @ X.conj().T
    eig = cyclic_jacobi(G, tol=KEPT_JACOBI_TOL)
    assert np.array_equal(hermitian_eigenvalues(G, tol=KEPT_JACOBI_TOL), eig)
    values = np.zeros(R.shape[0])
    values[:rank] = np.sqrt(np.maximum(eig, 0.0))
    assert np.array_equal(singular_spectrum(H).values, values)
    return R, rank


def random_hermitian(rng, eigenvalues):
    n = len(eigenvalues)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    M = Q @ np.diag(eigenvalues) @ Q.conj().T
    return 0.5 * (M + M.conj().T)


class TestChannels:
    # (Ls, Lp): the order of R R^H is the smaller antenna count; a wide H is
    # reduced through the F-ordered H^H, so _pivoted_r works on an F-ordered copy.
    # The kept rank is the count of rows the QR reduces before the noise floor.
    @pytest.mark.parametrize(
        "Ls, Lp, order, tall, rank",
        [
            (50.0, 100.0, 101, True, 25),
            (100.0, 50.0, 101, False, 25),
            (100.0, 200.0, 201, True, 56),
            (200.0, 100.0, 201, False, 56),
        ],
    )
    def test_channel_spectra_equal_the_cyclic_loop(self, Ls, Lp, order, tall, rank):
        H = build_channel(500.0, math.pi / 6.0, Ls, Lp, 0.5)
        assert (H.entries.shape[0] > H.entries.shape[1]) == tall
        R, kept = assert_same_route(H)
        assert R.shape == (order, order)
        assert kept == rank

    def test_rank_deficient_channel_stops_at_a_zero_norm(self):
        entries = build_channel(500.0, math.pi / 6.0, 50.0, 100.0, 0.5).entries.copy()
        entries[:, 7] = 0.0  # a dead transmit antenna: rank 100 of 101
        R, kept = assert_same_route(ChannelMatrix(entries=entries))
        # the QR stops at the noise floor, long before the zero column
        assert kept == 25
        assert np.isfinite(R).all()
        assert (R[-1] == 0.0).all()


class TestPivotedR:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        parts=st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
            lambda shape: hnp.arrays(np.float64, (2, *shape), elements=st.floats(-1e3, 1e3, width=64))
        )
    )
    def test_small_matrices(self, parts):
        A = parts[0] + 1j * parts[1]
        assert np.array_equal(_pivoted_r(A), householder_r(A))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_square_matrices(self, n):
        # a square R ends on a 1 x 1 block, where np.multiply.outer(2.0 * v, w)
        # rounds unlike 2.0 * np.outer(v, w) for about 4 in 10 normal draws
        rng = np.random.default_rng(80 + n)
        for _ in range(20):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert np.array_equal(_pivoted_r(A), householder_r(A))


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
        # as the pivoted R grades R R^H, so many pivots fall below the skip bound
        n = parts.shape[1]
        X = parts[0] + 1j * parts[1]
        d = 10.0 ** np.array(grading[:n], dtype=float)
        M = d[:, None] * (X + X.conj().T) * d[None, :]
        assert np.array_equal(hermitian_eigenvalues(M), cyclic_jacobi(M))
