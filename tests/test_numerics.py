"""Quadrature and Jacobi eigensolver kernels against independent references."""

import math

import numpy as np
import pytest

from nfdof import QuadratureRule, hermitian_eigenvalues, integrate
from nfdof.errors import InvalidRule, NumericalFailure
from nfdof.numerics import MAX_QUAD_POINTS


def charpoly_coeffs(M):
    """Characteristic polynomial coefficients (monic, highest degree first).

    Faddeev-LeVerrier recursion: only matrix products and traces, fully
    independent of any eigensolver.
    """
    n = M.shape[0]
    eye = np.eye(n)
    coeffs = [1.0]
    N = np.zeros_like(M)
    c = 1.0
    for k in range(1, n + 1):
        N = M @ (N + c * eye)
        c = -np.trace(N).real / k
        coeffs.append(c)
    return coeffs


def poly_eval(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def roots_by_bisection(coeffs, lo, hi, n_grid=200_001, iters=200):
    """All real roots in [lo, hi] via sign changes on a fine grid plus bisection."""
    xs = np.linspace(lo, hi, n_grid)
    vals = [poly_eval(coeffs, x) for x in xs]
    roots = []
    for i in range(n_grid - 1):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        for _ in range(iters):
            mid = 0.5 * (a + b)
            fm = poly_eval(coeffs, mid)
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0.0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return sorted(roots, reverse=True)


def hermitian_charpoly_roots(M):
    coeffs = charpoly_coeffs(M)
    radius = float(np.abs(M).sum(axis=1).max()) + 1.0  # Gershgorin bound
    return roots_by_bisection(coeffs, -radius, radius)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0, QuadratureRule(11)) == pytest.approx(1.0, rel=1e-15)

    def test_cubic_exact_for_simpson(self):
        rule = QuadratureRule(5)
        assert integrate(lambda x: x**3, 0.0, 1.0, rule) == pytest.approx(0.25, abs=1e-15)

    def test_sine_high_accuracy(self):
        # theoretical composite-Simpson error here is (pi/180) h^4 ~ 4e-9
        rule = QuadratureRule(129)
        assert integrate(math.sin, 0.0, math.pi, rule) == pytest.approx(2.0, abs=1e-8)
        rule = QuadratureRule(1025)
        assert integrate(math.sin, 0.0, math.pi, rule) == pytest.approx(2.0, abs=1e-12)

    def test_empty_interval(self):
        assert integrate(math.sin, 1.0, 1.0, QuadratureRule(5)) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0, QuadratureRule(5))

    def test_even_simpson_nodes_rejected(self):
        for nodes in (4, 10, MAX_QUAD_POINTS - 1):
            with pytest.raises(InvalidRule, match=rf"^composite Simpson needs an odd node count, got {nodes}$"):
                QuadratureRule(nodes)

    @pytest.mark.parametrize("nodes", [1, 2, MAX_QUAD_POINTS + 1, MAX_QUAD_POINTS + 2])
    def test_node_count_outside_bounds_rejected(self, nodes):
        with pytest.raises(InvalidRule, match=rf"^need 3 to {MAX_QUAD_POINTS} nodes, got {nodes}$"):
            QuadratureRule(nodes)

    def test_simpson_empirical_order(self):
        errors = []
        for nodes in (9, 17, 33, 65):
            val = integrate(math.sin, 0.0, math.pi, QuadratureRule(nodes))
            errors.append(abs(val - 2.0))
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 3.8


class TestHermitianEigenvalues:
    def test_identity(self):
        assert hermitian_eigenvalues(np.eye(3)) == pytest.approx([1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        assert hermitian_eigenvalues(np.diag([5.0, -1.0, 2.0])) == pytest.approx(
            [5.0, 2.0, -1.0]
        )

    def test_zero_matrix(self):
        assert hermitian_eigenvalues(np.zeros((4, 4))) == pytest.approx([0.0] * 4)

    def test_trace_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            X = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            M = X + X.conj().T
            eig = hermitian_eigenvalues(M)
            assert eig.sum() == pytest.approx(np.trace(M).real, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_charpoly_bisection(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            M = X + X.conj().T
            ours = hermitian_eigenvalues(M)
            ref = hermitian_charpoly_roots(M)
            assert len(ref) == n
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_invariant_under_diagonal_unitary_conjugation(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        M = X + X.conj().T
        base = hermitian_eigenvalues(M)
        for _ in range(5):
            D = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=8)))
            conj = D @ M @ D.conj().T
            assert hermitian_eigenvalues(conj) == pytest.approx(base, abs=1e-9)

    def test_real_symmetric(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert hermitian_eigenvalues(M) == pytest.approx([3.0, 1.0])

    def test_non_hermitian_rejected(self):
        M = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            hermitian_eigenvalues(M)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_before_any_sweep(self, bad):
        M = np.eye(40)
        M[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eigenvalues(M)
        M = np.eye(3)
        M[0, 1] = M[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eigenvalues(M)

    @pytest.mark.parametrize("n", [0, 1])
    def test_smallest_orders_need_no_sweep(self, n):
        M = np.full((n, n), -2.5 + 0.0j)
        assert hermitian_eigenvalues(M, max_sweeps=0).tolist() == [-2.5] * n

    def test_sweep_budget_exhaustion(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(NumericalFailure):
            hermitian_eigenvalues(M, max_sweeps=0)

    def test_diagonal_converges_with_zero_budget(self):
        assert hermitian_eigenvalues(np.diag([3.0, 1.0]), max_sweeps=0) == pytest.approx(
            [3.0, 1.0]
        )

    def test_wide_dynamic_range(self):
        # PSD with eigenvalues spanning 16 orders of magnitude: the large
        # ones must still come out at full relative accuracy
        rng = np.random.default_rng(33)
        lam = np.array([1e4, 1.0, 1e-4, 1e-12])
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        Q, _ = np.linalg.qr(X)
        M = Q @ np.diag(lam) @ Q.conj().T
        eig = hermitian_eigenvalues(M)
        assert eig[0] == pytest.approx(1e4, rel=1e-10)
        assert eig[1] == pytest.approx(1.0, rel=1e-8)
        assert eig[2] == pytest.approx(1e-4, rel=1e-4)
