"""Channel matrices, singular spectra, and EDoF estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfdof import (
    ArraySegment,
    ChannelMatrix,
    PolarPlacement,
    antenna_grid,
    edof_quadratic,
    edof_threshold,
    geometry_angles,
    los_channel,
    optimal_orientation,
    singular_spectrum,
)
from nfdof.channel import KEPT_JACOBI_TOL, NOISE_FLOOR, _pivoted_r
from nfdof.errors import AllZeroSpectrum, CoincidentAntennas, NonIntegerGrid

Z_AXIS = (0.0, 0.0, 1.0)


def tx_segment(Ls):
    return ArraySegment((0.0, 0.0, 0.0), Z_AXIS, Ls)


def build_channel(R, theta, Ls, Lp, spacing, v=None):
    placement = PolarPlacement(R, theta)
    if v is None:
        v = optimal_orientation(geometry_angles(placement.point(), Ls))
    tx = antenna_grid(tx_segment(Ls), spacing)
    rx = antenna_grid(ArraySegment(placement.point(), v, Lp), spacing)
    return los_channel(tx, rx)


class TestAntennaGrid:
    def test_half_wavelength_count(self):
        assert antenna_grid(tx_segment(100.0), 0.5).shape == (201, 3)

    def test_quarter_wavelength_count(self):
        assert len(antenna_grid(tx_segment(100.0), 0.25)) == 401

    def test_single_antenna(self):
        grid = antenna_grid(tx_segment(0.0), 0.5)
        assert grid.shape == (1, 3)
        assert grid[0] == pytest.approx((0.0, 0.0, 0.0))

    def test_symmetric_and_uniform(self):
        seg = ArraySegment((1.0, 2.0, 3.0), (0.0, 1.0, 0.0), 10.0)
        grid = antenna_grid(seg, 0.5)
        assert grid.mean(axis=0) == pytest.approx((1.0, 2.0, 3.0))
        steps = np.diff(grid, axis=0)
        assert steps == pytest.approx(np.tile([0.0, 0.5, 0.0], (20, 1)))
        assert grid[0] == pytest.approx((1.0, -3.0, 3.0))
        assert grid[-1] == pytest.approx((1.0, 7.0, 3.0))

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(NonIntegerGrid):
            antenna_grid(tx_segment(100.0), 0.3)

    def test_non_positive_spacing_rejected(self):
        with pytest.raises(ValueError):
            antenna_grid(tx_segment(100.0), 0.0)


class TestLosChannel:
    def test_one_wavelength_distance(self):
        tx = antenna_grid(tx_segment(0.0), 0.5)
        rx = antenna_grid(ArraySegment((0.0, 1.0, 0.0), Z_AXIS, 0.0), 0.5)
        H = los_channel(tx, rx)
        h = H.entries[0, 0]
        assert abs(h) == pytest.approx(1.0 / (4.0 * math.pi))
        assert np.angle(h) == pytest.approx(0.0, abs=1e-12)

    def test_far_single_pair(self):
        tx = antenna_grid(tx_segment(0.0), 0.5)
        rx = antenna_grid(ArraySegment((0.0, 500.0, 0.0), Z_AXIS, 0.0), 0.5)
        H = los_channel(tx, rx)
        assert abs(H.entries[0, 0]) == pytest.approx(1.0 / (4.0 * math.pi * 500.0))
        assert np.angle(H.entries[0, 0]) == pytest.approx(0.0, abs=1e-9)

    def test_quarter_wave_phase(self):
        tx = antenna_grid(tx_segment(0.0), 0.5)
        rx = antenna_grid(ArraySegment((0.0, 500.25, 0.0), Z_AXIS, 0.0), 0.5)
        H = los_channel(tx, rx)
        assert np.angle(H.entries[0, 0]) == pytest.approx(0.5 * math.pi, abs=1e-9)

    def test_shape_and_finiteness(self):
        H = build_channel(60.0, 0.3, 16.0, 12.0, 0.5)
        assert H.entries.shape == (25, 33)  # rx rows, tx columns
        assert np.isfinite(H.entries).all()
        assert (np.abs(H.entries) > 0.0).all()

    def test_coincident_antennas_rejected(self):
        tx = antenna_grid(tx_segment(2.0), 0.5)
        rx = antenna_grid(ArraySegment((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 2.0), 0.5)
        with pytest.raises(CoincidentAntennas):
            los_channel(tx, rx)

    def test_size_cap_checked_before_any_distance(self, monkeypatch):
        import nfdof.channel as channel_mod

        tx = antenna_grid(tx_segment(2.0), 0.5)
        rx = antenna_grid(ArraySegment((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1.0), 0.5)
        monkeypatch.setattr(channel_mod, "MAX_CHANNEL_ENTRIES", 14)
        # the grids share an antenna, so getting past the cap would raise CoincidentAntennas
        with pytest.raises(ValueError, match=r"^3 x 5 antennas exceed 14 entries$"):
            los_channel(tx, rx)
        monkeypatch.setattr(channel_mod, "MAX_CHANNEL_ENTRIES", 15)
        with pytest.raises(CoincidentAntennas):
            los_channel(tx, rx)


class TestSingularSpectrum:
    def test_diagonal(self):
        H = ChannelMatrix(entries=np.diag([3.0, 1.0, 2.0]).astype(complex))
        s = singular_spectrum(H)
        assert s.values == pytest.approx([3.0, 2.0, 1.0])
        assert s.normalized == pytest.approx([1.0, 2.0 / 3.0, 1.0 / 3.0])

    def test_rank_one(self):
        rng = np.random.default_rng(51)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        H = ChannelMatrix(entries=np.outer(u, v.conj()))
        s = singular_spectrum(H)
        top = np.linalg.norm(u) * np.linalg.norm(v)
        assert s.values[0] == pytest.approx(top, rel=1e-12)
        # the pivoted R resolves the zeros to ~1e-16 * sigma_1; this bound is loose
        assert s.values[1:] == pytest.approx(np.zeros(3), abs=1e-7 * top)

    def test_matches_reference_svd(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            s = singular_spectrum(ChannelMatrix(entries=A))
            ref = np.linalg.svd(A, compute_uv=False)
            assert s.values == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_energy_identity(self):
        H = build_channel(80.0, 0.4, 20.0, 20.0, 0.5)
        s = singular_spectrum(H)
        assert np.sum(s.values**2) == pytest.approx(
            np.linalg.norm(H.entries) ** 2, rel=1e-9
        )

    def test_rectangular_uses_smaller_gram(self):
        rng = np.random.default_rng(53)
        A = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
        s = singular_spectrum(ChannelMatrix(entries=A))
        assert len(s.values) == 3
        assert s.values == pytest.approx(np.linalg.svd(A, compute_uv=False), rel=1e-9)

    def test_non_finite_rejected(self):
        H = ChannelMatrix(entries=np.array([[np.inf + 0j]]))
        with pytest.raises(ValueError):
            singular_spectrum(H)

    def test_subnormal_leading_entry(self):
        # the first pivot's leading entry is subnormal, so 1 / |v[0]| overflows
        A = np.array([[2.2e-311 + 2.2e-311j], [1.0 + 2.2e-311j]])
        s = singular_spectrum(ChannelMatrix(entries=A))
        assert s.values == pytest.approx(np.linalg.svd(A, compute_uv=False), rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-170, 1e160, 1e-300, 1e300])
    def test_tiny_and_huge_entries_match_reference_svd(self, scale):
        # unscaled, the QR's squared norms underflow to an all-zero spectrum (1e-170) or the
        # Frobenius floor overflows to inf (1e160)
        rng = np.random.default_rng(54)
        A = (rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))) * scale
        s = singular_spectrum(ChannelMatrix(entries=A))
        ref = np.linalg.svd(A, compute_uv=False)
        assert s.values == pytest.approx(ref, rel=1e-12)
        assert s.normalized == pytest.approx(ref / ref[0], rel=1e-12)

    def test_parts_above_the_float_range_over_root_two(self):
        # |entry| overflows although both parts are finite; the top values exceed the float range
        rng = np.random.default_rng(55)
        u = rng.uniform(0.5, 1.0, size=(2, 4, 3))
        A = 1.5e308 * u[0] + 1.5e308j * u[1]
        with pytest.warns(RuntimeWarning, match="overflow encountered in ldexp"):
            s = singular_spectrum(ChannelMatrix(entries=A))
        scaled = np.ldexp(A.real, -1024) + 1j * np.ldexp(A.imag, -1024)
        ref = np.linalg.svd(scaled, compute_uv=False)
        assert s.normalized == pytest.approx(ref / ref[0], rel=1e-12)
        with np.errstate(over="ignore"):
            assert s.values == pytest.approx(np.ldexp(ref, 1024), rel=1e-12)
        assert s.values[0] == np.inf and np.isfinite(s.values[-1])

    @pytest.mark.parametrize("k", [-900, -400, -220, -1, 1, 220, 400, 900])
    def test_power_of_two_scale_moves_every_value_exactly(self, k):
        H = build_channel(300.0, 0.3, 40.0, 40.0, 0.5)
        base = singular_spectrum(H)
        s = singular_spectrum(ChannelMatrix(entries=H.entries * 2.0**k))
        assert np.array_equal(s.values, np.ldexp(base.values, k))
        assert np.array_equal(s.normalized, base.normalized)


class TestNoiseFloor:
    @pytest.mark.parametrize("R", [1000.0, 2000.0])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 3.0])
    @pytest.mark.parametrize("Lp", [50.0, 200.0])
    def test_benchmark_band_channels(self, R, theta, Lp):
        H = build_channel(R, theta, 100.0, Lp, 0.5)
        s = singular_spectrum(H).normalized
        ref = np.linalg.svd(H.entries, compute_uv=False)
        fro = np.linalg.norm(H.entries) / ref[0]
        ref = ref / ref[0]
        dev = np.abs(s - ref)
        assert dev[ref > 1e-6].max() <= 1e-12
        # Jacobi on the full R R^H at HERMITIAN_TOL was off by up to 1.25e-8 on these channels
        assert dev.max() <= 1e-8
        dropped = s == 0.0
        assert dropped.any()
        assert (ref[dropped] <= NOISE_FLOOR * fro).all()

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        rank=st.integers(1, 4),
        noise=st.floats(-18.0, -1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_low_rank_plus_noise(self, shape, rank, noise, seed):
        # Weyl: the dropped rows move each value by at most NOISE_FLOOR * ||A||_F; Jacobi's
        # residual KEPT_JACOBI_TOL * ||A||_F^2 on the squares moves it by at most its root
        rng = np.random.default_rng(seed)
        A = complex_normal(rng, (shape[0], rank)) @ complex_normal(rng, (rank, shape[1]))
        A += 10.0**noise * complex_normal(rng, shape)
        s = singular_spectrum(ChannelMatrix(entries=A)).values
        fro = np.linalg.norm(A)
        bound = NOISE_FLOOR * fro + math.sqrt(KEPT_JACOBI_TOL) * fro
        assert np.abs(s - np.linalg.svd(A, compute_uv=False)).max() <= bound


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestPivotedR:
    def _check_factor(self, A):
        R = _pivoted_r(A)
        m, n = A.shape
        assert R.shape == (min(m, n), n)
        assert np.isfinite(R).all()
        assert (np.tril(R, -1) == 0.0).all()
        d = np.abs(np.diag(R))
        # pivoting on recomputed norms: |r_jj| is the largest trailing norm at step j
        assert (d[1:] <= d[:-1] * (1.0 + 1e-12)).all()
        # R = Q^H A P keeps the singular values
        top = max(np.linalg.norm(A, 2), 1.0)
        assert np.linalg.svd(R, compute_uv=False) == pytest.approx(
            np.linalg.svd(A, compute_uv=False), abs=1e-12 * top
        )
        return R

    def test_tall_and_wide(self):
        rng = np.random.default_rng(61)
        for shape in ((12, 7), (7, 7), (5, 9), (1, 4), (4, 1)):
            self._check_factor(complex_normal(rng, shape))

    def test_graded_columns_are_pivoted_first(self):
        rng = np.random.default_rng(62)
        A = complex_normal(rng, (9, 6)) * np.array([1e-6, 1.0, 1e-3, 1e-9, 1e-1, 1e-12])
        d = np.abs(np.diag(self._check_factor(A)))
        assert d[0] > 1e-2 and d[-1] < 1e-9

    def test_zero_matrix(self):
        R = self._check_factor(np.zeros((5, 3), dtype=complex))
        assert (R == 0.0).all()

    def test_rank_one(self):
        rng = np.random.default_rng(63)
        u, v = complex_normal(rng, 8), complex_normal(rng, 5)
        R = self._check_factor(np.outer(u, v.conj()))
        top = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(R[0, 0]) == pytest.approx(np.linalg.norm(u) * np.abs(v).max(), rel=1e-12)
        assert np.linalg.norm(R[0]) == pytest.approx(top, rel=1e-12)
        assert np.abs(R[1:]).max() <= 1e-14 * top

    def test_zero_column(self):
        rng = np.random.default_rng(64)
        A = complex_normal(rng, (6, 4))
        A[:, 1] = 0.0
        R = self._check_factor(A)
        assert (R[-1] == 0.0).all()  # rank 3: the last step finds no column left
        assert (np.abs(np.diag(R))[:3] > 0.0).all()

    @pytest.mark.parametrize("theta", [0.0, math.pi / 6.0, math.pi / 3.0])
    def test_spectrum_matches_reference_svd(self, theta):
        # The criterion-5 channels.  Jacobi on the plain Gram matrix H^H H misses
        # this bound by about 2.6e-10, so passing it needs the graded R.
        H = build_channel(500.0, theta, 100.0, 100.0, 0.5)
        s = singular_spectrum(H)
        ref = np.linalg.svd(H.entries, compute_uv=False)
        ref = ref / ref[0]
        resolved = ref > 1e-6
        assert np.abs(s.normalized - ref)[resolved].max() <= 1e-10


class TestEdof:
    def _spectrum(self, values):
        values = np.asarray(values, dtype=float)
        return singular_spectrum(
            ChannelMatrix(entries=np.diag(values).astype(complex))
        )

    def test_threshold_basic(self):
        s = self._spectrum([1.0, 1.0, 1e-6])
        assert edof_threshold(s, 0.5) == 2

    def test_threshold_all_equal(self):
        s = self._spectrum([2.0] * 7)
        for tau in (0.05, 0.5, 0.99):
            assert edof_threshold(s, tau) == 7

    def test_threshold_domain(self):
        s = self._spectrum([1.0])
        with pytest.raises(ValueError):
            edof_threshold(s, 0.0)
        with pytest.raises(ValueError):
            edof_threshold(s, 1.0)

    def test_quadratic_equal_values(self):
        assert edof_quadratic(self._spectrum([3.0] * 5)) == pytest.approx(5.0)

    def test_quadratic_single_value(self):
        assert edof_quadratic(self._spectrum([2.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_quadratic_near_two(self):
        assert edof_quadratic(self._spectrum([1.0, 1.0, 0.01])) == pytest.approx(
            2.0002, abs=1e-4
        )

    def test_quadratic_all_zero_rejected(self):
        with pytest.raises(AllZeroSpectrum):
            edof_quadratic(self._spectrum([0.0, 0.0]))

    @pytest.mark.parametrize("scale", [1e100, 1e-100, 1e-170, 1e300, 1e-300])
    def test_quadratic_does_not_depend_on_the_scale(self, scale):
        # sum s^2 and sum s^4 of the values overflow or underflow at these scales
        rng = np.random.default_rng(7)
        entries = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        s = np.linalg.svd(entries, compute_uv=False)
        want = np.sum(s**2) ** 2 / np.sum(s**4)
        got = edof_quadratic(singular_spectrum(ChannelMatrix(entries=entries * scale)))
        assert got == pytest.approx(want, rel=1e-12)


class TestPipelineProperties:
    def test_amplitude_scale_invariance(self):
        a = build_channel(60.0, 0.2, 16.0, 16.0, 0.5)
        b = ChannelMatrix(entries=a.entries * 0.12345)
        sa, sb = singular_spectrum(a), singular_spectrum(b)
        assert sa.normalized == pytest.approx(sb.normalized, abs=1e-12)

    def test_spacing_invariance_small_arrays(self):
        # halving the spacing must not move the spectrum knee
        for theta in (0.0, math.pi / 6.0):
            e = {}
            for spacing in (0.5, 0.25):
                s = singular_spectrum(build_channel(60.0, theta, 16.0, 16.0, spacing))
                e[spacing] = edof_threshold(s, 0.1)
            assert abs(e[0.5] - e[0.25]) <= 1

    def test_tilt_monotonicity_small_arrays(self):
        edofs = []
        quads = []
        for theta in (0.0, math.pi / 6.0, math.pi / 3.0):
            s = singular_spectrum(build_channel(60.0, theta, 16.0, 16.0, 0.5))
            edofs.append(edof_threshold(s, 0.1))
            quads.append(edof_quadratic(s))
        assert edofs[0] >= edofs[1] >= edofs[2]
        assert quads[0] > quads[1] > quads[2]

    def test_spectra_non_increasing(self):
        s = singular_spectrum(build_channel(90.0, 0.5, 16.0, 16.0, 0.5))
        assert (np.diff(s.values) <= 1e-12).all()
        assert s.normalized[0] == pytest.approx(1.0)
