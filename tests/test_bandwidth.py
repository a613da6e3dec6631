"""Spatial frequency and local bandwidth: closed form against its oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfdof import (
    K0,
    ArraySegment,
    OrientationAngles,
    PolarPlacement,
    canonicalize,
    geometry_angles,
    k_number_numeric,
    local_bandwidth_closed,
    local_bandwidth_oracle,
    max_bandwidth,
    omega_from_angles,
    omega_grid,
    optimal_orientation,
    reduce_phi_prime,
    spatial_frequency,
    unit,
)
import nfdof.bandwidth as bandwidth
from nfdof.bandwidth import _direction_angles
from nfdof.errors import DegeneratePoint
from nfdof.geometry import SEGMENT_TOL

from test_knumber import orientation_vector

LS = 100.0
BLOCK = bandwidth._ORACLE_BLOCK


def fan_extrema_oracle(psi, phi_prime, alpha, n=200_001):
    """Enumerate the frequency over the arrival fan; endpoints sampled exactly."""
    gammas = np.linspace(-0.5 * alpha, 0.5 * alpha, n)
    f = K0 * math.sin(psi) * np.cos(gammas - phi_prime)
    return float(f.max()), float(f.min())


def fan_end_spread(psi, phi_prime, alpha):
    """K0 sin(psi) (cos(lo) - cos(hi)) over the fan's ends lo, hi clipped to [0, pi]: fmax - fmin."""
    lo, hi = max(phi_prime - 0.5 * alpha, 0.0), min(phi_prime + 0.5 * alpha, math.pi)
    return K0 * math.sin(psi) * (math.cos(lo) - math.cos(hi))


def omega_mpmath(psi, phi_prime, alpha, dps=40):
    """The fan spread by its branch formulas, in mpmath at ``dps`` digits, for float inputs."""
    with mpmath.workdps(dps):
        half = mpmath.mpf(alpha) / 2
        lo, hi = mpmath.mpf(phi_prime) - half, mpmath.mpf(phi_prime) + half
        cos_max = 1 if lo <= 0 else mpmath.cos(lo)
        cos_min = -1 if hi >= mpmath.pi else mpmath.cos(hi)
        return mpmath.mpf(K0) * mpmath.sin(mpmath.mpf(psi)) * (cos_max - cos_min)


def one_pass_oracle(p, v, Ls, n_samples):
    """The oracle's spread in one pass over the whole sample grid."""
    f = spatial_frequency(p, (0.0, 0.0, np.linspace(-0.5 * Ls, 0.5 * Ls, n_samples)), v)
    return float(f.max() - f.min())


def random_case(rng):
    R = rng.uniform(60.0, 2000.0)
    theta = rng.uniform(0.0, 0.5 * math.pi * 0.9999)
    az = rng.uniform(0.0, 2.0 * math.pi)
    zs = 1.0 if rng.uniform() < 0.5 else -1.0
    p = (
        R * math.cos(theta) * math.cos(az),
        R * math.cos(theta) * math.sin(az),
        zs * R * math.sin(theta),
    )
    v = orientation_vector(rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi))
    return p, v


class TestSpatialFrequency:
    def test_aligned(self):
        assert spatial_frequency((0, 1, 0), (0, 0, 0), (0, 1, 0)) == pytest.approx(K0)

    def test_orthogonal(self):
        assert spatial_frequency((0, 1, 0), (0, 0, 0), (0, 0, 1)) == pytest.approx(0.0)

    def test_three_four_five(self):
        assert spatial_frequency((0, 3, 4), (0, 0, 0), (0, 0, 1)) == pytest.approx(0.8 * K0)

    def test_coincident_rejected(self):
        with pytest.raises(DegeneratePoint):
            spatial_frequency((1, 2, 3), (1, 2, 3), (0, 0, 1))

    def test_array_sources_match_each_scalar_call(self):
        p, v = (3.0, -40.0, 25.0), (0.2, 0.7, -0.4)
        zs = np.linspace(-50.0, 50.0, 11)
        f = spatial_frequency(p, (1.0, 2.0, zs), v)
        assert f.shape == zs.shape
        assert f.tolist() == [spatial_frequency(p, (1.0, 2.0, z), v) for z in zs]

    def test_any_coincident_array_source_rejected(self):
        with pytest.raises(DegeneratePoint):
            spatial_frequency((0.0, 0.0, 1.0), (0.0, 0.0, np.array([-1.0, 0.0, 1.0])), (0, 1, 0))


class TestFanExtrema:
    """omega_from_angles is the spread fmax - fmin of the frequency over the arrival fan."""

    def test_bisector_aligned(self):
        alpha = 0.6
        omega = omega_from_angles(0.5 * math.pi, 0.0, alpha)
        assert omega == pytest.approx(K0 * (1.0 - math.cos(0.5 * alpha)))
        fmax, fmin = fan_extrema_oracle(0.5 * math.pi, 0.0, alpha)
        assert fmax == pytest.approx(K0)
        assert omega == pytest.approx(fmax - fmin, abs=1e-9)

    def test_perpendicular_to_plane(self):
        assert omega_from_angles(0.0, 1.0, 1.0) == 0.0

    def test_quarter_turn_from_bisector(self):
        alpha = 0.199337
        omega = omega_from_angles(0.5 * math.pi, 0.5 * math.pi, alpha)
        assert omega == pytest.approx(2.0 * K0 * math.sin(0.5 * alpha))
        assert 0.5 * omega / K0 == pytest.approx(0.09950, abs=1e-4)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            psi = rng.uniform(0.0, math.pi)
            pp = rng.uniform(0.0, math.pi)
            alpha = rng.uniform(0.0, math.pi * 0.999)
            omax, omin = fan_extrema_oracle(psi, pp, alpha)
            assert omega_from_angles(psi, pp, alpha) == pytest.approx(omax - omin, abs=2e-9)

    def test_omega_equals_fmax_minus_fmin(self):
        rng = np.random.default_rng(22)
        for _ in range(2000):
            psi = rng.uniform(0.0, math.pi)
            pp = rng.uniform(0.0, math.pi)
            alpha = rng.uniform(0.0, math.pi * 0.999)
            assert omega_from_angles(psi, pp, alpha) == pytest.approx(fan_end_spread(psi, pp, alpha), abs=1e-12)


class TestClosedForm:
    def test_perpendicular_orientation_is_zero(self):
        assert local_bandwidth_closed((0, 500, 0), (1, 0, 0), LS) == 0.0
        # normal of the plane spanned by p and the z axis maps to +-x
        p = (12.0, 480.0, -130.0)
        n = math.hypot(p[0], p[1])
        v = (-p[1] / n, p[0] / n, 0.0)
        assert local_bandwidth_closed(p, v, LS) == pytest.approx(0.0, abs=1e-12)
        assert local_bandwidth_oracle(p, v, LS, 5001) == pytest.approx(0.0, abs=1e-12)

    def test_optimal_orientation_value(self):
        placement = PolarPlacement(500.0, 0.0)
        v = optimal_orientation(geometry_angles(placement.point(), LS))
        omega = local_bandwidth_closed(placement.point(), v, LS)
        alpha = 2.0 * math.atan(0.1)
        assert omega == pytest.approx(2.0 * K0 * math.sin(0.5 * alpha), rel=1e-12)
        assert omega / K0 == pytest.approx(0.19900743804199783, rel=1e-12)

    def test_mid_branch_value_against_oracle(self):
        # (psi, phi') = (pi/2, pi/4) at broadside: middle branch
        p = (0.0, 500.0, 0.0)
        v = orientation_vector(0.5 * math.pi, 0.25 * math.pi)
        omega = local_bandwidth_closed(p, v, LS)
        alpha = 2.0 * math.atan(0.1)
        expected = 2.0 * K0 * math.sin(0.5 * alpha) * math.sin(0.25 * math.pi)
        assert omega == pytest.approx(expected, rel=1e-12)
        assert omega / K0 == pytest.approx(0.14071950894605836, rel=1e-12)
        oracle = local_bandwidth_oracle(p, v, LS, 100_000)
        assert abs(omega - oracle) <= 2.0 * K0 * alpha / 100_000

    def test_matches_oracle_for_random_3d_cases(self):
        rng = np.random.default_rng(23)
        n = 20_000
        for _ in range(300):
            p, v = random_case(rng)
            closed = local_bandwidth_closed(p, v, LS)
            oracle = local_bandwidth_oracle(p, v, LS, n)
            alpha, _ = geometry_angles(p, LS)
            assert abs(closed - oracle) <= 2.0 * K0 * alpha / n + 1e-9

    def test_collinear_placement_gives_zero(self):
        assert local_bandwidth_closed((0.0, 0.0, 400.0), (0.0, 1.0, 0.0), LS) == 0.0

    def test_on_segment_rejected(self):
        with pytest.raises(DegeneratePoint):
            local_bandwidth_closed((0.0, 0.0, 10.0), (0.0, 1.0, 0.0), LS)


def objects_local_bandwidth_closed(p, v, Ls):
    """The per-node composition with its fan formula inlined.

    canonicalize -> geometry_angles -> _direction_angles -> reduce_phi_prime ->
    omega_from_angles, written out independently of local_bandwidth_closed.
    """
    (_, y, z), v_c = canonicalize(p, v)
    h = 0.5 * Ls
    if (y if z <= h else math.hypot(y, z - h)) <= SEGMENT_TOL:
        raise DegeneratePoint("placement intersects the transmit segment")
    gamma_a, gamma_b = math.atan2(z - h, y), math.atan2(z + h, y)
    alpha, beta = max(0.0, gamma_b - gamma_a), 0.5 * (gamma_a + gamma_b)
    psi, phi = _direction_angles(v_c)
    return omega_from_angles(psi, reduce_phi_prime(phi, beta), alpha)


def outcome(f, *args):
    """f(*args), or the type and text of what it raised."""
    try:
        return f(*args)
    except ValueError as exc:  # every error of the package is a ValueError
        return type(exc), str(exc)


coord = st.floats(-3000.0, 3000.0, allow_nan=False)


class TestFanAnglesEntry:
    """local_bandwidth_closed reads the fan from geometry_angles and equals the inlined composition bit for bit."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        p=st.tuples(coord, coord, coord),
        v=st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3),
        Ls=st.floats(0.5, 500.0),
    )
    def test_equals_the_object_composition(self, p, v, Ls):
        assert outcome(local_bandwidth_closed, p, v, Ls) == outcome(objects_local_bandwidth_closed, p, v, Ls)

    @pytest.mark.parametrize(
        "p, v",
        [
            ((0.0, 0.0, 300.0), (0.0, 1.0, 0.0)),  # rho = 0, on the z axis beyond the tip
            ((0.0, 0.0, -300.0), (0.3, 0.4, 0.5)),  # rho = 0, mirrored
            ((0.0, 250.0, -120.0), (0.1, -0.7, 0.2)),  # z < 0: mirror
            ((-200.0, 35.0, 60.0), (0.6, 0.2, -0.3)),  # x < 0: rotation past pi/2
            ((-150.0, -150.0, 0.0), (0.0, 0.0, 1.0)),  # x, y < 0 in the plane z = 0
            ((1e-3, 0.0, 49.0), (1.0, 1.0, 0.0)),  # just off the segment
        ],
    )
    def test_rows_equal_the_object_composition(self, p, v):
        value = local_bandwidth_closed(p, v, LS)
        assert value == objects_local_bandwidth_closed(p, v, LS)
        fan = geometry_angles(canonicalize(p, v)[0], LS)
        assert type(fan) is tuple and [type(x) for x in fan] == [float, float]  # two floats, no box

    def test_z_axis_beyond_the_tip_has_a_zero_fan(self):
        placement = PolarPlacement(300.0, 0.5 * math.pi)
        assert geometry_angles(placement.point(), LS)[0] == 0.0
        assert local_bandwidth_closed((0.0, 0.0, 300.0), (0.0, 1.0, 0.0), LS) == 0.0

    def test_keeps_the_segment_texts(self):
        with pytest.raises(DegeneratePoint, match="^placement intersects the transmit segment$"):
            geometry_angles(PolarPlacement(30.0, 0.5 * math.pi).point(), LS)
        message = "^the receive array reaches the transmit segment: distance 40 <= Lp/2 = 50$"
        with pytest.raises(DegeneratePoint, match=message):
            geometry_angles(PolarPlacement(40.0, 0.0).point(), LS, 0.5 * 100.0)

    def test_each_node_calls_the_module_binding(self, monkeypatch):
        # one call per node plus integrate's second f(b): a node fan that bypasses the
        # public name hides it from anything that wraps nfdof.bandwidth.geometry_angles
        calls = []

        def counted(*args):
            calls.append(args)
            return geometry_angles(*args)

        monkeypatch.setattr("nfdof.bandwidth.geometry_angles", counted)
        placement = PolarPlacement(500.0, 0.3)
        seg = ArraySegment(placement.point(), optimal_orientation(geometry_angles(placement.point(), LS)), 100.0)
        k_number_numeric(seg, LS, 65)
        assert len(calls) == 66

    def test_closed_form_keeps_the_on_segment_text(self):
        with pytest.raises(DegeneratePoint, match="^placement intersects the transmit segment$"):
            local_bandwidth_closed((0.0, 1e-10, -20.0), (0.0, 1.0, 0.0), LS)


class TestOracle:
    def test_perpendicular_zero_any_samples(self):
        for n in (2, 11, 1001):
            assert local_bandwidth_oracle((0, 500, 0), (1, 0, 0), LS, n) == pytest.approx(0.0)

    def test_two_samples_lower_bound(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            p, v = random_case(rng)
            two = local_bandwidth_oracle(p, v, LS, 2)
            closed = local_bandwidth_closed(p, v, LS)
            assert two <= closed + 1e-9
            # and it equals the spread over the two endpoint frequencies
            fa = spatial_frequency(p, (0, 0, 0.5 * LS), v)
            fb = spatial_frequency(p, (0, 0, -0.5 * LS), v)
            assert two == pytest.approx(abs(fa - fb), abs=1e-12)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            local_bandwidth_oracle((0, 500, 0), (0, 0, 1), LS, 1)

    @pytest.mark.parametrize("n", [1000.0, 2.0, "100", 0])
    def test_non_integer_or_small_sample_count_rejected(self, n):
        # a float count once passed the range check and failed inside np.linspace
        before = bandwidth._oracle_grid.cache_info()
        with pytest.raises(ValueError, match=f"^n_samples must be an integer >= 2, got {n!r}$"):
            local_bandwidth_oracle((0, 500, 0), (0, 0, 1), LS, n)
        assert bandwidth._oracle_grid.cache_info() == before  # refused before any grid is built

    @pytest.mark.parametrize("Ls", [-100.0, 0.0, math.nan, math.inf])
    def test_non_finite_or_non_positive_Ls_rejected(self, Ls):
        # -100 once gave 1.25, 0 gave 0.0 and NaN gave nan
        before = bandwidth._oracle_grid.cache_info()
        with pytest.raises(ValueError, match="^Ls must be positive and finite, got"):
            local_bandwidth_oracle((0, 500, 0), (0, 0, 1), Ls, 1000)
        assert bandwidth._oracle_grid.cache_info() == before

    def test_numpy_integer_sample_count_accepted(self):
        p, v = (0.0, 300.0, 40.0), (0.0, 0.0, 1.0)
        assert local_bandwidth_oracle(p, v, LS, np.int64(1001)) == local_bandwidth_oracle(p, v, LS, 1001)

    def test_sample_hits_observation_point(self):
        with pytest.raises(DegeneratePoint):
            local_bandwidth_oracle((0.0, 0.0, 50.0), (0, 0, 1), LS, 3)

    def test_last_sample_of_a_trailing_block_hits_observation_point(self):
        # n = BLOCK + 1 puts the segment tip alone in the second block
        with pytest.raises(DegeneratePoint):
            local_bandwidth_oracle((0.0, 0.0, 0.5 * LS), (0, 0, 1), LS, BLOCK + 1)

    @pytest.mark.parametrize("n", [2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7, 100_000])
    def test_blocks_equal_one_pass(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            p, v = random_case(rng)
            assert local_bandwidth_oracle(p, v, LS, n) == one_pass_oracle(p, v, LS, n)

    @pytest.mark.parametrize("k", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_peak_on_a_block_edge(self, k):
        # v points from sample k to p, so the frequency peaks on that one sample
        n, p = 2 * BLOCK + 7, (0.0, 300.0, 40.0)
        z = np.linspace(-0.5 * LS, 0.5 * LS, n)
        v = (0.0, p[1], p[2] - z[k])
        assert np.argmax(spatial_frequency(p, (0.0, 0.0, z), v)) == k
        assert local_bandwidth_oracle(p, v, LS, n) == one_pass_oracle(p, v, LS, n)

    @pytest.mark.parametrize("axis", range(3))
    def test_nan_coordinate_gives_nan(self, axis):
        p = [0.0, 300.0, 40.0]
        p[axis] = math.nan
        assert math.isnan(local_bandwidth_oracle(p, (0.0, 0.6, 0.8), LS, 2 * BLOCK + 7))

    def test_cached_grid_refuses_writes(self):
        local_bandwidth_oracle((0.0, 300.0, 40.0), (0, 0, 1), LS, 1001)
        grid = bandwidth._oracle_grid(LS, 1001)
        assert bandwidth._oracle_grid.cache_info().currsize == 1
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0


class TestBranchStructure:
    def test_continuity_at_seams(self):
        # each clipped branch one float outside its seam meets the unclipped value at alpha/2
        rng = np.random.default_rng(25)
        for _ in range(500):
            alpha = rng.uniform(1e-6, math.pi * 0.999)
            psi = rng.uniform(0.0, math.pi)
            half = 0.5 * alpha
            seam = omega_from_angles(psi, half, alpha)
            assert abs(omega_from_angles(psi, math.nextafter(half, 0.0), alpha) - seam) <= 1e-12
            assert abs(omega_from_angles(psi, math.nextafter(math.pi - half, math.pi), alpha) - seam) <= 1e-12

    def test_snap_keeps_values_continuous(self):
        alpha = 0.4
        half = 0.2
        eps = 1e-13
        at = omega_from_angles(0.5 * math.pi, half, alpha)
        assert omega_from_angles(0.5 * math.pi, half - eps, alpha) == pytest.approx(at, abs=1e-12)
        assert omega_from_angles(0.5 * math.pi, half + eps, alpha) == pytest.approx(at, abs=1e-12)

    def test_grid_equator_row_equals_scalar_form_bit_for_bit(self):
        for alpha in (1e-9, 0.4, 0.9273, 2.8):
            half = 0.5 * alpha
            seams = np.array([half, math.pi - half])
            near = (seams[:, None] + np.array([-1e-13, 0.0, 1e-13])).ravel()
            phis = np.concatenate([np.linspace(0.0, math.pi, 257), near, [0.0, math.pi]])
            scalar = [omega_from_angles(0.5 * math.pi, float(pp), alpha) for pp in phis]
            assert omega_grid([0.5 * math.pi], phis, alpha).tolist() == [scalar]
            square = phis[:256].reshape(16, 16)  # phi' of any shape is read flat
            assert omega_grid([0.5 * math.pi], square, alpha).tolist() == [scalar[:256]]
            point = omega_grid(0.5 * math.pi, np.float64(half), alpha)
            assert point.shape == (1, 1) and point[0, 0] == omega_from_angles(0.5 * math.pi, half, alpha)

    @pytest.mark.parametrize(
        "psi, phi_prime, alpha",
        [
            (0.5 * math.pi, 1e-9, 2e-9),  # phi' = alpha/2: the fan touches 0
            (0.5 * math.pi, 3e-10, 2e-9),  # the fan is clipped at 0
            (1.0, 1e-12, 4e-12),
            (0.5 * math.pi, 0.7, 1e-9),  # unclipped
        ],
    )
    def test_small_fans_relatively_accurate(self, psi, phi_prime, alpha):
        expected = omega_mpmath(psi, phi_prime, alpha)
        assert expected > 0
        assert abs(omega_from_angles(psi, phi_prime, alpha) - expected) <= 1e-14 * expected

    def test_matches_mpmath_on_random_fans(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            psi = rng.uniform(0.0, math.pi)
            pp = rng.uniform(0.0, math.pi)
            alpha = rng.uniform(0.0, math.pi * 0.999)
            got = omega_from_angles(psi, pp, alpha)
            assert abs(got - float(omega_mpmath(psi, pp, alpha))) <= 4e-15 * K0

    def test_periodic_in_phi(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            placement = PolarPlacement(rng.uniform(60, 2000), rng.uniform(0, 1.5))
            p = placement.point()
            for psi in np.linspace(0.0, math.pi, 9):
                for phi in np.linspace(0.0, math.pi, 9):
                    v = orientation_vector(psi, phi)
                    w = orientation_vector(psi, phi + math.pi)
                    a = local_bandwidth_closed(p, v, LS)
                    b = local_bandwidth_closed(p, w, LS)
                    assert abs(a - b) <= 1e-12

    def test_mirror_symmetry_in_psi(self):
        rng = np.random.default_rng(27)
        for _ in range(500):
            psi = rng.uniform(0.0, math.pi)
            pp = rng.uniform(0.0, math.pi)
            alpha = rng.uniform(0.0, math.pi * 0.999)
            a = omega_from_angles(psi, pp, alpha)
            b = omega_from_angles(math.pi - psi, pp, alpha)
            assert abs(a - b) <= 1e-12

    def test_range_and_dominance(self):
        rng = np.random.default_rng(28)
        for _ in range(2000):
            psi = rng.uniform(0.0, math.pi)
            pp = rng.uniform(0.0, math.pi)
            alpha = rng.uniform(0.0, math.pi * 0.999)
            omega = omega_from_angles(psi, pp, alpha)
            assert 0.0 <= omega <= 2.0 * K0 + 1e-12
            assert omega <= max_bandwidth(alpha) + 1e-12


class TestMaxBandwidth:
    def test_zero_fan(self):
        assert max_bandwidth(0.0) == 0.0

    def test_broadside_grid_max(self):
        alpha = 2.0 * math.atan(0.1)
        psis = np.linspace(0.0, math.pi, 801)
        phis = np.linspace(0.0, math.pi, 801)
        grid_max = float(omega_grid(psis, phis, alpha).max())
        assert max_bandwidth(alpha) == pytest.approx(grid_max, abs=1e-5 * K0)
        assert max_bandwidth(alpha) / K0 == pytest.approx(0.19900743804199783, rel=1e-12)

    def test_wide_fan_beats_outer_branch_candidates(self):
        alpha = 0.5 * math.pi
        mid = 2.0 * K0 * math.sin(0.25 * math.pi)
        outer = K0 * (1.0 - math.cos(alpha))
        assert max_bandwidth(alpha) == pytest.approx(mid)
        assert outer <= mid

    def test_outer_candidate_never_wins(self):
        for alpha in np.linspace(0.0, math.pi * 0.999, 200):
            assert K0 * (1.0 - math.cos(alpha)) <= max_bandwidth(alpha) + 1e-12

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            max_bandwidth(math.pi)


class TestGridHelpers:
    def test_grid_matches_scalar_form(self):
        rng = np.random.default_rng(29)
        psis = np.sort(rng.uniform(0.0, math.pi, 17))
        phis = np.sort(rng.uniform(0.0, math.pi, 19))
        for alpha in (0.0, 0.05, 0.9273, 2.8):
            grid = omega_grid(psis, phis, alpha)
            for i in (0, 5, 16):
                for j in (0, 7, 18):
                    assert grid[i, j] == pytest.approx(
                        omega_from_angles(float(psis[i]), float(phis[j]), alpha), abs=1e-12
                    )

    def test_rows_scale_the_equator_row(self):
        psis = np.linspace(0.0, math.pi, 7)
        phis = np.linspace(0.0, math.pi, 101)
        grid = omega_grid(psis, phis, 0.7)
        equator = omega_grid([0.5 * math.pi], phis, 0.7)[0]
        for i, psi in enumerate(psis):
            assert grid[i].tolist() == (math.sin(psi) * equator).tolist()


class TestOrientationRecovery:
    def test_round_trip(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            psi = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, math.pi)
            psi_back, phi_back = _direction_angles(unit(orientation_vector(psi, phi)))
            assert psi_back == pytest.approx(psi, abs=1e-9)
            if math.sin(psi) > 1e-9:
                assert reduce_phi_prime(phi_back, 0.0) == pytest.approx(phi % math.pi, abs=1e-9)

    def test_azimuth_minus_pi_reduces_to_positive_zero(self):
        # atan2(-0.0, -1.0) = -pi, and fmod(-pi, pi) = -0.0
        phi = reduce_phi_prime(_direction_angles((0.0, -1.0, -0.0))[1], 0.0)
        assert phi == 0.0 and math.copysign(1.0, phi) == 1.0
        assert math.copysign(1.0, reduce_phi_prime(-math.pi, 0.0)) == 1.0

    @pytest.mark.parametrize("psi", [1e-4, 1e-6, 1e-8, math.pi - 1e-8])
    def test_polar_angle_near_the_poles_matches_mpmath(self, psi):
        # The float psi can be off by an ulp, which sin(psi) turns into a
        # relative error of ulp(psi) / min(psi, pi - psi): 4.4e-8 at pi - 1e-8.
        # acos(v_x) returns 0 or pi for the last two cases, a relative error of 1.
        v = OrientationAngles(psi, 1.3).vector()
        p = (0.0, 433.0, 250.0)  # already canonical: the direction is not rotated
        with mpmath.workdps(40):
            vx, vy, vz = (mpmath.mpf(c) for c in v)
            psi_ref = mpmath.atan2(mpmath.hypot(vy, vz), vx)
        alpha, beta = geometry_angles(canonicalize(p, v)[0], LS)
        phi_prime = reduce_phi_prime(math.atan2(v[2], v[1]), beta)
        omega_ref = omega_mpmath(psi_ref, phi_prime, alpha)
        bound = 1e-13 + 2.0 * math.ulp(psi) / min(psi, math.pi - psi)
        assert abs(_direction_angles(unit(v))[0] - psi_ref) <= 2.0 * math.ulp(psi)
        assert abs(local_bandwidth_closed(p, v, LS) - omega_ref) <= bound * omega_ref

    def test_poles_get_zero_azimuth(self):
        # atan2 of the zero (y, z) pair
        assert _direction_angles((1.0, 0.0, 0.0)) == (0.0, 0.0)
        assert _direction_angles((-1.0, 0.0, 0.0)) == (math.pi, 0.0)

    def test_phi_prime_reduction(self):
        assert reduce_phi_prime(0.3, 0.1) == pytest.approx(0.2)
        assert reduce_phi_prime(0.1, 0.3) == pytest.approx(math.pi - 0.2)
        assert reduce_phi_prime(2.0 + math.pi, 2.0) == pytest.approx(0.0, abs=1e-12)
        for value in np.linspace(-7.0, 7.0, 500):
            r = reduce_phi_prime(value, 1.3)
            assert 0.0 <= r < math.pi
