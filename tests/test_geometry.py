"""Canonical-frame reduction and angle geometry."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfdof import (
    ArraySegment,
    PolarPlacement,
    canonicalize,
    geometry_angles,
    local_bandwidth_closed,
    local_bandwidth_oracle,
    max_bandwidth,
    optimal_orientation,
    subtended_angle_oracle,
    unit,
)
from nfdof.errors import DegenerateGeometry, DegeneratePoint
from nfdof.geometry import SEGMENT_TOL

LS = 100.0
coord = st.floats(-3000.0, 3000.0, allow_nan=False)


def endpoints(Ls=LS):
    return (0.0, 0.0, 0.5 * Ls), (0.0, 0.0, -0.5 * Ls)


def random_placement(rng, r_lo=60.0, r_hi=2000.0):
    return PolarPlacement(
        R=rng.uniform(r_lo, r_hi), theta=rng.uniform(0.0, 0.5 * math.pi * 0.9999)
    )


class TestCanonicalize:
    def test_already_canonical_is_identity(self):
        p_c, v = canonicalize((0.0, 500.0, 0.0), (0.0, 0.0, 1.0))
        # a zero rotation and no mirror: point and direction come back unchanged
        assert p_c == (0.0, 500.0, 0.0)
        assert v == (0.0, 0.0, 1.0)

    def test_x_axis_point_rotates_onto_y(self):
        p_c, v = canonicalize((500.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert p_c == (0.0, 500.0, 0.0)  # rho = hypot(500, 0) is exact
        # the rotated direction must be +-x (a quarter turn of y)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-15)
        assert v[1] == pytest.approx(0.0, abs=1e-15)
        # bandwidth unchanged: same sampled sources, rigid transform
        before = local_bandwidth_oracle((500.0, 0.0, 0.0), (0.0, 1.0, 0.0), LS, 4001)
        after = local_bandwidth_oracle(p_c, v, LS, 4001)
        assert after == pytest.approx(before, abs=1e-9)

    def test_negative_z_is_mirrored(self):
        p_c, v = canonicalize((0.0, 300.0, -400.0), (0.0, 0.0, 1.0))
        # no rotation, and the mirror flips the z of both point and direction
        assert p_c == (0.0, 300.0, 400.0)
        assert v == (0.0, 0.0, -1.0)
        before = local_bandwidth_oracle((0.0, 300.0, -400.0), (0.0, 0.0, 1.0), LS, 4001)
        after = local_bandwidth_oracle(p_c, v, LS, 4001)
        assert after == pytest.approx(before, abs=1e-9)

    def test_transform_reproduces_canonical_pair(self):
        # a rotation about z and a z-mirror send p to (0, rho, |z|); the products
        # below, kept by both maps, then fix v_c: its z, its x, its y, its norm
        rng = np.random.default_rng(7)
        for _ in range(2000):
            p = rng.uniform(-800.0, 800.0, size=3)
            if math.hypot(p[0], p[1]) < 1.0:
                continue
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            p_c, v_c = canonicalize(p, v)
            x, y, z = p
            rho = math.hypot(x, y)
            assert p_c == (0.0, rho, abs(z))
            assert float(np.dot(p, v)) == pytest.approx(float(np.dot(p_c, v_c)), abs=1e-9)
            assert z * v[2] == pytest.approx(p_c[2] * v_c[2], abs=1e-9)
            assert x * v[1] - y * v[0] == pytest.approx(-rho * v_c[0], abs=1e-9)
            assert math.sqrt(sum(c * c for c in v_c)) == pytest.approx(1.0, abs=1e-12)

    def test_bandwidth_preserved_for_random_3d_placements(self):
        # oracle in the original frame vs oracle in the canonical frame,
        # same source sampling: rigid transforms keep every inner product
        rng = np.random.default_rng(11)
        for _ in range(300):
            R = rng.uniform(60.0, 2000.0)
            theta = rng.uniform(0.0, 0.5 * math.pi * 0.999)
            az = rng.uniform(0.0, 2.0 * math.pi)
            zs = 1.0 if rng.uniform() < 0.5 else -1.0
            p = (
                R * math.cos(theta) * math.cos(az),
                R * math.cos(theta) * math.sin(az),
                zs * R * math.sin(theta),
            )
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            p_c, v_c = canonicalize(p, v)
            before = local_bandwidth_oracle(p, v, LS, 2001)
            after = local_bandwidth_oracle(p_c, v_c, LS, 2001)
            assert after == pytest.approx(before, rel=1e-9, abs=1e-12)

    def test_origin_rejected(self):
        # canonicalize sends the origin to itself; the segment test refuses it
        assert canonicalize((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))[0] == (0.0, 0.0, 0.0)
        with pytest.raises(DegeneratePoint, match="intersects the transmit segment"):
            geometry_angles((0.0, 0.0, 0.0), LS)
        with pytest.raises(DegeneratePoint, match="intersects the transmit segment"):
            local_bandwidth_closed((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), LS)

    def test_point_on_segment_rejected(self):
        # canonicalize makes no segment test; geometry_angles of its placement is the one
        for p in ((0.0, 0.0, 30.0), (0.0, 5e-10, 30.0), (3e-10, -4e-10, -30.0)):
            p_c, _ = canonicalize(p, (0.0, 1.0, 0.0))
            with pytest.raises(DegeneratePoint, match="intersects the transmit segment"):
                geometry_angles(p_c, LS)

    def test_point_just_outside_band_accepted(self):
        p_c, _ = canonicalize((0.0, 1e-6, 30.0), (0.0, 1.0, 0.0))
        assert geometry_angles(p_c, LS)[0] > 0.0


def atan2_rotation(p, v):
    """The direction canonicalize returned when it found its rotation by atan2, cos and sin."""
    x, y, z = p
    vx, vy, vz = unit(v)
    if math.hypot(x, y) > 0.0:
        rot = math.remainder(0.5 * math.pi - math.atan2(y, x), 2.0 * math.pi)
        c, s = math.cos(rot), math.sin(rot)
        vx, vy = c * vx - s * vy, s * vx + c * vy
    return (vx, vy, -vz if z < 0.0 else vz)


class TestCanonicalRotation:
    """canonicalize rotates by cos = y/rho and sin = x/rho, with no transcendental call."""

    V = (0.3, -0.4, 0.5)

    def test_positive_y_axis_keeps_the_direction(self):
        assert canonicalize((0.0, 300.0, 40.0), self.V)[1] == unit(self.V)

    def test_negative_y_axis_negates_x_and_y_exactly(self):
        vx, vy, vz = unit(self.V)
        assert canonicalize((0.0, -300.0, 40.0), self.V)[1] == (-vx, -vy, vz)
        assert canonicalize((-0.0, -300.0, 40.0), self.V)[1] == (-vx, -vy, vz)

    def test_origin_and_z_axis_are_untouched(self):
        assert canonicalize((0.0, 0.0, 0.0), self.V) == ((0.0, 0.0, 0.0), unit(self.V))
        assert canonicalize((0.0, 0.0, 70.0), self.V) == ((0.0, 0.0, 70.0), unit(self.V))

    def test_x_axis_quarter_turn_is_exact(self):
        assert canonicalize((500.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == ((0.0, 500.0, 0.0), (-1.0, 0.0, 0.0))

    @settings(max_examples=2000, derandomize=True, database=None, deadline=None)
    @given(
        p=st.tuples(coord, coord, coord),
        v=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
            lambda v: max(map(abs, v)) > 1e-3
        ),
    )
    def test_matches_the_atan2_rotation(self, p, v):
        # subnormal coordinates included: (x, y) is scaled before its rho is divided into it
        v_c = canonicalize(p, v)[1]
        assert abs(math.sqrt(sum(c * c for c in v_c)) - 1.0) <= 1e-15
        for got, ref in zip(v_c, atan2_rotation(p, v)):
            assert abs(got - ref) <= 1e-15

    @pytest.mark.parametrize("p", [(5e-324, 5e-324, 1.0), (-3e-320, 1e-310, 0.0), (1.5e308, -1.5e308, 0.0)])
    def test_rho_outside_the_normal_range(self, p):
        v_c = canonicalize(p, self.V)[1]
        assert abs(math.sqrt(sum(c * c for c in v_c)) - 1.0) <= 1e-15
        for got, ref in zip(v_c, atan2_rotation(p, self.V)):
            assert abs(got - ref) <= 1e-15


class TestGeometryAngles:
    def test_broadside(self):
        alpha, beta = geometry_angles(PolarPlacement(500.0, 0.0).point(), LS)
        A, B = endpoints()
        assert alpha == pytest.approx(2.0 * math.atan(0.1), abs=1e-14)
        assert alpha == pytest.approx(
            subtended_angle_oracle((0.0, 500.0, 0.0), A, B), abs=1e-12
        )
        assert beta == 0.0

    def test_oblique(self):
        placement = PolarPlacement(500.0, math.pi / 3.0)
        alpha, beta = geometry_angles(placement.point(), LS)
        A, B = endpoints()
        assert alpha == pytest.approx(
            subtended_angle_oracle(placement.point(), A, B), abs=1e-12
        )
        # frozen from the cross/dot and bisector oracles
        assert alpha == pytest.approx(0.10066865215782894, abs=1e-12)
        assert beta == pytest.approx(1.0428457746337723, abs=1e-12)

    def test_collinear_beyond_tip(self):
        alpha, beta = geometry_angles(PolarPlacement(500.0, 0.5 * math.pi).point(), LS)
        assert alpha == 0.0
        assert beta == pytest.approx(0.5 * math.pi)

    def test_on_segment_rejected(self):
        with pytest.raises(DegeneratePoint):
            geometry_angles(PolarPlacement(30.0, 0.5 * math.pi).point(), LS)

    @pytest.mark.parametrize(
        "placement, distance",
        [
            (PolarPlacement(50.0, 0.0), 50.0),
            (PolarPlacement(30.0, 0.5), 30.0 * math.cos(0.5)),  # y beside the segment
            (PolarPlacement(100.0, 0.5 * math.pi), 50.0),  # the distance to the tip beyond it
        ],
    )
    def test_reach_widens_the_segment_test(self, placement, distance):
        message = f"the receive array reaches the transmit segment: distance {distance:g} <= Lp/2 = 50"
        with pytest.raises(DegeneratePoint, match=f"^{message}$"):
            geometry_angles(placement.point(), LS, 50.0)
        assert geometry_angles(placement.point(), LS, distance - 1e-6) == geometry_angles(placement.point(), LS)

    def test_alpha_matches_oracle_everywhere(self):
        rng = np.random.default_rng(3)
        A, B = endpoints()
        for _ in range(10_000):
            placement = random_placement(rng)
            alpha, _ = geometry_angles(placement.point(), LS)
            ref = subtended_angle_oracle(placement.point(), A, B)
            assert abs(alpha - ref) <= 1e-12

    def test_beta_matches_bisector_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            placement = random_placement(rng)
            alpha, beta = geometry_angles(placement.point(), LS)
            if alpha == 0.0:
                continue
            P = placement.point()
            ra = _arrival(P, 0.5 * LS)
            rb = _arrival(P, -0.5 * LS)
            by, bz = ra[0] + rb[0], ra[1] + rb[1]
            assert abs(beta - math.atan2(bz, by)) <= 1e-12

    def test_alpha_strictly_decreasing_in_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            theta = rng.uniform(0.0, 0.5 * math.pi * 0.99)
            rs = np.linspace(60.0, 5000.0, 40)
            alphas = [geometry_angles(PolarPlacement(float(R), theta).point(), LS)[0] for R in rs]
            assert all(a > b for a, b in zip(alphas, alphas[1:]))
        far, _ = geometry_angles(PolarPlacement(1e9, 0.3).point(), LS)
        assert far < 2e-7

    def test_equal_alpha_on_circumcircle_arc(self):
        # circle through the endpoints with center (0, 37.5, 0), radius 62.5:
        # every first-quadrant point of it sees the segment under the same angle
        base, _ = geometry_angles(PolarPlacement(100.0, 0.0).point(), LS)
        for y, z in ((87.5, 37.5), (55.0, 60.0), (75.0, 50.0)):
            placement = PolarPlacement(math.hypot(y, z), math.atan2(z, y))
            alpha, _ = geometry_angles(placement.point(), LS)
            assert abs(alpha - base) <= 1e-12
            assert abs(max_bandwidth(alpha) - max_bandwidth(base)) <= 1e-12


    @pytest.mark.parametrize("Ls", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_Ls_rejected(self, Ls):
        # a NaN Ls read a bandwidth of 0.0, an infinite one alpha = pi and 4 pi
        with pytest.raises(ValueError, match="^Ls must be positive and finite, got"):
            geometry_angles((0.0, 500.0, 0.0), Ls)
        with pytest.raises(ValueError, match="^Ls must be positive and finite, got"):
            local_bandwidth_closed((0.0, 500.0, 0.0), (0.0, 0.0, 1.0), Ls)

    @pytest.mark.parametrize("reach", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_reach_rejected(self, reach):
        with pytest.raises(ValueError, match=r"^reach \(Lp/2\) must be >= 0 and finite, got"):
            geometry_angles((0.0, 500.0, 0.0), LS, reach)

    @pytest.mark.parametrize(
        "p", [(math.nan, 500.0, 0.0), (0.0, math.inf, 0.0), (0.0, 500.0, -math.inf), (1.7e308, 1.7e308, 0.0)]
    )
    def test_non_finite_rho_or_height_rejected(self, p):
        # the last point is finite, but its distance from the z-axis overflows
        with pytest.raises(ValueError, match="^" + re.escape("point must have a finite rho and |z|, got")):
            geometry_angles(p, LS)


def fan_or_refusal(p, Ls):
    """geometry_angles(p, Ls), or the text of the DegeneratePoint it raised."""
    try:
        return geometry_angles(p, Ls)
    except DegeneratePoint as exc:
        return str(exc)


def polar_fan(R, theta, Ls):
    """The fan as computed from (R, theta) before geometry_angles took a point."""
    h = 0.5 * Ls
    y = R * math.cos(theta)
    z = R * math.sin(theta)
    if (y if z <= h else math.hypot(y, z - h)) <= SEGMENT_TOL:
        return "placement intersects the transmit segment"
    gamma_a, gamma_b = math.atan2(z - h, y), math.atan2(z + h, y)
    d = gamma_b - gamma_a
    return (d if d > 0.0 else 0.0), 0.5 * (gamma_a + gamma_b)


class TestFanOfAPoint:
    """The fan reads only the distance rho from the z-axis and the height |z| of its point."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        p=st.tuples(coord, coord, coord),
        Ls=st.floats(0.5, 500.0),
        turn=st.floats(-math.pi, math.pi),
    )
    def test_invariant_under_the_canonical_maps(self, p, Ls, turn):
        fan = fan_or_refusal(p, Ls)
        assert fan_or_refusal(canonicalize(p, (0.0, 0.0, 1.0))[0], Ls) == fan  # bit for bit
        assert fan_or_refusal((p[0], p[1], -p[2]), Ls) == fan
        c, s = math.cos(turn), math.sin(turn)
        turned = fan_or_refusal((c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]), Ls)
        if isinstance(fan, str):
            assert turned == fan
        else:
            assert abs(turned[0] - fan[0]) <= 1e-15 and abs(turned[1] - fan[1]) <= 1e-15

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        R=st.floats(1e-3, 1e9),
        theta=st.floats(0.0, 0.5 * math.pi),
        Ls=st.floats(0.5, 500.0),
    )
    def test_polar_point_keeps_the_polar_fan(self, R, theta, Ls):
        # hypot(0, R cos(theta)) is R cos(theta) and |R sin(theta)| is R sin(theta): no float changes
        assert fan_or_refusal(PolarPlacement(R, theta).point(), Ls) == polar_fan(R, theta, Ls)


class TestOptimalOrientation:
    def test_broadside_parallel_to_transmit(self):
        ang = geometry_angles(PolarPlacement(500.0, 0.0).point(), LS)
        assert optimal_orientation(ang) == pytest.approx((0.0, 0.0, 1.0))

    def test_quarter_turn(self):
        assert optimal_orientation((0.1, 0.5 * math.pi)) == pytest.approx(
            (0.0, -1.0, 0.0)
        )

    def test_matches_rounded_tilt_value(self):
        v = optimal_orientation((0.1, 1.04296))
        assert v == pytest.approx((0.0, -0.86395, 0.50358), abs=1e-4)

    def test_is_argmax_of_oracle_bandwidth(self):
        # fine orientation scan of the brute-force bandwidth at theta = pi/3
        placement = PolarPlacement(500.0, math.pi / 3.0)
        ang = geometry_angles(placement.point(), LS)
        v_best = optimal_orientation(ang)
        assert v_best == pytest.approx(
            (0.0, -0.8638413220068705, 0.5037640026772678), abs=1e-12
        )
        p = placement.point()
        step = 0.002
        best_val, best_v = -1.0, None
        for phi in np.arange(0.0, math.pi, step):
            v = (0.0, math.cos(phi), math.sin(phi))
            val = local_bandwidth_oracle(p, v, LS, 2001)
            if val > best_val:
                best_val, best_v = val, v
        # grid argmax within one step of the analytic direction
        dot = abs(best_v[1] * v_best[1] + best_v[2] * v_best[2])
        assert math.acos(min(1.0, dot)) <= step

    def test_zero_fan_rejected(self):
        ang = geometry_angles(PolarPlacement(500.0, 0.5 * math.pi).point(), LS)
        with pytest.raises(DegenerateGeometry, match="subtends a zero angle"):
            optimal_orientation(ang)


class TestArraySegment:
    def test_direction_normalized(self):
        seg = ArraySegment((0.0, 0.0, 0.0), (0.0, 0.0, 2.0), 10.0)
        assert seg.direction == pytest.approx((0.0, 0.0, 1.0))

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateGeometry):
            ArraySegment((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 10.0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ArraySegment((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), -1.0)

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
    def test_non_finite_length_rejected(self, length):
        # a NaN length gave a NaN center K number, an infinite one an infinite K
        with pytest.raises(ValueError, match="^segment length must be >= 0 and finite, got"):
            ArraySegment((0.0, 500.0, 0.0), (0.0, 0.0, 1.0), length)

    @pytest.mark.parametrize("center", [(0.0, 1.0), (0.0, 0.0, 1.0, 5.0), ()])
    def test_center_without_three_components_rejected(self, center):
        # a 2-component center once constructed and failed at its first use
        with pytest.raises(ValueError, match="^segment center must have 3 components, got"):
            ArraySegment(center, (0.0, 0.0, 1.0), 100.0)

    @pytest.mark.parametrize("direction", [(0.0, 1.0), (0.0, 0.0, 1.0, 5.0)])
    def test_direction_without_three_components_rejected(self, direction):
        # a 4-component direction once kept its first three silently
        with pytest.raises(ValueError, match="^segment direction must have 3 components, got"):
            ArraySegment((0.0, 500.0, 0.0), direction, 100.0)

    @pytest.mark.parametrize("center", [(0.0, math.nan, 0.0), (math.inf, 500.0, 0.0), (0.0, 500.0, -math.inf)])
    def test_non_finite_center_rejected(self, center):
        # a NaN center once reached los_channel, which blamed an overflowing distance
        with pytest.raises(ValueError, match="^segment center must be finite, got"):
            ArraySegment(center, (0.0, 0.0, 1.0), 100.0)


class TestUnit:
    def test_normal_range_divides_by_the_sqrt_of_the_squares(self):
        # bit for bit the form every output was computed with
        rng = np.random.default_rng(8)
        for _ in range(2000):
            x, y, z = (float(c) for c in rng.normal(size=3) * 10.0 ** rng.uniform(-150, 150))
            n = math.sqrt(x * x + y * y + z * z)
            assert unit((x, y, z)) == (x / n, y / n, z / n)

    def test_huge_direction_keeps_its_bandwidth(self):
        # the squares of 1e200 overflow; the direction is still (1, 1, 0)
        huge = local_bandwidth_closed((0.0, 300.0, 0.0), (1e200, 1e200, 0.0), LS)
        plain = local_bandwidth_closed((0.0, 300.0, 0.0), (1.0, 1.0, 0.0), LS)
        assert plain == pytest.approx(0.0605, abs=1e-4)
        assert huge == pytest.approx(plain, rel=1e-14)
        assert unit((1e308, -1e308, 1e308)) == pytest.approx((3**-0.5, -(3**-0.5), 3**-0.5), rel=1e-15)

    def test_tiny_direction_is_normalized(self):
        # the squares of 3e-170 and 4e-170 underflow to subnormal or zero
        assert unit((3e-170, 4e-170, 0.0)) == pytest.approx((0.6, 0.8, 0.0), rel=1e-15)
        assert unit((0.0, -5e-324, 0.0)) == (0.0, -1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_component_rejected(self, bad, axis):
        v = [1.0, 2.0, 3.0]
        v[axis] = bad
        with pytest.raises(DegenerateGeometry, match="^direction vector has a non-finite component"):
            unit(v)
        with pytest.raises(DegenerateGeometry, match="^direction vector has a non-finite component"):
            local_bandwidth_closed((0.0, 300.0, 0.0), v, LS)


class TestThreeComponents:
    P, V = (0.0, 300.0, 40.0), (0.0, 0.6, 0.8)

    @pytest.mark.parametrize("bad", [(0.0, 300.0), (0.0, 300.0, 40.0, 5.0)])
    @pytest.mark.parametrize(
        "call",
        [
            lambda bad, p, v: unit(bad),
            lambda bad, p, v: canonicalize(bad, v),
            lambda bad, p, v: canonicalize(p, bad),
            lambda bad, p, v: geometry_angles(bad, LS),
            lambda bad, p, v: local_bandwidth_closed(bad, v, LS),
            lambda bad, p, v: local_bandwidth_closed(p, bad, LS),
            lambda bad, p, v: local_bandwidth_oracle(bad, v, LS, 101),
            lambda bad, p, v: local_bandwidth_oracle(p, bad, LS, 101),
        ],
        ids=["unit", "canonicalize-p", "canonicalize-v", "angles", "closed-p", "closed-v", "oracle-p", "oracle-v"],
    )
    def test_point_or_direction_without_three_components_rejected(self, call, bad):
        # a 4-component input once kept its first three, a 2-component one raised IndexError
        with pytest.raises(ValueError, match="values to unpack"):
            call(bad, self.P, self.V)


class TestPolarPlacement:
    @pytest.mark.parametrize("R", [math.inf, math.nan, 0.0, -1.0])
    def test_non_finite_or_non_positive_R_rejected(self, R):
        with pytest.raises(ValueError, match="^R must be positive"):
            PolarPlacement(R, 0.0)

    @pytest.mark.parametrize("p", [(1e150, 0.0, 0.0), (1e200, 0.0, 0.0), (0.0, -1e300, 0.0)])
    def test_far_finite_point_keeps_its_bandwidth(self, p):
        # the squared distance of the last two overflows; broadside, v along z reads K0 Ls / R
        R = max(map(abs, p))
        assert local_bandwidth_closed(p, (0.0, 0.0, 1.0), LS) == pytest.approx(2.0 * math.pi * LS / R, rel=1e-12)

    @pytest.mark.parametrize("p", [(math.inf, 0.0, 0.0), (0.0, -math.inf, 5.0), (math.nan, 300.0, 0.0)])
    def test_non_finite_point_rejected(self, p):
        # inf * cos(0) fed a NaN into the fan, and the bandwidth read 0.0
        with pytest.raises(ValueError):
            local_bandwidth_closed(p, (0.0, 0.0, 1.0), LS)


class TestSubtendedAngleOracle:
    def test_right_angle(self):
        assert subtended_angle_oracle((0, 1, 0), (0, 0, 1), (0, 0, -1)) == pytest.approx(
            0.5 * math.pi
        )

    def test_broadside_value(self):
        val = subtended_angle_oracle((0, 500, 0), (0, 0, 50), (0, 0, -50))
        assert val == pytest.approx(0.199337, abs=1e-6)

    def test_collinear(self):
        assert subtended_angle_oracle((0, 0, 2), (0, 0, 1), (0, 0, -1)) == pytest.approx(0.0)

    def test_coincident_rejected(self):
        with pytest.raises(DegeneratePoint):
            subtended_angle_oracle((0, 0, 1), (0, 0, 1), (0, 0, -1))


def _arrival(P, z_src):
    dy, dz = P[1], P[2] - z_src
    n = math.hypot(dy, dz)
    return dy / n, dz / n
