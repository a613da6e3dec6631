"""K numbers: quadrature, center approximation, and the orientation search."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfdof import (
    ArraySegment,
    K0,
    KNumber,
    PolarPlacement,
    geometry_angles,
    k_number_center,
    k_number_max,
    k_number_numeric,
    maximize_k,
    optimal_orientation,
    reduce_phi_prime,
)
from nfdof.errors import DegenerateGeometry, DegeneratePoint, InvalidRule
from nfdof.knumber import MAX_GRID

LS = 100.0
LP = 100.0
KMAX_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "kmax_reference.json"


def orientation_vector(psi, phi):
    sp = math.sin(psi)
    return (math.cos(psi), sp * math.cos(phi), sp * math.sin(phi))


def segment_at(placement, v, Lp=LP):
    return ArraySegment(placement.point(), v, Lp)


def four_distance_k(receiver, Ls=LS):
    """|(D_a(P+) - D_a(P-)) - (D_b(P+) - D_b(P-))| in wavelengths, after Miller 2000.

    D_e is the distance to transmit endpoint e and P+- are the receive array's
    ends.  This is |integral of (f_a - f_b)| along the array, f_e the spatial
    frequency of endpoint e.  The local bandwidth is at least |f_a - f_b|, so
    the value never exceeds the quadrature K; it equals K where the endpoints
    bound every spatial frequency and f_a - f_b keeps its sign.
    """
    a, b = (0.0, 0.0, 0.5 * Ls), (0.0, 0.0, -0.5 * Ls)
    c, v, half = np.array(receiver.center), np.array(receiver.direction), 0.5 * receiver.length
    p_plus, p_minus = c + half * v, c - half * v
    return abs((math.dist(a, p_plus) - math.dist(a, p_minus)) - (math.dist(b, p_plus) - math.dist(b, p_minus)))


class TestNumeric:
    def test_vanishes_with_array_length(self):
        placement = PolarPlacement(500.0, 0.0)
        v = optimal_orientation(geometry_angles(placement.point(), LS))
        k = k_number_numeric(segment_at(placement, v, Lp=1e-9), LS)
        assert k.value == pytest.approx(0.0, abs=1e-9)

    def test_broadside_optimal_value(self):
        placement = PolarPlacement(500.0, 0.0)
        v = optimal_orientation(geometry_angles(placement.point(), LS))
        coarse = k_number_numeric(segment_at(placement, v), LS, 129).value
        dense = k_number_numeric(segment_at(placement, v), LS, 2049).value
        assert coarse == pytest.approx(dense, rel=1e-8)
        assert coarse == pytest.approx(19.8039027, abs=1e-6)
        # within a couple of percent of the center approximation here
        center = k_number_center(segment_at(placement, v), LS).value
        assert abs(coarse - center) / center < 0.02

    def test_constant_field_limit(self):
        # transmit effectively at infinity: integrand constant along the array
        placement = PolarPlacement(1e6, 0.4)
        v = optimal_orientation(geometry_angles(placement.point(), LS))
        numeric = k_number_numeric(segment_at(placement, v, Lp=1.0), LS).value
        center = k_number_center(segment_at(placement, v, Lp=1.0), LS).value
        assert numeric == pytest.approx(center, rel=1e-9)

    def test_bandwidth_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            placement = PolarPlacement(rng.uniform(60, 2000), rng.uniform(0, 1.5))
            v = orientation_vector(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            k = k_number_numeric(segment_at(placement, v), LS).value
            assert 0.0 <= k <= 2.0 * LP + 1e-9

    def test_center_approx_accurate_for_short_arrays(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            R = rng.uniform(60.0, 2000.0)
            theta = rng.uniform(0.0, 1.5)
            Lp = 0.02 * R * rng.uniform(0.2, 1.0)
            psi = rng.uniform(0.4, math.pi - 0.4)
            phi = rng.uniform(0.0, math.pi)
            placement = PolarPlacement(R, theta)
            seg = ArraySegment(placement.point(), orientation_vector(psi, phi), Lp)
            center = k_number_center(seg, LS).value
            if center < 1e-3:
                continue
            numeric = k_number_numeric(seg, LS).value
            assert abs(numeric - center) / center <= 0.01
            checked += 1

    def test_node_on_transmit_segment_rejected(self):
        seg = ArraySegment((0.0, 0.5, 0.0), (0.0, 1.0, 0.0), 2.0)
        with pytest.raises(DegeneratePoint):
            k_number_numeric(seg, LS, 129)

    def test_even_quadrature_rejected(self):
        placement = PolarPlacement(500.0, 0.0)
        seg = segment_at(placement, (0.0, 0.0, 1.0))
        with pytest.raises(InvalidRule):
            k_number_numeric(seg, LS, 128)


class TestCenter:
    def test_broadside_optimal(self):
        placement = PolarPlacement(500.0, 0.0)
        v = optimal_orientation(geometry_angles(placement.point(), LS))
        k = k_number_center(segment_at(placement, v), LS)
        alpha = 2.0 * math.atan(0.1)
        assert k.value == pytest.approx(200.0 * math.sin(0.5 * alpha), rel=1e-12)
        assert k.value == pytest.approx(19.900743804199784, rel=1e-12)

    def test_perpendicular_orientation_zero(self):
        placement = PolarPlacement(500.0, 0.0)
        assert k_number_center(segment_at(placement, (1.0, 0.0, 0.0)), LS).value == 0.0

    def test_oblique_optimal(self):
        placement = PolarPlacement(500.0, math.pi / 3.0)
        ang = geometry_angles(placement.point(), LS)
        v = optimal_orientation(ang)
        k = k_number_center(segment_at(placement, v), LS)
        assert k.value == pytest.approx(200.0 * math.sin(0.5 * ang[0]), rel=1e-12)
        assert k.value == pytest.approx(10.062614945929326, rel=1e-9)


class TestMax:
    def test_broadside(self):
        k = k_number_max(PolarPlacement(500.0, 0.0), LP, LS)
        assert k.value == pytest.approx(19.900743804199784, rel=1e-12)
        # equals K0 Lp sin(alpha/2) / pi
        alpha = 2.0 * math.atan(0.1)
        assert k.value == pytest.approx(K0 * LP * math.sin(0.5 * alpha) / math.pi, rel=1e-14)

    def test_oblique(self):
        k = k_number_max(PolarPlacement(500.0, math.pi / 3.0), LP, LS)
        assert k.value == pytest.approx(10.062614945929326, rel=1e-9)

    def test_small_fan_limit(self):
        k = k_number_max(PolarPlacement(1e7, 0.0), LP, LS)
        assert k.value == pytest.approx(0.0, abs=1e-3)

    def test_zero_fan_rejected(self):
        with pytest.raises(DegenerateGeometry, match="subtends a zero angle"):
            k_number_max(PolarPlacement(500.0, 0.5 * math.pi), LP, LS)

    @pytest.mark.parametrize("Lp", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_Lp_rejected(self, Lp):
        # a NaN Lp gave KNumber(nan)
        with pytest.raises(ValueError, match="^Lp must be positive and finite, got"):
            k_number_max(PolarPlacement(500.0, 0.0), Lp, LS)

    def test_monotone_in_distance_and_tilt(self):
        rs = np.linspace(200.0, 2000.0, 30)
        for theta in (0.0, math.pi / 6.0, math.pi / 3.0):
            ks = [k_number_max(PolarPlacement(float(R), theta), LP, LS).value for R in rs]
            assert all(a > b for a, b in zip(ks, ks[1:]))
        thetas = np.linspace(0.0, 0.49 * math.pi, 20)
        for R in (300.0, 700.0):
            ks = [k_number_max(PolarPlacement(R, float(t)), LP, LS).value for t in thetas]
            assert all(a > b for a, b in zip(ks, ks[1:]))


class TestMaximize:
    def test_broadside_search(self):
        placement = PolarPlacement(500.0, 0.0)
        res = maximize_k(placement, LP, LS, grid=(16, 16), quad_points=65)
        ak = k_number_max(placement, LP, LS).value
        assert abs(res.best_k.value - ak) / ak <= 0.05
        # argmax lands on (pi/2, pi/2) within one refined step
        _, beta = geometry_angles(placement.point(), LS)
        pp = reduce_phi_prime(res.best_orientation.phi, beta)
        coarse_psi_step = math.pi / 15.0
        coarse_phi_step = math.pi / 16.0
        assert abs(res.best_orientation.psi - 0.5 * math.pi) <= coarse_psi_step / 10.0 + 1e-12
        assert abs(pp - 0.5 * math.pi) <= coarse_phi_step / 10.0 + 1e-12
        assert res.grid_resolution == (16, 16)

    def test_result_dominates_analytic_candidate(self):
        placement = PolarPlacement(500.0, math.pi / 6.0)
        res = maximize_k(placement, LP, LS, grid=(16, 16), quad_points=65)
        v = optimal_orientation(geometry_angles(placement.point(), LS))
        seg = ArraySegment(placement.point(), v, LP)
        k_np = k_number_numeric(seg, LS, 65).value
        assert res.best_k.value >= k_np * (1.0 - 1e-9)

    def test_result_dominates_random_orientations(self):
        placement = PolarPlacement(500.0, math.pi / 6.0)
        res = maximize_k(placement, LP, LS, grid=(16, 16), quad_points=65)
        rng = np.random.default_rng(43)
        for _ in range(64):
            v = orientation_vector(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            k = k_number_numeric(ArraySegment(placement.point(), v, LP), LS, 65).value
            assert res.best_k.value >= k - 1e-12

    def test_coplanar_argmax_at_symmetric_placement(self):
        res = maximize_k(PolarPlacement(500.0, 0.0), LP, LS, grid=(16, 16), quad_points=65)
        v = res.best_orientation.vector()
        assert abs(v[0]) <= 0.02  # no component out of the yOz plane

    def test_deterministic(self):
        placement = PolarPlacement(400.0, 0.2)
        a = maximize_k(placement, LP, LS, grid=(12, 12), quad_points=33)
        b = maximize_k(placement, LP, LS, grid=(12, 12), quad_points=33)
        assert a == b

    def test_full_size_search_reproduces_the_stored_ek(self):
        # the default 64x64 search at 129 nodes, as kmax-sweep runs it, against the EK that
        # perfbench/make_reference.py stored for the first placement of the benchmark's pool
        with open(KMAX_REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)["placements"][0]
        result = maximize_k(PolarPlacement(ref["R"], ref["theta"]), LP, LS)
        assert result.best_k.value == ref["EK"]

    def test_scan_order_and_tie_rule(self, monkeypatch):
        import nfdof.knumber as knumber_mod

        # Two equal coarse maxima: (2, 3) comes first with psi outer, (5, 1)
        # with phi' outer; a tie must keep the earlier one.
        n_psi, n_phi = 9, 8
        tied = {(2, 3), (5, 1)}
        directions = []

        def fake_k(receiver, Ls, quad_points):
            coarse = len(directions) < n_psi * n_phi
            value = 10.0 if coarse and divmod(len(directions), n_phi) in tied else 1.0
            directions.append(receiver.direction)
            return KNumber(value)

        monkeypatch.setattr(knumber_mod, "k_number_numeric", fake_k)
        placement = PolarPlacement(400.0, 0.3)
        _, beta = geometry_angles(placement.point(), LS)
        res = maximize_k(placement, LP, LS, grid=(n_psi, n_phi), quad_points=33)

        psis = np.linspace(0.0, math.pi, n_psi)
        phis = np.linspace(0.0, math.pi, n_phi, endpoint=False)
        psi_step, phi_step = math.pi / (n_psi - 1), math.pi / n_phi
        fine_psis = np.clip(psis[2] + np.linspace(-psi_step, psi_step, 21), 0.0, math.pi)
        fine_phis = phis[3] + np.linspace(-phi_step, phi_step, 21)
        expected = [(a, b) for a in psis for b in phis] + [(a, b) for a in fine_psis for b in fine_phis]
        assert len(directions) == n_psi * n_phi + 21 * 21 == len(expected)
        for d, (psi, pp) in zip(directions, expected):
            assert math.acos(d[0]) == pytest.approx(psi, abs=1e-7)
            if math.sin(psi) > 1e-6:  # phi is undefined along the x axis
                got = reduce_phi_prime(math.atan2(d[2], d[1]), beta)
                assert abs(math.remainder(got - pp, math.pi)) < 1e-9
        assert res.best_k.value == 10.0
        assert res.best_orientation.psi == psis[2]
        assert abs(math.remainder(reduce_phi_prime(res.best_orientation.phi, beta) - phis[3], math.pi)) < 1e-12

    @pytest.mark.parametrize("grid", [(4, 64), (MAX_GRID + 1, 8), (8, 10**6)])
    def test_grid_axis_outside_bounds_rejected(self, grid, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("K evaluated before the grid was checked")

        monkeypatch.setattr("nfdof.knumber.k_number_numeric", no_evaluation)
        with pytest.raises(ValueError, match="search grid axis"):
            maximize_k(PolarPlacement(500.0, 0.0), LP, LS, grid=grid)

    def test_zero_fan_rejected(self):
        with pytest.raises(DegenerateGeometry, match="subtends a zero angle"):
            maximize_k(PolarPlacement(500.0, 0.5 * math.pi), LP, LS)

    @pytest.mark.parametrize("Lp", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_non_positive_Lp_rejected(self, monkeypatch, Lp):
        # Lp = 0 searched the whole grid and returned KNumber(0.0); a negative,
        # NaN or infinite Lp was blamed on the reach Lp/2
        monkeypatch.setattr("nfdof.knumber.k_number_numeric", lambda *a: pytest.fail("a K was evaluated"))
        with pytest.raises(ValueError, match="^Lp must be positive and finite, got"):
            maximize_k(PolarPlacement(500.0, 0.0), Lp, LS, (8, 8), 3)

    @pytest.mark.parametrize("grid", [(8, 8), (9, 8), (64, 64)])
    @pytest.mark.parametrize(
        "placement, distance",
        [
            (PolarPlacement(50.0, 0.0), "50"),
            (PolarPlacement(10.0, 0.3), "9.55336"),
            (PolarPlacement(100.0, 0.5 * math.pi), "50"),
        ],
    )
    def test_array_that_can_reach_the_segment_rejected(self, monkeypatch, grid, placement, distance):
        # within Lp/2 of the segment some orientation lays the array across it, where
        # the bandwidth is singular: psi = pi/2, phi' = 0 at (50, 0) puts an end node on it
        monkeypatch.setattr("nfdof.knumber.k_number_numeric", lambda *a: pytest.fail("a K was evaluated"))
        message = f"the receive array reaches the transmit segment: distance {distance} <= Lp/2 = 50"
        with pytest.raises(DegeneratePoint, match=f"^{message}$"):
            maximize_k(placement, LP, LS, grid=grid)

    def test_array_just_beyond_its_reach_is_searched(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "nfdof.knumber.k_number_numeric", lambda *a: calls.append(a) or KNumber(1.0)
        )
        maximize_k(PolarPlacement(50.0 + 1e-6, 0.0), LP, LS, grid=(8, 8))
        assert len(calls) == 8 * 8 + 21 * 21


class TestFourDistanceOracle:
    @pytest.mark.parametrize("nodes, rel", [(129, 1e-9), (1025, 1e-12)])
    @pytest.mark.parametrize("R", [100.0, 200.0, 500.0, 1000.0])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 3])
    def test_equals_quadrature_at_optimal_orientation(self, theta, R, nodes, rel):
        placement = PolarPlacement(R, theta)
        seg = segment_at(placement, optimal_orientation(geometry_angles(placement.point(), LS)))
        assert four_distance_k(seg) == pytest.approx(k_number_numeric(seg, LS, nodes).value, rel=rel)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        R=st.floats(150.0, 2000.0),  # the array stays clear of the segment
        theta=st.floats(0.0, 0.5 * math.pi),
        psi=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_never_above_quadrature(self, R, theta, psi, phi):
        seg = segment_at(PolarPlacement(R, theta), orientation_vector(psi, phi))
        k = k_number_numeric(seg, LS, 1025).value
        assert four_distance_k(seg) <= k * (1.0 + 1e-9)
