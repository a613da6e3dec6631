"""The validation harness draws its cases in blocks from the scalar stream."""

import math
import re

import numpy as np
import pytest

import nfdof.validation as validation
from nfdof import PolarPlacement, run_validation
from nfdof.bandwidth import local_bandwidth_closed, max_bandwidth, omega_from_angles, omega_grid
from nfdof.geometry import K0, geometry_angles
from nfdof.validation import MAX_CASES
from test_bandwidth import one_pass_oracle

POINT_BOUNDS = ((60.0, 2000.0), (0.0, 0.5 * math.pi * 0.98))


def scalar_draws(rng, n, *bounds):
    """One scalar ``rng.uniform(low, high)`` call per value, row by row."""
    for _ in range(n):
        yield [rng.uniform(low, high) for low, high in bounds]


def bits(rows):
    return [[x.hex() for x in row] for row in rows]


@pytest.mark.parametrize("bounds", [POINT_BOUNDS, validation._CONFIG_BOUNDS], ids=["2-bound", "6-bound"])
@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
def test_block_draws_equal_scalar_draws(n, bounds):
    blocked = list(validation._draws(np.random.default_rng(5), n, *bounds))
    scalar = list(scalar_draws(np.random.default_rng(5), n, *bounds))
    assert len(blocked) == n
    assert bits(blocked) == bits(scalar)  # bit for bit, each value a Python float
    assert all(type(x) is float for row in blocked for x in row)


@pytest.mark.parametrize("seed", range(5))
def test_report_equals_the_scalar_route(monkeypatch, seed):
    blocked = [r.line() for r in run_validation(seed, 50).results]
    monkeypatch.setattr(validation, "_draws", scalar_draws)
    assert [r.line() for r in run_validation(seed, 50).results] == blocked


@pytest.mark.parametrize("seed", range(5))
def test_report_equals_the_one_pass_oracle(monkeypatch, seed):
    blocked = [r.line() for r in run_validation(seed, 50).results]
    monkeypatch.setattr(validation, "local_bandwidth_oracle", one_pass_oracle)
    assert [r.line() for r in run_validation(seed, 50).results] == blocked


@pytest.mark.parametrize("n_cases", [20.0, 1.5, "20", True, False])
def test_non_integer_case_count_rejected(n_cases):
    # a float count once passed the range check and failed inside numpy; True once ran one case
    message = f"case count must be an integer in [0, {MAX_CASES}], got {n_cases!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_validation(0, n_cases)


def test_numpy_integer_case_count_accepted():
    lines = [r.line() for r in run_validation(0, 3).results]
    assert [r.line() for r in run_validation(0, np.int64(3)).results] == lines


def _clipped_branch_jump(psi, phi_prime, alpha):
    """The closed form with a 1e-9 relative jump in the branch clipped at 0."""
    value = omega_from_angles(psi, phi_prime, alpha)
    return value * (1.0 + 1e-9) if phi_prime < 0.5 * alpha else value


def _off_centre_overshoot(psi, phi_prime, alpha):
    """The closed-form grid with one node off (pi/2, pi/2) 1e-6 K0 above the maximum."""
    grid = omega_grid(psi, phi_prime, alpha)
    grid[1, 2] = max_bandwidth(alpha) + 1e-6 * K0
    return grid


def _scaled_closed(p, v, Ls):
    """The closed form 1e-3 too large: past the oracle's discretization bound."""
    return local_bandwidth_closed(p, v, Ls) * (1.0 + 1e-3)


def _stretched_fan(P, Ls):
    """The fan width with a 1e-9 relative error."""
    alpha, beta = geometry_angles(P, Ls)
    return alpha * (1.0 + 1e-9), beta


def _direction_sign_dependent(p, v, Ls):
    """The closed form, 1e-9 larger for a direction of negative z: phi + pi no longer maps to itself."""
    value = local_bandwidth_closed(p, v, Ls)
    return value * (1.0 + 1e-9) if v[2] < 0.0 else value


@pytest.mark.parametrize(
    "check, n_cases, target, fault",
    [
        (validation.check_closed_vs_oracle, 20, "local_bandwidth_closed", _scaled_closed),
        (validation.check_angles, 1000, "geometry_angles", _stretched_fan),
        (validation.check_orientation_maximum, 5, "omega_grid", _off_centre_overshoot),
        (validation.check_branch_continuity, 1000, "omega_from_angles", _clipped_branch_jump),
        (validation.check_periodicity, 2, "local_bandwidth_closed", _direction_sign_dependent),
    ],
    ids=["closed-vs-oracle", "angles", "maximum", "seams", "periodicity"],
)
def test_planted_fault_fails_its_check(monkeypatch, check, n_cases, target, fault):
    assert check(3, n_cases).passed
    monkeypatch.setattr(validation, target, fault)
    result = check(3, n_cases)
    assert not result.passed and result.line().startswith("FAIL ")


def test_maximum_grid_puts_pi_over_2_on_a_node():
    # so the orientation-maximum check needs no allowance for a dip between nodes
    nodes = np.linspace(0.0, math.pi, validation.MAXIMUM_GRID)
    assert validation.MAXIMUM_GRID % 2 == 1 and nodes[validation.MAXIMUM_GRID // 2] == 0.5 * math.pi
    alpha = geometry_angles(PolarPlacement(500.0, 0.3).point(), validation.LS)[0]
    assert omega_grid(nodes, nodes, alpha).max() == max_bandwidth(alpha)
