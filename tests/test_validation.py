"""The validation harness draws its cases in blocks from the scalar stream."""

import math

import numpy as np
import pytest

import nfdof.validation as validation
from nfdof import run_validation

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
