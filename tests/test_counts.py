"""One rule each for every count and every length: ``errors.integer_in`` and ``errors.positive``.

Each refuses type and range alike with one message.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nfdof import (
    PolarPlacement,
    QuadratureRule,
    SweepSpec,
    hermitian_eigenvalues,
    k_number_max,
    local_bandwidth_oracle,
    maximize_k,
    parse_scenario,
    run_validation,
)
from nfdof.channel import grid_steps
from nfdof.cli import MAX_AXIS_POINTS, cmd_localbw_sweep, cmd_maxbw_map, main
from nfdof.knumber import MAX_GRID, MIN_SEARCH_AXIS
from nfdof.numerics import MAX_QUAD_POINTS, MIN_NODES
from nfdof.scenario import MAX_SWEEP_COUNT
from nfdof.validation import MAX_CASES
from test_scenario_cli import scenario_text

SCENARIO = parse_scenario(scenario_text())
PLACEMENT = PolarPlacement(500.0, 0.0)

# (entry, call with the count, lo, hi, what the message names)
COUNTS = [
    ("QuadratureRule", QuadratureRule, MIN_NODES, MAX_QUAD_POINTS, "node count"),
    ("hermitian_eigenvalues", lambda n: hermitian_eigenvalues(np.eye(2), max_sweeps=n), 0, math.inf, "max_sweeps"),
    ("SweepSpec", lambda n: SweepSpec(300.0, 300.0, n), 1, MAX_SWEEP_COUNT, "sweep count"),
    ("maximize_k.psi", lambda n: maximize_k(PLACEMENT, 100.0, 100.0, (n, MIN_SEARCH_AXIS), 3),
     MIN_SEARCH_AXIS, MAX_GRID, "search grid axis"),
    ("maximize_k.phi", lambda n: maximize_k(PLACEMENT, 100.0, 100.0, (MIN_SEARCH_AXIS, n), 3),
     MIN_SEARCH_AXIS, MAX_GRID, "search grid axis"),
    ("local_bandwidth_oracle", lambda n: local_bandwidth_oracle((0.0, 500.0, 0.0), (0.0, 0.0, 1.0), 100.0, n),
     2, math.inf, "n_samples"),
    ("run_validation.n_cases", lambda n: run_validation(0, n), 0, MAX_CASES, "case count"),
    ("run_validation.seed", lambda n: run_validation(n, 0), 0, math.inf, "seed"),
    ("cmd_localbw_sweep", lambda n: cmd_localbw_sweep(SCENARIO, n_points=n), 2, MAX_AXIS_POINTS, "points per axis"),
    ("cmd_maxbw_map", lambda n: cmd_maxbw_map(SCENARIO, n_points=n), 2, MAX_AXIS_POINTS, "points per axis"),
]


def _refused(lo, hi):
    """The values every count refuses: bools, floats (integral ones too), a string, and each side of its range."""
    values = [True, np.True_, 2.5, 3.0, "8", lo - 1]
    return values + ([hi + 1] if hi < math.inf else [])


@pytest.mark.parametrize(
    "call, lo, hi, what, value",
    [
        pytest.param(call, lo, hi, what, value, id=f"{entry}-{value!r}")
        for entry, call, lo, hi, what in COUNTS
        for value in _refused(lo, hi)
    ],
)
def test_every_count_refuses_with_one_message(call, lo, hi, what, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert exc.type is ValueError
    assert str(exc.value) == f"{what} must be an integer in [{lo}, {hi}], got {value!r}"


@pytest.mark.parametrize("call, lo", [pytest.param(call, lo, id=entry) for entry, call, lo, _, _ in COUNTS])
def test_every_count_takes_a_numpy_integer(call, lo):
    call(np.int64(lo))


@pytest.mark.parametrize(
    "command, option, lo, hi, what",
    [
        ("localbw-sweep", "--grid", 2, MAX_AXIS_POINTS, "points per axis"),
        ("maxbw-map", "--grid", 2, MAX_AXIS_POINTS, "points per axis"),
        ("validate", "--seed", 0, math.inf, "seed"),
        ("validate", "--cases", 1, MAX_CASES, "case count"),
    ],
)
def test_every_count_option_is_the_same_rule(capsys, command, option, lo, hi, what):
    # argparse refuses the value before any config is read
    config = [] if command == "validate" else ["--config", "unread.json"]
    for value in [lo - 1] + ([hi + 1] if hi < math.inf else []):
        with pytest.raises(SystemExit) as exc:
            main([command, f"{option}={value}", *config])
        assert exc.value.code == 2
        message = f"argument {option}: {what} must be an integer in [{lo}, {hi}], got {value}\n"
        assert capsys.readouterr().err.endswith(message)


# (entry, call with the length, a length it takes, what the message names)
LENGTHS = [
    ("PolarPlacement", lambda x: PolarPlacement(x, 0.0), 500, "R"),
    ("k_number_max", lambda x: k_number_max(PLACEMENT, x, 100.0), 100, "Lp"),
    ("maximize_k", lambda x: maximize_k(PLACEMENT, x, 100.0, (MIN_SEARCH_AXIS, MIN_SEARCH_AXIS), 3), 100, "Lp"),
    ("local_bandwidth_oracle", lambda x: local_bandwidth_oracle((0.0, 500.0, 0.0), (0.0, 0.0, 1.0), x, 2),
     100, "Ls"),
    ("grid_steps", lambda x: grid_steps(10.0, x), 2, "spacing"),
    ("cmd_maxbw_map", lambda x: cmd_maxbw_map(replace(SCENARIO, Ls=x), n_points=2), 100, "Ls"),
    ("cmd_maxbw_map.extent", lambda x: cmd_maxbw_map(SCENARIO, extent=x, n_points=2), 300, "extent"),
]
NOT_LENGTHS = [True, np.True_, "8", None, 0, -1.0, math.nan, math.inf]


@pytest.mark.parametrize(
    "call, what, value",
    [
        pytest.param(call, what, value, id=f"{entry}-{value!r}")
        for entry, call, _, what in LENGTHS
        for value in NOT_LENGTHS
    ],
)
def test_every_length_refuses_with_one_message(call, what, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert exc.type is ValueError
    assert str(exc.value) == f"{what} must be positive and finite, got {value!r}"


@pytest.mark.parametrize("kind", [np.int64, np.float32, np.float64])
@pytest.mark.parametrize("call, length", [pytest.param(call, x, id=entry) for entry, call, x, _ in LENGTHS])
def test_every_length_takes_a_numpy_number(call, length, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(kind(length))


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        ("svd-spectrum", "--tau", "1.5", "tau must lie in (0, 1), got 1.5"),
        ("svd-spectrum", "--tau", "nan", "tau must lie in (0, 1), got nan"),
        ("maxbw-map", "--extent", "-1", "extent must be positive and finite, got -1.0"),
        ("maxbw-map", "--extent", "inf", "extent must be positive and finite, got inf"),
        ("maxbw-map", "--extent", "1e308", "extent must give a finite window width 2 * extent, got 1e+308"),
    ],
)
def test_every_number_option_names_its_quantity(capsys, command, option, value, message):
    # argparse refuses the value before any config is read
    with pytest.raises(SystemExit) as exc:
        main([command, f"{option}={value}", "--config", "unread.json"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"argument {option}: {message}\n")
