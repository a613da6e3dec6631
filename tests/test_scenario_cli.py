"""Scenario parsing, CSV contract, subcommands, and exit codes."""

import argparse
import io
import json
import math
import re
import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfdof import (
    OrientationAngles,
    PolarPlacement,
    SingularSpectrum,
    geometry_angles,
    optimal_orientation,
    parse_scenario,
    parse_scenarios,
    run_validation,
)
from nfdof.channel import MAX_CHANNEL_ENTRIES, los_channel
from nfdof.cli import (
    MAX_AXIS_POINTS,
    _build_parser,
    _tensor_rows,
    cmd_kmax_sweep,
    cmd_localbw_sweep,
    cmd_maxbw_map,
    cmd_svd_spectrum,
    main,
)
from nfdof.errors import RangeError, SchemaError
from nfdof.knumber import MAX_GRID, MIN_SEARCH_AXIS
from nfdof.numerics import MAX_QUAD_POINTS
from nfdof.validation import MAX_CASES, ValidationReport, check_closed_vs_oracle
from nfdof.scenario import (
    DEFAULT_KMAX_SWEEP,
    DEFAULT_KMAX_THETAS,
    MAX_KMAX_PAIRS,
    MAX_SWEEP_COUNT,
    READS,
    SweepSpec,
    SweepTable,
    sha256_of,
)
import nfdof.scenario as scenario_mod

MINIMAL = {"Ls": 100, "Lp": 100, "placement": {"R": 500, "theta": 0}}
# with Ls = 100 both placements lie on the transmit segment z in [-50, 50]
ON_SEGMENT = [{"R": 10, "theta": math.pi / 2}, {"R": 1e-12, "theta": 0}]


JOBS = ("cmd_localbw_sweep", "cmd_maxbw_map", "cmd_kmax_sweep", "cmd_svd_spectrum", "run_validation")


def scenario_text(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


def read_table(stream):
    """Read back a SweepTable CSV, skipping the comment header."""
    columns, rows = [], []
    for line in stream:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        if not columns:
            columns = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return columns, rows


class TestParseScenario:
    def test_minimal_defaults(self):
        sc = parse_scenario(scenario_text())
        assert sc.Ls == 100.0
        assert sc.Lp == 100.0
        assert sc.placement.R == 500.0
        assert sc.spacing_s == 0.5 and sc.spacing_p == 0.5
        assert sc.quad_points == 129
        assert sc.grid == (64, 64)
        assert sc.sweep == DEFAULT_KMAX_SWEEP and sc.theta_list == DEFAULT_KMAX_THETAS
        assert sc.orientation == parse_scenario(scenario_text(orientation="optimal")).orientation

    @pytest.mark.parametrize("parse", [parse_scenario, lambda text: parse_scenarios(text)[0]])
    def test_optimal_orientation_resolved(self, parse):
        placement = PolarPlacement(500, math.pi / 3)
        sc = parse(scenario_text(placement={"R": 500, "theta": math.pi / 3}))
        # the direction itself, with no (psi, phi) round trip to move x off 0 or y and z by an ulp
        assert sc.orientation == optimal_orientation(geometry_angles(placement.point(), 100.0))
        assert sc.orientation[0] == 0.0 and math.copysign(1.0, sc.orientation[0]) == 1.0
        assert sc.orientation == pytest.approx((0.0, -0.8638413220068705, 0.5037640026772678), abs=1e-9)
        assert sc.orientation == pytest.approx((0.0, -0.86395, 0.50358), abs=2e-4)

    @pytest.mark.parametrize("parse", [parse_scenario, lambda text: parse_scenarios(text)[0]])
    def test_explicit_orientation(self, parse):
        sc = parse(scenario_text(orientation={"psi": 1.0, "phi": 2.0}))
        assert sc.orientation == OrientationAngles(1.0, 2.0).vector()

    def test_optimal_receive_antennas_lie_in_the_plane_x_0(self, monkeypatch):
        import nfdof.cli as cli_mod

        seen = []
        monkeypatch.setattr(cli_mod, "los_channel", lambda tx, rx: seen.append(rx) or los_channel(tx, rx))
        small = dict(MINIMAL, Ls=16, Lp=16, placement={"R": 60, "theta": 0.7}, grid=[8, 8], quad_points=5)
        cmd_svd_spectrum(parse_scenarios(json.dumps(small)))
        (rx,) = seen
        assert rx.shape == (33, 3) and (rx[:, 0] == 0.0).all()

    def test_negative_theta_rejected(self):
        with pytest.raises(RangeError, match="placement.theta"):
            parse_scenario(scenario_text(placement={"R": 500, "theta": -0.1}))

    def test_missing_field_names_path(self):
        with pytest.raises(SchemaError, match="Lp"):
            parse_scenario(json.dumps({"Ls": 100, "placement": {"R": 1, "theta": 0}}))
        with pytest.raises(SchemaError, match="placement.R"):
            parse_scenario(json.dumps({"Ls": 100, "Lp": 100, "placement": {"theta": 0}}))

    def test_bad_json_rejected(self):
        with pytest.raises(SchemaError, match="JSON"):
            parse_scenario("{not json")

    @pytest.mark.parametrize("parse", [parse_scenario, parse_scenarios])
    @pytest.mark.parametrize(
        "text", ['{"Ls": 1' + "0" * 5000 + "}", "[" * 100_000 + "]" * 100_000], ids=["long-int", "deep"]
    )
    def test_undecodable_json_is_a_schema_error(self, parse, text):
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse(text)

    def test_wrong_types_rejected(self):
        with pytest.raises(SchemaError, match="Ls"):
            parse_scenario(scenario_text(Ls="wide"))
        with pytest.raises(SchemaError, match="orientation"):
            parse_scenario(scenario_text(orientation="sideways"))
        with pytest.raises(RangeError, match="quad_points"):
            parse_scenario(scenario_text(quad_points=128))
        with pytest.raises(RangeError, match="grid"):
            parse_scenario(scenario_text(grid=[4, 64]))

    def test_sweep_parsed(self):
        sc = parse_scenario(
            scenario_text(sweep={"variable": "R", "start": 300, "stop": 1000, "count": 8})
        )
        vals = sc.sweep.values()
        assert len(vals) == 8
        assert vals[0] == 300.0 and vals[-1] == 1000.0

    @pytest.mark.parametrize("count", [7, 13, 29, 100])
    def test_sweep_ends_at_stop(self, count):
        # start + i * step misses 1.0 by an ulp at these counts
        vals = SweepSpec(0.1, 1.0, count).values()
        assert len(vals) == count
        assert vals[0] == 0.1 and vals[-1] == 1.0

    @pytest.mark.parametrize("count", [0, MAX_SWEEP_COUNT + 1, 15.0, 2.5, math.nan, True, False])
    def test_sweep_spec_count_outside_bounds_rejected(self, count):
        # a float count once constructed and then failed in values(); True once swept one R
        with pytest.raises(ValueError, match="sweep count"):
            SweepSpec(300.0, 1000.0, count)

    def test_sweep_spec_takes_a_numpy_integer_count(self):
        values = SweepSpec(300.0, 1000.0, np.int64(15)).values()
        assert values.tolist() == SweepSpec(300.0, 1000.0, 15).values().tolist()

    def test_one_value_sweep_needs_stop_equal_to_start(self, tmp_path, capsys):
        # one value cannot be both start and stop, so stop would be dropped
        with pytest.raises(ValueError, match=r"^a sweep of count 1 needs stop == start, got 50.0 to 100.0$"):
            SweepSpec(50.0, 100.0, 1)
        with pytest.raises(RangeError, match=r"^sweep\.count: a sweep of count 1 needs stop == start"):
            parse_scenario(scenario_text(sweep={"variable": "R", "start": 50, "stop": 100, "count": 1}))
        cfg = tmp_path / "kmax.json"
        cfg.write_text(scenario_text(sweep={"variable": "R", "start": 500, "stop": 600, "count": 1}))
        assert main(["kmax-sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("nfdof: error: sweep.count: ")
        assert SweepSpec(500.0, 500.0, 1).values().tolist() == [500.0]

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ({"variable": "theta", "start": 300, "stop": 1000}, "only \"R\" sweeps are supported, got 'theta'"),
            ({"start": 300, "stop": 1000}, "required field is missing"),
        ],
    )
    def test_sweep_variable_must_be_r(self, tmp_path, capsys, sweep, message):
        # SweepSpec sweeps R alone; the document still says so, and nothing else is read as R
        cfg = tmp_path / "kmax.json"
        cfg.write_text(scenario_text(sweep=sweep))
        assert main(["kmax-sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"nfdof: error: sweep.variable: {message}")

    def test_theta_list_range_checked(self):
        with pytest.raises(RangeError, match=r"theta_list\[1\]"):
            parse_scenario(scenario_text(theta_list=[0.0, 3.5]))

    def test_scenarios_array(self):
        text = json.dumps({"scenarios": [MINIMAL, dict(MINIMAL, Lp=50)]})
        scs = parse_scenarios(text)
        assert len(scs) == 2
        assert scs[0].config_id == 0 and scs[1].config_id == 1
        assert scs[1].Lp == 50.0

    def test_single_document_as_list(self):
        assert len(parse_scenarios(scenario_text())) == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"placement": {"R": math.inf, "theta": 0}}, r"^placement\.R: inf is not a finite number"),
            ({"Lp": math.nan}, r"^Lp: nan is not a finite number"),
        ],
    )
    def test_non_finite_value_names_field(self, overrides, message):
        # json.dumps writes Infinity and NaN tokens, which json.loads accepts
        with pytest.raises(RangeError, match=message):
            parse_scenario(scenario_text(**overrides))

    @pytest.mark.parametrize(
        "overrides, command, message",
        [
            ({"Ls": -100}, "maxbw-map", "Ls: Ls must be positive and finite, got -100.0"),
            ({"Lp": 0}, "kmax-sweep", "Lp: Lp must be positive and finite, got 0.0"),
            ({"placement": {"R": -5, "theta": 0}}, "localbw-sweep",
             "placement.R: R must be positive and finite, got -5.0"),
            ({"sweep": {"variable": "R", "start": 0, "stop": 1000}}, "kmax-sweep",
             "sweep.start: R must be positive and finite, got 0.0"),
            ({"sweep": {"variable": "R", "start": 300, "stop": -1}}, "kmax-sweep",
             "sweep.stop: R must be positive and finite, got -1.0"),
            ({"spacing_s": -0.5}, "svd-spectrum", "spacing_s: spacing must be positive and finite, got -0.5"),
            ({"spacing_p": 0}, "svd-spectrum", "spacing_p: spacing must be positive and finite, got 0.0"),
        ],
    )
    def test_length_out_of_range_names_field(self, overrides, command, message, tmp_path, capsys):
        # the parser decodes the JSON number and passes it to errors.positive, the rule of every length owner
        with pytest.raises(RangeError) as exc:
            parse_scenario(scenario_text(**overrides))
        assert str(exc.value) == message
        cfg = tmp_path / "s.json"
        cfg.write_text(scenario_text(**overrides))
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"nfdof: error: {message}\n"

    def test_non_finite_value_in_scenarios_array_names_index(self):
        text = json.dumps({"scenarios": [MINIMAL, dict(MINIMAL, placement={"R": 500, "theta": math.nan})]})
        with pytest.raises(RangeError, match=r"^scenarios\[1\]\.placement\.theta: nan"):
            parse_scenarios(text)
        text = json.dumps({"scenarios": [dict(MINIMAL, Ls=-math.inf)]})
        with pytest.raises(RangeError, match=r"^scenarios\[0\]\.Ls: -inf"):
            parse_scenarios(text)

    @pytest.mark.parametrize("placement", ON_SEGMENT)
    @pytest.mark.parametrize("orientation", ["optimal", {"psi": 1.0, "phi": 2.0}])
    def test_placement_on_segment_names_field(self, placement, orientation):
        text = scenario_text(placement=placement, orientation=orientation)
        with pytest.raises(RangeError, match=r"^placement: .*transmit segment"):
            parse_scenario(text)
        with pytest.raises(RangeError, match=r"^placement: .*transmit segment"):
            parse_scenarios(text)
        second = dict(MINIMAL, placement=placement, orientation=orientation)
        text = json.dumps({"scenarios": [MINIMAL, second]})
        with pytest.raises(RangeError, match=r"^scenarios\[1\]\.placement: .*transmit segment"):
            parse_scenarios(text)


def sweep(count):
    return {"variable": "R", "start": 300, "stop": 1000, "count": count}


# the rule each integer count of a document reads, as its owner words it
COUNT_RULES = {
    "quad_points": f"node count must be an integer in [3, {MAX_QUAD_POINTS}]",
    "grid": f"search grid axis must be an integer in [{MIN_SEARCH_AXIS}, {MAX_GRID}]",
    "sweep": f"sweep count must be an integer in [1, {MAX_SWEEP_COUNT}]",
}


class TestFieldChecks:
    """Caps and deeper-layer errors, each checked by parsing alone: no job runs."""

    @pytest.mark.parametrize(
        "overrides, field, value",
        [
            ({"quad_points": "x"}, "quad_points", "x"),
            ({"quad_points": 129.0}, "quad_points", 129.0),
            ({"grid": [64, "x"]}, "grid[1]", "x"),
            ({"grid": [True, 64]}, "grid[0]", True),
            ({"sweep": sweep("x")}, "sweep.count", "x"),
            ({"sweep": sweep(1.5)}, "sweep.count", 1.5),
        ],
    )
    def test_integer_field_of_wrong_type_is_a_range_error(self, overrides, field, value):
        # the owner's integer_in call refuses type and range alike; the parser adds the field
        (key,) = overrides
        with pytest.raises(RangeError) as exc:
            parse_scenario(scenario_text(**overrides))
        assert str(exc.value) == f"{field}: {COUNT_RULES[key]}, got {value!r}"

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"quad_points": MAX_QUAD_POINTS + 2}, "quad_points"),
            ({"quad_points": 1}, "quad_points"),
            ({"grid": [64, MAX_GRID + 1]}, r"grid\[1\]"),
            ({"grid": [10**9, 10**9]}, r"grid\[0\]"),
            ({"grid": [7, 64]}, r"grid\[0\]"),
            ({"sweep": sweep(MAX_SWEEP_COUNT + 1)}, r"sweep\.count"),
            ({"sweep": sweep(10**12)}, r"sweep\.count"),
            ({"sweep": sweep(0)}, r"sweep\.count"),
        ],
    )
    def test_integer_field_out_of_range_is_a_range_error(self, overrides, field):
        # SweepSpec owns the count's range, QuadratureRule the nodes' and maximize_k's call the grid's
        (key,) = overrides
        with pytest.raises(RangeError, match=rf"^{field}: {re.escape(COUNT_RULES[key])}, got -?\d+$"):
            parse_scenario(scenario_text(**overrides))

    @pytest.mark.parametrize(
        "overrides, message, command",
        [
            ({"placement": {"R": 500, "theta": -0.1}}, "placement.theta: theta must lie in [0, pi/2], got -0.1",
             "localbw-sweep"),
            ({"placement": {"R": 500, "theta": 1.6}}, "placement.theta: theta must lie in [0, pi/2], got 1.6",
             "localbw-sweep"),
            ({"orientation": {"psi": 3.2, "phi": 1.0}}, "orientation: psi must lie in [0, pi], got 3.2",
             "svd-spectrum"),
            ({"orientation": {"psi": 1.0, "phi": -0.5}}, "orientation: phi must lie in [0, pi], got -0.5",
             "svd-spectrum"),
        ],
    )
    def test_angle_out_of_range_names_field(self, overrides, message, command, tmp_path, capsys):
        # the type checks the range once; the parser adds the field path and main exits 2
        with pytest.raises(RangeError) as exc:
            parse_scenario(scenario_text(**overrides))
        assert str(exc.value) == message
        cfg = tmp_path / "s.json"
        cfg.write_text(scenario_text(**overrides))
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"nfdof: error: {message}\n"

    @pytest.mark.parametrize("count, n_thetas", [(MAX_SWEEP_COUNT, 200_000), (MAX_SWEEP_COUNT, 4), (7501, 4)])
    def test_pair_grid_over_the_cap_checks_no_pair(self, monkeypatch, count, n_thetas):
        built = []
        monkeypatch.setattr(scenario_mod, "PolarPlacement", lambda *a: built.append(a) or PolarPlacement(*a))
        text = scenario_text(sweep=sweep(count), theta_list=[0.1] * n_thetas)
        want = rf"^theta_list: {count} x {n_thetas} \(R, theta\) pairs exceed {MAX_KMAX_PAIRS}$"
        with pytest.raises(RangeError, match=want):
            parse_scenario(text)
        assert built == [(500.0, 0.0)]  # the placement alone

    def test_caps_themselves_parse(self):
        sc = parse_scenario(
            scenario_text(grid=[MAX_GRID, 8], quad_points=MAX_QUAD_POINTS, sweep=sweep(MAX_SWEEP_COUNT))
        )
        assert sc.grid == (MAX_GRID, 8)
        assert sc.quad_points == MAX_QUAD_POINTS
        assert sc.sweep.count == MAX_SWEEP_COUNT
        assert sc.sweep.count * len(sc.theta_list) == MAX_KMAX_PAIRS  # every pair of which was checked
        sc = parse_scenario(scenario_text(sweep=sweep(7500), theta_list=[0.1, 0.2, 0.3, 0.4]))
        assert sc.sweep.count * len(sc.theta_list) == MAX_KMAX_PAIRS

    @pytest.mark.parametrize("parse", [parse_scenario, parse_scenarios])
    def test_on_axis_placement_names_theta(self, parse):
        # beyond the segment tip on its axis every arrival direction is parallel: alpha = 0
        with pytest.raises(RangeError, match=r"^placement\.theta: .*zero angle"):
            parse(scenario_text(placement={"R": 500, "theta": math.pi / 2}))

    def test_on_axis_placement_in_scenarios_array_names_index(self):
        text = json.dumps({"scenarios": [MINIMAL, dict(MINIMAL, placement={"R": 500, "theta": math.pi / 2})]})
        with pytest.raises(RangeError, match=r"^scenarios\[1\]\.placement\.theta: "):
            parse_scenarios(text)

    @pytest.mark.parametrize("key, length", [("spacing_p", "Lp"), ("spacing_s", "Ls")])
    def test_spacing_that_does_not_divide_its_length_names_field(self, key, length):
        with pytest.raises(RangeError, match=rf"^{key}: length 100.0 is not an integer multiple"):
            parse_scenarios(scenario_text(**{key: 0.3}))
        text = json.dumps({"scenarios": [dict(MINIMAL, **{length: 90, key: 0.5}), dict(MINIMAL, **{key: 0.3})]})
        with pytest.raises(RangeError, match=rf"^scenarios\[1\]\.{key}: "):
            parse_scenarios(text)

    @pytest.mark.parametrize("spacing", [1e-3, 5e-324])
    def test_spacing_with_too_many_antennas_names_field(self, spacing):
        with pytest.raises(RangeError, match="^spacing_s: .*steps"):
            parse_scenarios(scenario_text(spacing_s=spacing))

    def test_searched_placement_within_reach_names_field(self):
        # svd-spectrum searches each placement: at R = Lp/2 the array's end could touch the segment
        near = dict(MINIMAL, placement={"R": 50, "theta": 0})
        message = "the receive array reaches the transmit segment: distance 50 <= Lp/2 = 50 (R=50, theta=0, Ls=100)"
        with pytest.raises(RangeError) as exc:
            parse_scenarios(json.dumps(near))
        assert str(exc.value) == f"placement: {message}"
        with pytest.raises(RangeError) as exc:
            parse_scenarios(json.dumps({"scenarios": [MINIMAL, near]}))
        assert str(exc.value) == f"scenarios[1].placement: {message}"
        # maps and sweeps search nothing at the placement
        assert parse_scenario(json.dumps(near)).placement.R == 50.0

    @pytest.mark.parametrize("R", [1.4e154, 1e200])
    def test_placement_whose_antenna_distances_overflow_names_field(self, R, tmp_path, capsys):
        far = dict(MINIMAL, placement={"R": R, "theta": 0}, grid=[8, 8], quad_points=5)
        message = "an antenna distance overflows the float range"
        with pytest.raises(RangeError) as exc:
            parse_scenarios(json.dumps(far))
        assert str(exc.value) == f"placement: {message}"
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps({"scenarios": [MINIMAL, far]}))
        assert main(["svd-spectrum", "--config", str(cfg)]) == 2  # no RuntimeWarning: the suite makes it an error
        assert capsys.readouterr().err == f"nfdof: error: scenarios[1].placement: {message}\n"
        # maps and sweeps place no antennas
        assert parse_scenario(json.dumps(far), "localbw-sweep").placement.R == R

    def test_default_spacing_is_not_checked_against_the_lengths(self):
        # maps and sweeps place no antennas, so any length parses without a spacing
        sc = parse_scenario(scenario_text(Ls=87.3, Lp=12.34))
        assert sc.spacing_s == sc.spacing_p == 0.5

    def test_channel_parser_checks_the_default_spacing(self):
        text = json.dumps({"scenarios": [MINIMAL, dict(MINIMAL, Ls=87.3)]})
        with pytest.raises(RangeError, match=r"^scenarios\[1\]\.spacing_s: length 87.3 is not an integer"):
            parse_scenarios(text)

    def test_channel_size_cap_parses(self):
        # 999.5 / 0.5 + 1 = 2000 antennas on each array
        (sc,) = parse_scenarios(scenario_text(Ls=999.5, Lp=999.5))
        assert 2000 * 2000 == MAX_CHANNEL_ENTRIES
        assert sc.Lp == 999.5

    @pytest.mark.parametrize(
        "overrides, counts",
        [({"Ls": 999.5, "Lp": 1000}, "2001 x 2000"), ({"Ls": 5000, "Lp": 5000}, "10001 x 10001")],
    )
    def test_channel_over_the_cap_names_spacing_p(self, overrides, counts):
        # each array is within its own 10,001-antenna cap; the product is not
        with pytest.raises(RangeError, match=rf"^spacing_p: {counts} antennas exceed {MAX_CHANNEL_ENTRIES}"):
            parse_scenarios(scenario_text(**overrides))
        text = json.dumps({"scenarios": [MINIMAL, dict(MINIMAL, **overrides)]})
        with pytest.raises(RangeError, match=rf"^scenarios\[1\]\.spacing_p: {counts} antennas"):
            parse_scenarios(text)
        # maps build no channel
        assert parse_scenario(scenario_text(**overrides), "maxbw-map").Ls == overrides["Ls"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
FULL = dict(
    MINIMAL,
    orientation={"psi": 1.0, "phi": 2.0},
    spacing_s=0.5,
    spacing_p=0.5,
    quad_points=129,
    grid=[64, 64],
    sweep={"variable": "R", "start": 300, "stop": 1000, "count": 15},
    theta_list=[0, 0.5],
)


def mutations(template):
    """``template`` with any of its fields kept, dropped, or replaced by another JSON value."""
    options = [st.just(template), JSON_VALUES]
    if isinstance(template, dict):
        options.append(st.fixed_dictionaries({}, optional={k: mutations(v) for k, v in template.items()}))
    elif isinstance(template, list):
        options.append(st.tuples(*map(mutations, template)).map(list))
    elif isinstance(template, (int, float)):
        options.append(st.integers(-1000, 1000) | st.floats(-1000.0, 1000.0))
    return st.one_of(*options)


def renumbered(template):
    """``template`` with any of its numbers replaced by another number."""
    if isinstance(template, dict):
        return st.fixed_dictionaries({k: renumbered(v) for k, v in template.items()})
    if isinstance(template, list):
        return st.tuples(*map(renumbered, template)).map(list)
    if isinstance(template, (int, float)):  # kept three times in four
        other = st.integers(-1000, 1000) | st.floats(-1000.0, 1000.0)
        return st.integers(0, 3).flatmap(lambda i: other if i == 0 else st.just(template))
    return st.just(template)


# the required fields kept and the optional ones well formed, so that more documents reach a job
RUNNABLE = st.fixed_dictionaries(
    {k: st.just(v) for k, v in MINIMAL.items()},
    optional={k: renumbered(v) for k, v in FULL.items() if k not in MINIMAL},
)
DOCUMENTS = mutations(FULL) | RUNNABLE


# every subcommand that reads a scenario document (validate reads none), at small grids
CONFIG_COMMANDS = (
    ["localbw-sweep", "--grid", "3"], ["maxbw-map", "--grid", "3"], ["kmax-sweep"], ["svd-spectrum"]
)


def _fast_searches_and_channels() -> dict:
    """Stand-ins for the orientation search and the channel build and spectrum."""
    found = SimpleNamespace(best_k=SimpleNamespace(value=1.0))
    spectrum = SingularSpectrum(values=np.ones(1), normalized=np.ones(1))
    return {
        "maximize_k": lambda *a, **k: found,
        "los_channel": lambda *a, **k: None,
        "singular_spectrum": lambda H: spectrum,
    }


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(doc=DOCUMENTS | st.lists(DOCUMENTS, max_size=3).map(lambda items: {"scenarios": items}))
@example(doc=dict(MINIMAL, placement=ON_SEGMENT[0]))
@example(doc={"scenarios": [MINIMAL, dict(FULL, placement=ON_SEGMENT[1])]})
@example(doc=dict(MINIMAL, Ls=10**400))
@example(doc=FULL)
def test_parsers_raise_only_config_errors(run_dir, doc):
    import nfdof.cli as cli_mod

    text = json.dumps(doc)
    for parse in (parse_scenario, parse_scenarios):
        try:
            parse(text)
        except (SchemaError, RangeError):
            pass
    config = run_dir / "scenario.json"
    config.write_text(text)
    # the whole CLI, too, exits 0 or 2: any other exception escapes and fails the test
    with pytest.MonkeyPatch.context() as mp:
        for name, stub in _fast_searches_and_channels().items():
            mp.setattr(cli_mod, name, stub)
        for command in CONFIG_COMMANDS:
            argv = command + ["--config", str(config), "--out", str(run_dir / "out.csv")]
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse
                rc = exc.code
            assert rc in (0, 2), argv


class TestSweepCommands:
    def test_localbw_sweep_values(self):
        sc = parse_scenario(scenario_text(placement={"R": 100, "theta": 0}))
        table = cmd_localbw_sweep(sc, n_points=41)
        assert table.columns == ["psi", "phi_prime", "omega_over_k0"]
        vals = np.array(table.rows)
        assert len(vals) == 41 * 41
        assert (vals[:, 2] >= 0.0).all() and (vals[:, 2] <= 2.0).all()
        alpha = 2.0 * math.atan(0.5)
        peak = 2.0 * math.sin(0.5 * alpha)
        assert vals[:, 2].max() == pytest.approx(peak, abs=1e-12)
        # the (pi/2, pi/2) row carries the peak (index 20 of 41 on each axis)
        mid = vals[20 * 41 + 20]
        assert mid[0] == pytest.approx(0.5 * math.pi)
        assert mid[2] == pytest.approx(peak, abs=1e-12)
        assert vals[:, 2].max() == pytest.approx(0.8944271909999159, abs=1e-12)

    def test_maxbw_map_values(self):
        sc = parse_scenario(scenario_text())
        table = cmd_maxbw_map(sc, extent=600.0, n_points=25)
        assert table.columns == ["y", "z", "omega_max_over_k0"]
        rows = {(r[0], r[1]): r[2] for r in table.rows}
        assert rows[(500.0, 0.0)] == pytest.approx(0.19900743804199783, rel=1e-12)
        # on the degenerate band: limiting value
        assert rows[(0.0, 0.0)] == 2.0
        assert rows[(0.0, 50.0)] == 2.0
        # beyond the tip on the axis: closed fan
        assert rows[(0.0, 100.0)] == 0.0
        # mirror symmetry in both axes
        assert rows[(-500.0, 0.0)] == rows[(500.0, 0.0)]
        assert rows[(100.0, -50.0)] == rows[(100.0, 50.0)]

    def test_kmax_sweep_default_r_values(self, monkeypatch):
        import nfdof.cli as cli_mod

        found = SimpleNamespace(best_k=SimpleNamespace(value=1.0))
        monkeypatch.setattr(cli_mod, "maximize_k", lambda *a, **k: found)
        table = cmd_kmax_sweep(parse_scenario(scenario_text(theta_list=[0.2])))
        assert table.rows[:, 0].tolist() == np.linspace(300.0, 1000.0, 15).tolist()
        assert table.rows[-1, 0] == 1000.0

    def test_kmax_sweep_table(self):
        sc = parse_scenario(
            scenario_text(
                sweep={"variable": "R", "start": 300, "stop": 900, "count": 3},
                theta_list=[0.0, math.pi / 6],
                grid=[16, 16],
                quad_points=65,
            )
        )
        table = cmd_kmax_sweep(sc)
        assert table.columns == ["R", "theta", "AK", "EK"]
        assert len(table.rows) == 6
        by_key = {(r[0], r[1]): (r[2], r[3]) for r in table.rows}
        for (_, _), (ak, ek) in by_key.items():
            assert abs(ek - ak) / ak <= 0.05
        # AK decreasing in R for fixed theta, and in theta for fixed R
        for th in (0.0, math.pi / 6):
            seq = [by_key[(R, th)][0] for R in (300.0, 600.0, 900.0)]
            assert seq[0] > seq[1] > seq[2]
        for R in (300.0, 600.0, 900.0):
            assert by_key[(R, 0.0)][0] > by_key[(R, math.pi / 6)][0]
        assert by_key[(300.0, 0.0)] == by_key[(300.0, 0.0)]

    def test_svd_spectrum_table(self):
        text = json.dumps(
            {
                "scenarios": [
                    dict(MINIMAL, Ls=16, Lp=16, placement={"R": 60, "theta": 0.0},
                         grid=[16, 16], quad_points=65),
                    dict(MINIMAL, Ls=16, Lp=16, placement={"R": 60, "theta": 0.7},
                         grid=[16, 16], quad_points=65),
                ]
            }
        )
        table = cmd_svd_spectrum(parse_scenarios(text))
        vals = np.array(table.rows)
        assert table.columns[:3] == ["config_id", "n", "sigma_normalized"]
        for cid in (0.0, 1.0):
            rows = vals[vals[:, 0] == cid]
            assert len(rows) == 33
            assert rows[0, 2] == pytest.approx(1.0)
            assert (np.diff(rows[:, 2]) <= 1e-12).all()
            ek, edof = rows[0, 4], rows[0, 5]
            assert abs(edof - ek) <= 4.0
        # tilted placement has fewer effective dimensions
        assert vals[vals[:, 0] == 1.0][0, 5] <= vals[vals[:, 0] == 0.0][0, 5]

    @pytest.mark.parametrize("command", ["localbw", "maxbw", "kmax", "svd"])
    def test_rows_are_one_float_array(self, command):
        small = dict(MINIMAL, Ls=16, Lp=16, placement={"R": 60, "theta": 0.3}, grid=[8, 8], quad_points=3)
        sc = parse_scenario(json.dumps(small))
        sweep = {"variable": "R", "start": 60, "stop": 80, "count": 2}
        kmax = parse_scenario(json.dumps(dict(small, sweep=sweep, theta_list=[0.0, 0.3, 0.6])))
        table = {
            "localbw": lambda: cmd_localbw_sweep(sc, n_points=5),
            "maxbw": lambda: cmd_maxbw_map(sc, extent=100.0, n_points=5),
            "kmax": lambda: cmd_kmax_sweep(kmax),
            "svd": lambda: cmd_svd_spectrum(parse_scenarios(json.dumps({"scenarios": [small, small]}))),
        }[command]()
        n_rows = {"localbw": 25, "maxbw": 25, "kmax": 6, "svd": 66}[command]
        assert isinstance(table.rows, np.ndarray)
        assert table.rows.dtype == np.float64
        assert table.rows.shape == (n_rows, len(table.columns))


NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
# both zeros, the smallest subnormals, infinities and NaNs of either sign or another payload
EMIT_VALUES = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -math.nan, NAN_PAYLOAD, 0.1, 1e16]


def tensor_rows_reference(a, b, *values):
    """The meshgrid/column_stack form that _tensor_rows fills in place."""
    aa, bb = np.meshgrid(a, b, indexing="ij")
    return np.column_stack([aa.ravel(), bb.ravel(), *(np.ravel(v) for v in values)])


def bits(x):
    """An array's bit patterns, so that -0.0 and each NaN payload compare as themselves."""
    return np.asarray(x, dtype=float).view(np.int64)


class TestMapTables:
    @pytest.mark.parametrize("n_a, n_b", [(1, 4), (4, 1), (2, 3)])
    @pytest.mark.parametrize("axes", [list, tuple, np.array])
    def test_equals_the_meshgrid_column_stack_form(self, n_a, n_b, axes):
        rng = np.random.default_rng(n_a * 10 + n_b)
        specials = [-0.0, 0.0, math.nan, -math.nan, NAN_PAYLOAD]
        a = axes(([-0.0, 1.5, 2.5, math.nan] * 2)[:n_a])
        b = axes([0.25 * j - 0.5 for j in range(n_b)])
        flat = [specials[k % 5] if k % 2 else x for k, x in enumerate(rng.normal(size=n_a * n_b).tolist())]
        grid = np.array([x if k % 3 else specials[k % 5] for k, x in enumerate(flat[::-1])]).reshape(n_a, n_b)
        # flat lists as cmd_kmax_sweep passes its AK and EK, an (n_a, n_b) grid as the maps pass
        for values in ((), (flat,), (flat, flat[::-1]), (grid,), (grid, flat)):
            got, want = _tensor_rows(a, b, *values), tensor_rows_reference(a, b, *values)
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape == (n_a * n_b, 2 + len(values))
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("command", ["maxbw", "localbw"])
    def test_map_build_peaks_at_its_table_plus_one_grid(self, command):
        n = 301
        sc = parse_scenario(scenario_text(placement={"R": 200, "theta": 0.3}), "localbw-sweep")
        build = {"maxbw": lambda: cmd_maxbw_map(sc, n_points=n),
                 "localbw": lambda: cmd_localbw_sweep(sc, n_points=n)}
        build[command]()  # first-call costs outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = build[command]()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert table.rows.shape == (n * n, 3)
        assert peak <= table.rows.nbytes + 8 * n * n + 256 * 1024


@st.composite
def emit_tables(draw):
    """(n_cols, rows) drawn from a pool of at most 4 values, so that every block repeats some."""
    n_cols = draw(st.integers(1, 4))
    pool = draw(st.lists(st.sampled_from(EMIT_VALUES) | st.floats(), min_size=1, max_size=4))
    row = st.lists(st.sampled_from(pool), min_size=n_cols, max_size=n_cols)
    return n_cols, draw(st.lists(row, max_size=10))


class TestCsvContract:
    def test_deterministic_except_timestamp(self):
        sc = parse_scenario(scenario_text(placement={"R": 100, "theta": 0.2}))
        table = cmd_localbw_sweep(sc, n_points=11)
        table.scenario_sha256 = sha256_of("x")
        a, b = io.StringIO(), io.StringIO()
        table.write_csv(a, version="0.1.0", timestamp="A")
        table.write_csv(b, version="0.1.0", timestamp="B")
        la = [l for l in a.getvalue().splitlines() if not l.startswith("# generated")]
        lb = [l for l in b.getvalue().splitlines() if not l.startswith("# generated")]
        assert la == lb

    def test_format_details(self):
        sc = parse_scenario(scenario_text(placement={"R": 100, "theta": 0.2}))
        table = cmd_localbw_sweep(sc, n_points=11)
        table.scenario_sha256 = sha256_of("x")
        buf = io.StringIO()
        table.write_csv(buf, version="0.1.0", timestamp="T")
        text = buf.getvalue()
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0].startswith("# nfdof")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "psi,phi_prime,omega_over_k0"
        # 17 significant digits round-trip
        cols, rows = read_table(iter(lines))
        assert cols == ["psi", "phi_prime", "omega_over_k0"]
        assert rows[12][0] == pytest.approx(math.pi / 10.0, abs=0.0)

    def test_round_trip_matches_rows(self):
        sc = parse_scenario(scenario_text(placement={"R": 100, "theta": 0.2}))
        table = cmd_localbw_sweep(sc, n_points=7)
        buf = io.StringIO()
        table.write_csv(buf, version="0.1.0", timestamp="T")
        _, rows = read_table(io.StringIO(buf.getvalue()))
        assert len(rows) == len(table.rows)
        for got, want in zip(rows, table.rows):
            assert got == pytest.approx(want, abs=0.0)

    def test_values_print_as_format_17g(self):
        values = [-0.0, 5e-324, 0.1, 1e16, 2.0, -1.5e-300]
        rows = [tuple(values), tuple(reversed(values))]
        texts = []
        for table_rows in (rows, np.array(rows)):
            buf = io.StringIO()
            SweepTable(list("abcdef"), table_rows, "test").write_csv(buf, version="0", timestamp="T")
            texts.append(buf.getvalue())
        want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
        assert texts[0].endswith("a,b,c,d,e,f\n" + want)
        assert texts[1] == texts[0]

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(table=emit_tables())
    # 0 rows, 1 row, a multiple of the block of 3 rows and one more; both zeros and NaNs in one block
    @example(table=(2, []))
    @example(table=(1, [[-0.0]]))
    @example(table=(2, [[0.0, math.nan], [-0.0, -math.nan], [0.0, NAN_PAYLOAD], [5e-324, math.inf],
                        [-5e-324, -math.inf], [-0.0, 0.1]]))
    @example(table=(3, [[0.1, -0.0, 1e16]] * 7))
    def test_body_is_format_17g_of_every_value(self, table):
        n_cols, rows = table
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_mod, "_EMIT_BLOCK_ROWS", 3)
            SweepTable([f"c{j}" for j in range(n_cols)], rows, "test").write_csv(buf, version="0", timestamp="T")
        body = buf.getvalue().split("\n", 6)[6]  # after 5 comment lines and the column names
        assert body == "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)

    @pytest.mark.parametrize(
        "rows",
        [
            # 1.5 in blocks 0 and 2 but not in block 1, 0.1 and 0.2 in each
            [[1.5, 0.1], [2.5, 0.1], [1.5, 0.2], [3.5, 0.1], [4.5, 0.2], [3.5, 0.1],
             [1.5, 0.2], [2.5, 0.4], [5.5, 0.2]],
            # 0.0 in one block and -0.0 in the next, in both columns and both orders
            [[0.0, -0.0], [0.0, 1.0], [1.0, -0.0], [-0.0, 0.0], [-0.0, 1.0], [1.0, 0.0], [0.0, -0.0]],
            # two NaN payloads in neighbouring blocks, and a NaN of either sign
            [[math.nan, 1.0], [math.nan, 1.0], [2.0, NAN_PAYLOAD], [NAN_PAYLOAD, math.nan], [1.0, -math.nan],
             [NAN_PAYLOAD, 2.0], [-math.nan, NAN_PAYLOAD]],
        ],
        ids=["back-after-a-block", "zeros-of-either-sign", "nan-payloads"],
    )
    def test_texts_held_from_the_last_block_are_format_17g(self, monkeypatch, rows):
        monkeypatch.setattr(scenario_mod, "_EMIT_BLOCK_ROWS", 3)
        buf = io.StringIO()
        SweepTable(["a", "b"], rows, "test").write_csv(buf, version="0", timestamp="T")
        body = buf.getvalue().split("\n", 6)[6]  # after 5 comment lines and the column names
        assert body == "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)

    @pytest.mark.parametrize("n_rows", [0, 1, 3, 7, 9])
    def test_body_written_one_block_at_a_time(self, monkeypatch, n_rows):
        # peak memory holds one block's text, never the whole table's
        monkeypatch.setattr(scenario_mod, "_EMIT_BLOCK_ROWS", 3)
        writes = []
        SweepTable(["a", "b"], np.arange(2.0 * n_rows), "test").write_csv(
            SimpleNamespace(write=writes.append), version="0", timestamp="T"
        )
        body = writes[writes.index("a,b\n") + 1 :]
        assert len(body) == -(-n_rows // 3)
        assert all(1 <= w.count("\n") <= 3 for w in body)
        assert sum(w.count("\n") for w in body) == n_rows


class TestLibraryCaps:
    """Each size cap is enforced by the function it protects, before any work is done."""

    @pytest.mark.parametrize("n_points", [1, MAX_AXIS_POINTS + 1, 10**6])
    @pytest.mark.parametrize("command", ["cmd_localbw_sweep", "cmd_maxbw_map"])
    def test_axis_points_outside_bounds_rejected(self, monkeypatch, command, n_points):
        import nfdof.cli as cli_mod

        sc = parse_scenario(scenario_text())
        fail = lambda *a, **k: pytest.fail("work was done")  # noqa: E731
        for name in ("geometry_angles", "omega_grid", "_tensor_rows", "SweepTable"):
            monkeypatch.setattr(cli_mod, name, fail)
        monkeypatch.setattr(cli_mod, "np", SimpleNamespace(linspace=fail))
        message = f"points per axis must be an integer in [2, {MAX_AXIS_POINTS}], got {n_points}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(cli_mod, command)(sc, n_points=n_points)

    @pytest.mark.parametrize(
        "extent, rule",
        [
            (1e308, "give a finite window width 2 * extent"),
            (8.99e307, "give a finite window width 2 * extent"),
            (-1.0, "be positive and finite"),
            (math.nan, "be positive and finite"),
        ],
    )
    def test_map_extent_outside_the_float_window_rejected(self, monkeypatch, extent, rule):
        # np.linspace(-extent, extent, n) overflows 2 * extent to inf past about 8.99e307
        import nfdof.cli as cli_mod

        sc = parse_scenario(scenario_text(), "maxbw-map")
        fail = lambda *a, **k: pytest.fail("work was done")  # noqa: E731
        for name in ("_tensor_rows", "SweepTable"):
            monkeypatch.setattr(cli_mod, name, fail)
        monkeypatch.setattr(cli_mod, "np", SimpleNamespace(linspace=fail))
        with pytest.raises(ValueError) as exc:
            cli_mod.cmd_maxbw_map(sc, extent=extent, n_points=3)
        assert str(exc.value) == f"extent must {rule}, got {extent!r}"

    def test_largest_map_extent_gives_finite_coordinates(self):
        extent = np.nextafter(0.5 * np.finfo(float).max, 0.0)
        rows = cmd_maxbw_map(parse_scenario(scenario_text(), "maxbw-map"), extent=extent, n_points=3).rows
        assert np.isfinite(rows).all()
        assert rows[0, 0] == -extent and rows[-1, 1] == extent

    @pytest.mark.parametrize("theta_list", [(0.1,) * 4, (0.1,) * 200_000])
    def test_kmax_pairs_over_the_cap_rejected(self, monkeypatch, theta_list):
        import nfdof.cli as cli_mod

        sc = replace(parse_scenario(scenario_text()), sweep=SweepSpec(300.0, 1000.0, MAX_SWEEP_COUNT),
                     theta_list=theta_list)
        fail = lambda *a, **k: pytest.fail("work was done")  # noqa: E731
        for name in ("PolarPlacement", "k_number_max", "maximize_k", "SweepTable"):
            monkeypatch.setattr(cli_mod, name, fail)
        monkeypatch.setattr(SweepSpec, "values", fail)
        want = rf"^{MAX_SWEEP_COUNT} x {len(theta_list)} \(R, theta\) pairs exceed {MAX_KMAX_PAIRS}$"
        with pytest.raises(ValueError, match=want):
            cmd_kmax_sweep(sc)

    @pytest.mark.parametrize("n_cases", [-1, MAX_CASES + 1, 10**9])
    def test_validation_cases_outside_bounds_rejected(self, monkeypatch, n_cases):
        import nfdof.validation as validation_mod

        for name in ("check_closed_vs_oracle", "check_angles", "check_orientation_maximum",
                     "check_branch_continuity", "check_periodicity"):
            monkeypatch.setattr(validation_mod, name, lambda *a, **k: pytest.fail("a check ran"))
        with pytest.raises(ValueError, match=rf"^case count must be an integer in \[0, {MAX_CASES}\], got {n_cases}$"):
            run_validation(seed=0, n_cases=n_cases)


# a value each field refuses, for the subcommands that do not read the field
BAD_FIELDS = {
    "Lp": -1,
    "placement": "x",
    "orientation": "sideways",
    "spacing_s": 0.3,
    "spacing_p": 0.3,
    "quad_points": 128,
    "grid": [4, 64],
    "sweep": sweep(0),
    "theta_list": [3.5],
}
UNREAD = [(command, key) for command in READS for key in BAD_FIELDS if key not in READS[command]]
# small enough that every job runs in full
SMALL = dict(MINIMAL, Ls=16, Lp=16, placement={"R": 60, "theta": 0.3}, orientation={"psi": 1.0, "phi": 2.0},
             grid=[8, 8], quad_points=3, sweep={"variable": "R", "start": 60, "stop": 80, "count": 2},
             theta_list=[0.0, 0.3])


def _csv_body(argv, config, out):
    """Exit code and CSV body (comment header dropped; None on failure) of one run of ``argv`` on ``config``."""
    import nfdof.cli as cli_mod

    with pytest.MonkeyPatch.context() as mp:
        for name, stub in _fast_searches_and_channels().items():
            mp.setattr(cli_mod, name, stub)
        rc = main(argv + ["--config", str(config), "--out", str(out)])
    return rc, [line for line in out.read_text().splitlines() if not line.startswith("#")] if rc == 0 else None


class TestReads:
    """Each subcommand parses, requires and checks the fields READS names, and no other."""

    @pytest.mark.parametrize("argv", CONFIG_COMMANDS, ids=lambda argv: argv[0])
    def test_document_of_the_read_fields_alone_runs(self, tmp_path, argv):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({k: v for k, v in FULL.items() if k in READS[argv[0]]}))
        rc, body = _csv_body(argv, cfg, tmp_path / "out.csv")
        assert rc == 0 and len(body) > 1

    @pytest.mark.parametrize("command, key", UNREAD)
    def test_bad_unread_field_changes_nothing(self, tmp_path, command, key):
        (argv,) = [argv for argv in CONFIG_COMMANDS if argv[0] == command]
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(FULL))
        want = _csv_body(argv, cfg, tmp_path / "want.csv")
        cfg.write_text(json.dumps(dict(FULL, **{key: BAD_FIELDS[key]})))
        assert _csv_body(argv, cfg, tmp_path / "got.csv") == want
        assert want[0] == 0
        # a subcommand that reads the field refuses the value
        reader = next(argv for argv in CONFIG_COMMANDS if key in READS[argv[0]])
        assert _csv_body(reader, cfg, tmp_path / "refused.csv") == (2, None)

    @pytest.mark.parametrize("argv", CONFIG_COMMANDS, ids=lambda argv: argv[0])
    def test_lambda_m_is_read_by_no_subcommand(self, tmp_path, argv):
        # lengths are in wavelengths, so a physical wavelength changes no output byte
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(FULL))
        want = _csv_body(argv, cfg, tmp_path / "want.csv")
        cfg.write_text(json.dumps(dict(FULL, lambda_m=-1)))
        assert _csv_body(argv, cfg, tmp_path / "got.csv") == want
        assert want[0] == 0

    @pytest.mark.parametrize("command", list(READS))
    def test_job_reads_no_field_beyond_its_reads(self, command):
        text = json.dumps(SMALL)
        partial = parse_scenarios(text) if command == "svd-spectrum" else [parse_scenario(text, command)]
        full = [parse_scenario(text)]
        unread = set().union(*READS.values()) - set(READS[command])
        assert all(getattr(sc, f) is None for sc in partial for f in unread)
        job = {
            "localbw-sweep": lambda scs: cmd_localbw_sweep(scs[0], n_points=5),
            "maxbw-map": lambda scs: cmd_maxbw_map(scs[0], extent=100.0, n_points=5),
            "kmax-sweep": lambda scs: cmd_kmax_sweep(scs[0]),
            "svd-spectrum": cmd_svd_spectrum,
        }[command]
        got, want = job(partial), job(full)
        assert (got.columns, got.notes) == (want.columns, want.notes)
        assert got.rows.tobytes() == want.rows.tobytes()


class TestCliMain:
    def test_localbw_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "s.json"
        cfg.write_text(scenario_text(placement={"R": 100, "theta": 0}))
        out = tmp_path / "o.csv"
        rc = main(["localbw-sweep", "--config", str(cfg), "--out", str(out), "--grid", "21"])
        assert rc == 0
        cols, rows = read_table(out.open())
        assert cols == ["psi", "phi_prime", "omega_over_k0"]
        assert len(rows) == 441

    def test_stdout_output(self, tmp_path, capsys):
        cfg = tmp_path / "s.json"
        cfg.write_text(scenario_text())
        rc = main(["maxbw-map", "--config", str(cfg), "--grid", "9", "--extent", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "y,z,omega_max_over_k0" in out
        # 81 data rows + 7 comment lines + 1 column row
        assert out.count("\n") == 9 * 9 + 7 + 1

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(scenario_text(placement={"R": 500, "theta": -0.1}))
        assert main(["localbw-sweep", "--config", str(cfg)]) == 2
        assert "theta" in capsys.readouterr().err

    def test_deeply_nested_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["localbw-sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("nfdof: error: not valid JSON: ")

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["localbw-sweep", "--config", str(tmp_path / "none.json")]) == 2

    def test_validate_passes(self, capsys):
        assert main(["validate", "--seed", "1", "--cases", "20"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    @pytest.mark.parametrize("placement", ON_SEGMENT)
    def test_placement_on_segment_exit_code(self, tmp_path, capsys, placement):
        cfg = tmp_path / "on.json"
        cfg.write_text(scenario_text(placement=placement))
        assert main(["localbw-sweep", "--config", str(cfg), "--grid", "9"]) == 2
        assert capsys.readouterr().err.startswith("nfdof: error: placement: ")

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "inf.json"
        cfg.write_text(scenario_text(placement={"R": math.inf, "theta": 0}))
        assert main(["localbw-sweep", "--config", str(cfg)]) == 2
        assert "placement.R" in capsys.readouterr().err

    @pytest.mark.parametrize("cases", ["0", "-5"])
    def test_validate_cases_below_one_rejected(self, cases, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--seed", "1", "--cases", cases])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--cases" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize(
        "command, config, option, value",
        [
            ("maxbw-map", "kmax.json", "--grid", "0"),
            ("maxbw-map", "kmax.json", "--grid", "-5"),
            ("maxbw-map", "kmax.json", "--grid", str(MAX_AXIS_POINTS + 1)),
            ("maxbw-map", "kmax.json", "--extent", "nan"),
            ("maxbw-map", "kmax.json", "--extent", "inf"),
            ("maxbw-map", "kmax.json", "--extent", "0"),
            ("maxbw-map", "kmax.json", "--extent", "1e308"),
            ("localbw-sweep", "kmax.json", "--grid", "1"),
            ("localbw-sweep", "kmax.json", "--grid", "1000000000"),
            ("svd-spectrum", "spectra.json", "--tau", "1.5"),
            ("svd-spectrum", "spectra.json", "--tau", "0"),
            ("svd-spectrum", "spectra.json", "--tau", "nan"),
            ("validate", None, "--seed", "-1"),
            ("validate", None, "--cases", "1000000000"),
            ("validate", None, "--cases", str(MAX_CASES + 1)),
        ],
    )
    def test_argparse_rejects_an_out_of_bound_option(
        self, tmp_path, capsys, monkeypatch, command, config, option, value
    ):
        import nfdof.cli as cli_mod

        for name in JOBS:
            monkeypatch.setattr(cli_mod, name, lambda *a, **k: pytest.fail("a job ran"))
        argv = [command, option, value]
        if config is not None:
            cfg = tmp_path / config
            text = scenario_text() if config == "kmax.json" else json.dumps({"scenarios": [MINIMAL]})
            cfg.write_text(text)
            argv += ["--config", str(cfg)]
        # argparse rejects the value, before main reads the config
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"placement": {"R": 500, "theta": math.pi / 2}}, "scenarios[0].placement.theta"),
            ({"placement": {"R": 1e20, "theta": 0.3}}, "scenarios[0].placement.R"),
            ({"spacing_p": 0.3}, "scenarios[0].spacing_p"),
        ],
    )
    def test_deeper_errors_name_their_field(self, tmp_path, capsys, monkeypatch, overrides, field):
        import nfdof.cli as cli_mod

        monkeypatch.setattr(cli_mod, "cmd_svd_spectrum", lambda *a, **k: pytest.fail("a job ran"))
        cfg = tmp_path / "spectra.json"
        cfg.write_text(json.dumps({"scenarios": [dict(MINIMAL, **overrides)]}))
        assert main(["svd-spectrum", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"nfdof: error: {field}: ")

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"theta_list": [0.3, math.pi / 2]}, "theta_list[1]"),
            ({"theta_list": [0.0, 3.5]}, "theta_list[1]"),
            ({"sweep": {"variable": "R", "start": 1e-10, "stop": 500, "count": 3}}, "sweep.start"),
            ({"sweep": {"variable": "R", "start": 500, "stop": 1e300, "count": 3}}, "sweep.stop"),
            # R = 10 at theta = 0.3 lies 9.6 from the segment, within Lp/2 = 50
            (
                {"sweep": {"variable": "R", "start": 10, "stop": 500}, "theta_list": [0.3, math.pi / 2]},
                "sweep.start",
            ),
            # on the segment's axis the tilt is named, with a sweep too
            (
                {"sweep": {"variable": "R", "start": 200, "stop": 500}, "theta_list": [0.3, math.pi / 2]},
                "theta_list[1]",
            ),
            # an array whose end could touch the segment: at distance Lp/2, and within Lp/2 = 350
            (
                {"sweep": {"variable": "R", "start": 50, "stop": 50, "count": 1}, "theta_list": [0], "grid": [9, 8]},
                "sweep.start",
            ),
            ({"Lp": 700, "theta_list": [0.3]}, "theta_list[0]"),
            # neither sweep nor theta_list: a default pair at R = 300 lies within Lp/2 = 350
            ({"Lp": 700}, "Lp"),
        ],
    )
    def test_kmax_pairs_checked_before_any_search(self, tmp_path, capsys, monkeypatch, overrides, field):
        import nfdof.cli as cli_mod

        for name in ("k_number_max", "maximize_k"):
            monkeypatch.setattr(cli_mod, name, lambda *a, **k: pytest.fail("a K number was computed"))
        cfg = tmp_path / "kmax.json"
        cfg.write_text(scenario_text(**overrides))
        assert main(["kmax-sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"nfdof: error: {field}: ")

    @pytest.mark.parametrize(
        "placement, field",
        [
            # off the axis a zero fan is alpha rounding to 0 far away: R is named
            ({"R": 1e20, "theta": 0.3}, "placement.R"),
            # beyond the segment tip on its axis every arrival direction is parallel: the tilt is named
            ({"R": 500, "theta": math.pi / 2}, "placement.theta"),
        ],
    )
    @pytest.mark.parametrize("command", ["localbw-sweep", "svd-spectrum"])
    def test_zero_fan_names_the_field_that_closes_it(
        self, tmp_path, capsys, monkeypatch, command, placement, field
    ):
        import nfdof.cli as cli_mod

        for name in JOBS:
            monkeypatch.setattr(cli_mod, name, lambda *a, **k: pytest.fail("a job ran"))
        cfg = tmp_path / "zero-fan.json"
        cfg.write_text(scenario_text(placement=placement))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"nfdof: error: {field}: the segment subtends a zero angle")

    @pytest.mark.parametrize("command", ["localbw-sweep", "maxbw-map"])
    def test_default_kmax_pairs_checked_only_for_kmax_sweep(self, tmp_path, command):
        # the document kmax-sweep refuses for its default pairs places no array for the maps
        cfg = tmp_path / "long.json"
        cfg.write_text(scenario_text(Lp=700))
        assert main([command, "--config", str(cfg), "--grid", "3", "--out", str(tmp_path / "out.csv")]) == 0

    def test_channel_over_the_cap_exits_before_any_antenna_is_placed(self, tmp_path, capsys, monkeypatch):
        import nfdof.cli as cli_mod

        for name in ("antenna_grid", "los_channel", "cmd_svd_spectrum"):
            monkeypatch.setattr(cli_mod, name, lambda *a, **k: pytest.fail("a channel was built"))
        cfg = tmp_path / "spectra.json"
        cfg.write_text(json.dumps({"scenarios": [dict(MINIMAL, Ls=5000, Lp=5000)]}))
        assert main(["svd-spectrum", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("nfdof: error: scenarios[0].spacing_p: 10001 x 10001 ")

    def test_validate_failure_exit_code(self, capsys, monkeypatch):
        import nfdof.cli as cli_mod
        from nfdof.validation import CheckResult, ValidationReport

        failing = ValidationReport(
            results=[CheckResult("sentinel", False, 1, 1.0, 0.5)]
        )
        monkeypatch.setattr(cli_mod, "run_validation", lambda *a, **k: failing)
        assert main(["validate", "--seed", "1", "--cases", "1"]) == 1
        assert "FAIL sentinel" in capsys.readouterr().out


def options_of(command):
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {o for a in sub.choices[command]._actions for o in a.option_strings} - {"-h", "--help"}


class TestOptionSurface:
    """Each job parameter has one source: the scenario document, or one option."""

    @pytest.mark.parametrize(
        "command, options",
        [
            ("localbw-sweep", {"--config", "--out", "--grid"}),
            ("maxbw-map", {"--config", "--out", "--grid", "--extent"}),
            ("kmax-sweep", {"--config", "--out"}),
            ("svd-spectrum", {"--config", "--out", "--tau"}),
            ("validate", {"--seed", "--cases"}),
        ],
    )
    def test_options_per_subcommand(self, command, options):
        assert options_of(command) == options

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("kmax-sweep", "--grid", "8"),
            ("kmax-sweep", "--quad", "3"),
            ("svd-spectrum", "--grid", "8"),
            ("svd-spectrum", "--quad", "3"),
            ("localbw-sweep", "--seed", "0"),
            ("maxbw-map", "--seed", "0"),
            ("kmax-sweep", "--seed", "0"),
            ("svd-spectrum", "--seed", "0"),
        ],
    )
    def test_removed_options_are_unrecognized(self, tmp_path, capsys, monkeypatch, command, option, value):
        import nfdof.cli as cli_mod

        for name in JOBS:
            monkeypatch.setattr(cli_mod, name, lambda *a, **k: pytest.fail("a job ran"))
        cfg = tmp_path / "s.json"
        cfg.write_text(scenario_text())
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


# what each kind of command-line number may be once it reaches a job
IN_BOUNDS = {
    "axis": lambda n: type(n) is int and 2 <= n <= MAX_AXIS_POINTS,
    "extent": lambda x: math.isfinite(2.0 * x) and x > 0.0,
    "tau": lambda t: 0.0 < t < 1.0,
    "seed": lambda n: type(n) is int and n >= 0,
    "cases": lambda n: type(n) is int and 1 <= n <= MAX_CASES,
}
NUMBER_OPTIONS = [
    ("localbw-sweep", "--grid"),
    ("maxbw-map", "--grid"),
    ("maxbw-map", "--extent"),
    ("svd-spectrum", "--tau"),
    ("validate", "--seed"),
    ("validate", "--cases"),
]
ARGV_NUMBERS = (
    st.integers(-(10**12), 10**12).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.text(max_size=8)
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scenario.json"
    path.write_text(scenario_text())
    return str(path)


def _recording_jobs(reached: list) -> dict:
    """Stand-ins for the jobs and the CSV emit that record the numbers they receive."""

    def localbw(scenario, n_points):
        reached.append(("axis", n_points))

    def maxbw(scenario, extent, n_points):
        reached.extend([("axis", n_points), ("extent", extent)])

    def svd(scenarios, tau):
        reached.append(("tau", tau))

    def validation(seed, n_cases):
        reached.extend([("seed", seed), ("cases", n_cases)])
        return ValidationReport(results=[])

    def emit(table, out, config_text):
        pass

    return {
        "cmd_localbw_sweep": localbw,
        "cmd_maxbw_map": maxbw,
        "cmd_svd_spectrum": svd,
        "run_validation": validation,
        "_emit": emit,
    }


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(target=st.sampled_from(NUMBER_OPTIONS), value=ARGV_NUMBERS)
@example(target=("maxbw-map", "--grid"), value="2")
@example(target=("svd-spectrum", "--tau"), value="0.5")
@example(target=("validate", "--seed"), value="0")
def test_cli_numbers_reach_a_job_only_inside_their_bounds(config_path, target, value):
    import nfdof.cli as cli_mod

    command, option = target
    reached = []
    argv = [command, f"{option}={value}"]  # "=" keeps a value such as "-h" from reading as an option
    if command != "validate":
        argv += ["--config", config_path]
    with pytest.MonkeyPatch.context() as mp:
        for name, stub in _recording_jobs(reached).items():
            mp.setattr(cli_mod, name, stub)
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            assert not reached
            return
    assert rc == 0
    assert reached
    for kind, number in reached:
        assert IN_BOUNDS[kind](number), (kind, number)


class TestValidationHarness:
    def test_default_run_passes(self):
        report = run_validation(seed=3, n_cases=30)
        assert report.passed
        assert len(report.results) == 5

    @staticmethod
    def _bias_closed_form(monkeypatch, bias):
        """Add ``bias`` to every closed-form bandwidth the harness computes."""
        import nfdof.validation as validation_mod

        closed = validation_mod.local_bandwidth_closed
        monkeypatch.setattr(validation_mod, "local_bandwidth_closed", lambda *a: closed(*a) + bias)

    def test_corrupted_closed_form_detected(self, monkeypatch):
        self._bias_closed_form(monkeypatch, 1e-3)
        report = run_validation(seed=3, n_cases=30)
        assert not report.passed
        assert not report.results[0].passed

    def test_oracle_check_holds_each_case_to_its_own_bound(self, monkeypatch):
        # 1e-5 is below the loosest case's bound but 92 times the tightest one's
        assert check_closed_vs_oracle(0, 200).passed
        self._bias_closed_form(monkeypatch, 1e-5)
        result = check_closed_vs_oracle(0, 200)
        assert not result.passed
        assert result.line().startswith("FAIL ")

    def test_zero_cases_pass(self):
        # a check that ran no case shows nothing, so it reports FAIL
        report = run_validation(seed=3, n_cases=0)
        assert not report.passed
        assert all(r.cases == 0 and r.line().startswith("FAIL ") for r in report.results)
