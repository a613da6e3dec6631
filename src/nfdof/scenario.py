"""Scenario documents and CSV sweep tables.

A scenario is a JSON object with lengths in wavelengths and angles in
radians:

    {
      "Ls": 100, "Lp": 100,
      "placement": {"R": 500, "theta": 0},
      "orientation": "optimal",            // or {"psi": ..., "phi": ...}
      "spacing_s": 0.5, "spacing_p": 0.5,  // default lambda/2
      "quad_points": 129,                  // odd, numerics.MIN_NODES..MAX_QUAD_POINTS; default
      "grid": [64, 64],                    // search grid, knumber.MIN_SEARCH_AXIS..MAX_GRID; default
      "sweep": {"variable": "R", "start": 300, "stop": 1000, "count": 15},  // count 1..MAX_SWEEP_COUNT
      "theta_list": [0, 0.5236, 1.0472]
    }

READS names the fields each subcommand reads.  parse_scenario(text, command)
requires and checks those alone, each by one set of checks whether written or
defaulted; a field the subcommand does not read (such as the "lambda_m" of
older documents: lengths in wavelengths need no physical wavelength) is
ignored, and its Scenario attribute is None.  Of the fields read, only Ls, Lp
and placement are required.  "optimal" resolves to the bandwidth-maximizing
receive direction for the given placement, which must lie neither on the
transmit segment nor on its axis.  QuadratureRule, maximize_k and SweepSpec
own these caps (a one-value sweep has stop == start), and PolarPlacement and
OrientationAngles the angle ranges; each refuses the same values when called
directly, and the parser only adds the field name.  The at most MAX_KMAX_PAIRS
(R, theta) pairs of kmax-sweep are checked for a K number and for the Lp/2
reach that maximize_k refuses.  parse_scenarios, the parser of svd-spectrum,
which places antennas, adds the channel checks: each spacing divides its
length, the channel has at most MAX_CHANNEL_ENTRIES entries, the placement
lies beyond the Lp/2 reach of its search, and no antenna distance overflows.
_open_fan alone names a geometry error's field.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import IO, Callable, Collection, Mapping, Sequence

import numpy as np

from .bandwidth import OrientationAngles
from .channel import antenna_grid, check_channel_size, grid_steps, los_channel
from .errors import DegenerateGeometry, DegeneratePoint, RangeError, SchemaError
from .geometry import ArraySegment, PolarPlacement, Vec3, geometry_angles, optimal_orientation, require_open_fan
from .knumber import DEFAULT_QUAD_POINTS, DEFAULT_SEARCH_GRID, MAX_GRID, MIN_SEARCH_AXIS
from .numerics import QuadratureRule

DEFAULT_SPACING = 0.5
MAX_SWEEP_COUNT = 10_000  # values() allocates the whole sweep
MAX_KMAX_PAIRS = 3 * MAX_SWEEP_COUNT  # a full sweep at the three default tilts; one search per pair
_EMIT_BLOCK_ROWS = 4096  # rows per write; a column's distinct values the last block lacked are formatted
READS = {  # the document fields each subcommand reads, and so requires and checks
    "localbw-sweep": ("Ls", "placement"),
    "maxbw-map": ("Ls",),
    "kmax-sweep": ("Ls", "Lp", "quad_points", "grid", "sweep", "theta_list"),
    "svd-spectrum": (
        "Ls", "Lp", "placement", "orientation", "spacing_s", "spacing_p", "quad_points", "grid"
    ),
}
_EVERY_FIELD = frozenset().union(*READS.values())


@dataclass(frozen=True)
class SweepSpec:
    """A swept R: ``count`` values from ``start`` to ``stop``."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if isinstance(self.count, bool) or not isinstance(self.count, (int, np.integer)):
            raise ValueError(f"sweep count must be an integer, got {self.count!r}")
        if not 1 <= self.count <= MAX_SWEEP_COUNT:
            raise ValueError(f"sweep count must lie in [1, {MAX_SWEEP_COUNT}], got {self.count}")
        if self.count == 1 and self.stop != self.start:
            raise ValueError(f"a sweep of count 1 needs stop == start, got {self.start} to {self.stop}")

    def values(self) -> np.ndarray:
        """``count`` values from start to stop, both exact."""
        return np.linspace(self.start, self.stop, self.count)


DEFAULT_KMAX_SWEEP = SweepSpec(300.0, 1000.0, 15)  # also gives the default sweep.count
DEFAULT_KMAX_THETAS = (0.0, math.pi / 6.0, math.pi / 3.0)


def kmax_pairs(sweep: SweepSpec, thetas: Sequence[float]) -> list[tuple[float, float]]:
    """The (R, theta) pairs of kmax-sweep, R outer; over MAX_KMAX_PAIRS are refused before any is built."""
    if sweep.count * len(thetas) > MAX_KMAX_PAIRS:
        raise ValueError(f"{sweep.count} x {len(thetas)} (R, theta) pairs exceed {MAX_KMAX_PAIRS}")
    return [(R, theta) for R in sweep.values().tolist() for theta in thetas]


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario document; a field the parsing subcommand does not read (READS) is None."""

    Ls: float
    Lp: float
    placement: PolarPlacement
    orientation: Vec3  # the resolved unit receive direction
    spacing_s: float
    spacing_p: float
    quad_points: int
    grid: tuple[int, int]
    sweep: SweepSpec
    theta_list: tuple[float, ...]
    config_id: int


def _require(doc: Mapping, key: str, path: str = "") -> object:
    if key not in doc:
        raise SchemaError(f"{path}{key}: required field is missing")
    return doc[key]


def _number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # json.loads reads integer literals of any size
        raise RangeError(f"{path}: integer beyond the float range") from None
    if not math.isfinite(x):  # json.loads accepts Infinity and NaN
        raise RangeError(f"{path}: {x} is not a finite number")
    return x


def _positive(value: object, path: str) -> float:
    x = _number(value, path)
    if not x > 0.0:
        raise RangeError(f"{path}: {x} must be > 0")
    return x


def _integer(value: object, path: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    if not lo <= value <= hi:
        raise RangeError(f"{path}: {value} outside [{lo}, {hi}]")
    return value


def _checked(path: str, check: Callable, *args: object):
    """``check(*args)``, with its ValueError raised again as a RangeError that names ``path``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise RangeError(f"{path}: {exc}") from None


def _open_fan(placement: PolarPlacement, Ls: float, near: str, far: str, reach: float = 0.0):
    """The open fan at ``placement``; names ``near`` within ``reach`` of the segment, ``far`` on its axis."""
    try:
        return require_open_fan(geometry_angles(placement.point(), Ls, reach))
    except (DegeneratePoint, DegenerateGeometry) as exc:
        name = near if isinstance(exc, DegeneratePoint) else far
        raise RangeError(f"{name}: {exc} (R={placement.R:g}, theta={placement.theta:g}, Ls={Ls:g})") from None


def _decode(text: str) -> dict:
    """The top-level JSON object of a scenario document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an over-long integer, or too deep nesting
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected a JSON object")
    return doc


def parse_scenario(text: str, command: str | None = None) -> Scenario:
    """Parse and validate the fields ``command`` reads (READS; all of them with no command).

    Raises SchemaError for structural problems (with the offending field
    path) and RangeError for out-of-range values.
    """
    return _scenario_from_dict(_decode(text), _EVERY_FIELD if command is None else READS[command])


def parse_scenarios(text: str) -> list[Scenario]:
    """Parse either a single scenario or {"scenarios": [...]} into a list of channels.

    Beyond the fields svd-spectrum reads, each spacing (the default lambda/2
    too) must divide its length, each channel has at most MAX_CHANNEL_ENTRIES
    entries, and each placement lies beyond the Lp/2 reach of its search, at
    antenna distances that los_channel can square without overflow.
    """
    doc = _decode(text)
    if "scenarios" not in doc:
        return [_channel_scenario(doc)]
    items = doc["scenarios"]
    if not isinstance(items, list) or not items:
        raise SchemaError("scenarios: expected a non-empty array")
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise SchemaError(f"scenarios[{i}]: expected an object")
        out.append(_channel_scenario(item, config_id=i, path=f"scenarios[{i}]."))
    return out


def _channel_scenario(doc: Mapping, config_id: int = 0, path: str = "") -> Scenario:
    """A scenario whose channel fits MAX_CHANNEL_ENTRIES, checked before any antenna is placed."""
    sc = _scenario_from_dict(doc, READS["svd-spectrum"], config_id, path)
    n_tx = _checked(path + "spacing_s", grid_steps, sc.Ls, sc.spacing_s) + 1
    n_rx = _checked(path + "spacing_p", grid_steps, sc.Lp, sc.spacing_p) + 1
    _checked(path + "spacing_p", check_channel_size, n_rx, n_tx)
    _open_fan(sc.placement, sc.Ls, path + "placement", path + "placement", 0.5 * sc.Lp)  # open: only reach fails
    tx = antenna_grid(ArraySegment((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), sc.Ls), sc.spacing_s)
    rx = antenna_grid(ArraySegment(sc.placement.point(), sc.orientation, sc.Lp), sc.spacing_p)
    _checked(path + "placement", los_channel, tx[[0, -1]], rx[[0, -1]])  # the farthest pair is a pair of ends
    return sc


def _sweep(sdoc: object, path: str) -> SweepSpec:
    if not isinstance(sdoc, dict):
        raise SchemaError(f"{path}sweep: expected an object")
    variable = _require(sdoc, "variable", path + "sweep.")  # the one sweep is R's; a document says so
    if variable not in ("R",):
        raise SchemaError(f'{path}sweep.variable: only "R" sweeps are supported, got {variable!r}')
    start = _positive(_require(sdoc, "start", path + "sweep."), path + "sweep.start")
    stop = _positive(_require(sdoc, "stop", path + "sweep."), path + "sweep.stop")
    if stop < start:
        raise RangeError(f"{path}sweep.stop: {stop} must be >= start {start}")
    count = _integer(sdoc.get("count", DEFAULT_KMAX_SWEEP.count), path + "sweep.count")
    return _checked(path + "sweep.count", SweepSpec, start, stop, count)


def _scenario_from_dict(doc: Mapping, reads: Collection[str], config_id: int = 0, path: str = "") -> Scenario:
    """The fields in ``reads``, each checked whether written or defaulted; every other field is None."""
    sc = {f.name: None for f in fields(Scenario)}
    for key in ("Ls", "Lp"):
        if key in reads:
            sc[key] = _positive(_require(doc, key, path), path + key)
    Ls, Lp = sc["Ls"], sc["Lp"]

    if "placement" in reads:
        pdoc = _require(doc, "placement", path)
        if not isinstance(pdoc, dict):
            raise SchemaError(f"{path}placement: expected an object")
        R = _positive(_require(pdoc, "R", path + "placement."), path + "placement.R")
        theta = _number(_require(pdoc, "theta", path + "placement."), path + "placement.theta")
        sc["placement"] = _checked(path + "placement.theta", PolarPlacement, R, theta)  # R > 0 already
        axis = "placement.theta" if theta == 0.5 * math.pi else "placement.R"  # else alpha rounds to 0
        angles = _open_fan(sc["placement"], Ls, path + "placement", path + axis)

    if "orientation" in reads:
        odoc = doc.get("orientation", "optimal")
        if odoc == "optimal":
            sc["orientation"] = optimal_orientation(angles)
        elif isinstance(odoc, dict):
            psi = _number(_require(odoc, "psi", path + "orientation."), path + "orientation.psi")
            phi = _number(_require(odoc, "phi", path + "orientation."), path + "orientation.phi")
            sc["orientation"] = _checked(path + "orientation", OrientationAngles, psi, phi).vector()
        else:
            raise SchemaError(f'{path}orientation: expected "optimal" or an object, got {odoc!r}')

    for key in ("spacing_s", "spacing_p"):
        if key in reads:  # parse_scenarios checks that it divides its length
            sc[key] = _positive(doc.get(key, DEFAULT_SPACING), path + key)
    if "quad_points" in reads:
        sc["quad_points"] = _integer(doc.get("quad_points", DEFAULT_QUAD_POINTS), f"{path}quad_points")
        _checked(f"{path}quad_points", QuadratureRule, sc["quad_points"])
    if "grid" in reads:
        gdoc = doc.get("grid", list(DEFAULT_SEARCH_GRID))
        if not isinstance(gdoc, list) or len(gdoc) != 2:
            raise SchemaError(f"{path}grid: expected [n_psi, n_phi] integers, got {gdoc!r}")
        sc["grid"] = tuple(_integer(n, f"{path}grid[{i}]", MIN_SEARCH_AXIS, MAX_GRID) for i, n in enumerate(gdoc))

    if "sweep" in reads and "theta_list" in reads:  # the (R, theta) pairs of kmax-sweep
        sweep = sc["sweep"] = _sweep(doc["sweep"], path) if "sweep" in doc else DEFAULT_KMAX_SWEEP
        tdoc = doc.get("theta_list", list(DEFAULT_KMAX_THETAS))
        if not isinstance(tdoc, list) or not tdoc:
            raise SchemaError(f"{path}theta_list: expected a non-empty array")
        thetas = sc["theta_list"] = tuple(_number(t, f"{path}theta_list[{i}]") for i, t in enumerate(tdoc))
        r_fields = (path + "sweep.start", path + "sweep.stop") if "sweep" in doc else (path + "Lp",) * 2
        tilt_only = "theta_list" in doc and "sweep" not in doc
        for j, (R, theta) in enumerate(_checked(path + "theta_list", kmax_pairs, sweep, thetas)):
            tilt = f"{path}theta_list[{j % len(thetas)}]"  # blamed at theta = pi/2 or with no sweep written
            near, far = (tilt, tilt) if theta == 0.5 * math.pi or tilt_only else r_fields
            _open_fan(_checked(tilt, PolarPlacement, R, theta), Ls, near, far, 0.5 * Lp)

    return Scenario(**dict(sc, config_id=config_id))


@dataclass
class SweepTable:
    """One (n_rows, len(columns)) float64 array with a provenance comment header.

    A list of row tuples is converted on construction.  The CSV body is RFC
    4180 (comma separated, LF endings, "." decimal); each value is written as
    "%.17g", so rereads round-trip exactly.  Each block of _EMIT_BLOCK_ROWS
    rows is one write; per column it formats only the distinct values the
    previous block lacked and reuses that block's texts for the rest.  The
    bytes equal those of formatting every value, memory holds one block's
    text, and output is byte-identical across runs but the "generated" line.
    """

    columns: list[str]
    rows: np.ndarray
    command: str
    scenario_sha256: str = ""
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, len(self.columns))

    def write_csv(self, stream: IO[str], version: str, timestamp: str | None = None) -> None:
        if timestamp is None:
            timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        stream.write(f"# nfdof {version}\n")
        stream.write(f"# command: {self.command}\n")
        stream.write(f"# scenario-sha256: {self.scenario_sha256}\n")
        stream.write(f"# generated: {timestamp}\n")
        stream.write("# units: angles in radians, lengths in wavelengths, bandwidth as omega/k0\n")
        for note in self.notes:
            stream.write(f"# {note}\n")
        stream.write(",".join(self.columns) + "\n")
        # per column, the last block's sorted distinct bit patterns and their texts; bits 0 are 0.0, "0"
        held = [(np.zeros(1, np.int64), np.array(["0"], object))] * len(self.columns)
        for start in range(0, len(self.rows), _EMIT_BLOCK_ROWS):
            fields = []
            for j, column in enumerate(self.rows[start : start + _EMIT_BLOCK_ROWS].T):
                # distinct bit patterns, so -0.0 keeps its sign; only those the last block lacked are formatted
                distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
                keys, texts = held[j]
                at = np.minimum(np.searchsorted(keys, distinct), len(keys) - 1)
                new = keys[at] != distinct
                text = texts[at]
                text[new] = ["%.17g" % v for v in distinct[new].view(np.float64).tolist()]
                held[j] = distinct, text
                fields.append(text[inverse])
            stream.write("\n".join(map(",".join, zip(*fields))) + "\n")


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

