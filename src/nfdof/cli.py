"""Command-line front end: parameter sweeps to CSV plus the validation harness.

Subcommands
-----------
localbw-sweep   bandwidth over receive orientations (psi, phi') at one placement
maxbw-map       orientation-maximized bandwidth over a yOz window
kmax-sweep      analytic (AK) and searched (EK) maximum K numbers over (R, theta)
svd-spectrum    channel singular spectra and EDoF estimates per scenario
validate        oracle-equivalence self checks

Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .bandwidth import omega_grid
from .channel import (
    DEFAULT_TAU,
    antenna_grid,
    edof_quadratic,
    edof_threshold,
    los_channel,
    singular_spectrum,
    threshold_tau,
)
from .errors import integer_in, positive
from .geometry import ArraySegment, K0, PolarPlacement, SEGMENT_TOL, geometry_angles
from .knumber import k_number_center, k_number_max, maximize_k
from .scenario import (
    Scenario,
    SweepTable,
    kmax_pairs,
    parse_scenario,
    parse_scenarios,
    sha256_of,
)
from .validation import MAX_CASES, run_validation

DEFAULT_ORIENTATION_POINTS = 181
DEFAULT_MAP_EXTENT = 300.0
DEFAULT_MAP_POINTS = 601
MAX_AXIS_POINTS = 2001  # a 2001 x 2001 map: 4 million rows, a 213 MB CSV, a 122 MiB traced build peak
_AXIS_POINTS = "points per axis"  # what integer_in names the axis of both maps and of --grid


def _map_extent(extent: float) -> float:
    """A positive map half-width whose window width 2 * extent is finite, as np.linspace needs."""
    if not math.isfinite(2.0 * positive(extent, "extent")):
        raise ValueError(f"extent must give a finite window width 2 * extent, got {extent!r}")
    return extent


def _tensor_rows(a: Sequence[float], b: Sequence[float], *values: object) -> np.ndarray:
    """Rows (a[i], b[j], v[i, j] for v in values), a the outer axis, filled in one table allocation."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rows = np.empty((a.size * b.size, 2 + len(values)))
    cells = rows.reshape(a.size, b.size, -1)  # a view: each column broadcast in place
    cells[:, :, 0], cells[:, :, 1] = a[:, None], b
    for k, v in enumerate(values, 2):
        cells[:, :, k] = np.reshape(v, (a.size, b.size))
    return rows


def cmd_localbw_sweep(scenario: Scenario, n_points: int = DEFAULT_ORIENTATION_POINTS) -> SweepTable:
    """Sweep (psi, phi') over [0, pi]^2 at the scenario placement."""
    n_points = integer_in(n_points, 2, MAX_AXIS_POINTS, _AXIS_POINTS)
    alpha, _ = geometry_angles(scenario.placement.point(), scenario.Ls)
    psis = np.linspace(0.0, math.pi, n_points)
    phis = np.linspace(0.0, math.pi, n_points)
    omega = omega_grid(psis, phis, alpha) / K0
    return SweepTable(
        columns=["psi", "phi_prime", "omega_over_k0"],
        rows=_tensor_rows(psis, phis, omega),
        command="localbw-sweep",
        notes=[
            "psi: receive polar angle from +x; phi_prime: azimuth from the fan bisector",
            f"placement R={scenario.placement.R:.17g} theta={scenario.placement.theta:.17g}"
            f" Ls={scenario.Ls:.17g} (alpha={alpha:.17g})",
        ],
    )


def cmd_maxbw_map(
    scenario: Scenario,
    extent: float = DEFAULT_MAP_EXTENT,
    n_points: int = DEFAULT_MAP_POINTS,
) -> SweepTable:
    """Orientation-maximized bandwidth over the yOz window [-extent, extent]^2.

    Points inside the degeneracy band around the transmit segment emit the
    limiting value 2.0 (the fan opens to a half turn on the segment).
    """
    _map_extent(extent)
    n_points = integer_in(n_points, 2, MAX_AXIS_POINTS, _AXIS_POINTS)
    half = 0.5 * positive(scenario.Ls, "Ls")
    ys = np.linspace(-extent, extent, n_points)
    zs = np.linspace(-extent, extent, n_points)
    yg = np.abs(ys)[:, None]
    zg = np.abs(zs)[None, :]
    value = np.arctan2(zg + half, yg)  # alpha, then 2 sin(alpha / 2), in place on one grid
    value -= np.arctan2(zg - half, yg)
    value *= 0.5
    np.sin(value, out=value)
    value *= 2.0
    np.copyto(value, 2.0, where=(yg <= SEGMENT_TOL) & (zg <= half + SEGMENT_TOL))
    return SweepTable(
        columns=["y", "z", "omega_max_over_k0"],
        rows=_tensor_rows(ys, zs, value),
        command="maxbw-map",
        notes=[
            f"transmit segment length Ls={scenario.Ls:.17g} on the z axis",
            "points within the segment band carry the limiting value 2.0",
        ],
    )


def cmd_kmax_sweep(scenario: Scenario) -> SweepTable:
    """AK (closed form) and EK (orientation search) over an (R, theta) sweep.

    AK comes first for every pair, so a pair without a K number exits before
    any search.
    """
    placements = [PolarPlacement(R, theta) for R, theta in kmax_pairs(scenario.sweep, scenario.theta_list)]
    ak = [k_number_max(p, scenario.Lp, scenario.Ls).value for p in placements]
    search = dict(grid=scenario.grid, quad_points=scenario.quad_points)
    ek = [maximize_k(p, scenario.Lp, scenario.Ls, **search).best_k.value for p in placements]
    return SweepTable(
        columns=["R", "theta", "AK", "EK"],
        rows=_tensor_rows(scenario.sweep.values(), scenario.theta_list, ak, ek),
        command="kmax-sweep",
        notes=[
            f"Ls={scenario.Ls:.17g} Lp={scenario.Lp:.17g}",
            "AK: center approximation at the optimal orientation; EK: grid search maximum",
        ],
    )


def cmd_svd_spectrum(scenarios: Sequence[Scenario], tau: float = DEFAULT_TAU) -> SweepTable:
    """Normalized singular spectrum plus K/EDoF summaries for each scenario.

    The channel is built at the scenario's (resolved) orientation; EK is the
    orientation-search maximum, AK the center approximation at the scenario
    orientation, both orientation-search independent of antenna spacing.
    """
    blocks = []
    for sc in scenarios:
        receiver = ArraySegment(sc.placement.point(), sc.orientation, sc.Lp)
        tx = antenna_grid(ArraySegment((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), sc.Ls), sc.spacing_s)
        rx = antenna_grid(receiver, sc.spacing_p)
        H = los_channel(tx, rx)
        spectrum = singular_spectrum(H)
        ak = k_number_center(receiver, sc.Ls).value
        ek = maximize_k(
            sc.placement, sc.Lp, sc.Ls, grid=sc.grid, quad_points=sc.quad_points
        ).best_k.value
        n_dof = edof_threshold(spectrum, tau)
        q_dof = edof_quadratic(spectrum)
        sigma = spectrum.normalized
        n = np.arange(1, sigma.size + 1)
        blocks.append(np.column_stack(np.broadcast_arrays(sc.config_id, n, sigma, ak, ek, n_dof, q_dof)))
    return SweepTable(
        columns=[
            "config_id",
            "n",
            "sigma_normalized",
            "AK",
            "EK",
            "edof_threshold",
            "edof_quadratic",
        ],
        rows=np.vstack(blocks),
        command="svd-spectrum",
        notes=[f"edof_threshold at tau={tau:.17g} on normalized singular values"],
    )


def _option(
    convert: Callable[[str], object], check: Callable[..., object], *args: object
) -> Callable[[str], object]:
    """argparse type that returns ``check(convert(text), *args)``; a bad value exits 2 naming the option."""

    def parse(text: str) -> object:
        try:
            return check(convert(text), *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfdof",
        description="Spatial bandwidth, K numbers and LoS channel spectra for linear arrays.",
    )
    parser.add_argument("--version", action="version", version=f"nfdof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    axis_points = _option(int, integer_in, 2, MAX_AXIS_POINTS, _AXIS_POINTS)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output CSV file (default: stdout)")

    p = sub.add_parser("localbw-sweep", help="bandwidth over receive orientations")
    add_common(p)
    p.add_argument("--grid", type=axis_points, default=DEFAULT_ORIENTATION_POINTS,
                   help="points per orientation axis (default %(default)s)")

    p = sub.add_parser("maxbw-map", help="maximum bandwidth over a yOz window")
    add_common(p)
    p.add_argument("--grid", type=axis_points, default=DEFAULT_MAP_POINTS,
                   help="points per map axis (default %(default)s)")
    p.add_argument("--extent", type=_option(float, _map_extent), default=DEFAULT_MAP_EXTENT,
                   help="half-width of the map window in wavelengths, 2 * extent finite (default %(default)s)")

    p = sub.add_parser("kmax-sweep", help="AK and EK over an (R, theta) sweep")
    add_common(p)

    p = sub.add_parser("svd-spectrum", help="singular spectra and EDoF per scenario")
    add_common(p)
    p.add_argument("--tau", type=_option(float, threshold_tau), default=DEFAULT_TAU,
                   help="EDoF threshold on normalized singular values (default %(default)s)")

    p = sub.add_parser("validate", help="run oracle-equivalence self checks")
    p.add_argument("--seed", type=_option(int, integer_in, 0, math.inf, "seed"), default=0,
                   help="RNG seed (default %(default)s)")
    p.add_argument("--cases", type=_option(int, integer_in, 1, MAX_CASES, "case count"), default=200,
                   help="random cases for the oracle comparison (default %(default)s)")

    return parser


def _emit(table: SweepTable, out: str | None, config_text: str) -> None:
    table.scenario_sha256 = sha256_of(config_text)
    if out is None:
        table.write_csv(sys.stdout, version=__version__)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            table.write_csv(fh, version=__version__)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "validate":
        report = run_validation(args.seed, args.cases)
        for result in report.results:
            print(result.line())
        return 0 if report.passed else 1

    try:
        with open(args.config, encoding="utf-8") as fh:
            config_text = fh.read()
        if args.command == "svd-spectrum":
            table = cmd_svd_spectrum(parse_scenarios(config_text), tau=args.tau)
        else:
            scenario = parse_scenario(config_text, args.command)
            if args.command == "localbw-sweep":
                table = cmd_localbw_sweep(scenario, n_points=args.grid)
            elif args.command == "maxbw-map":
                table = cmd_maxbw_map(scenario, extent=args.extent, n_points=args.grid)
            else:
                table = cmd_kmax_sweep(scenario)
        _emit(table, args.out, config_text)
    except (OSError, ValueError) as exc:
        print(f"nfdof: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
