"""Command-line front end: argument handling, dispatch and the output writers.

Subcommands: `verify` prints a PASS/FAIL line per record of `checks.run_suite`
(a library error inside a check is its FAIL line), `tile` writes a
Poincare-disk patch of the {4g,4g} tiling as SVG, `spectrum` prints the
eigenvalues of one lattice Hamiltonian, `butterfly` sweeps rational flux and
writes a phi/energy CSV.  Exit codes: 0 success, 1 verification failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import checks
from .magnetic import FluxParam
from .spectrum import BlochMomentum, BlockAnisotropic, BlockIsotropic, HamiltonianModel, ReducedHarper
from .spectrum import butterfly_sweep, model_spectrum
from .tiling import TilingParams, disk_corners, edge_states, enumerate_tiles, make_fundamental_domain, make_generators


class UsageError(Exception):
    """Bad flags, config file, or preconditions; maps to exit code 2."""


# ---------------------------------------------------------------- arguments and config

_CONFIG_KEYS = {"g", "B", "model", "m", "k", "depth", "q_max", "k_samples", "seed", "out"}


def parse_config_file(path: str) -> dict[str, str]:
    """Line-oriented key=value pairs; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _resolve(args: argparse.Namespace, config: dict[str, str], key: str, default):
    """Flag beats config beats default; config values arrive as text."""
    flag = getattr(args, key, None)
    return flag if flag is not None else config.get(key, default)


def _as_int(value, what: str) -> int:
    try:
        return int(str(value), 10)
    except ValueError as exc:
        raise UsageError(f"{what} must be an integer, got {value!r}") from exc


def _at_least(value, what: str, low: int) -> int:
    n = _as_int(value, what)
    if n < low:
        raise UsageError(f"{what} must be >= {low}, got {n}")
    return n


def parse_flux(text: str, allow_real: bool) -> Union[Fraction, float]:
    """`p/q` is exact; a bare real is admitted only where rationality is not needed."""
    text = str(text).strip()
    if "/" in text:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational flux {text!r}: {exc}") from exc
        try:
            float(value)
        except OverflowError as exc:
            raise UsageError(f"flux must be finite as a float, got {text!r}") from exc
        return value
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"bad flux {text!r}") from exc
    if not math.isfinite(value):
        raise UsageError(f"flux must be finite, got {text!r}")
    if not allow_real:
        raise UsageError(f"this command needs an exact rational flux like 1/6, got {text!r}")
    return value


def parse_model(name: str, m) -> HamiltonianModel:
    name = str(name).strip()
    if name == "reduced":
        return ReducedHarper(0 if m is None else _as_int(m, "sector index"))
    if m is not None:
        raise UsageError(f"--m selects a rotation sector of the reduced model, not {name!r}")
    if name == "block-aniso":
        return BlockAnisotropic()
    if name == "block-iso":
        return BlockIsotropic()
    raise UsageError(f"unknown model {name!r}; choose reduced, block-aniso, or block-iso")


def parse_momentum(text: str) -> BlochMomentum:
    parts = str(text).split(",")
    if len(parts) != 4:
        raise UsageError(f"momentum needs four comma-separated reals, got {text!r}")
    try:
        k1, k2, k3, k4 = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad momentum {text!r}") from exc
    return BlochMomentum(k1, k2, k3, k4)


def _tolerances(overrides: Optional[Sequence[str]]) -> dict[str, float]:
    tols = dict(checks.TOLERANCES)
    for item in overrides or ():
        if "=" not in item:
            raise UsageError(f"tolerance override needs name=value, got {item!r}")
        name, value = (part.strip() for part in item.split("=", 1))
        if name not in tols:
            raise UsageError(f"unknown tolerance {name!r}; known: {', '.join(sorted(tols))}")
        try:
            tols[name] = float(value)
        except ValueError as exc:
            raise UsageError(f"bad tolerance value {value!r}") from exc
    return tols


# ---------------------------------------------------------------- commands and their writers


def cmd_verify(args: argparse.Namespace, config: dict[str, str]) -> int:
    genus = _at_least(_resolve(args, config, "g", 2), "genus", 2)
    flux = parse_flux(_resolve(args, config, "B", "1/4"), allow_real=True)
    seed = _at_least(_resolve(args, config, "seed", 0), "seed", 0)
    tols = _tolerances(getattr(args, "tol", None))

    failed = False
    for record in checks.run_suite(genus, flux, seed, tols):
        note = f"  {record.note}" if record.note else ""
        verdict = "PASS" if record.passed else "FAIL"
        print(f"{verdict} {record.name:<24s} defect {record.defect:.3e}  tol {record.tol:g}{note}")
        failed = failed or not record.passed
    return 1 if failed else 0


_SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'viewBox="-1.05 -1.05 2.1 2.1" width="720" height="720">\n'
    '<circle cx="0" cy="0" r="1" fill="none" stroke="#999999" stroke-width="0.004"/>\n'
)
# pieces of a path's `%` format: the M command; the segment of edge state 0, 1, 2
# (straight, arc with sweep flag 0, arc with sweep flag 1); the tail
_PATH_PIECES = np.array(
    [
        '<path d="M %.6f %.6f',
        " L %.6f %.6f",
        " A %.6f %.6f 0 0 0 %.6f %.6f",
        " A %.6f %.6f 0 0 1 %.6f %.6f",
        ' Z" fill="none" stroke="#1f3a5f" stroke-width="0.0025"/>\n',
    ],
    dtype=object,
)
_SVG_BLOCK = 1024  # tiles per block of corner arrays and formatted paths


def _svg_paths(u: np.ndarray, v: np.ndarray, edges) -> str:
    """One `<path>` line per tile for corners (u, v) shaped (tiles, vertices).

    The block's format string is the `_PATH_PIECES` of each tile's start,
    edge states and tail, joined; the whole block is then a single `%`
    operation.
    """
    state, radius = edge_states(u, v, edges)
    n, k = state.shape
    start, ends = edges[0][0], [j for _, j in edges]
    # four slots per tile and edge, (radius, radius, u, v), after a first
    # (-, -, u, v) for the M command; a straight edge drops its radii
    fields = np.empty((n, k + 1, 4))
    fields[:, 0, 2], fields[:, 0, 3] = u[:, start], v[:, start]
    fields[:, 1:] = np.stack([radius, radius, u[:, ends], v[:, ends]], axis=2)
    keep = np.ones(fields.shape, dtype=bool)
    keep[:, 0, :2] = False
    keep[:, 1:, :2] = (state > 0)[:, :, None]
    pieces = np.empty((n, k + 2), dtype=np.uint8)
    pieces[:, 0], pieces[:, 1:-1], pieces[:, -1] = 0, state + 1, 4
    return "".join(_PATH_PIECES[pieces].ravel().tolist()) % tuple(fields[keep].tolist())


def render_tiling_svg(params: TilingParams, depth: int, out: str) -> int:
    """Write the Poincare-disk SVG of the tiles up to `depth` to `out`; return the tile count.

    Every refusal (the enumeration guard, degenerate corner geometry) comes
    before `out` is opened; the paths are then formatted and written a block
    of `_SVG_BLOCK` tiles at a time.
    """
    dom = make_fundamental_domain(params)
    tiles = enumerate_tiles(make_generators(params), depth)
    # corners block by block, so the array temporaries stay block-sized
    blocks = [disk_corners(tiles[lo : lo + _SVG_BLOCK], dom) for lo in range(0, len(tiles), _SVG_BLOCK)]
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_SVG_HEAD)
        for u, v in blocks:
            fh.write(_svg_paths(u, v, dom.edges))
        fh.write("</svg>\n")
    return len(tiles)


def cmd_tile(args: argparse.Namespace, config: dict[str, str]) -> int:
    genus = _at_least(_resolve(args, config, "g", 2), "genus", 2)
    depth = _at_least(_resolve(args, config, "depth", 2), "depth", 0)
    out = str(_resolve(args, config, "out", "tiling.svg"))
    try:
        tiles = render_tiling_svg(TilingParams(genus), depth, out)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc
    print(f"wrote {out}: {tiles} tiles (genus {genus}, depth {depth})")
    return 0


def cmd_spectrum(args: argparse.Namespace, config: dict[str, str]) -> int:
    flux = parse_flux(_resolve(args, config, "B", "1/6"), allow_real=False)
    model = parse_model(_resolve(args, config, "model", "reduced"), _resolve(args, config, "m", None))
    k = parse_momentum(_resolve(args, config, "k", "0,0,0,0"))
    pair = FluxParam.from_field(flux)
    for value in model_spectrum(model, pair.p, pair.q, k):
        print(f"{value:.12g}")
    return 0


def cmd_butterfly(args: argparse.Namespace, config: dict[str, str]) -> int:
    model = parse_model(_resolve(args, config, "model", "reduced"), _resolve(args, config, "m", None))
    q_max = _as_int(_resolve(args, config, "q_max", 8), "q_max")
    k_samples = _as_int(_resolve(args, config, "k_samples", 4), "k_samples")
    seed = _as_int(_resolve(args, config, "seed", 0), "seed")
    out = str(_resolve(args, config, "out", "butterfly.csv"))

    start = time.perf_counter()
    sweep = butterfly_sweep(model, q_max, k_samples, seed)
    samples = rows = 0
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("phi,energy\n")
            # phi ascends from flux to flux, so a stable sort within each flux
            # writes the rows in (phi, energy) order
            for phi, spectra in sweep:
                energies = np.sort(spectra, axis=None, kind="stable").tolist()
                prefix = f"{phi:.10g},".replace("%", "%%")
                fh.write((prefix + "%.12g\n") * len(energies) % tuple(energies))
                samples += len(spectra)
                rows += len(energies)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc
    elapsed = time.perf_counter() - start
    print(f"wrote {out}: {samples} samples, {rows} rows, {elapsed:.2f} s")
    return 0


# ---------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperband",
        description="Hyperbolic band theory on {4g,4g} tilings under a uniform magnetic field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the numerical identity suite")
    verify.add_argument("--g", type=int, help="genus (default 2)")
    verify.add_argument("--B", help="magnetic field, rational like 1/4 or a bare real")
    verify.add_argument("--seed", type=int, help="seed for random sample points (default 0)")
    verify.add_argument("--tol", action="append", metavar="NAME=VALUE", help="override one check tolerance")

    tile = sub.add_parser("tile", help="render a Poincare-disk tiling patch to SVG")
    tile.add_argument("--g", type=int, help="genus (default 2)")
    tile.add_argument("--depth", type=int, help="word length of tile orbit (default 2)")
    tile.add_argument("--out", help="output SVG path (default tiling.svg)")

    spectrum = sub.add_parser("spectrum", help="print eigenvalues of one lattice Hamiltonian")
    spectrum.add_argument("--B", help="rational magnetic field p/(2q), e.g. 1/6")
    spectrum.add_argument("--model", help="reduced | block-aniso | block-iso (default reduced)")
    spectrum.add_argument("--m", type=int, help="rotation sector for the reduced model (default 0)")
    spectrum.add_argument("--k", help="Bloch momentum as four comma-separated reals (default 0,0,0,0)")

    butterfly = sub.add_parser("butterfly", help="sweep rational flux and write phi,energy CSV")
    butterfly.add_argument("--model", help="reduced | block-aniso | block-iso (default reduced)")
    butterfly.add_argument("--m", type=int, help="rotation sector for the reduced model (default 0)")
    butterfly.add_argument("--q-max", dest="q_max", type=int, help="largest flux denominator (default 8)")
    butterfly.add_argument("--k-samples", dest="k_samples", type=int, help="momenta per flux (default 4)")
    butterfly.add_argument("--seed", type=int, help="momentum sequence offset (default 0)")
    butterfly.add_argument("--out", help="output CSV path (default butterfly.csv)")

    for command in (verify, tile, spectrum, butterfly):
        command.add_argument("--config", help="key=value config file; flags override")
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "tile": cmd_tile,
    "spectrum": cmd_spectrum,
    "butterfly": cmd_butterfly,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = parse_config_file(args.config) if getattr(args, "config", None) else {}
        return _COMMANDS[args.command](args, config)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
