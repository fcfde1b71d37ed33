"""Command-line front end: argument handling, dispatch and the output writers.

Subcommands: `verify` prints a PASS/FAIL line per record of `checks.run_suite`
(a library error inside a check is its FAIL line), `tile` writes a
Poincare-disk patch of the {4g,4g} tiling as SVG, `spectrum` prints the
eigenvalues of one lattice Hamiltonian, `butterfly` sweeps rational flux and
writes a phi/energy CSV.  Every option is declared once, in `build_parser`,
with its default; a `--config` file's values become the subcommand's
defaults, so argparse converts and reports them as it does the flags they
name.  `main` alone turns exceptions into exit codes: 0 success,
1 verification failure, 2 usage or configuration error (a ValueError, from
the parsers here or the library alike) or an output that cannot be written
(`--out` or stdout), 141 (128 + SIGPIPE) when the reader closes stdout or
`--out` before all output is written (`| head -1`): no traceback, and the
rest of the output is dropped.

Both file writers build their text as rows of 8-byte words looked up in digit
tables instead of formatting each number with `%`, and turn each block of rows
into the file's bytes with one `bytes.translate`; the file is opened in binary
mode, so no block is decoded and encoded again.  Both take their digits from
one core, `_decimal` (n = rint(|x| 10^D), marked where provably exact, as its
integer part and 3-digit fraction groups), and their words from one set of
tables, `_INT_WORDS` and `_fraction_tables`.  An SVG path's `%.6f` numbers
come from `_number_words`, each corner coordinate and arc radius once per
tile, in blocks of `_SVG_BLOCK_CORNERS` corners, and each path row's words
are written in file order.  A CSV row is its flux's `%.10g,` prefix,
formatted once per flux, and its energy's `%.12g` from `_energy_words`
(integer part, '.', 15 fraction digits with the trailing zeros dropped), in
blocks of about `_CSV_BLOCK_ROWS` rows.  Rounding ties and the few values
these layouts do not hold go through `%`, one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import checks
from .magnetic import FluxParam
from .spectrum import BlochMomentum, BlockAnisotropic, BlockIsotropic, HamiltonianModel, ReducedHarper
from .spectrum import butterfly_sweep, model_spectrum
from .tiling import TilingParams, check_tiling_size, disk_corners, edge_states, enumerate_tiles
from .tiling import make_fundamental_domain, make_generators


# ---------------------------------------------------------------- arguments and config

_CONFIG_KEYS = {"g", "B", "model", "m", "k", "depth", "q_max", "k_samples", "seed", "out"}


def parse_config_file(path: str) -> dict[str, str]:
    """Line-oriented key=value pairs; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _at_least(n: int, what: str, low: int) -> int:
    if n < low:
        raise ValueError(f"{what} must be >= {low}, got {n}")
    return n


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _output_path(text: str) -> str:
    """An `--out` value: a file name, which an empty path is not."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file name, got an empty path")
    return text


def parse_flux(text: str, allow_real: bool) -> Union[Fraction, float]:
    """`p/q` and an integer are exact; any other real is admitted only where rationality is not needed."""
    text = text.strip()
    if "/" in text or _INTEGER.fullmatch(text):
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational flux {text!r}: {exc}") from exc
        try:
            float(value)
        except OverflowError as exc:
            raise ValueError(f"flux must be finite as a float, got {text!r}") from exc
        return value
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"bad flux {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"flux must be finite, got {text!r}")
    if not allow_real:
        raise ValueError(f"this command needs an exact rational flux like 1/6, got {text!r}")
    return value


def parse_model(name: str, m: Optional[int]) -> HamiltonianModel:
    name = name.strip()
    if name == "reduced":
        return ReducedHarper(0 if m is None else m)
    if m is not None:
        raise ValueError(f"--m selects a rotation sector of the reduced model, not {name!r}")
    if name == "block-aniso":
        return BlockAnisotropic()
    if name == "block-iso":
        return BlockIsotropic()
    raise ValueError(f"unknown model {name!r}; choose reduced, block-aniso, or block-iso")


def parse_momentum(text: str) -> BlochMomentum:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"momentum needs four comma-separated reals, got {text!r}")
    try:
        k1, k2, k3, k4 = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad momentum {text!r}") from exc
    return BlochMomentum(k1, k2, k3, k4)


def _tolerances(overrides: Optional[Sequence[str]]) -> dict[str, float]:
    tols = dict(checks.TOLERANCES)
    for item in overrides or ():
        if "=" not in item:
            raise ValueError(f"tolerance override needs name=value, got {item!r}")
        name, value = (part.strip() for part in item.split("=", 1))
        if name not in tols:
            raise ValueError(f"unknown tolerance {name!r}; known: {', '.join(sorted(tols))}")
        try:
            tol = float(value)
        except ValueError as exc:
            raise ValueError(f"bad tolerance value {value!r}") from exc
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tolerance {name} must be a finite positive number, got {value!r}")
        tols[name] = tol
    return tols


# ---------------------------------------------------------------- commands and their writers


def cmd_verify(args: argparse.Namespace) -> int:
    genus = _at_least(args.g, "genus", 2)
    flux = parse_flux(args.B, allow_real=True)
    seed = _at_least(args.seed, "seed", 0)
    tols = _tolerances(args.tol)

    failed = False
    for record in checks.run_suite(genus, flux, seed, tols):
        note = f"  {record.note}" if record.note else ""
        verdict = "PASS" if record.passed else "FAIL"
        print(f"{verdict} {record.name:<24s} defect {record.defect:.3e}  tol {record.tol:g}{note}")
        failed = failed or not record.passed
    return 1 if failed else 0


_SVG_HEAD = (
    b'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    b'viewBox="-1.05 -1.05 2.1 2.1" width="720" height="720">\n'
    b'<circle cx="0" cy="0" r="1" fill="none" stroke="#999999" stroke-width="0.004"/>\n'
)
# tile corners per block of corner arrays and path rows (256 octagons): a
# block's temporaries grow with its corners.  On Linux with glibc, a cold
# `tile --g 2 --depth 5` takes about 0.7k minor page faults at 256 octagons
# a block, 0.8k at 448 and 13k at 512, where each block's freed
# temporaries go back to the system and are faulted in again; smaller
# blocks cost more numpy calls than they save
_SVG_BLOCK_CORNERS = 2048

# Path text is built as little-endian uint64 words of up to eight ASCII bytes,
# padded with NUL bytes that `bytes.translate` deletes.  A number is two
# words: its integer part with the sign, right-aligned, and its fraction.  The
# first byte of the integer word stays empty and holds the space before the
# number.


def _words(text: str) -> np.ndarray:
    """`text` as NUL-padded little-endian uint64 words."""
    data = text.encode("ascii")
    return np.frombuffer(data.ljust(-(-len(data) // 8) * 8, b"\0"), dtype="<u8")


def _digit_words(first_byte: int) -> np.ndarray:
    """Words of 0..999, three digits with leading zeros, from byte `first_byte` on."""
    digits = np.indices((10, 10, 10), dtype=np.uint64).reshape(3, -1) + np.uint64(ord("0"))
    shifts = np.arange(8 * first_byte, 8 * first_byte + 24, 8, dtype=np.uint64)
    return np.bitwise_or.reduce(digits << shifts[:, None], axis=0)


def _integer_words() -> np.ndarray:
    """Words of the integer parts 0..9999, right-aligned; entry 10^4 + i is -i."""
    thousands = (np.arange(10, dtype=np.uint64) + np.uint64(ord("0"))) << np.uint64(32)
    digits = (thousands[:, None] | _digit_words(5)).ravel()
    width = np.repeat(np.arange(1, 5, dtype=np.uint64), [10, 90, 900, 9000])
    digits &= np.uint64(2**64 - 1) << np.uint64(8) * (np.uint64(8) - width)  # no leading zeros
    return np.concatenate([digits, digits | np.uint64(ord("-")) << np.uint64(8) * (np.uint64(7) - width)])


_INT_WORDS = _integer_words()


def _decimal(x: np.ndarray, places, groups: int, low: float, high: float, keep=True) -> tuple[list, np.ndarray]:
    """n = rint(|x| 10^D) for D = `places`, split into intp parts, and where n is exact.

    The parts are n's integer part and `groups` 3-digit groups of its D
    decimals, padded with zeros.  An entry is marked where `keep` holds, n
    lies in [`low`, `high`) and n is |x| 10^D correctly rounded, which
    |y - n| < 1/2 proves for the float product y = |x| 10^D: y is the
    exact product correctly rounded, since 10^D (D <= 17) is a float.
    Rounding is monotone and n +- 1/2 are floats (n < `high` <= 2^52), so
    the exact product reaching n + 1/2 would round to y >= n + 1/2, and
    likewise below: |y - n| < 1/2 puts the exact product strictly within
    1/2 of n, which is then the correctly rounded value.  Entries with
    |y - n| = 1/2 (among them the exact ties, which `%` rounds half to
    even) and non-finite ones are never marked.  An unmarked entry splits
    as n = 0; a marked one needs D <= 3 `groups` and n < 10^15, so each
    floor of a quotient is exact.
    """
    scale = _POWERS[places]
    y = np.abs(x) * scale
    n = np.rint(y)
    with np.errstate(invalid="ignore"):  # inf - inf
        y -= n  # in place: a block's temporaries set the writers' peak memory
    exact = (np.abs(y, out=y) < 0.5) & (n >= low) & (n < high) & keep
    n[~exact] = 0.0
    whole = np.floor(n / scale)
    n -= whole * scale
    n *= _POWERS[3 * groups - places]  # the decimals, padded
    parts = [whole.astype(np.intp)]
    for k in range(groups - 1, 0, -1):
        part = np.floor(n / _POWERS[3 * k])
        n -= part * _POWERS[3 * k]
        parts.append(part.astype(np.intp))
    return [*parts, n.astype(np.intp)], exact


# the words of a path row besides its numbers (see `_svg_paths`): an edge's
# arc word and sweep word by edge state 0, 1, 2 (straight, arc with sweep
# flag 0 or 1), and the row's head and tail
_ARC_WORDS = np.concatenate([np.zeros(1, dtype=np.uint64), _words(" A"), _words(" A")])
_SWEEP_WORDS = np.concatenate([_words(" L"), _words(" 0 0 0"), _words(" 0 0 1")])
_ROW_HEAD = _words('<path d="M')
_ROW_TAIL = _words(' Z" fill="none" stroke="#1f3a5f" stroke-width="0.0025"/>\n')
_SPACE = np.uint64(ord(" "))


def _number_words(x: np.ndarray, out: np.ndarray) -> int:
    """Write `'%.6f' % value` of every entry of `x` as two words into `out` (shape x.shape + (2,)).

    The integer part of n = rint(|x| 10^6) (`_decimal`) comes from the
    `_INT_WORDS` half with the '-' when the sign bit is set (so -0.0 and
    negatives that round to zero print -0.000000, as `%` does), its six
    decimals from the first two `_fraction_tables`.  Entries that `_decimal`
    leaves unmarked, integer parts of 10^4 or more among them, are formatted
    by `%` one at a time, right-aligned in the two words; the count of them
    is returned.  A `%` text longer than 15 characters is a ValueError, so
    the first byte stays empty for the space before the number (a table
    number, at most 12 characters, leaves three).  Tile corners lie in the
    unit disk and arc radii are at most `_ARC_RADIUS_LIMIT`, so `_svg_paths`
    never meets one.
    """
    (whole, high, low), exact = _decimal(x, 6, 2, 0.0, 1e10)
    t1, t2 = _fraction_tables()[:2]
    out[..., 0] = _INT_WORDS[whole + 10**4 * np.signbit(x)]
    out[..., 1] = t1[high] | t2[low]
    at = np.nonzero(~exact)
    for index, value in zip(zip(*at), x[at].tolist()):
        text = ("%.6f" % value).encode("ascii")
        if len(text) > 15:
            raise ValueError(f"cannot write {text.decode()} into a path: wider than 15 characters")
        out[index] = np.frombuffer(text.rjust(16, b"\0"), dtype="<u8")
    return len(at[0])


def _svg_paths(u: np.ndarray, v: np.ndarray, edges) -> bytes:
    """One `<path>` line per tile for corners (u, v) shaped (tiles, vertices), as ASCII bytes.

    Each corner's u and v and each edge's radius are formatted once, in one
    `_number_words` call; the space before each number goes into its first
    byte, which is empty, and a straight edge's radius words are zeroed.  A
    tile's row of words is then written in file order: `_ROW_HEAD`, the
    start corner, and per edge its `_ARC_WORDS` entry, the radius twice, its
    `_SWEEP_WORDS` entry and its end corner, then `_ROW_TAIL`.  The whole
    block becomes bytes in one `translate` that deletes the NUL bytes.
    """
    state, radius = edge_states(u, v, edges)
    (n, m), k = u.shape, state.shape[1]
    values = np.empty((n, 2 * m + k))
    values[:, 0 : 2 * m : 2], values[:, 1 : 2 * m : 2] = u, v  # a corner's u and v side by side
    # a straight edge's radius may be huge; 0.0 stands in for it, and its words are zeroed below
    values[:, 2 * m :] = np.where(state > 0, radius, 0.0)
    words = np.empty(values.shape + (2,), dtype="<u8")
    _number_words(values, words)
    words[..., 0] |= _SPACE
    corners, radii = words[:, : 2 * m].reshape(n, m, 4), words[:, 2 * m :]
    radii[state == 0] = 0
    head, tail = len(_ROW_HEAD), len(_ROW_TAIL)
    table = np.empty((n, head + 4 + 10 * k + tail), dtype="<u8")
    table[:, :head] = _ROW_HEAD
    table[:, head : head + 4] = corners[:, edges[0][0]]
    groups = table[:, head + 4 : -tail].reshape(n, k, 10)  # a view: one group of words per edge
    groups[..., 0] = _ARC_WORDS[state]
    groups[..., 1:3] = groups[..., 3:5] = radii
    groups[..., 5] = _SWEEP_WORDS[state]
    groups[..., 6:] = corners[:, [j for _, j in edges]]
    table[:, -tail:] = _ROW_TAIL
    return table.tobytes().translate(None, b"\0")


@contextlib.contextmanager
def _created(path: str):
    """`path` opened for writing bytes.

    An OSError while it is open names `path`, so `main` tells it from stdout.
    """
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        exc.filename = exc.filename or path
        raise


def render_tiling_svg(params: TilingParams, depth: int, out: str) -> int:
    """Write the Poincare-disk SVG of the tiles up to `depth` to `out`; return the tile count.

    The refusals a run can reach come before `out` is opened: the
    enumeration guard refuses from genus and depth alone, before the
    generators and the fundamental domain are built.  No corner of an
    enumerated tile is refused (`disk_corners`), so the corners are computed,
    formatted and written as bytes once, a block of `_SVG_BLOCK_CORNERS`
    corners at a time, and no corner array outlives its block.
    """
    check_tiling_size(params.genus, depth)
    dom = make_fundamental_domain(params)
    tiles = enumerate_tiles(make_generators(params), depth)
    step = max(1, _SVG_BLOCK_CORNERS // len(dom.vertices))
    with _created(out) as fh:
        fh.write(_SVG_HEAD)
        for lo in range(0, len(tiles), step):
            fh.write(_svg_paths(*disk_corners(tiles[lo : lo + step], dom), dom.edges))
        fh.write(b"</svg>\n")
    return len(tiles)


def cmd_tile(args: argparse.Namespace) -> int:
    tiles = render_tiling_svg(TilingParams(args.g), args.depth, args.out)
    print(f"wrote {args.out}: {tiles} tiles (genus {args.g}, depth {args.depth})")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    flux = parse_flux(args.B, allow_real=False)
    model = parse_model(args.model, args.m)
    k = parse_momentum(args.k)
    pair = FluxParam.from_field(flux)
    for value in model_spectrum(model, pair.p, pair.q, k):
        print(f"{value:.12g}")
    return 0


# CSV rows per block: enough fluxes to make about this many rows.  Each
# block is formatted and written at once, so its temporaries stay small; one
# block for a whole sweep is slower than many
_CSV_BLOCK_ROWS = 2048

# An energy is four words: its integer part with the sign (an `_INT_WORDS`
# entry), then '.' and 15 fraction digits in five 3-digit groups, with the
# newline in the last word: '.' g1 g2 | g3 g4 | g5 '\n'.
_DECADES = np.array([10.0**j for j in range(-4, 5)])
_POWERS = np.array([float(10**k) for k in range(18)])  # 10^k, exact


@functools.cache
def _fraction_tables() -> tuple[np.ndarray, ...]:
    """The word tables of the five fraction groups, built on first use.

    Entry d (0..999) of a group's table is d in three digits; entry 1000 + d
    is its stripped twin, without trailing '0' bytes and, in the first
    group, without the '.' when no digit is left.  The last group is always
    stripped, so its table is the stripped half only, with the newline.
    """
    d = np.arange(1000)
    shown = 3 - (d % 10 == 0) - (d % 100 == 0) - (d == 0)  # digits left after stripping

    def twins(words: np.ndarray, first_byte: int) -> np.ndarray:
        end = np.where(shown > 0, first_byte + shown, 0).astype(np.uint64)
        return np.concatenate([words, words & ((np.uint64(1) << np.uint64(8) * end) - np.uint64(1))])

    return (
        twins(_digit_words(1) | np.uint64(ord(".")), 1),
        twins(_digit_words(4), 4),
        twins(_digit_words(0), 0),
        twins(_digit_words(3), 3),
        twins(_digit_words(0), 0)[1000:] | np.uint64(ord("\n")) << np.uint64(24),
    )


def _energy_words(x: np.ndarray, out: np.ndarray) -> int:
    """Write `'%.12g\\n' % value` of every entry of the 1-d `x` as four words into `out` (shape (len(x), 4)).

    With X the decimal exponent of |x| rounded to 12 digits, `%.12g` prints
    n = rint(|x| 10^(11 - X)) as 11 - X fraction digits, trailing zeros (and
    a bare '.') dropped.  X is read off `_DECADES`; it is the exponent `%g`
    uses when n lies in [10^11, 10^12), and the few entries whose n does
    not (a rounding carry to the next decade, or |x| within an ulp of a
    power of ten) go to `%`.  `_decimal` gives n in the layout above for
    every X; each group after which every group is zero comes from the
    stripped twin in `_fraction_tables`.  Entries that `_decimal` leaves
    unmarked, among them X outside [-4, 3] (where `%g` switches to exponent
    notation, or the integer part has five digits) and zeros, are formatted
    by `%` one at a time; the count of them is returned.
    """
    exponent = np.searchsorted(_DECADES, np.abs(x), side="right") - 5  # nan sorts last
    layout = (exponent >= -4) & (exponent <= 3)
    (whole, g1, g2, g3, g4, g5), exact = _decimal(x, 11 - exponent, 5, 1e11, 1e12, layout)
    # a group is stripped when every group after it is zero (the last always is)
    s4 = g5 == 0
    s3 = s4 & (g4 == 0)
    s2 = s3 & (g3 == 0)
    s1 = s2 & (g2 == 0)
    t1, t2, t3, t4, t5 = _fraction_tables()
    out[:, 0] = _INT_WORDS[whole + 10**4 * np.signbit(x)]
    out[:, 1] = t1[g1 + 1000 * s1] | t2[g2 + 1000 * s2]
    out[:, 2] = t3[g3 + 1000 * s3] | t4[g4 + 1000 * s4]
    out[:, 3] = t5[g5]
    at = np.flatnonzero(~exact)
    for i, value in zip(at.tolist(), x[at].tolist()):
        out[i] = np.frombuffer((b"%.12g\n" % value).ljust(32, b"\0"), dtype="<u8")
    return len(at)


def _csv_rows(prefixes: list[bytes], energies: list[np.ndarray]) -> bytes:
    """The CSV rows of a block of fluxes: the flux's prefix before each of its energies, as ASCII bytes.

    A row is the prefix's words (NUL-padded to the block's longest) and the
    energy's four `_energy_words`; the whole block becomes bytes in one
    `translate` that deletes the NUL bytes.
    """
    width = -(-max(map(len, prefixes)) // 8)
    heads = np.frombuffer(b"".join(p.ljust(8 * width, b"\0") for p in prefixes), dtype="<u8").reshape(-1, width)
    x = np.concatenate(energies)
    table = np.empty((len(x), width + 4), dtype="<u8")
    table[:, :width] = np.repeat(heads, [len(e) for e in energies], axis=0)
    _energy_words(x, table[:, width:])
    return table.tobytes().translate(None, b"\0")


def cmd_butterfly(args: argparse.Namespace) -> int:
    model = parse_model(args.model, args.m)
    start = time.perf_counter()
    sweep = butterfly_sweep(model, args.q_max, args.k_samples, args.seed)
    samples = rows = pending = 0
    prefixes: list[bytes] = []
    energies: list[np.ndarray] = []
    with _created(args.out) as fh:
        fh.write(b"phi,energy\n")
        # phi ascends from flux to flux, so a stable sort within each flux
        # writes the rows in (phi, energy) order
        for phi, spectra in sweep:
            prefixes.append(b"%.10g," % phi)
            energies.append(np.sort(spectra, axis=None, kind="stable"))
            samples += len(spectra)
            rows += spectra.size
            pending += spectra.size
            if pending >= _CSV_BLOCK_ROWS:
                fh.write(_csv_rows(prefixes, energies))
                prefixes, energies, pending = [], [], 0
        if prefixes:
            fh.write(_csv_rows(prefixes, energies))
    elapsed = time.perf_counter() - start
    print(f"wrote {args.out}: {samples} samples, {rows} rows, {elapsed:.2f} s")
    return 0


# ---------------------------------------------------------------- entry point


def build_parser(defaults: Optional[dict[str, str]] = None) -> argparse.ArgumentParser:
    """Every subcommand's parser, each option declared once with its default.

    `defaults` (a config file's text values) replace those defaults; argparse converts them with the flag's `type`.
    """
    parser = argparse.ArgumentParser(
        prog="hyperband",
        description="Hyperbolic band theory on {4g,4g} tilings under a uniform magnetic field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the numerical identity suite")
    verify.add_argument("--g", type=int, default=2, help="genus (default %(default)s)")
    verify.add_argument(
        "--B", default="1/4", help="magnetic field: exact like 1/4 or 2, or a real like 0.3; negative as --B=-1/4"
    )
    verify.add_argument("--seed", type=int, default=0, help="seed for random sample points (default %(default)s)")
    verify.add_argument("--tol", action="append", metavar="NAME=VALUE", help="override one check tolerance")

    tile = sub.add_parser("tile", help="render a Poincare-disk tiling patch to SVG")
    tile.add_argument("--g", type=int, default=2, help="genus (default %(default)s)")
    tile.add_argument("--depth", type=int, default=2, help="word length of tile orbit (default %(default)s)")
    tile.add_argument("--out", type=_output_path, default="tiling.svg", help="output SVG path (default %(default)s)")

    spectrum = sub.add_parser("spectrum", help="print eigenvalues of one lattice Hamiltonian")
    butterfly = sub.add_parser("butterfly", help="sweep rational flux and write phi,energy CSV")
    spectrum.add_argument(
        "--B", default="1/6", help="exact magnetic field p/(2q) or an integer, e.g. 1/6; negative as --B=-1/6"
    )
    for command in (spectrum, butterfly):  # the model options, after --B in spectrum's help and first in butterfly's
        command.add_argument("--model", default="reduced", help="reduced | block-aniso | block-iso (default %(default)s)")
        command.add_argument("--m", type=int, help="rotation sector for the reduced model (default 0)")
    spectrum.add_argument(
        "--k", default="0,0,0,0", help="Bloch momentum as four comma-separated reals (default %(default)s)"
    )
    butterfly.add_argument("--q-max", type=int, default=8, help="largest flux denominator (default %(default)s)")
    butterfly.add_argument("--k-samples", type=int, default=4, help="momenta per flux (default %(default)s)")
    butterfly.add_argument("--seed", type=int, default=0, help="momentum sequence offset (default %(default)s)")
    butterfly.add_argument(
        "--out", type=_output_path, default="butterfly.csv", help="output CSV path (default %(default)s)"
    )

    for command in (verify, tile, spectrum, butterfly):
        command.add_argument("--config", help="key=value config file; flags override")
        command.set_defaults(**(defaults or {}))
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "tile": cmd_tile,
    "spectrum": cmd_spectrum,
    "butterfly": cmd_butterfly,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(parse_config_file(args.config)).parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a failing stdout fails here, not in the interpreter's exit flush
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # no filename: stdout failed (`_created` names --out); devnull takes the rest, and the exit flush passes
        if exc.filename is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141  # 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe
        print(f"error: cannot write {exc.filename or 'stdout'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
