"""Output oracles for the benchmark workloads, independent of the library.

Nothing here imports `hyperband`.  Each oracle rebuilds the expected answer
from the paper's formulas with numpy and the stdlib, then judges the bytes a
CLI run produced.  `check(...)` returns a list of problems; an empty list is
a pass.

- Butterfly: header, row count k * sum(dim), (phi, energy) ordering, and per
  flux the energy multiset against eigvalsh of a clock-and-shift Harper
  matrix plus the rotation-sector shift(s), at the CSV's printed precision.
- Verify: every line PASS with defect < tol, and the printed flux-relation
  phase equal to e^{i 4(g-1) pi B}.
- Tile: the number of <path> elements equals the ball size of the genus-g
  surface group, read off its growth series.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

import numpy as np

_TWO_PI = 2.0 * math.pi
_RING_SIZE = 8  # genus-2 lattice: 8 rotation sectors
_HALTON_BASES = (2, 3, 5, 7)
_ENERGY_DIGITS = 12  # the CLI prints energies with %.12g
_PHI_DIGITS = 10  # and phi with %.10g
_ABS_FLOOR = 1e-12  # eigensolver noise on matrices of norm ~4
_PHASE_TOL = 1e-5  # the verify phase is printed with 6 significant digits
_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (.{24}) defect (\S+)  tol (\S+)(.*)$")
_PHASE_FIELD = re.compile(r"phase (\S+)")


def printed_tol(values: np.ndarray, digits: int) -> np.ndarray:
    """One unit in the last printed place of %.{digits}g, floored for noise."""
    mag = np.floor(np.log10(np.maximum(np.abs(values), 1e-300)))
    return np.maximum(10.0 ** (mag - digits + 1), _ABS_FLOOR)


# ---------------------------------------------------------------- butterfly


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput point of `index` in `base` (unscrambled Halton axis)."""
    value, f = 0.0, 1.0
    while index > 0:
        f /= base
        index, digit = divmod(index, base)
        value += f * digit
    return value


def halton_momenta(k_samples: int, seed: int) -> np.ndarray:
    """Momenta on the 4-torus: Halton points seed .. seed+k-1 times 2 pi."""
    return _TWO_PI * np.array(
        [[radical_inverse(seed + i, b) for b in _HALTON_BASES] for i in range(k_samples)]
    )


def genus2_mu() -> float:
    """mu with e^mu = cot(pi/8) + sqrt(cot^2(pi/8) - 1)."""
    cot = 1.0 / math.tan(math.pi / 8.0)
    return math.log(cot + math.sqrt(cot * cot - 1.0))


def flux_pairs(q_max: int) -> list[tuple[int, int]]:
    pairs = [(p, q) for q in range(1, q_max + 1) for p in range(1, 2 * q) if math.gcd(p, q) == 1]
    pairs.sort(key=lambda pq: Fraction(*pq))
    return pairs


def harper_spectra(ps: np.ndarray, q: int, momenta: np.ndarray) -> np.ndarray:
    """eigvalsh of T + T^dagger + V + V^dagger, shape (len(ps), k, q).

    T = e^{i k1} (cyclic shift), V = diag e^{i (k2 - 2 pi p n / q)}.
    """
    k1 = momenta[None, :, 0, None, None]
    n = np.arange(q)
    t = np.exp(1j * k1) * np.roll(np.eye(q), 1, axis=0)
    v = np.exp(1j * (momenta[None, :, 1, None] - _TWO_PI * ps[:, None, None] * n / q))
    h = t + np.conj(np.swapaxes(t, -1, -2)) + (v + v.conj())[..., None] * np.eye(q)
    return np.linalg.eigvalsh(h)


def butterfly_expected(model: str, q_max: int, k_samples: int, seed: int) -> list[tuple[float, np.ndarray]]:
    """(phi, sorted energies) per flux, in CSV order.

    Sector m of the reduced model is c * Harper + 2c(cos k3 + cos k4)
    + (16/pi^2) 2cos(pi B/4 + m pi/4) with c = -1/(8 mu^2) and B = p/(2q);
    the anisotropic block model is the union of all eight sectors.
    """
    sectors = np.arange({"reduced": 1, "block-aniso": _RING_SIZE}[model])
    momenta = halton_momenta(k_samples, seed)
    mu = genus2_mu()
    c = -1.0 / (8.0 * mu * mu)
    scalar = 2.0 * c * (np.cos(momenta[:, 2]) + np.cos(momenta[:, 3]))
    spectra = {}
    for q in range(1, q_max + 1):
        ps = np.array([p for p in range(1, 2 * q) if math.gcd(p, q) == 1])
        core = c * harper_spectra(ps, q, momenta) + scalar[None, :, None]
        for p, energies in zip(ps, core):
            B = p / (2.0 * q)
            ring = (16.0 / math.pi**2) * 2.0 * np.cos(math.pi * B / 4.0 + sectors * math.pi / 4.0)
            spectra[int(p), q] = np.sort((energies[None] + ring[:, None, None]), axis=None)
    return [(_TWO_PI * p / q, spectra[p, q]) for p, q in flux_pairs(q_max)]


def parse_butterfly_csv(data: bytes) -> tuple[str, np.ndarray, np.ndarray]:
    """Header line, phi column, energy column."""
    lines = data.decode("ascii").split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    header, rows = lines[0], lines[1:-1]
    cells = np.array([r.split(",") for r in rows], dtype=float).reshape(len(rows), 2)
    return header, cells[:, 0], cells[:, 1]


def check_butterfly(expected: list[tuple[float, np.ndarray]], data: bytes) -> list[str]:
    try:
        header, phi, energy = parse_butterfly_csv(data)
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"unparseable CSV: {exc}"]
    problems = []
    if header != "phi,energy":
        problems.append(f"header {header!r} != 'phi,energy'")
    want_rows = sum(len(e) for _, e in expected)
    if len(phi) != want_rows:
        return problems + [f"{len(phi)} rows, expected {want_rows}"]
    if np.any(np.diff(phi) < 0.0):
        problems.append("rows not ordered by phi")
    same_phi = np.diff(phi) == 0.0
    if np.any(np.diff(energy)[same_phi] < 0.0):
        problems.append("energies not ascending within a flux")
    start = 0
    for want_phi, want_e in expected:
        stop = start + len(want_e)
        got_phi, got_e = phi[start:stop], energy[start:stop]
        if np.any(np.abs(got_phi - want_phi) > printed_tol(np.array([want_phi]), _PHI_DIGITS)):
            problems.append(f"phi {float(got_phi[0])!r} at row {start + 2}, expected {want_phi:.10g}")
            break
        err = np.abs(got_e - want_e) - printed_tol(want_e, _ENERGY_DIGITS)
        if np.any(err > 0.0):
            i = int(np.argmax(err))
            problems.append(
                f"energy {float(got_e[i])!r} at row {start + i + 2} (phi {want_phi:.10g}), "
                f"oracle {want_e[i]:.12g}"
            )
            break
        start = stop
    return problems


# ---------------------------------------------------------------- verify


def parse_verify(stdout: str) -> list[tuple[str, str, float, float, str]]:
    """(status, name, defect, tol, rest) per line; raises on a malformed line."""
    out = []
    for line in stdout.splitlines():
        match = _VERIFY_LINE.match(line)
        if not match:
            raise ValueError(f"malformed verify line {line!r}")
        status, name, defect, tol, rest = match.groups()
        out.append((status, name.strip(), float(defect), float(tol), rest))
    return out


def worst_defect_ratio(stdout: str) -> float:
    return max((d / t for _, _, d, t, _ in parse_verify(stdout)), default=math.inf)


def check_verify(genus: int, B: Fraction, stdout: str) -> list[str]:
    try:
        lines = parse_verify(stdout)
    except ValueError as exc:
        return [str(exc)]
    if not lines:
        return ["verify printed no check lines"]
    problems = [
        f"{status} {name}: defect {defect:.3e} tol {tol:.0e}"
        for status, name, defect, tol, _ in lines
        if status != "PASS" or not defect < tol
    ]
    flux = [rest for _, name, _, _, rest in lines if name == "flux relation"]
    match = _PHASE_FIELD.search(flux[0]) if flux else None
    if match is None:
        return problems + ["no printed flux-relation phase"]
    try:
        phase = complex(match.group(1))
    except ValueError:
        return problems + [f"unparseable phase {match.group(1)!r}"]
    want = cmath.exp(1j * 4.0 * (genus - 1) * math.pi * float(B))
    if abs(phase - want) > _PHASE_TOL:
        problems.append(f"printed phase {phase} != e^(i4(g-1)piB) = {want:.6g}")
    return problems


# ---------------------------------------------------------------- tile


def surface_ball_size(genus: int, depth: int) -> int:
    """Elements of word length <= depth in the genus-g surface group.

    Growth series (Cannon): numerator 1 + 2x + ... + 2x^{2g-1} + x^{2g},
    denominator 1 - (4g-2)(x + ... + x^{2g-1}) + x^{2g}.
    """
    n = 2 * genus
    num = [1] + [2] * (n - 1) + [1]
    den = [1] + [-(4 * genus - 2)] * (n - 1) + [1]
    sphere: list[int] = []
    for d in range(depth + 1):
        a = num[d] if d <= n else 0
        a -= sum(den[j] * sphere[d - j] for j in range(1, min(d, n) + 1))
        sphere.append(a)
    return sum(sphere)


def check_tile(genus: int, depth: int, data: bytes) -> list[str]:
    text = data.decode("utf-8", errors="replace")
    problems = []
    if not text.startswith("<svg") or not text.endswith("</svg>\n"):
        problems.append("output is not a complete <svg> document")
    paths, want = text.count("<path"), surface_ball_size(genus, depth)
    if paths != want:
        problems.append(f"{paths} <path> elements, growth series gives {want}")
    return problems
