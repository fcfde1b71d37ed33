"""The paper's identities, each written once, for `verify` and the acceptance suite.

Every check but the three operator-algebra ones takes its sample inputs
(genera, points, momenta, flux pairs) and returns the worst defect over
them, NaN when any defect is NaN.  An empty sample list is a ValueError
that names the list.  The algebra checks take no samples: their residuals
(`magnetic.commutator_residual`, `weight_conjugation_residual` and the two
Hamiltonian residuals) are polynomials in the field B, formed exactly on
the cubic basis, so a defect is the largest coefficient of any power of B
and reads 0.0 where the identity holds at every field.
`TOLERANCES` holds the `verify` bounds that `--tol NAME=VALUE` overrides;
the acceptance criteria that have a matching check read these defaults.
`run_suite` runs the `verify` table `SUITE` on samples drawn from the
stdlib `random.Random(seed)`, so `verify` never loads `numpy.random`; only
there does a library error inside a check become a record (defect inf),
elsewhere it reaches the caller.

The lattice checks hold the sweep's kernel in `spectrum` against a dense
oracle kept here: `ring_matrix`, `harper_core`, `assemble_reduced` and
`assemble_block` build the complex matrices from the model's definition
(`assemble_reduced` is the one-matrix case of `_reduced_matrices`, which
builds the sector matrices of every momentum and sector as one stack;
`assemble_block` places the ring, the site weights, the hop and its
conjugate by one index assignment each; the per-entry and per-block loops
they replaced are the tests' byte-for-byte references), and `eigenvalues`
solves one matrix, or an (n, d, d) stack in one LAPACK call, with
eigenvectors and a residual certificate for each matrix.  The oracle
shares only `_harper_stack` (checked by `harper_oracle_compare`) and the
gates `_require_dimension` and `_require_solvable` with the kernel, and
never calls the sweep's route: `_chambers_stack`, `_chambers_momenta`,
`_solve_in_order`, `harper_eigvalsh`, `_certified_spectra` or
`model_spectra`.  Two checks compare the routes: `sector_union` holds
`model_spectra`'s block spectra, the sector union that butterfly sweeps
print, against the dense 8q x 8q spectra, for both block models;
`chambers` holds the real Chambers twin against the dense complex
sector-0 matrix.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence, TypeVar

import numpy as np

from . import magnetic, spectrum, tiling
from .halfplane import HPoint
from .magnetic import DiffOpId, FluxParam, max_or_nan
from .spectrum import MU, RING_SIZE, RING_WEIGHT, BlochMomentum, BlockAnisotropic, BlockIsotropic
from .spectrum import HamiltonianModel, ReducedHarper

_TWO_PI = 2.0 * math.pi
_SITES = np.arange(RING_SIZE)

_Sample = TypeVar("_Sample")

TOLERANCES = {
    "relation": 1e-9,
    "pairing": 1e-9,
    "covering": 1e-8,
    "flux": 1e-7,
    "algebra": 1e-8,
    "hamiltonian": 1e-8,
    "forms": 1e-8,
    "hermiticity": 1e-12,
    "sector": 1e-7,
}


class SuiteSamples(NamedTuple):
    """Inputs of one `verify` run: genus, field B, the lattice flux pair, and the random samples."""

    genus: int
    B: float
    pair: FluxParam
    flux_points: list[HPoint]
    momenta: list[BlochMomentum]


class CheckRecord(NamedTuple):
    """One `verify` line: the check's worst defect, its bound, defect < tol (false for NaN), a note."""

    name: str
    defect: float
    tol: float
    passed: bool
    note: str


def _pair_note(s: SuiteSamples) -> str:
    return f"(p={s.pair.p}, q={s.pair.q})"


def _flux_line(s: SuiteSamples) -> tuple[float, str]:
    defect, phase = flux_relation(s.genus, s.B, s.flux_points)
    return defect, f"phase {phase.real:.6g}{phase.imag:+.6g}j"


def _orbits_line(s: SuiteSamples) -> tuple[float, str]:
    # at q = 5 the four members p, p+q, q-p, 2q-p of an orbit are distinct
    defect = flux_orbits([s.pair, FluxParam(1, 5)], s.momenta)
    return defect, f"(orbits of p={s.pair.p}, q={s.pair.q} and p=1, q=5)"


def _chambers_line(s: SuiteSamples) -> tuple[float, str]:
    return chambers([s.pair, FluxParam(1, 5)], s.momenta), f"(p={s.pair.p}, q={s.pair.q} and p=1, q=5)"


# (line name, key of TOLERANCES, compute(samples) -> (defect, note)), in print order
SUITE: tuple[tuple[str, str, Callable[[SuiteSamples], tuple[float, str]]], ...] = (
    ("fuchsian relation", "relation", lambda s: (fuchsian_relation([s.genus]), "")),
    ("edge pairing", "pairing", lambda s: (edge_pairing([s.genus]), "")),
    ("covering degree", "covering", lambda s: (covering_degree([(q, HPoint(1.0, 1.0)) for q in range(1, 9)]), "")),
    ("flux relation", "flux", _flux_line),
    ("operator commutators", "algebra", lambda s: (operator_commutators(), "")),
    ("hamiltonian symmetry", "hamiltonian", lambda s: (hamiltonian_symmetry(), "")),
    ("hamiltonian forms", "forms", lambda s: (hamiltonian_forms(), "")),
    ("lattice hermiticity", "hermiticity", lambda s: (lattice_hermiticity(s.pair, s.momenta), _pair_note(s))),
    ("rotation sectors", "sector", lambda s: (sector_union(BlockAnisotropic(), s.pair, s.momenta), _pair_note(s))),
    ("iso sectors", "sector", lambda s: (sector_union(BlockIsotropic(), s.pair, s.momenta), _pair_note(s))),
    ("flux orbits", "sector", _orbits_line),
    ("chambers", "sector", _chambers_line),
)


def run_suite(genus: int, flux: Fraction | float, seed: int, tols: dict[str, float]) -> Iterator[CheckRecord]:
    """The records of `SUITE` in order, each judged by `tols[key]`, yielded as each check ends.

    Samples come from the stdlib `random.Random(seed)`: five flux-relation
    points, then two momenta (`random_points`, `random_momenta`).  The
    lattice checks are genus-2 structures at the pair of a `Fraction` flux;
    a bare real B has none, so they take p/q = 1/3.  A `ValueError`, `RuntimeError` or `OverflowError` (a flux
    pair too large for a float) inside a check gives defect inf with the
    message as note.
    """
    B = float(flux)
    pair = FluxParam.from_field(flux) if isinstance(flux, Fraction) else FluxParam(1, 3)
    rng = random.Random(seed)
    samples = SuiteSamples(genus, B, pair, random_points(rng, 5), random_momenta(rng, 2))
    for name, key, compute in SUITE:
        try:
            defect, note = compute(samples)
        except (ValueError, RuntimeError, OverflowError) as exc:
            defect, note = math.inf, f"({exc})"
        yield CheckRecord(name, defect, tols[key], defect < tols[key], note)


# [op1, op2] = sum c_i op_i for the field generators and their weighted forms
COMMUTATORS = (
    (DiffOpId.U_B, DiffOpId.T_B, {DiffOpId.T_B: -2.0}),
    (DiffOpId.S_B, DiffOpId.T_B, {DiffOpId.U_B: -1.0}),
    (DiffOpId.U_B, DiffOpId.S_B, {DiffOpId.T_B: -4.0, DiffOpId.S_B: 2.0}),
    (DiffOpId.U_check, DiffOpId.T_check, {DiffOpId.T_check: -2.0}),
    (DiffOpId.S_check, DiffOpId.T_check, {DiffOpId.U_check: -1.0}),
    (DiffOpId.U_check, DiffOpId.S_check, {DiffOpId.T_check: -4.0, DiffOpId.S_check: 2.0}),
)


class UniformSource(Protocol):
    """A source of uniform draws, such as `random.Random` or a numpy `Generator`."""

    def uniform(self, a: float, b: float) -> float: ...


def random_points(rng: UniformSource, count: int) -> list[HPoint]:
    """Points with x in [-2, 2), y in [0.2, 3), drawn x then y per point."""
    return [HPoint(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.2, 3.0))) for _ in range(count)]


def random_momenta(rng: UniformSource, count: int) -> list[BlochMomentum]:
    """Momenta with each of k1..k4 in [0, 2 pi), drawn k1 to k4 per momentum.

    Four scalar draws give a numpy `Generator` the same values as its
    `uniform(0, 2 pi, size=4)`.
    """
    return [BlochMomentum(*(float(rng.uniform(0.0, _TWO_PI)) for _ in range(4))) for _ in range(count)]


def _listed(samples: Iterable[_Sample], name: str) -> list[_Sample]:
    """`samples` as a list; an empty one is a ValueError that names it."""
    samples = list(samples)
    if not samples:
        raise ValueError(f"check needs at least one sample, got an empty {name}")
    return samples


def fuchsian_relation(genera: Iterable[int]) -> float:
    genera = _listed(genera, "genus list")
    return max_or_nan(tiling.relation_defect(tiling.make_generators(tiling.TilingParams(g))) for g in genera)


def edge_pairing(genera: Iterable[int]) -> float:
    params = [tiling.TilingParams(g) for g in _listed(genera, "genus list")]
    return max_or_nan(
        tiling.edge_pairing_defect(tiling.make_generators(p), tiling.make_fundamental_domain(p)) for p in params
    )


def covering_degree(samples: Iterable[tuple[int, HPoint]]) -> float:
    """Half-turn phase at B = 1/q from z against e^{i 2 pi/q}, over (q, z) samples."""
    samples = _listed(samples, "(q, z) sample list")
    return max_or_nan(abs(magnetic.covering_degree_check(q, z) - cmath.exp(2j * math.pi / q)) for q, z in samples)


def flux_relation(genus: int, B: float, points: list[HPoint]) -> tuple[float, complex]:
    """Relation-word phase against e^{i4(g-1)pi B}, and the phase at the last point.

    `flux_relation_phase` raises `RuntimeError` when the word's point orbit
    fails to close, so a returned defect also certifies closure.
    """
    expected = cmath.exp(1j * 4.0 * (genus - 1) * math.pi * B)
    phases = magnetic.flux_relation_phase(tiling.TilingParams(genus), B, _listed(points, "point list"))
    return max_or_nan(abs(phase - expected) for phase in phases), phases[-1]


def operator_commutators() -> float:
    """The `COMMUTATORS` relations, and each weighted generator as the y^B conjugate of its field generator."""
    residuals = [magnetic.weight_conjugation_residual(), *(magnetic.commutator_residual(*c) for c in COMMUTATORS)]
    return max_or_nan(residuals)


def hamiltonian_symmetry() -> float:
    """[H, X] for each field generator X."""
    generators = (DiffOpId.S_B, DiffOpId.T_B, DiffOpId.U_B)
    return max_or_nan(magnetic.hamiltonian_commutation_residual(op) for op in generators)


def hamiltonian_forms() -> float:
    """Generator form of the Landau Hamiltonian against its continuum form."""
    return magnetic.hamiltonian_forms_residual()


def ring_matrix(B: float) -> np.ndarray:
    """8-site nearest-neighbor ring with corner phases e^{+-i 2 pi B}."""
    ring = np.eye(RING_SIZE, k=1, dtype=complex) + np.eye(RING_SIZE, k=-1, dtype=complex)
    ring[0, RING_SIZE - 1] = np.exp(2j * math.pi * B)
    ring[RING_SIZE - 1, 0] = np.exp(-2j * math.pi * B)
    return ring


def harper_core(flux: FluxParam, k1: float, k2: float) -> np.ndarray:
    """The q x q Harper core at phi = 2 pi p/q."""
    phi = _TWO_PI * flux.p / flux.q
    return spectrum._harper_stack(flux.q, np.array([phi]), np.array([k1]), np.array([k2]), 1.0)[0]


def _reduced_matrices(p: int, q: int, momenta: Sequence[BlochMomentum], sectors: int | Sequence[int]) -> np.ndarray:
    """The sector matrices of `assemble_reduced` at every momentum and sector, stacked
    (len(momenta) * number of sectors, q, q), momentum outer and sector inner.

    `sectors` is one sector index or a sequence of them.  One `_harper_stack`
    call builds every scaled core and one diagonal update adds each matrix's
    scalar, so each matrix has the bytes it has when built alone.
    """
    c = -1.0 / (8.0 * MU * MU)
    sector = RING_WEIGHT * spectrum.rotation_sector_shift(FluxParam(p, q).field, np.asarray(sectors)).reshape(-1)
    k = np.array([[x.k1, x.k2, x.k3, x.k4] for x in momenta]).reshape(-1, 4)
    shift = (2.0 * c * (np.cos(k[:, 2]) + np.cos(k[:, 3])))[:, None] + sector
    k = np.repeat(k, len(sector), axis=0)
    h = spectrum._harper_stack(q, np.full(len(k), _TWO_PI * p / q), k[:, 0], k[:, 1], scale=c)
    j = np.arange(q)
    h[:, j, j] += shift.reshape(-1, 1)
    return h


def assemble_reduced(p: int, q: int, k: BlochMomentum, m: int) -> np.ndarray:
    """Sector-m q x q matrix: the Harper core times c = -1/(8 mu^2), plus the scalar
    2c(cos k3 + cos k4) + (16/pi^2) 2cos(pi B/4 + m pi/4) on the diagonal."""
    return _reduced_matrices(p, q, [k], m)[0]


def assemble_block(variant: HamiltonianModel, p: int, q: int, k: BlochMomentum) -> np.ndarray:
    """Full 8q x 8q cycle of 8 x 8 blocks, wired exactly as the sector analysis needs.

    With s = -1/(8 mu^2) (block-aniso) or -1/(4 mu^2) (block-iso), diagonal
    block n is the ring (16/pi^2) ring(B) plus 2s times the site weights:
    cos(k2 - n phi) + cos k3 + cos k4 on every site (block-aniso), or cos k3
    on even and cos(k2 - n phi) + cos k4 on odd sites (block-iso).  The hop
    block, s e^{i k1} on the hopping sites (all of them, or the even ones),
    sits at block (n + 1 mod q, n), below the diagonal and at the corner
    (0, q - 1); its conjugate transpose sits at (n, n + 1 mod q).  Each term
    is one index assignment into a (q, 8, q, 8) array, added in that order,
    so at q <= 2, where hop and conjugate share a block, every entry is the
    float the per-block loop gives.
    """
    B = FluxParam(p, q).field
    if not isinstance(variant, (BlockAnisotropic, BlockIsotropic)):
        raise ValueError(f"block assembly expects a block variant, got {variant!r}")
    spectrum._require_dimension(RING_SIZE * q)
    n = np.arange(q)[:, None]
    wave = np.cos(k.k2 - n * (_TWO_PI * p / q))
    if isinstance(variant, BlockAnisotropic):
        denom, hop_sites = 8.0 * MU * MU, _SITES
        weights = wave + math.cos(k.k3) + math.cos(k.k4)
    else:
        denom, hop_sites = 4.0 * MU * MU, _SITES[::2]
        weights = np.where(_SITES % 2 == 0, math.cos(k.k3), wave + math.cos(k.k4))
    hop = -np.exp(1j * k.k1) / denom
    h = np.zeros((q, RING_SIZE, q, RING_SIZE), dtype=complex)
    h[n, :, n, :] += RING_WEIGHT * ring_matrix(B)
    h[n, _SITES, n, _SITES] += -2.0 / denom * weights
    h[(n + 1) % q, hop_sites, n, hop_sites] += hop
    h[n, hop_sites, (n + 1) % q, hop_sites] += np.conj(hop)
    return h.reshape(RING_SIZE * q, RING_SIZE * q)


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending real spectrum of one square matrix, or of each matrix of an (n, d, d) stack,
    with an explicit residual certificate.

    One LAPACK call solves the whole stack, with eigenvectors; each row of
    the (n, d) result is what the matrix alone gives.  Raises instead of
    returning a partial or low-quality spectrum: an input that is neither a
    square matrix nor a stack of them, or a dimension over `_MAX_DIMENSION`,
    is a ValueError; a matrix `_require_solvable` refuses or LAPACK
    non-convergence a RuntimeError; and every (lambda, v) pair of every
    matrix H must satisfy ||Hv - lambda v|| <= 1e-8 (1 + ||H||_F).
    """
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    n = h.shape[-1]
    spectrum._require_dimension(n)
    spectrum._require_solvable(h[None] if h.ndim == 2 else h, np.ones((n, n), dtype=bool))
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver did not converge on a {n}x{n} matrix: {exc}") from exc
    residual = np.linalg.norm(h @ vecs - vecs * vals[..., None, :], axis=-2).max(axis=-1, initial=0.0)
    bound = 1e-8 * (1.0 + np.linalg.norm(h, "fro", axis=(-2, -1)))
    failed = np.flatnonzero(residual > bound)
    if failed.size:
        i = failed[0]
        raise RuntimeError(
            f"eigenpair residual {residual.flat[i]:.3e} exceeds contract bound {bound.flat[i]:.3e}"
        )
    return vals


def lattice_hermiticity(pair: FluxParam, momenta: Iterable[BlochMomentum]) -> float:
    """Largest |H - H^dagger| over sectors 0 and 5 and both block models."""
    p, q = pair.p, pair.q
    momenta = _listed(momenta, "momentum list")
    reduced = _reduced_matrices(p, q, momenta, [0, 5])
    models = (BlockAnisotropic(), BlockIsotropic())
    blocks = np.array([assemble_block(model, p, q, k) for k in momenta for model in models])
    return max_or_nan(
        drift for h in (reduced, blocks) for drift in np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1)).tolist()
    )


def sector_union(model: HamiltonianModel, pair: FluxParam, momenta: Iterable[BlochMomentum]) -> float:
    """The sweep's block spectra (`model_spectra`) against the dense 8q x 8q spectra of `model`.

    For block-aniso the sweep's spectrum is the union of the eight rotation
    sectors, the sector-0 spectrum plus one scalar shift each; for block-iso,
    the union of its four S^2 sectors.  The dense blocks are built and solved
    first, so a q over the dimension bound fails before any kernel solve.
    """
    p, q = pair.p, pair.q
    momenta = _listed(momenta, "momentum list")
    dense = eigenvalues(np.array([assemble_block(model, p, q, k) for k in momenta]))
    union = spectrum.model_spectra(model, q, [p], momenta)[0]
    return float(np.abs(union - dense).max())


def flux_orbits(pairs: Iterable[FluxParam], momenta: Iterable[BlochMomentum]) -> float:
    """Orbit-derived spectra (`model_spectra`) against each orbit member's own certified solve.

    For reduced sector 0 and block-iso, at the members p, p + q, q - p and
    2q - p (mod 2q) of each pair's flux orbit: `model_spectra` solves one
    flux per orbit and derives the others (block-iso splits the orbit into
    {p, 2q - p} and {p + q, q - p}), while the direct route assembles and
    certifies every member's own matrices, in one batched stack per model
    and pair.  Both routes of sector 0 solve its real Chambers twin; the
    `chambers` check compares that twin with the dense complex matrix.
    """
    pairs, momenta = _listed(pairs, "flux pair list"), _listed(momenta, "momentum list")

    def gap(model: HamiltonianModel, pair: FluxParam) -> float:
        p, q = pair.p, pair.q
        ps = sorted({x % (2 * q) for x in (p, p + q, q - p, 2 * q - p)} - {0})
        derived = spectrum.model_spectra(model, q, ps, momenta)
        direct = spectrum._certified_spectra(model, q, ps, momenta)
        return float(np.abs(derived - np.sort(direct, axis=-1)).max())

    return max_or_nan(gap(model, pair) for pair in pairs for model in (ReducedHarper(0), BlockIsotropic()))


def chambers(pairs: Iterable[FluxParam], momenta: Iterable[BlochMomentum]) -> float:
    """Real Chambers-route spectra (`_certified_spectra`) against the dense complex sector-0 spectrum.

    The sweep solves reduced and block-aniso as real symmetric matrices at
    a moved momentum (k1' in {0, pi/q}, `_chambers_momenta`); the dense
    route solves `assemble_reduced` at the original momentum with
    eigenvectors.  Each pair's flux is solved as given, not through its orbit
    representative.  Besides `momenta`, each pair also runs one fixed momentum
    on each branch: k1 = 0 gives s = cos(q k1) + cos(q k2) >= 0, k1 = pi/q
    gives s < 0, so `momenta` may be empty and `pairs` may not.
    """
    pairs, momenta = _listed(pairs, "flux pair list"), list(momenta)

    def gap(pair: FluxParam) -> float:
        p, q = pair.p, pair.q
        ks = momenta + [BlochMomentum(0.0, 0.4, 1.0, 2.0), BlochMomentum(math.pi / q, 0.4, 1.0, 2.0)]
        real = spectrum._certified_spectra(ReducedHarper(0), q, [p], ks)[0]
        dense = eigenvalues(_reduced_matrices(p, q, ks, 0))
        return float(np.abs(real - dense).max())

    return max_or_nan(gap(pair) for pair in pairs)


def harper_oracle_compare(p: int, q: int, k1: float, k2: float) -> float:
    """Spectral gap between the assembler's Harper core and a clock-and-shift oracle.

    Route (a): `harper_core`, the core `assemble_reduced` scales and shifts.
    Route (b): T + T^dagger + V + V^dagger with T = e^{i k1} roll(I), built
    with no code shared with the assembler.  Contract: max |difference| < 1e-9.
    """
    if p < 1:
        raise ValueError(f"oracle comparison needs p >= 1, got {p}")
    vals_a = np.sort(np.linalg.eigvalsh(harper_core(FluxParam(p, q), k1, k2)).real)

    t_shift = np.exp(1j * k1) * np.roll(np.eye(q, dtype=complex), 1, axis=0)
    v_diag = np.diag(np.exp(1j * (k2 - np.arange(q) * _TWO_PI * p / q)))
    oracle = t_shift + t_shift.conj().T + v_diag + v_diag.conj().T
    vals_b = np.sort(np.linalg.eigvalsh(oracle).real)
    return float(np.abs(vals_a - vals_b).max())
