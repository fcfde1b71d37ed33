"""Magnetic Bloch Hamiltonians of the {8,8} lattice and butterfly sweeps.

The flux per tile is phi = 4 pi B with B = p/(2q) rational in lowest terms.
Bloch states over a 4-torus of momenta k = (k1..k4) organize the Hamiltonian
as a q x q cycle of 8 x 8 blocks

    H[n, n]     = A_n
    H[n+1, n]   = B_hop        (cyclic, so the wrap puts B_hop at [0, q-1])
    H[n, n+1]   = B_hop^dagger

with an 8-site ring matrix inside each A_n whose corner phases e^{+-i 2 pi B}
carry the rotation sector structure.  Diagonalizing the commuting ring first
reduces each sector m to a q x q Harper-type matrix: diagonal 2cos(k2 - n phi),
unit hoppings e^{-+ i k1}, and the scalar sector shift (16/pi^2) 2cos(pi B/4 +
m pi/4); `model_spectrum` computes the anisotropic block spectrum that way.
Everything here is hard-wired to genus 2 (ring size 8, phi = 4 pi B);
the group-theoretic modules stay genus-generic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .magnetic import FluxParam
from .tiling import scaling_parameter

MU = scaling_parameter(2)
RING_SIZE = 8
_TWO_PI = 2.0 * math.pi
_MAX_DIMENSION = 2000
_MAX_SWEEP_WORKLOAD = 2_000_000_000  # sum of dim^3 over all diagonalizations
_MAX_SWEEP_Q = 500
_HALTON_BASES = (2, 3, 5, 7)


@dataclass(frozen=True)
class BlochMomentum:
    """Momentum on the 4-torus, each component normalized into [0, 2 pi)."""

    k1: float
    k2: float
    k3: float
    k4: float

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "k4"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite momentum component {name}")
            r = v % _TWO_PI
            if r >= _TWO_PI:  # tiny negative inputs can round the modulo up to 2 pi
                r = 0.0
            object.__setattr__(self, name, r)

    @classmethod
    def zero(cls) -> "BlochMomentum":
        return cls(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ReducedHarper:
    """One rotation sector m of the block model, as a q x q matrix."""

    m: int = 0

    def __post_init__(self):
        if self.m not in range(RING_SIZE):
            raise ValueError(f"sector index must be 0..{RING_SIZE - 1}, got {self.m}")


@dataclass(frozen=True)
class BlockAnisotropic:
    """Full 8q x 8q model, scalar A_n diagonal (all momenta weighted alike)."""


@dataclass(frozen=True)
class BlockIsotropic:
    """Full 8q x 8q model, A_n diagonal alternating between k3 and k2/k4 weights."""


HamiltonianModel = ReducedHarper | BlockAnisotropic | BlockIsotropic


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("non-finite matrix entries")
        drift = np.abs(arr - arr.conj().T).max()
        if drift > 1e-12:
            raise ValueError(f"matrix fails Hermiticity by {drift:.3e}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectrumSample:
    """One butterfly row: flux, momentum, and the sorted eigenvalue list."""

    phi: float
    k: BlochMomentum
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        if any(b < a for a, b in zip(self.eigenvalues, self.eigenvalues[1:])):
            raise ValueError("eigenvalues must be ascending")


def rotation_sector_shift(B: float, m: int) -> float:
    """Eigenvalue 2cos(pi B/4 + m pi/4) of the ring term's sector m.

    Returned bare; the lattice Hamiltonian scales it by 16/pi^2 where it
    enters the reduced matrix.
    """
    if m not in range(RING_SIZE):
        raise ValueError(f"sector index must be 0..{RING_SIZE - 1}, got {m}")
    return 2.0 * math.cos(math.pi * B / 4.0 + m * math.pi / 4.0)


def ring_matrix(B: float) -> np.ndarray:
    """8-site nearest-neighbor ring with corner phases e^{+-i 2 pi B}."""
    ring = np.zeros((RING_SIZE, RING_SIZE), dtype=complex)
    for i in range(RING_SIZE - 1):
        ring[i, i + 1] = 1.0
        ring[i + 1, i] = 1.0
    ring[0, RING_SIZE - 1] = np.exp(2j * math.pi * B)
    ring[RING_SIZE - 1, 0] = np.exp(-2j * math.pi * B)
    return ring


def _require_dimension(n: int) -> None:
    """Refuse a matrix over `_MAX_DIMENSION` before anything of that size is allocated."""
    if n > _MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported bound {_MAX_DIMENSION}")


def harper_core(flux: FluxParam, k1: float, k2: float, scale: float = 1.0) -> np.ndarray:
    """The q x q Harper core at phi = 2 pi p/q, every term multiplied by `scale`.

    Diagonal 2cos(k2 - n phi), hopping e^{-i k1} above the diagonal and
    e^{+i k1} below, cyclically wrapped, so the corners land at
    [0, q-1] = e^{+i k1} and [q-1, 0] = e^{-i k1}.  For q <= 2 the wrap adds
    onto an occupied entry; scaling each term before that sum, in this order,
    keeps the entries bit-for-bit what per-entry accumulation gives.
    """
    q = flux.q
    _require_dimension(q)
    phi = _TWO_PI * flux.p / q
    n = np.arange(q)
    h = np.zeros((q, q), dtype=complex)
    h[n, n] += scale * 2.0 * np.cos(k2 - n * phi)
    h[n, (n + 1) % q] += scale * np.exp(-1j * k1)
    h[(n + 1) % q, n] += scale * np.exp(1j * k1)
    return h


def assemble_reduced(p: int, q: int, k: BlochMomentum, m: int) -> HermitianMatrix:
    """Sector-m q x q matrix: Harper core times -1/(8 mu^2), momentum scalar, ring sector shift."""
    flux = FluxParam(p, q)
    B = flux.field
    c = -1.0 / (8.0 * MU * MU)
    h = harper_core(flux, k.k1, k.k2, scale=c)
    shift = 2.0 * c * (math.cos(k.k3) + math.cos(k.k4)) + (16.0 / math.pi**2) * rotation_sector_shift(B, m)
    h += shift * np.eye(q)
    return HermitianMatrix(h)


def assemble_block(variant: HamiltonianModel, p: int, q: int, k: BlochMomentum) -> HermitianMatrix:
    """Full 8q x 8q cycle of blocks, wired exactly as the sector analysis needs.

    The hopping block sits below the diagonal (and at the [0, q-1] corner);
    its conjugate transpose sits above (and at [q-1, 0]).
    """
    flux = FluxParam(p, q)
    B = flux.field
    phi = _TWO_PI * p / q
    ring = (16.0 / math.pi**2) * ring_matrix(B)
    eye8 = np.eye(RING_SIZE)

    if isinstance(variant, BlockAnisotropic):
        def a_block(n: int) -> np.ndarray:
            w = -2.0 / (8.0 * MU * MU) * (math.cos(k.k2 - n * phi) + math.cos(k.k3) + math.cos(k.k4))
            return w * eye8 + ring

        hop = -np.exp(1j * k.k1) / (8.0 * MU * MU) * eye8
    elif isinstance(variant, BlockIsotropic):
        def a_block(n: int) -> np.ndarray:
            pair = [math.cos(k.k3), math.cos(k.k2 - n * phi) + math.cos(k.k4)]
            diag = np.array([pair[s % 2] for s in range(RING_SIZE)])
            return -2.0 / (4.0 * MU * MU) * np.diag(diag) + ring

        hop = -np.exp(1j * k.k1) / (4.0 * MU * MU) * np.diag([1.0, 0.0] * (RING_SIZE // 2))
    else:
        raise ValueError(f"block assembly expects a block variant, got {variant!r}")

    n_dim = RING_SIZE * q
    _require_dimension(n_dim)
    h = np.zeros((n_dim, n_dim), dtype=complex)
    for n in range(q):
        s = slice(RING_SIZE * n, RING_SIZE * (n + 1))
        h[s, s] += a_block(n)
        t = slice(RING_SIZE * ((n + 1) % q), RING_SIZE * ((n + 1) % q) + RING_SIZE)
        h[t, s] += hop
        h[s, t] += hop.conj().T
    return HermitianMatrix(h)


def model_dimension(model: HamiltonianModel, q: int) -> int:
    """Number of eigenvalues `model_spectrum` returns at denominator q."""
    return q if isinstance(model, ReducedHarper) else RING_SIZE * q


def eigenvalues(h: HermitianMatrix) -> np.ndarray:
    """Ascending real spectrum with an explicit residual certificate.

    Raises instead of returning a partial or low-quality spectrum: LAPACK
    non-convergence is re-raised with context, and every (lambda, v) pair must
    satisfy ||Hv - lambda v|| <= 1e-8 (1 + ||H||_F).
    """
    n = h.dimension
    _require_dimension(n)
    try:
        vals, vecs = np.linalg.eigh(h.entries)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver did not converge on a {n}x{n} matrix: {exc}") from exc
    residual = np.linalg.norm(h.entries @ vecs - vecs * vals, axis=0).max()
    bound = 1e-8 * (1.0 + np.linalg.norm(h.entries, "fro"))
    if residual > bound:
        raise RuntimeError(f"eigenpair residual {residual:.3e} exceeds contract bound {bound:.3e}")
    return vals


def model_spectrum(model: HamiltonianModel, p: int, q: int, k: BlochMomentum) -> np.ndarray:
    """Ascending spectrum of one model at flux B = p/(2q) and momentum k.

    The ring term commutes with the Harper core, so sector m is the sector-0
    matrix plus the scalar (16/pi^2)(2cos(pi B/4 + m pi/4) - 2cos(pi B/4)),
    and the anisotropic 8q x 8q spectrum is the union of the sector-0
    spectrum shifted into all eight sectors: one q x q solve.  The sector-0
    matrix is solved, never the bare scaled core, on which LAPACK can fail to
    converge (p/q = 101/52, k = 0).  The isotropic block model does not
    factor and is solved densely.
    """
    if isinstance(model, ReducedHarper):
        return eigenvalues(assemble_reduced(p, q, k, model.m))
    if isinstance(model, BlockAnisotropic):
        vals = eigenvalues(assemble_reduced(p, q, k, 0))
        B = FluxParam(p, q).field
        base = rotation_sector_shift(B, 0)
        shifts = [(16.0 / math.pi**2) * (rotation_sector_shift(B, m) - base) for m in range(RING_SIZE)]
        return np.sort(np.add.outer(shifts, vals), axis=None)
    return eigenvalues(assemble_block(model, p, q, k))


def coprime_flux_pairs(q_max: int) -> list[tuple[int, int]]:
    """All (p, q) with q <= q_max, 1 <= p < 2q, gcd(p, q) = 1, sorted by p/q."""
    pairs = [(p, q) for q in range(1, q_max + 1) for p in range(1, 2 * q) if math.gcd(p, q) == 1]
    pairs.sort(key=lambda pq: Fraction(pq[0], pq[1]))
    return pairs


def _radical_inverse(index: int, base: int) -> float:
    """Van der Corput point of `index` in `base` (one unscrambled Halton axis)."""
    value, f = 0.0, 1.0
    while index > 0:
        f /= base
        index, digit = divmod(index, base)
        value += f * digit
    return value


def momentum_samples(k_samples: int, seed: int) -> list[BlochMomentum]:
    """Low-discrepancy momenta: Halton points scaled to the 4-torus.

    The seed is the index of the first point in the unscrambled sequence, so
    equal seeds reproduce byte-identical sweeps.  Each coordinate is the
    radical inverse of its index in base 2, 3, 5 or 7, accumulated in floating
    point digit by digit (the same arithmetic as scipy's unscrambled
    `qmc.Halton`), at O(log seed) cost per point.
    """
    if k_samples < 1:
        raise ValueError(f"need at least one momentum sample, got {k_samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    pts = np.array([[_radical_inverse(seed + i, b) for b in _HALTON_BASES] for i in range(k_samples)])
    return [BlochMomentum(*row) for row in pts * _TWO_PI]


def butterfly_sweep(model: HamiltonianModel, q_max: int, k_samples: int, seed: int) -> list[SpectrumSample]:
    """Spectra over all admitted flux values phi = 2 pi p/q in (0, 4 pi).

    Output is ordered by (phi, sample index) and fully deterministic for fixed
    inputs.  A workload guard bounds the total diagonalization cost before any
    matrix is built.
    """
    if q_max < 2:
        raise ValueError(f"q_max must be >= 2, got {q_max}")
    if q_max > _MAX_SWEEP_Q:
        raise ValueError(f"q_max {q_max} exceeds the sweep bound {_MAX_SWEEP_Q}")
    pairs = coprime_flux_pairs(q_max)
    # charged at the size model_spectrum solves: 8q x 8q for block-iso, q x q otherwise
    solved = RING_SIZE if isinstance(model, BlockIsotropic) else 1
    workload = k_samples * sum((solved * q) ** 3 for _, q in pairs)
    if workload > _MAX_SWEEP_WORKLOAD:
        raise ValueError(
            f"sweep workload {workload:.2e} (sum of dim^3) exceeds {_MAX_SWEEP_WORKLOAD:.2e}; "
            "lower q_max or k_samples"
        )
    momenta = momentum_samples(k_samples, seed)

    out = []
    for p, q in pairs:
        phi = _TWO_PI * p / q
        for k in momenta:
            vals = model_spectrum(model, p, q, k)
            out.append(SpectrumSample(phi, k, tuple(float(v) for v in vals)))
    return out

