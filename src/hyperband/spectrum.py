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
m pi/4).  So every sector is the Harper core plus a scalar; sector 0 is the
only sector matrix a sweep solves, and one shift array moves its spectrum
across the flux orbit into sector m (`reduced --m M`) or all eight (block-aniso).
By Chambers' relation that matrix has the same spectrum at a momentum with
k1 in {0, pi/q}, where a gauge makes it real symmetric (`_chambers_stack`).
The isotropic block model splits into four complex 2q x 2q sectors
(`_iso_stack`).  Both are assembled from arrays of numerators and momenta
into stacks, gated, solved for eigenvalues only and certified by inertia
counts (`_solve_in_order`), one flux per orbit {p, p+q, q-p, 2q-p}
({p, 2q-p} for block-iso, `_flux_representative`); the other fluxes of an
orbit reuse its spectrum, through that same shift for a rotation sector and
block-aniso.  A sweep sends the stacks of every denominator through one
pipeline, in handoffs of at most `_BATCH_BYTES` // 2: one worker thread
runs only LAPACK on handoff i + 1 while the calling thread certifies
handoff i, so at most two handoffs, `_BATCH_BYTES` of assembled matrices,
are alive at once.  A run of one handoff (`spectrum`, `verify`, a small
sweep) has nothing to overlap and is solved inline, with no thread.
Everything here is hard-wired to genus 2 (ring size 8, phi = 4 pi B);
the group-theoretic modules stay genus-generic.
"""

from __future__ import annotations

import contextlib
import functools
import math
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .magnetic import FluxParam
from .tiling import scaling_parameter

MU = scaling_parameter(2)
RING_SIZE = 8
_TWO_PI = 2.0 * math.pi
_MAX_DIMENSION = 2000
_MAX_SWEEP_WORKLOAD = 2_000_000_000  # sum of dim^3 over all diagonalizations
_MAX_SWEEP_Q = 500
# every energy of a sweep is held in memory (8 B) and written as a CSV row (about 25 B),
# so 2e7 rows is 160 MB held and 0.5 GB written; the workload guard alone lets a small
# q_max with a huge k_samples through (q_max 2 at 2e8 momenta is 1e9 rows)
_MAX_SWEEP_ROWS = 20_000_000
_HALTON_BASES = (2, 3, 5, 7)
# the assembled matrices alive at once, at their itemsize: a handoff of stacks holds at most half,
# and at most two are alive (one solving on the worker, one built or certified on the caller)
_BATCH_BYTES = 1 << 20
_NEG_SQRT_TINY = -math.sqrt(np.finfo(float).tiny)
_HERMITIAN_TOL = 1e-12  # largest |H - H^dagger| either solver accepts
RING_WEIGHT = 16.0 / math.pi**2  # weight of the ring term against the Harper core


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


def rotation_sector_shift(B: float | np.ndarray, m: int | np.ndarray) -> float | np.ndarray:
    """Eigenvalue 2cos(pi B/4 + m pi/4) of the ring term's sector m.

    B and m may be arrays; they broadcast together, and every element of m
    must be a sector index.  Returned bare; the lattice Hamiltonian scales it
    by `RING_WEIGHT` where it enters the reduced matrix.
    """
    index = np.asarray(m)
    if not np.all((index >= 0) & (index < RING_SIZE) & (index % 1 == 0)):
        raise ValueError(f"sector index must be 0..{RING_SIZE - 1}, got {m}")
    return 2.0 * np.cos(np.pi * B / 4.0 + m * np.pi / 4.0)


def _require_dimension(n: int) -> None:
    """Refuse a matrix over `_MAX_DIMENSION` before anything of that size is allocated."""
    if n > _MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported bound {_MAX_DIMENSION}")


def _harper_stack(q: int, phi: np.ndarray, k1: np.ndarray, k2: np.ndarray, scale: float) -> np.ndarray:
    """Harper cores at (phi[i], k1[i], k2[i]) for equal-length 1-d arrays, stacked (n, q, q).

    Diagonal 2cos(k2 - j phi), hopping e^{-i k1} above the diagonal and
    e^{+i k1} below, cyclically wrapped, so the corners land at
    [0, q-1] = e^{+i k1} and [q-1, 0] = e^{-i k1}.  For q <= 2 the wrap adds
    onto an occupied entry; scaling each term before that sum, in this order,
    keeps the entries bit-for-bit what per-entry accumulation gives.
    `_iso_stack` and the dense oracle (`checks.harper_core`, `assemble_reduced`)
    share this one core; `checks.harper_oracle_compare` tests it against a
    clock-and-shift build that shares no code with it.
    """
    _require_dimension(q)
    n = np.arange(q)
    h = np.zeros((len(phi), q, q), dtype=complex)
    h[:, n, n] += scale * 2.0 * np.cos(k2[:, None] - n * phi[:, None])
    h[:, n, (n + 1) % q] += (scale * np.exp(-1j * k1))[:, None]
    h[:, (n + 1) % q, n] += (scale * np.exp(1j * k1))[:, None]
    return h


def _chambers_momenta(q: int, k1: np.ndarray, k2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k1', k2') with k1' in {0, pi/q} and cos(q k1') + cos(q k2') = s = cos(q k1) + cos(q k2).

    By Chambers' relation the characteristic polynomial of the Harper core
    at phi = 2 pi p/q, p coprime to q, depends on (k1, k2) only through s,
    so the core has the same spectrum at (k1', k2').  For s >= 0, k1' = 0 and
    cos(q k2') = s - 1; for s < 0, k1' = pi/q and cos(q k2') = s + 1.
    Bands can touch at s = +-2, where an eigenvalue moves like sqrt(2 -+ s),
    so s itself would lose the digits that matter (at q = 4, k2 = 1e-7 an
    eigenvalue moved by 3e-12).  The map therefore keeps the half-angle forms
    u = 1 - s/2 = sin^2(q k1/2) + sin^2(q k2/2) and v = 1 + s/2 =
    cos^2(q k1/2) + cos^2(q k2/2), each accurate to rounding where it is
    small: sin(q k2'/2) = sqrt(u) for s >= 0 (u <= 1), cos(q k2'/2) = sqrt(v)
    for s < 0.
    """
    a, b = 0.5 * q * k1, 0.5 * q * k2
    u = np.sin(a) ** 2 + np.sin(b) ** 2
    v = np.cos(a) ** 2 + np.cos(b) ** 2
    upper = u <= 1.0
    # each branch clips the other's argument, whose root is discarded, to keep it in range
    half = np.where(upper, np.arcsin(np.sqrt(np.minimum(u, 1.0))), np.arccos(np.sqrt(np.minimum(v, 1.0))))
    return np.where(upper, 0.0, math.pi / q), 2.0 * half / q


def _chambers_stack(q: int, p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Real symmetric twins of the sector-0 matrices `checks.assemble_reduced` builds, stacked (n, q, q).

    `p` holds n float numerators, coprime to q (the caller has checked),
    and `k` the matching (n, 4) momenta.  Sector 0 is the only sector
    matrix assembled: every other sector differs from it by a scalar, which
    `model_spectra` adds to the spectrum.  Each momentum moves by
    `_chambers_momenta` to (k1', k2'), where the gauge e^{i j k1'} on site
    j makes the matrix real: diagonal c 2cos(k2' - j phi) plus the scalar
    shift 2c(cos k3 + cos k4) + (16/pi^2) 2cos(pi B/4), c = -1/(8 mu^2),
    hoppings c and corners c sigma, sigma = cos(q k1') = +1 at k1' = 0 and
    -1 at k1' = pi/q.  The corners add onto occupied entries for q <= 2: the
    diagonal becomes c 2(cos k2' + sigma) at q = 1, the hopping c(1 + sigma)
    at q = 2.
    """
    _require_dimension(q)
    c = -1.0 / (8.0 * MU * MU)
    k1, k2, k3, k4 = k.T
    k1r, k2r = _chambers_momenta(q, k1, k2)
    j = np.arange(q)
    h = np.zeros((len(p), q, q))
    h[:, j, j] = c * 2.0 * np.cos(k2r[:, None] - j * (_TWO_PI * p / q)[:, None])
    h[:, j[:-1], j[1:]] = h[:, j[1:], j[:-1]] = c
    corner = c * np.where(k1r == 0.0, 1.0, -1.0)
    h[:, 0, q - 1] += corner
    h[:, q - 1, 0] += corner
    h[:, j, j] += (2.0 * c * (np.cos(k3) + np.cos(k4)) + RING_WEIGHT * rotation_sector_shift(p / (2.0 * q), 0))[:, None]
    return h


def _iso_stack(q: int, p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Block-iso S^2 sectors j = 0..3 at float numerators `p` (n,) and momenta `k` (n, 4), stacked (4n, 2q, 2q), j fastest.

    S is the twisted ring shift, S + S^dagger = ring(B); S^2 commutes with
    block-iso, whose diagonal and hopping diag(1, 0, ...) are 2-periodic on
    the ring.  Sector j, ordered (e_0..e_{q-1}, o_0..o_{q-1}) over even and
    odd ring sites, with s = -1/(4 mu^2), B = p/(2q) and
    lambda_j = e^{i pi B/2} i^j: e-e is the Harper core at zero flux with k3
    for k2, times s; o-o is diag s(2cos(k2 - n phi) + 2cos k4);
    H[e_n, o_n] = (16/pi^2)(1 + lambda_j).  Each o_n couples only to e_n: a
    pendant site.
    """
    _require_dimension(2 * q)
    s = -1.0 / (4.0 * MU * MU)
    k1, k2, k3, k4 = k.T
    phi = _TWO_PI * p / q
    link = RING_WEIGHT * (1.0 + np.exp(0.5j * math.pi * (p[:, None] / (2.0 * q) + np.arange(4))))
    n = np.arange(q)
    h = np.zeros((len(p), 4, 2 * q, 2 * q), dtype=complex)
    h[:, :, :q, :q] = _harper_stack(q, np.zeros(len(p)), k1, k3, scale=s)[:, None]
    odd = s * 2.0 * np.cos(k2[:, None] - n * phi[:, None]) + s * 2.0 * np.cos(k4)[:, None]
    h[:, :, q + n, q + n] = odd[:, None]
    h[:, :, n, q + n] = link[:, :, None]
    h[:, :, q + n, n] = link.conj()[:, :, None]
    return h.reshape(-1, 2 * q, 2 * q)


def _require_solvable(h: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """RuntimeError unless every matrix of an (n, dim, dim) stack is zero outside the symmetric
    `mask`, finite and Hermitian to `_HERMITIAN_TOL`: the matrices are assembled here, so a
    bad one is a fault of the library, not of its input.  Returns the (n, entries) gather
    h[:, mask] it checked."""
    dim = h.shape[-1]
    band = h[:, mask]
    if np.count_nonzero(h) != np.count_nonzero(band):
        raise RuntimeError(f"{dim}x{dim} matrix has entries outside the cyclic band")
    if not np.all(np.isfinite(band)):
        raise RuntimeError(f"non-finite entries in a stack of {dim}x{dim} matrices")
    # outside the mask H - H^dagger vanishes; the symmetric mask holds both entries of every pair
    drift = float(np.abs(band - h.swapaxes(-1, -2)[:, mask].conj()).max(initial=0.0))
    if drift > _HERMITIAN_TOL:
        raise RuntimeError(f"matrix fails Hermiticity by {drift:.3e}")
    return band


def _cyclic_band(n: int, pendants: bool = False) -> np.ndarray:
    """Mask of the entries an n x n kernel matrix may occupy: the cyclic band or, with
    `pendants`, the [core | pendant] layout of `_iso_stack` (n = 2q)."""
    q = n // 2 if pendants else n
    j = np.arange(q)
    offset = (j[None, :] - j[:, None]) % q
    mask = np.zeros((n, n), dtype=bool)
    mask[:q, :q] = (offset == 0) | (offset == 1) | (offset == q - 1)
    if pendants:
        mask[q + j, q + j] = mask[q + j, j] = mask[j, q + j] = True
    return mask


def inertia_counts(h: np.ndarray, sigma: np.ndarray, pendants: bool = False) -> np.ndarray:
    """N(sigma): negative pivots of LDL^H(H - sigma I), per matrix of `h` and shift of `sigma`.

    `h` is an (n, q, q) stack of Hermitian or real symmetric matrices that
    vanish outside the cyclic band, `sigma` an (n, s) array of shifts.  By
    Sylvester's law of inertia N(sigma) is the number of eigenvalues below
    sigma.  Rows 0..q-2 form a tridiagonal block, counted by the Sturm
    recurrence d_j = a_j - sigma - |H[j, j-1]|^2 / d_{j-1}; the last pivot is
    its Schur complement a_{q-1} - sigma - sum_j |y_j|^2 / d_j with
    y = L^{-1} H[:q-1, q-1]: y_0 = H[0, q-1], y_j = -H[j, j-1] y_{j-1} / d_{j-1},
    plus H[q-2, q-1] in the last row.  A zero pivot is replaced by
    -sqrt(tiny) (Kahan), so it counts as negative and the next pivot stays
    finite.  Costs O(q) per shift; the rows are formed one at a time, so no
    temporary exceeds (n, s).

    With `pendants` (layout of `_cyclic_band`) each pendant q + j is
    eliminated first: pivot b_j = H[q+j, q+j] - sigma, same zero rule, and
    -|H[q+j, j]|^2 / b_j folds into a_j - sigma before the core recurrence.
    A `sigma` that is not 2-D with one row per matrix is a ValueError: it
    would broadcast one row of shifts over several matrices.
    """
    if sigma.ndim != 2 or len(sigma) != len(h):
        raise ValueError(f"shifts must be shaped ({len(h)}, s) for {len(h)} matrices, got {sigma.shape}")
    q = h.shape[-1] // 2 if pendants else h.shape[-1]
    j = np.arange(q)
    diag = h.real[:, j, j, None]  # a_j, (n, q, 1)
    if pendants:
        pendant = h.real[:, q + j, q + j, None]
        link = h[:, q + j, j, None]
        link_sq = (link * link.conj()).real
    count = np.zeros(sigma.shape, dtype=np.intp)

    def pivot(x: np.ndarray) -> np.ndarray:
        if not x.all():
            x[x == 0.0] = _NEG_SQRT_TINY
        return x

    def shifted(row: int) -> np.ndarray:
        # a_row - sigma, less its eliminated pendant
        nonlocal count
        x = diag[:, row] - sigma
        if pendants:
            b = pivot(pendant[:, row] - sigma)
            count += b < 0.0
            x -= link_sq[:, row] / b
        return x

    d = pivot(shifted(0))
    count += d < 0.0
    if q == 1:
        return count
    sub = h[:, j[1:], j[:-1], None]  # H[j+1, j]
    sub_sq = (sub * sub.conj()).real
    y = np.broadcast_to(h[:, 0, q - 1, None], d.shape).copy()
    schur = (y * y.conj()).real / d
    for row in range(1, q - 1):
        inv = 1.0 / d
        y *= inv * -sub[:, row - 1]
        if row == q - 2:
            y += h[:, q - 2, q - 1, None]
        inv *= sub_sq[:, row - 1]
        d = pivot(np.subtract(shifted(row), inv, out=inv))
        count += d < 0.0
        schur += (y * y.conj()).real / d
    count += pivot(shifted(q - 1) - schur) < 0.0
    return count


def certify_spectra(h: np.ndarray, vals: np.ndarray, pendants: bool = False) -> None:
    """Prove |mu_i - lambda_i| <= delta for the i-th true eigenvalue mu_i of each matrix.

    `h` is a stack as `inertia_counts` takes it, `vals` the (n, dim) claimed
    ascending spectra, and delta = 1e-8 (1 + ||H||_F).  The counts must
    satisfy N(lambda_i - delta) <= i and N(lambda_i + delta) >= i + 1: at
    most i eigenvalues lie below lambda_i - delta and at least i + 1 below
    lambda_i + delta.  Unlike an eigenpair residual, which only places each
    lambda near some eigenvalue, this pins the i-th one, so a duplicated or
    missing eigenvalue fails.  Raises RuntimeError, or ValueError for a
    `vals` of another shape than (n, dim), which would broadcast.
    """
    if vals.shape != h.shape[:-1]:
        raise ValueError(f"claimed spectra must be shaped {h.shape[:-1]}, got {vals.shape}")
    _certify(h, h[:, _cyclic_band(h.shape[-1], pendants)], vals, pendants)


def _certify(h: np.ndarray, band: np.ndarray, vals: np.ndarray, pendants: bool) -> None:
    """`certify_spectra`, given `band`, the gather of `h` over its `_cyclic_band`, for the norm."""
    dim = h.shape[-1]
    if not np.all(np.isfinite(vals)):
        raise RuntimeError(f"non-finite eigenvalue from a {dim}x{dim} matrix")
    delta = 1e-8 * (1.0 + np.linalg.norm(band, axis=1))[:, None]
    counts = inertia_counts(h, np.concatenate([vals - delta, vals + delta], axis=1), pendants)
    i = np.arange(dim)
    bad = (counts[:, :dim] > i) | (counts[:, dim:] < i + 1)
    if bad.any():
        mat, idx = np.argwhere(bad)[0]
        raise RuntimeError(
            f"inertia certificate failed for eigenvalue {idx} of a {dim}x{dim} matrix: "
            f"N(lambda - delta) = {counts[mat, idx]}, N(lambda + delta) = {counts[mat, dim + idx]}, "
            f"delta {delta[mat, 0]:.3e}"
        )


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues of a stack, without eigenvectors; a solve that does not converge is a RuntimeError."""
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        dim = h.shape[-1]
        raise RuntimeError(f"eigensolver did not converge on a stack of {dim}x{dim} matrices: {exc}") from exc


def _lapack_worker(inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
    """Solve each list of stacks taken from `inbox` into `outbox`, or put its error there instead, until None."""
    while (stacks := inbox.get()) is not None:
        try:
            outbox.put([_eigvalsh(h) for h in stacks])
        except Exception as exc:  # the calling thread raises it
            outbox.put(exc)


def _solve_in_order(handoffs: Sequence[Sequence[Callable[[], np.ndarray]]], pendants: bool) -> Iterator[np.ndarray]:
    """Certified ascending eigenvalues of every stack the `handoffs` assemble, one array per stack, in order.

    A handoff is a list of callables, each assembling one (n, dim, dim)
    stack in the layout `pendants` selects (`_cyclic_band`).  The calling
    thread assembles a handoff and gates each stack with `_require_solvable`
    (which refuses a stack nonzero outside the band, since the certificate
    reads only the band); `_eigvalsh` solves it, and `_certify` checks
    every eigenvalue against the matrix that was solved, on the band the
    gate gathered.  With two handoffs or more they go through one pipeline:
    a single worker thread runs only `_eigvalsh`, and while it solves
    handoff i + 1 the calling thread certifies handoff i.  numpy's LAPACK
    loop releases the GIL and the certificate, a loop of small numpy calls,
    mostly holds it, so the two run at the same time.  At most two handoffs
    are alive at once: the one on the worker, and the one being assembled
    or certified.  With one handoff there is nothing to overlap, and it is
    solved inline, with no thread.  A failed gate, solve or certificate
    raises RuntimeError in the calling thread, and the worker is joined
    before the generator finishes, raises or is closed.
    """

    def gated(handoff: Sequence[Callable[[], np.ndarray]]) -> list[tuple[np.ndarray, np.ndarray]]:
        stacks = []
        for build in handoff:
            h = build()
            stacks.append((h, _require_solvable(h, _cyclic_band(h.shape[-1], pendants))))
        return stacks

    def certified(stacks: list[tuple[np.ndarray, np.ndarray]], spectra: list | Exception) -> Iterator[np.ndarray]:
        if isinstance(spectra, Exception):
            raise spectra
        for (h, band), vals in zip(stacks, spectra, strict=True):
            _certify(h, band, vals, pendants)
            yield vals

    if len(handoffs) < 2:
        for handoff in handoffs:
            stacks = gated(handoff)
            yield from certified(stacks, [_eigvalsh(h) for h, _ in stacks])
        return
    inbox: queue.SimpleQueue = queue.SimpleQueue()
    outbox: queue.SimpleQueue = queue.SimpleQueue()
    worker = threading.Thread(target=_lapack_worker, args=(inbox, outbox), daemon=True)
    worker.start()
    try:
        solving = gated(handoffs[0])
        inbox.put([h for h, _ in solving])
        for handoff in handoffs[1:]:
            upcoming = gated(handoff)
            inbox.put([h for h, _ in upcoming])
            yield from certified(solving, outbox.get())
            solving = upcoming
        yield from certified(solving, outbox.get())
    finally:
        inbox.put(None)
        worker.join()


def harper_eigvalsh(h: np.ndarray, pendants: bool = False) -> np.ndarray:
    """Certified ascending eigenvalues of an (n, dim, dim) stack of cyclic-tridiagonal matrices.

    The matrices are Hermitian or real symmetric; `pendants` selects the
    layout of `_cyclic_band`.  This is `_solve_in_order` applied to the one
    stack, so inline: the gate, one LAPACK call without eigenvectors, and
    the certificate of `certify_spectra` on every eigenvalue.  Any failure
    raises RuntimeError.
    """
    (vals,) = _solve_in_order([[lambda: h]], pendants)
    return vals


def _sector_layout(model: HamiltonianModel, q: int) -> tuple[int, int]:
    """(matrices solved per (p, k), their dimension): four 2q x 2q S^2 sectors for block-iso, one q x q otherwise."""
    return (4, 2 * q) if isinstance(model, BlockIsotropic) else (1, q)


def _flux_representative(model: HamiltonianModel, p: np.ndarray, q: int) -> np.ndarray:
    """The member of each p's flux orbit whose matrices `model_spectra` solves for flux p/(2q).

    `p` is an integer array.  The Harper core sees phi = 2 pi p/q only
    modulo 2 pi and up to its sign (reversing the sites and conjugating maps
    phi to -phi), so for a rotation sector and block-aniso it is
    min(p mod q, q - p mod q), and 1 at q = 1.  Block-iso's pendant links
    break the p + q symmetry, but its full spectrum is 4 pi periodic and
    equal at p and 2q - p, so there it is min(p', 2q - p') with
    p' = p mod 2q.  A p not coprime to q > 1 keeps a representative that is
    not coprime either, so the solve still refuses it.
    """
    if isinstance(model, BlockIsotropic):
        p = p % (2 * q)
        return np.minimum(p, 2 * q - p)
    if q == 1:
        return np.ones_like(p)
    p = p % q
    return np.minimum(p, q - p)


def _solved_numerators(model: HamiltonianModel, ps: Sequence[int], q: int) -> tuple[np.ndarray, np.ndarray]:
    """(solved, row): the ascending representatives `model_spectra` solves for `ps`, and each p's index into them.

    The workload guard of `butterfly_sweep` charges len(solved), so it counts
    exactly the matrix sets the sweep solves.  (np.unique with return_inverse
    also skips the hash path, whose masked-array test would import numpy.ma.)
    """
    return np.unique(_flux_representative(model, np.asarray(ps), q), return_inverse=True)


def _solved_spectra(
    model: HamiltonianModel, jobs: Sequence[tuple[int, Sequence[int]]], momenta: Sequence[BlochMomentum]
) -> Iterator[np.ndarray]:
    """Certified spectra of the matrices solved for `model` at each (q, ps) of `jobs`, in order, through one pipeline.

    Yields per job an array shaped (len(ps), len(momenta), count * dim).
    The matrices are the real symmetric Chambers twin of the sector-0
    matrix (`_chambers_stack`) for a rotation sector and block-aniso alike,
    or block-iso's four complex S^2 sectors, whose spectra follow one
    another unmerged; no other sector is assembled.  A p not coprime to its
    q is a ValueError, also when there is no momentum, before anything is
    solved.  Each job's (p, momentum) items are flattened once, momentum
    fastest, into a float numerator vector and an (n, 4) momentum array;
    slices of both are assembled as stacks, and consecutive stacks are
    grouped into handoffs of at most `_BATCH_BYTES` // 2, counted at 8 B
    per real and 16 B per complex entry.  A job's stacks may share a
    handoff with the jobs beside it; a single item larger than that still
    forms a stack of its own.  `_solve_in_order` solves and certifies them.
    """
    iso = isinstance(model, BlockIsotropic)
    stack = _iso_stack if iso else _chambers_stack
    limit = _BATCH_BYTES // 2
    rows = np.array([[x.k1, x.k2, x.k3, x.k4] for x in momenta]).reshape(-1, 4)
    handoffs: list[list[Callable[[], np.ndarray]]] = []
    shapes = []  # per job: its stack count and the shape of its spectra
    room = 0
    for q, ps in jobs:
        for p in dict.fromkeys(np.asarray(ps).tolist()):
            FluxParam(p, q)
        count, dim = _sector_layout(model, q)
        item_bytes = (16 if iso else 8) * count * dim * dim
        per_stack = max(1, limit // item_bytes)
        p = np.repeat(np.asarray(ps, dtype=float), len(momenta))
        k = np.tile(rows, (len(ps), 1))
        starts = range(0, len(p), per_stack)
        shapes.append((len(starts), (len(ps), len(momenta), count * dim)))
        for i in starts:
            size = item_bytes * min(per_stack, len(p) - i)
            if size > room:
                handoffs.append([])
                room = limit
            handoffs[-1].append(functools.partial(stack, q, p[i : i + per_stack], k[i : i + per_stack]))
            room -= size
    with contextlib.closing(_solve_in_order(handoffs, iso)) as spectra:
        for n, shape in shapes:
            vals = [next(spectra) for _ in range(n)]
            yield np.concatenate(vals or [np.empty(0)]).reshape(shape)


def _certified_spectra(model: HamiltonianModel, q: int, ps: Sequence[int], momenta: Sequence[BlochMomentum]) -> np.ndarray:
    """Certified spectra of the matrices solved for `model` at every p of `ps` and momentum, shape (len(ps), len(momenta), count * dim).

    The one-job case of `_solved_spectra`.
    """
    (vals,) = _solved_spectra(model, [(q, ps)], momenta)
    return vals


def _orbit_spectra(
    model: HamiltonianModel, q: int, ps: Sequence[int], solved: np.ndarray, row: np.ndarray, vals: np.ndarray
) -> np.ndarray:
    """`model_spectra` at every p of `ps`, from `vals`, the certified spectra at the representatives `solved`.

    `row` indexes each p's representative in `solved` (`_solved_numerators`).
    """
    if isinstance(model, BlockIsotropic):
        return np.sort(vals, axis=-1)[row]
    sectors = np.array([model.m]) if isinstance(model, ReducedHarper) else np.arange(RING_SIZE)
    b_p, b_r = np.asarray(ps)[:, None] / (2.0 * q), solved[row, None] / (2.0 * q)
    shift = RING_WEIGHT * (rotation_sector_shift(b_p, sectors) - rotation_sector_shift(b_r, 0))
    union = vals[row][:, :, None, :] + shift[:, None, :, None]
    union = union.reshape(len(ps), vals.shape[1], len(sectors) * vals.shape[-1])
    return np.sort(union, axis=-1) if len(sectors) > 1 else union


def _sweep_spectra(
    model: HamiltonianModel, numerators: dict[int, Sequence[int]], momenta: Sequence[BlochMomentum]
) -> Iterator[np.ndarray]:
    """`model_spectra(model, q, ps, momenta)` for each q: ps of `numerators`, in order, all solved through one pipeline."""
    solved = {q: _solved_numerators(model, ps, q) for q, ps in numerators.items()}
    spectra = _solved_spectra(model, [(q, reps) for q, (reps, _) in solved.items()], momenta)
    for vals, (q, ps), (reps, row) in zip(spectra, numerators.items(), solved.values(), strict=True):
        yield _orbit_spectra(model, q, ps, reps, row, vals)


def model_spectra(model: HamiltonianModel, q: int, ps: Sequence[int], momenta: Sequence[BlochMomentum]) -> np.ndarray:
    """Ascending spectra at flux B = p/(2q) for every p in `ps` and every momentum.

    Returns shape (len(ps), len(momenta), dim), dim = q for a rotation sector
    and 8q for the block models.  This is the one-denominator case of the
    sweep's route (`_sweep_spectra`).  One matrix set is solved per flux
    orbit: only the representative r = `_flux_representative(model, p, q)`
    of each p is assembled and solved (`_solved_spectra`: stacks in
    handoffs, `_solve_in_order`, every eigenvalue certified), and
    `_orbit_spectra` derives every p from it.  Sector 0 is the only
    sector matrix solved, and its spectrum at r already holds the ring
    term (16/pi^2) s(B_r, 0) on its diagonal, s(B, t) = 2cos(pi B/4 + t pi/4).
    Every rotation sector t is the Harper core times a constant plus a
    scalar, the core's spectrum is the same at p and r, and the ring term
    commutes with the core; so sector t at p is the solved spectrum plus the
    one shift (16/pi^2)(s(B_p, t) - s(B_r, 0)), computed as one array over
    the model's sectors, (m,) for `reduced --m` or 0..7 for block-aniso,
    whose 8q x 8q spectrum is the union of all eight, sorted.  That q x q
    matrix is solved as its real symmetric Chambers twin at a moved
    momentum (`_chambers_stack`); block-iso's sectors stay Hermitian.  The
    sector-0 matrix is solved, never the bare scaled core, on which LAPACK
    `eigh` can fail to converge (p/q = 101/52, k = 0).  The isotropic
    spectrum is the union of its four S^2 sectors at r, the same at p.
    `checks.sector_union` holds both block spectra against dense matrices.
    """
    (spectra,) = _sweep_spectra(model, {q: ps}, momenta)
    return spectra


def model_spectrum(model: HamiltonianModel, p: int, q: int, k: BlochMomentum) -> np.ndarray:
    """Ascending spectrum of one model at flux B = p/(2q) and momentum k (see `model_spectra`)."""
    return model_spectra(model, q, [p], [k])[0, 0]


def coprime_flux_pairs(q_max: int) -> list[tuple[int, int]]:
    """All (p, q) with q <= q_max, 1 <= p < 2q, gcd(p, q) = 1, sorted by p/q.

    The float key orders exactly for q <= `_MAX_SWEEP_Q`: distinct pairs
    differ by at least 1/q_max^2 = 4e-6, far above one ulp of p/q < 2, and
    correctly rounded division is monotone.
    """
    pairs = [(p, q) for q in range(1, q_max + 1) for p in range(1, 2 * q) if math.gcd(p, q) == 1]
    pairs.sort(key=lambda pq: pq[0] / pq[1])
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


def butterfly_sweep(
    model: HamiltonianModel, q_max: int, k_samples: int, seed: int
) -> list[tuple[float, np.ndarray]]:
    """Spectra over all admitted flux values phi = 2 pi p/q in (0, 4 pi).

    Returns one (phi, spectra) pair per flux in ascending phi, where row i of
    the (k_samples, dim) array `spectra` is the ascending spectrum at the i-th
    momentum sample.  Every denominator goes through one pipeline
    (`_sweep_spectra`), so the stacks of the next handoff are solved on the
    worker thread while this thread certifies the last ones; each
    denominator's spectra equal `model_spectra`'s bit for bit.  Output is
    fully deterministic for fixed inputs.  Two guards refuse a
    sweep before any momentum or matrix is built: the workload guard bounds
    the total diagonalization cost, charging what `model_spectra` solves
    (one matrix set per flux orbit and momentum), and the row guard bounds
    the energies returned, k_samples times the spectrum sizes summed over
    the fluxes, by `_MAX_SWEEP_ROWS`.
    """
    if q_max < 2:
        raise ValueError(f"q_max must be >= 2, got {q_max}")
    if q_max > _MAX_SWEEP_Q:
        raise ValueError(f"q_max {q_max} exceeds the sweep bound {_MAX_SWEEP_Q}")
    pairs = coprime_flux_pairs(q_max)
    numerators: dict[int, list[int]] = {}
    for p, q in pairs:
        numerators.setdefault(q, []).append(p)
    workload = k_samples * sum(
        len(_solved_numerators(model, ps, q)[0]) * count * dim**3
        for q, ps in numerators.items()
        for count, dim in [_sector_layout(model, q)]
    )
    if workload > _MAX_SWEEP_WORKLOAD:
        raise ValueError(
            f"sweep workload {workload:.2e} (sum of dim^3) exceeds {_MAX_SWEEP_WORKLOAD:.2e}; "
            "lower q_max or k_samples"
        )
    sectors = 1 if isinstance(model, ReducedHarper) else RING_SIZE
    rows = k_samples * sectors * sum(len(ps) * q for q, ps in numerators.items())
    if rows > _MAX_SWEEP_ROWS:
        raise ValueError(f"sweep of {rows:.2e} rows exceeds {_MAX_SWEEP_ROWS:.2e}; lower q_max or k_samples")
    momenta = momentum_samples(k_samples, seed)

    spectra = {}
    for (q, ps), vals in zip(numerators.items(), _sweep_spectra(model, numerators, momenta), strict=True):
        spectra.update(zip(((p, q) for p in ps), vals))
    return [(_TWO_PI * p / q, spectra[p, q]) for p, q in pairs]
