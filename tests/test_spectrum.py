"""Lattice Hamiltonian assembly, diagonalization, sweeps, and their oracles."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from hyperband import checks
from hyperband.checks import (
    assemble_block,
    assemble_reduced,
    eigenvalues,
    harper_core,
    harper_oracle_compare,
    ring_matrix,
)
from hyperband.magnetic import FluxParam
from hyperband.spectrum import (
    MU,
    BlochMomentum,
    BlockAnisotropic,
    BlockIsotropic,
    ReducedHarper,
    _solve_in_order,
    butterfly_sweep,
    certify_spectra,
    coprime_flux_pairs,
    inertia_counts,
    model_spectra,
    model_spectrum,
    momentum_samples,
    rotation_sector_shift,
)

TWO_PI = 2.0 * math.pi


def random_momentum(rng) -> BlochMomentum:
    return BlochMomentum(*rng.uniform(0.0, TWO_PI, size=4))


def item_arrays(p: int, k: BlochMomentum) -> tuple[np.ndarray, np.ndarray]:
    # one (p, k) item as the stack builders take it: a float numerator vector and (n, 4) momenta
    return np.array([float(p)]), np.array([[k.k1, k.k2, k.k3, k.k4]])


def random_flux_pair(rng, q_max=8):
    q = int(rng.integers(1, q_max + 1))
    while True:
        p = int(rng.integers(1, 2 * q))
        if math.gcd(p, q) == 1:
            return p, q


# ---------------------------------------------------------------- types


def test_momentum_normalization():
    k = BlochMomentum(TWO_PI + 0.3, -0.5, 7.0, 0.0)
    assert abs(k.k1 - 0.3) < 1e-12
    assert abs(k.k2 - (TWO_PI - 0.5)) < 1e-12
    assert 0.0 <= k.k3 < TWO_PI
    assert k.k4 == 0.0
    tiny = BlochMomentum(-1e-18, 0.0, 0.0, 0.0)
    assert 0.0 <= tiny.k1 < TWO_PI
    with pytest.raises(ValueError):
        BlochMomentum(math.nan, 0.0, 0.0, 0.0)


def test_reduced_model_sector_range():
    ReducedHarper(0)
    ReducedHarper(7)
    with pytest.raises(ValueError):
        ReducedHarper(8)
    with pytest.raises(ValueError):
        ReducedHarper(-1)


def test_hermitian_matrix_validation():
    # the dense oracle passes the kernel's gate: a shape error is the caller's, a bad matrix the library's
    got = eigenvalues(np.array([[0.0, 1j], [-1j, 2.0]]))
    assert np.abs(got - np.array([1.0 - math.sqrt(2.0), 1.0 + math.sqrt(2.0)])).max() < 1e-14
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(RuntimeError, match="fails Hermiticity by 1.000e\\+00"):
        eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(RuntimeError, match="fails Hermiticity by 2.000e-12"):
        eigenvalues(np.array([[0.0, 1.0], [1.0 + 2e-12j, 0.0]]))
    with pytest.raises(RuntimeError, match="non-finite entries"):
        eigenvalues(np.array([[math.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(RuntimeError, match="non-finite entries"):
        eigenvalues(np.array([[0.0, complex(0.0, math.nan)], [0.0, 1.0]]))


# ---------------------------------------------------------------- sector shift


def test_rotation_sector_shift_values():
    assert rotation_sector_shift(0.0, 0) == 2.0
    assert abs(rotation_sector_shift(0.0, 2)) < 1e-15  # 2cos(pi/2)
    assert abs(rotation_sector_shift(0.5, 0) - 2.0 * math.cos(math.pi / 8.0)) < 1e-12
    assert abs(rotation_sector_shift(0.5, 0) - 1.8477590650225735) < 1e-12
    with pytest.raises(ValueError):
        rotation_sector_shift(0.3, 8)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-8.0, max_value=8.0), min_size=1, max_size=12),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
)
def test_rotation_sector_shift_on_arrays_equals_the_scalar_values(fields, sectors):
    B, m = np.array(fields), np.array(sectors)
    got = rotation_sector_shift(B[:, None], m[None, :])
    assert got.shape == (len(fields), len(sectors))
    for i, b in enumerate(fields):
        for j, t in enumerate(sectors):
            assert got[i, j] == rotation_sector_shift(b, t)
            assert abs(got[i, j] - 2.0 * math.cos(math.pi * b / 4.0 + t * math.pi / 4.0)) <= 1e-15
    # one array argument with a scalar sector, the way model_spectra calls it
    assert np.array_equal(rotation_sector_shift(B, sectors[0]), got[:, 0])


@pytest.mark.parametrize("m", [8, -1, 2.5, math.nan, [0, 8]])
def test_rotation_sector_shift_refuses_any_bad_sector(m):
    with pytest.raises(ValueError, match="sector index must be 0..7"):
        rotation_sector_shift(np.array([0.1, 0.3]), m)


def test_ring_matrix_zero_field_is_cycle_graph():
    # B=0: plain 8-cycle adjacency; circulant eigenvalues 2cos(2 pi m/8)
    ring = ring_matrix(0.0)
    assert np.abs(ring - ring.real).max() == 0.0
    got = np.sort(np.linalg.eigvalsh(ring))
    want = np.sort([2.0 * math.cos(TWO_PI * m / 8.0) for m in range(8)])
    assert np.abs(got - want).max() < 1e-12


def test_ring_matrix_sectors_match_shift_formula():
    for B in (0.0, 0.25, 1.0 / 3.0, 0.7):
        got = np.sort(np.linalg.eigvalsh(ring_matrix(B)))
        want = np.sort([rotation_sector_shift(B, m) for m in range(8)])
        assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------- reduced assembly


def test_reduced_harper_diagonal_frozen():
    # p=1, q=3, k=0: Harper diagonal 2cos(-n phi) = (2, -1, -1)
    h = assemble_reduced(1, 3, BlochMomentum.zero(), 0)
    c = -1.0 / (8.0 * MU * MU)
    shift = 2.0 * c * 2.0 + (16.0 / math.pi**2) * rotation_sector_shift(1.0 / 6.0, 0)
    diag = (np.diag(h) - shift).real / c
    assert np.abs(diag - np.array([2.0, -1.0, -1.0])).max() < 1e-12


def test_reduced_off_diagonal_and_corner_orientation():
    k = BlochMomentum(0.7, 0.0, 0.0, 0.0)
    h = assemble_reduced(1, 3, k, 0)
    c = -1.0 / (8.0 * MU * MU)
    assert abs(h[0, 1] - c * np.exp(-0.7j)) < 1e-14  # above diagonal
    assert abs(h[1, 0] - c * np.exp(+0.7j)) < 1e-14  # below diagonal
    assert abs(h[0, 2] - c * np.exp(+0.7j)) < 1e-14  # top-right corner
    assert abs(h[2, 0] - c * np.exp(-0.7j)) < 1e-14  # bottom-left corner


def test_reduced_q2_corner_merges_with_hopping():
    h = assemble_reduced(1, 2, BlochMomentum.zero(), 0)
    want = -2.0 * math.cos(0.0) / (8.0 * MU * MU)
    assert abs(h[0, 1] - want) < 1e-14
    k = BlochMomentum(1.3, 0.0, 0.0, 0.0)
    h = assemble_reduced(1, 2, k, 0)
    assert abs(h[0, 1] - (-2.0 * math.cos(1.3) / (8.0 * MU * MU))) < 1e-14


def test_reduced_q1_single_site():
    h = assemble_reduced(1, 1, BlochMomentum.zero(), 0)  # B = 1/2
    want = (
        -2.0 / (8.0 * MU * MU)
        - 2.0 / (8.0 * MU * MU)
        - 2.0 * 2.0 / (8.0 * MU * MU)
        + (16.0 / math.pi**2) * rotation_sector_shift(0.5, 0)
    )
    assert abs(h[0, 0] - want) < 1e-12
    assert eigenvalues(h).shape == (1,)


def _reduced_by_entry_loop(p, q, k, m):
    # reference: the per-entry accumulation the vectorized assembler replaces
    phi = TWO_PI * p / q
    c = -1.0 / (8.0 * MU * MU)
    h = np.zeros((q, q), dtype=complex)
    for n in range(q):
        h[n, n] += c * 2.0 * math.cos(k.k2 - n * phi)
        h[n, (n + 1) % q] += c * np.exp(-1j * k.k1)
        h[(n + 1) % q, n] += c * np.exp(1j * k.k1)
    shift = 2.0 * c * (math.cos(k.k3) + math.cos(k.k4)) + (16.0 / math.pi**2) * rotation_sector_shift(p / (2.0 * q), m)
    return h + shift * np.eye(q)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(coprime_flux_pairs(40)),
    st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=7),
)
# q <= 2: the cyclic wrap adds onto an occupied entry, where summation order shows
@example((1, 1), [0.7, 1.9, 0.2, 5.1], 3)
@example((1, 2), [1.3, 0.4, 2.2, 0.0], 0)
@example((3, 2), [4.0, 2.8, 0.1, 6.0], 7)
def test_reduced_assembly_bitwise_equals_entry_loop(pq, ks, m):
    p, q = pq
    k = BlochMomentum(*ks)
    assert assemble_reduced(p, q, k, m).tobytes() == _reduced_by_entry_loop(p, q, k, m).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(coprime_flux_pairs(40)),
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8, unique=True),
)
# q <= 2 wraps onto occupied entries; a zero momentum puts the corner phases at exactly 1
@example((1, 1), [[0.7, 1.9, 0.2, 5.1], [0.0, 0.0, 0.0, 0.0]], [3, 0])
@example((1, 2), [[1.3, 0.4, 2.2, 0.0]], [0, 5, 7])
@example((3, 2), [[4.0, 2.8, 0.1, 6.0], [2.2, 0.0, 3.1, 1.0]], [7, 1])
@example((2, 5), [[0.0, 0.0, 0.0, 0.0]], list(range(8)))
def test_stacked_sector_build_bitwise_equals_entry_loop(pq, ks, sectors):
    # momentum outer, sector inner: each matrix of the one stacked build is the loop's, byte for byte
    p, q = pq
    momenta = [BlochMomentum(*x) for x in ks]
    want = np.array([_reduced_by_entry_loop(p, q, k, m) for k in momenta for m in sectors])
    assert checks._reduced_matrices(p, q, momenta, sectors).tobytes() == want.tobytes()


def _ring_by_site_loop(B):
    # reference: the per-site fill that `ring_matrix` replaces
    ring = np.zeros((8, 8), dtype=complex)
    for i in range(7):
        ring[i, i + 1] = 1.0
        ring[i + 1, i] = 1.0
    ring[0, 7] = np.exp(2j * math.pi * B)
    ring[7, 0] = np.exp(-2j * math.pi * B)
    return ring


def _block_by_block_loop(model, p, q, k):
    # reference: the per-block accumulation the index-assigned assembler replaces
    phi = TWO_PI * p / q
    ring = (16.0 / math.pi**2) * _ring_by_site_loop(p / (2.0 * q))
    eye8 = np.eye(8)
    iso = isinstance(model, BlockIsotropic)
    denom = (4.0 if iso else 8.0) * MU * MU
    hop = -np.exp(1j * k.k1) / denom * (np.diag([1.0, 0.0] * 4) if iso else eye8)
    h = np.zeros((8 * q, 8 * q), dtype=complex)
    for n in range(q):
        if iso:
            pair = [math.cos(k.k3), math.cos(k.k2 - n * phi) + math.cos(k.k4)]
            a_block = -2.0 / denom * np.diag([pair[s % 2] for s in range(8)]) + ring
        else:
            w = -2.0 / denom * (math.cos(k.k2 - n * phi) + math.cos(k.k3) + math.cos(k.k4))
            a_block = w * eye8 + ring
        s = slice(8 * n, 8 * (n + 1))
        t = slice(8 * ((n + 1) % q), 8 * ((n + 1) % q) + 8)
        h[s, s] += a_block
        h[t, s] += hop
        h[s, t] += hop.conj().T
    return h


@pytest.mark.parametrize("B", [0.0, 0.125, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0, -0.3, 2.5])
def test_ring_bitwise_equals_site_loop(B):
    assert ring_matrix(B).tobytes() == _ring_by_site_loop(B).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(coprime_flux_pairs(40)),
    st.lists(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True), min_size=4, max_size=4),
)
# q <= 2: hop and its conjugate land on the same block, where summation order shows
@example((1, 1), [0.7, 1.9, 0.2, 5.1])
@example((1, 2), [1.3, 0.4, 2.2, 0.0])
@example((3, 2), [4.0, 2.8, 0.1, 6.0])
@example((1, 1), [0.0, 0.0, 0.0, 0.0])
def test_block_assembly_bitwise_equals_block_loop(pq, ks):
    p, q = pq
    k = BlochMomentum(*ks)
    for model in (BlockAnisotropic(), BlockIsotropic()):
        assert assemble_block(model, p, q, k).tobytes() == _block_by_block_loop(model, p, q, k).tobytes()


def test_reduced_rejects_non_coprime():
    with pytest.raises(ValueError):
        assemble_reduced(2, 4, BlochMomentum.zero(), 0)
    with pytest.raises(ValueError):
        assemble_reduced(1, 0, BlochMomentum.zero(), 0)
    with pytest.raises(ValueError):
        assemble_reduced(1, 3, BlochMomentum.zero(), 9)


# ---------------------------------------------------------------- block assembly


def test_block_q1_is_shifted_single_block():
    k = BlochMomentum(0.4, 1.1, 2.0, 0.3)
    got = eigenvalues(assemble_block(BlockAnisotropic(), 1, 1, k))
    a0 = (
        -2.0 / (8.0 * MU * MU) * (math.cos(k.k2) + math.cos(k.k3) + math.cos(k.k4)) * np.eye(8)
        + (16.0 / math.pi**2) * ring_matrix(0.5)
        + (-2.0 * math.cos(k.k1) / (8.0 * MU * MU)) * np.eye(8)
    )
    want = np.sort(np.linalg.eigvalsh(a0))
    assert np.abs(got - want).max() < 1e-12


def test_block_hopping_sits_below_diagonal():
    k = BlochMomentum(0.9, 0.0, 0.0, 0.0)
    h = assemble_block(BlockAnisotropic(), 1, 3, k)
    hop = -np.exp(0.9j) / (8.0 * MU * MU)
    assert abs(h[8, 0] - hop) < 1e-14  # block (1,0)
    assert abs(h[0, 8] - np.conj(hop)) < 1e-14
    assert abs(h[0, 16] - hop) < 1e-14  # corner block (0, q-1)
    assert abs(h[16, 0] - np.conj(hop)) < 1e-14


def test_block_isotropic_structure():
    k = BlochMomentum(0.9, 0.7, 1.3, 0.2)
    h = assemble_block(BlockIsotropic(), 1, 3, k)
    w = -2.0 / (4.0 * MU * MU)
    assert abs(h[0, 0] - w * math.cos(k.k3)) < 1e-14
    assert abs(h[1, 1] - w * (math.cos(k.k2) + math.cos(k.k4))) < 1e-14
    assert abs(h[2, 2] - w * math.cos(k.k3)) < 1e-14
    hop = -np.exp(0.9j) / (4.0 * MU * MU)
    assert abs(h[8, 0] - hop) < 1e-14  # projector keeps even ring sites
    assert abs(h[9, 1]) == 0.0
    assert abs(h[10, 2] - hop) < 1e-14


def test_block_rejects_bad_inputs():
    with pytest.raises(ValueError):
        assemble_block(BlockAnisotropic(), 3, 6, BlochMomentum.zero())
    with pytest.raises(ValueError):
        assemble_block(ReducedHarper(0), 1, 2, BlochMomentum.zero())


def test_assembled_matrices_hermitian_everywhere():
    rng = np.random.default_rng(211)
    models = [ReducedHarper(0), ReducedHarper(5), BlockAnisotropic(), BlockIsotropic()]
    for _ in range(200):
        model = models[rng.integers(0, len(models))]
        p, q = random_flux_pair(rng)
        k = random_momentum(rng)
        if isinstance(model, ReducedHarper):
            h = assemble_reduced(p, q, k, model.m)
        else:
            h = assemble_block(model, p, q, k)
        dim = q if isinstance(model, ReducedHarper) else 8 * q
        assert h.shape == (dim, dim)
        assert np.all(np.isfinite(h))
        assert np.abs(h - h.conj().T).max() == 0.0  # each pair is one value and its exact conjugate


# ---------------------------------------------------------------- eigensolver


def test_eigenvalues_trivial_cases():
    got = eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.abs(got - np.array([1.0, 2.0, 3.0])).max() < 1e-14
    got = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.abs(got - np.array([-1.0, 1.0])).max() < 1e-14


def test_eigenvalues_match_characteristic_polynomial_oracle():
    # Faddeev-LeVerrier coefficients + companion-matrix roots: a route that
    # never calls the Hermitian eigensolver
    a = assemble_reduced(1, 5, BlochMomentum.zero(), 0)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    mk = np.zeros_like(a)
    c = 1.0 + 0j
    for k in range(1, n + 1):
        mk = a @ mk + c * np.eye(n)
        c = -(a @ mk).trace() / k
        coeffs.append(c)
    roots = np.sort(np.roots(coeffs).real)
    assert np.abs(np.asarray(eigenvalues(a)) - roots).max() < 1e-8


def test_stacked_eigenvalues_equal_each_single_solve():
    rng = np.random.default_rng(2027)
    for _ in range(6):
        p, q = random_flux_pair(rng, q_max=6)
        ks = [random_momentum(rng) for _ in range(3)]
        for stack in (
            np.array([assemble_reduced(p, q, k, m) for k in ks for m in range(8)]),
            np.array([assemble_block(model, p, q, k) for k in ks for model in (BlockAnisotropic(), BlockIsotropic())]),
        ):
            got = eigenvalues(stack)
            assert got.shape == stack.shape[:2]
            for h, row in zip(stack, got, strict=True):
                assert np.array_equal(row, eigenvalues(h))


def test_stacked_eigenvalues_keep_the_gates():
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.zeros((3, 2, 3)))
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.zeros(4))
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        eigenvalues(np.zeros((1, 2001, 2001), dtype=complex))
    stack = np.array([np.eye(2), [[0.0, 1.0], [2.0, 0.0]]], dtype=complex)
    with pytest.raises(RuntimeError, match="fails Hermiticity"):
        eigenvalues(stack)


def test_stacked_eigenvalues_certify_each_matrix_against_its_own_norm(monkeypatch):
    # an error of 1e-6 passes the bound of a matrix of norm 1e3 (1e-5) but not
    # that of the unit-norm one (~2.4e-8), so a bound pooled over the stack would miss it
    small = np.diag([1.0, -1.0]).astype(complex)
    stack = np.array([1e3 * small, small])
    real_eigh = np.linalg.eigh

    def off_on_the_last(h):
        vals, vecs = real_eigh(h)
        vals[-1, 0] += 1e-6
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", off_on_the_last)
    with pytest.raises(RuntimeError, match="eigenpair residual 1.000e-06 exceeds contract bound 2.414e-08"):
        eigenvalues(stack)
    assert eigenvalues(stack[:1])[0, 0] == -1e3 + 1e-6  # within the large matrix's own bound


def test_eigenvalues_rejects_oversized():
    with pytest.raises(ValueError):
        eigenvalues(np.eye(2001, dtype=complex))


# ---------------------------------------------------------------- inertia certificate


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(coprime_flux_pairs(40)),
    st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=7),
    st.booleans(),
    st.lists(st.floats(min_value=-0.1, max_value=1.1), min_size=1, max_size=20),
)
# q <= 2: the corners fold onto occupied entries
@example((1, 1), [0.7, 1.9, 0.2, 5.1], 3, False, [0.5])
@example((1, 2), [1.3, 0.4, 2.2, 0.0], 0, False, [0.2, 0.5, 0.9])
@example((3, 2), [0.0, 0.0, 0.0, 0.0], 7, False, [0.5])
@example((1, 1), [0.7, 1.9, 0.2, 5.1], 3, True, [0.5])
@example((1, 2), [1.3, 0.4, 2.2, 0.0], 0, True, [0.2, 0.5, 0.9])
@example((3, 2), [0.0, 0.0, 0.0, 0.0], 6, True, [0.5])
def test_inertia_count_matches_dense_count(pq, ks, m, iso, fractions):
    # iso: block-iso S^2 sector m mod 4, whose pendant sites are eliminated first
    import hyperband.spectrum as spectrum

    p, q = pq
    k = BlochMomentum(*ks)
    h = spectrum._iso_stack(q, *item_arrays(p, k))[m % 4] if iso else assemble_reduced(p, q, k, m)
    vals = np.linalg.eigvalsh(h)
    delta = 1e-8 * (1.0 + np.linalg.norm(h))
    # random shifts over the spectrum, gap midpoints, and the certificate's own lambda -+ delta
    sigma = np.concatenate([
        vals[0] + (vals[-1] - vals[0] + 1.0) * np.array(fractions) - 0.5,
        (vals[1:] + vals[:-1]) / 2.0,
        vals - delta,
        vals + delta,
    ])
    sigma = sigma[np.abs(sigma[:, None] - vals[None, :]).min(axis=1) > 1e-9]
    want = (vals[None, :] < sigma[:, None]).sum(axis=1)
    assert np.array_equal(inertia_counts(h[None], sigma[None], pendants=iso)[0], want)


def _exact_negative_pivots(m: np.ndarray, sigma: float):
    """Oracle: negative pivots of LDL^T(m - sigma I) in exact rational arithmetic on the float entries.

    `m` is real symmetric.  The pivot is the remaining row with the fewest
    nonzeros, so a cyclic band fills in little; by Sylvester's law the count
    does not depend on the order.  None for an exact zero pivot.
    """
    rows = {i: {j: Fraction(v) for j, v in enumerate(row) if v} for i, row in enumerate(m.tolist())}
    for i, row in rows.items():
        row[i] = row.get(i, Fraction(0)) - Fraction(sigma)
    negative = 0
    while rows:
        k = min(rows, key=lambda i: len(rows[i]))
        row = rows.pop(k)
        pivot = row.pop(k, 0)  # a diagonal that cancelled exactly is gone from the row
        if pivot == 0:
            return None
        negative += pivot < 0
        for i, a in row.items():
            target = rows[i]
            del target[k]
            for j, b in row.items():
                value = target.get(j, 0) - a * b / pivot
                if value:
                    target[j] = value
                else:
                    target.pop(j, None)
    return negative


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(coprime_flux_pairs(12)), st.just(None)),
        st.tuples(st.sampled_from(coprime_flux_pairs(5)), st.integers(min_value=0, max_value=3)),
    ),
    st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=4, max_size=4),
)
# q <= 2: the corners fold onto occupied entries
@example(((1, 1), None), [0.7, 1.9, 0.2, 5.1])
@example(((1, 2), None), [1.3, 0.4, 2.2, 0.0])
@example(((1, 1), 3), [0.7, 1.9, 0.2, 5.1])
@example(((3, 2), 2), [0.0, 0.0, 0.0, 0.0])
def test_inertia_counts_equal_an_exact_ldlt_at_the_certificate_shifts(matrix, ks):
    # a Chambers twin (real, q x q) or a block-iso S^2 sector j (Hermitian, 2q x 2q), whose
    # real embedding [[A, -B], [B, A]] has each eigenvalue twice, so twice the inertia
    import hyperband.spectrum as spectrum

    (p, q), sector = matrix
    arrays = item_arrays(p, BlochMomentum(*ks))
    iso = sector is not None
    h = spectrum._iso_stack(q, *arrays)[sector] if iso else spectrum._chambers_stack(q, *arrays)[0]
    assert np.array_equal(h, h.conj().T)
    vals = np.linalg.eigvalsh(h)
    delta = 1e-8 * (1.0 + np.linalg.norm(h[spectrum._cyclic_band(len(h), iso)]))
    sigma = np.concatenate([vals - delta, vals + delta])
    real = np.block([[h.real, -h.imag], [h.imag, h.real]]) if iso else h
    exact = [_exact_negative_pivots(real, s) for s in sigma.tolist()]
    assume(None not in exact)
    counts = inertia_counts(h[None], sigma[None], pendants=iso)[0]
    assert ((1 + iso) * counts).tolist() == exact


def _reduced_stack_and_spectra():
    rng = np.random.default_rng(257)
    h = np.stack([assemble_reduced(p, 9, random_momentum(rng), m) for p, m in ((2, 0), (5, 3), (13, 6))])
    return h, np.linalg.eigvalsh(h)


def test_certificate_accepts_eigvalsh_spectra():
    h, vals = _reduced_stack_and_spectra()
    certify_spectra(h, vals)
    assert np.array_equal(_solve_in_order([[lambda: h]], False)[0], vals)


@pytest.mark.parametrize("mutation", ["up 10 delta", "down 10 delta", "copy of neighbour", "nan"])
def test_certificate_rejects_a_wrong_eigenvalue(mutation):
    h, vals = _reduced_stack_and_spectra()
    delta = 1e-8 * (1.0 + np.linalg.norm(h[1]))
    if mutation == "up 10 delta":
        vals[1, 4] += 10.0 * delta
    elif mutation == "down 10 delta":
        vals[1, 4] -= 10.0 * delta
    elif mutation == "copy of neighbour":
        # each value is still an eigenvalue, so an eigenpair residual would pass
        vals[1, 4] = vals[1, 5]
    else:
        vals[2, 0] = math.nan
    with pytest.raises(RuntimeError, match="inertia certificate|non-finite eigenvalue"):
        certify_spectra(h, vals)


def test_certificate_refuses_claims_shaped_unlike_the_stack():
    h, vals = _reduced_stack_and_spectra()
    # one row for three distinct matrices would broadcast: each matrix checked against the first's spectrum
    for claim in (vals[:1], vals[:, :-1], vals[0], vals[..., None]):
        with pytest.raises(ValueError, match=r"claimed spectra must be shaped \(3, 9\)"):
            certify_spectra(h, claim)
    # the same row for two copies of one matrix is true, yet it is still not a claim per matrix
    with pytest.raises(ValueError, match=r"claimed spectra must be shaped \(2, 9\)"):
        certify_spectra(np.stack([h[0], h[0]]), vals[:1])


def test_inertia_counts_count_an_exactly_zero_core_pivot_as_negative():
    # the first pivot of [[0, 1], [1, 0]] at sigma = 0 is exactly 0: as -sqrt(tiny) it
    # counts once, and the Schur complement 0 - 1/(-sqrt(tiny)) stays finite and positive
    h = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    want = (np.linalg.eigvalsh(h[0]) < 0.0).sum()
    assert want == 1
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert np.array_equal(inertia_counts(h, np.zeros((1, 1))), [[want]])


def test_inertia_counts_count_an_exactly_zero_pendant_pivot_as_negative():
    # block-iso layout [core | pendant], q = 3: pendant 4 sits on core site 1, and
    # its diagonal equals the shift, so its pivot H[4, 4] - sigma is exactly 0; as
    # -sqrt(tiny) it counts once, and its fold into site 1 stays finite
    q, sigma = 3, 0.25
    h = np.zeros((2 * q, 2 * q))
    h[range(q), range(q)] = [1.0, -2.0, 0.5]
    h[range(q), [1, 2, 0]] = h[[1, 2, 0], range(q)] = [0.7, -0.3, 0.4]
    h[range(q, 2 * q), range(q, 2 * q)] = [-1.5, sigma, 2.0]
    h[range(q, 2 * q), range(q)] = h[range(q), range(q, 2 * q)] = [0.6, 0.9, -0.8]
    vals = np.linalg.eigvalsh(h)
    assert np.abs(vals - sigma).min() > 1e-3
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        counts = inertia_counts(h[None], np.array([[sigma]]), pendants=True)
    assert np.array_equal(counts, [[(vals < sigma).sum()]])


def test_inertia_counts_refuse_shifts_without_one_row_per_matrix():
    h, vals = _reduced_stack_and_spectra()
    assert np.array_equal(inertia_counts(h, vals + 1e-3), np.tile(np.arange(1, 10), (3, 1)))
    for sigma in (vals[:1] + 1e-3, vals[0] + 1e-3, (vals + 1e-3)[..., None]):
        with pytest.raises(ValueError, match=r"shifts must be shaped \(3, s\) for 3 matrices"):
            inertia_counts(h, sigma)


def test_kernel_certifies_what_lapack_returns(monkeypatch):
    real_eigvalsh = np.linalg.eigvalsh

    def duplicating(a, UPLO="L"):
        vals = real_eigvalsh(a, UPLO)
        vals[..., 2] = vals[..., 3]
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", duplicating)
    for model, dim in ((ReducedHarper(0), 7), (BlockAnisotropic(), 7), (BlockIsotropic(), 14)):
        with pytest.raises(RuntimeError, match=f"inertia certificate failed for eigenvalue 2 of a {dim}x{dim}"):
            model_spectrum(model, 3, 7, BlochMomentum(0.3, 1.1, 2.5, 4.0))


def test_kernel_refuses_entries_outside_the_cyclic_band():
    import hyperband.spectrum as spectrum

    h, _ = _reduced_stack_and_spectra()
    h[2, 0, 4] = h[2, 4, 0] = 1e-3  # still Hermitian
    with pytest.raises(RuntimeError, match="outside the cyclic band"):
        _solve_in_order([[lambda: h]], False)
    # a pendant linked to a second core site is no pendant
    iso = spectrum._iso_stack(5, *item_arrays(3, BlochMomentum(0.3, 1.1, 2.5, 4.0)))
    _solve_in_order([[lambda: iso.copy()]], True)
    iso[1, 0, 6] = iso[1, 6, 0] = 1e-3
    with pytest.raises(RuntimeError, match="outside the cyclic band"):
        _solve_in_order([[lambda: iso]], True)


def test_kernel_refuses_non_hermitian_and_non_finite_stacks():
    import hyperband.spectrum as spectrum

    h, _ = _reduced_stack_and_spectra()
    skewed = h.copy()
    skewed[0, 1, 0] += 1e-9
    with pytest.raises(RuntimeError, match="Hermiticity"):
        _solve_in_order([[lambda: skewed]], False)
    # the drift reads both entries of every pair in the band: the cyclic corner
    q = h.shape[-1]
    for row, col in ((0, q - 1), (q - 1, 0)):
        skewed = h.copy()
        skewed[1, row, col] += 1e-9j
        with pytest.raises(RuntimeError, match="Hermiticity by 1.000e-09"):
            _solve_in_order([[lambda: skewed]], False)
    # and a block-iso pendant link
    q = 5
    iso = spectrum._iso_stack(q, *item_arrays(3, BlochMomentum(0.3, 1.1, 2.5, 4.0)))
    for j in (0, q - 1):
        for row, col in ((q + j, j), (j, q + j)):
            skewed = iso.copy()
            skewed[2, row, col] += 1e-9
            with pytest.raises(RuntimeError, match="Hermiticity by 1.000e-09"):
                _solve_in_order([[lambda: skewed]], True)
    h[1, 3, 3] = math.inf
    with pytest.raises(RuntimeError, match="non-finite"):
        _solve_in_order([[lambda: h]], False)


def test_kernel_reports_lapack_failure_as_runtime_error(monkeypatch):
    def no_convergence(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(RuntimeError, match="did not converge on a stack of 7x7"):
        model_spectrum(ReducedHarper(0), 3, 7, BlochMomentum.zero())


# ---------------------------------------------------------------- spectral symmetries


def test_flux_periodicity_of_harper_core():
    # phi -> phi + 2 pi leaves the Harper core invariant; only the sector
    # shift (a scalar on the diagonal) tracks B itself
    rng = np.random.default_rng(223)
    for p, q in [(1, 3), (2, 5), (3, 4)]:
        k = random_momentum(rng)
        e1 = np.asarray(eigenvalues(assemble_reduced(p, q, k, 0)))
        e2 = np.asarray(eigenvalues(assemble_reduced(p + 2 * q, q, k, 0)))
        s1 = (16.0 / math.pi**2) * rotation_sector_shift(p / (2.0 * q), 0)
        s2 = (16.0 / math.pi**2) * rotation_sector_shift((p + 2 * q) / (2.0 * q), 0)
        assert np.abs((e2 - s2) - (e1 - s1)).max() < 1e-9


def test_block_spectrum_has_4pi_flux_period():
    # p -> p + 2q shifts B by 1: the ring corners e^{+-i 2 pi B} and every
    # cosine are untouched, so the full block matrix is identical
    k = BlochMomentum(0.3, 1.7, 0.4, 2.2)
    h1 = assemble_block(BlockAnisotropic(), 1, 3, k)
    h2 = assemble_block(BlockAnisotropic(), 7, 3, k)
    assert np.abs(np.asarray(h1) - np.asarray(h2)).max() < 1e-12


def test_momentum_covariance_k2_shift_by_phi():
    rng = np.random.default_rng(227)
    for p, q in [(1, 3), (1, 4), (3, 5)]:
        phi = TWO_PI * p / q
        k = random_momentum(rng)
        shifted = BlochMomentum(k.k1, k.k2 + phi, k.k3, k.k4)
        e1 = np.asarray(eigenvalues(assemble_reduced(p, q, k, 2)))
        e2 = np.asarray(eigenvalues(assemble_reduced(p, q, shifted, 2)))
        assert np.abs(e1 - e2).max() < 1e-9


def test_gauge_shift_k1_by_2pi_over_q():
    rng = np.random.default_rng(229)
    for p, q in [(1, 3), (2, 5), (1, 6)]:
        k = random_momentum(rng)
        shifted = BlochMomentum(k.k1 + TWO_PI / q, k.k2, k.k3, k.k4)
        e1 = np.asarray(eigenvalues(assemble_reduced(p, q, k, 0)))
        e2 = np.asarray(eigenvalues(assemble_reduced(p, q, shifted, 0)))
        assert np.abs(e1 - e2).max() < 1e-9


def test_conjugation_pairs_flux_p_with_2q_minus_p():
    rng = np.random.default_rng(233)
    for p, q in [(1, 2), (1, 3), (3, 4)]:
        k = random_momentum(rng)
        mirrored = BlochMomentum(-k.k1, -k.k2, k.k3, k.k4)
        b1 = np.asarray(eigenvalues(assemble_block(BlockAnisotropic(), p, q, k)))
        b2 = np.asarray(eigenvalues(assemble_block(BlockAnisotropic(), 2 * q - p, q, mirrored)))
        assert np.abs(b1 - b2).max() < 1e-8
        # sector models pair m with 7-m under the same conjugation
        r1 = np.asarray(eigenvalues(assemble_reduced(p, q, k, 2)))
        r2 = np.asarray(eigenvalues(assemble_reduced(2 * q - p, q, mirrored, 5)))
        assert np.abs(r1 - r2).max() < 1e-8


def test_sector_union_equals_block_spectrum():
    rng = np.random.default_rng(239)
    for p, q in [(1, 2), (2, 3), (1, 1), (5, 3), (7, 4), (9, 5)]:
        k = random_momentum(rng)
        union = np.sort(np.concatenate([eigenvalues(assemble_reduced(p, q, k, m)) for m in range(8)]))
        block = np.asarray(eigenvalues(assemble_block(BlockAnisotropic(), p, q, k)))
        assert np.abs(union - block).max() < 1e-7
        # the sweep kernel: sector-0 spectrum shifted into all eight sectors
        kernel = model_spectrum(BlockAnisotropic(), p, q, k)
        assert np.abs(kernel - block).max() < 1e-7


def test_model_spectrum_where_bare_scaled_core_does_not_converge():
    # p/q = 101/52 at k = 0 (the first Halton point): LAPACK fails on the bare
    # core times -1/(8 mu^2); the kernel solves the shifted sector matrices
    k = BlochMomentum.zero()
    block = model_spectrum(BlockAnisotropic(), 101, 52, k)
    assert block.shape == (416,)
    assert np.all(np.diff(block) >= 0.0)
    sectors = [model_spectrum(ReducedHarper(m), 101, 52, k) for m in range(8)]
    for vals in sectors:
        assert vals.shape == (52,)
        assert np.all(np.diff(vals) >= 0.0)
    assert np.abs(np.sort(np.concatenate(sectors)) - block).max() < 1e-7


def test_model_spectrum_dispatch():
    import hyperband.spectrum as spectrum

    k = BlochMomentum(0.3, 1.1, 2.5, 4.0)
    got = model_spectrum(ReducedHarper(4), 3, 7, k)
    dense = assemble_reduced(3, 7, k, 4)
    # reduced: the spectrum of the real Chambers twin of sector 0 (3 is its own
    # orbit representative), plus the sector-4 shift, bit for bit
    real = spectrum._chambers_stack(7, *item_arrays(3, k))
    assert real.dtype == np.float64
    B = 3 / 14
    sector = spectrum.RING_WEIGHT * (rotation_sector_shift(B, 4) - rotation_sector_shift(B, 0))
    assert np.array_equal(got, (np.linalg.eigvalsh(real)[0] + 0.0) + sector)
    # against the eigenvector solve of the oracle path only rounding differs
    assert np.abs(got - eigenvalues(dense)).max() < 1e-12
    # block-iso: the union of its four S^2 sector spectra, bit for bit
    got = model_spectrum(BlockIsotropic(), 3, 7, k)
    sectors = spectrum._iso_stack(7, *item_arrays(3, k))
    assert np.array_equal(got, np.sort(np.linalg.eigvalsh(sectors), axis=None))
    with pytest.raises(ValueError):
        model_spectrum(BlockAnisotropic(), 2, 4, k)


# ---------------------------------------------------------------- flux orbits

_BELOW_Q = [(p, q) for q in range(2, 41) for p in range(1, q) if math.gcd(p, q) == 1]


def _orbit(p: int, q: int) -> list[int]:
    return [p, p + q, q - p, 2 * q - p]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_BELOW_Q),
    st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=7),
)
@example((1, 1), [0.7, 1.9, 0.2, 5.1], 3)  # q = 1: members 1, 2, 0, 1
@example((1, 2), [0.0, 0.0, 0.0, 0.0], 0)
def test_orbit_members_match_their_own_sector_matrices(pq, ks, m):
    # model_spectra solves one member per orbit and shifts its spectrum to the others
    p, q = pq
    k = BlochMomentum(*ks)
    members = _orbit(p, q)
    derived = model_spectra(ReducedHarper(m), q, members, [k])[:, 0]
    for vals, member in zip(derived, members, strict=True):
        assert np.abs(vals - eigenvalues(assemble_reduced(member, q, k, m))).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([pq for pq in _BELOW_Q if pq[1] <= 16]),
    st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=4, max_size=4),
)
@example((1, 1), [0.7, 1.9, 0.2, 5.1])
def test_block_spectra_across_an_orbit_match_the_dense_matrices(pq, ks):
    # block-iso derives only 2q - p from p; p + q and q - p form its second orbit
    p, q = pq
    k = BlochMomentum(*ks)
    members = _orbit(p, q)
    for model in (BlockAnisotropic(), BlockIsotropic()):
        derived = model_spectra(model, q, members, [k])[:, 0]
        for vals, member in zip(derived, members, strict=True):
            assert np.abs(vals - eigenvalues(assemble_block(model, member, q, k))).max() < 1e-10


@pytest.mark.parametrize("model, dim", [(ReducedHarper(0), 5), (ReducedHarper(5), 5), (BlockAnisotropic(), 40), (BlockIsotropic(), 40)])
def test_model_spectra_of_no_flux_or_no_momentum_are_empty(model, dim):
    k = BlochMomentum.zero()
    assert model_spectra(model, 5, [], [k]).shape == (0, 1, dim)
    assert model_spectra(model, 5, [1, 3], []).shape == (2, 0, dim)
    assert model_spectra(model, 5, [], []).shape == (0, 0, dim)
    with pytest.raises(ValueError, match="not coprime"):
        model_spectra(model, 5, [1, 5], [])  # nothing to solve, but p = 5 is still refused


# ---------------------------------------------------------------- Chambers reduction


def _edge_momenta(q: int) -> list[tuple[float, float]]:
    # (k1, k2) with s = cos(q k1) + cos(q k2) exactly 2, -2, 0 (upper branch), 0 (from k1 = pi/q)
    return [(0.0, 0.0), (math.pi / q, math.pi / q), (0.0, math.pi / q), (math.pi / q, 0.0)]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0.0, max_value=TWO_PI),
    st.floats(min_value=0.0, max_value=TWO_PI),
)
@example(7, 0.0, 0.0)
@example(7, math.pi / 7, math.pi / 7)
@example(7, 0.0, math.pi / 7)
@example(1, math.pi, 0.0)
@example(4, 0.0, 1e-7)
@example(4, math.pi / 4, math.pi / 4 + 1e-7)
def test_chambers_momenta_keep_the_invariant(q, k1, k2):
    import hyperband.spectrum as spectrum

    k1r, k2r = spectrum._chambers_momenta(q, np.array([k1]), np.array([k2]))
    k1r, k2r = float(k1r[0]), float(k2r[0])
    s = math.cos(q * k1) + math.cos(q * k2)
    assert k1r in (0.0, math.pi / q)
    if abs(s) > 1e-12:  # the branch is s >= 0 -> k1' = 0, up to rounding at s = 0
        assert k1r == (0.0 if s > 0.0 else math.pi / q)
    assert 0.0 <= k2r <= math.pi / q
    assert abs(math.cos(q * k1r) + math.cos(q * k2r) - s) <= 1e-14
    # near s = +-2 the distance 2 -+ s is kept to its own relative precision
    u = math.sin(q * k1 / 2) ** 2 + math.sin(q * k2 / 2) ** 2
    v = math.cos(q * k1 / 2) ** 2 + math.cos(q * k2 / 2) ** 2
    if k1r == 0.0:
        assert abs(math.sin(q * k2r / 2) ** 2 - u) <= 1e-14 * u + 1e-300
    else:
        assert abs(math.cos(q * k2r / 2) ** 2 - v) <= 4e-15 * math.sqrt(v) + 1e-30


def test_chambers_momenta_at_the_edges_of_the_invariant():
    import hyperband.spectrum as spectrum

    for q in range(1, 41):
        k1, k2 = np.array(_edge_momenta(q)).T
        k1r, k2r = spectrum._chambers_momenta(q, k1, k2)
        assert np.array_equal(k1r, [0.0, math.pi / q, 0.0, 0.0])
        assert np.array_equal(np.cos(q * k1r) + np.cos(q * k2r), [2.0, -2.0, 0.0, 0.0])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(coprime_flux_pairs(40)),
    st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=4, max_size=4),
)
# q <= 2 on both branches: the corners fold onto the diagonal (q = 1) or the hopping (q = 2)
@example((1, 1), [0.7, 1.9, 0.2, 5.1])
@example((1, 1), [2.5, 2.0, 0.2, 5.1])
@example((1, 2), [1.3, 0.4, 2.2, 0.0])
@example((3, 2), [0.2, 0.3, 4.0, 1.0])
# s exactly 2, -2 and 0
@example((3, 5), [0.0, 0.0, 0.3, 0.9])
@example((3, 5), [math.pi / 5, math.pi / 5, 0.3, 0.9])
@example((3, 5), [0.0, math.pi / 5, 0.3, 0.9])
# s 8e-14 from 2 and from -2, where the two central bands of q = 4 touch
@example((7, 4), [0.0, 1e-07, 0.0, 0.0])
@example((7, 4), [math.pi / 4, math.pi / 4 + 1e-07, 0.0, 0.0])
# where LAPACK fails on the bare scaled core
@example((101, 52), [0.0, 0.0, 0.0, 0.0])
def test_chambers_stack_has_the_dense_sector_spectrum(pq, ks):
    # the solved sector-0 twin at p itself, and every sector m through the orbit
    # representative's sector-0 spectrum plus the shifts of `model_spectra`
    import hyperband.spectrum as spectrum

    p, q = pq
    k = BlochMomentum(*ks)
    solved = spectrum._solved_spectra(ReducedHarper(0), {q: [p]}, [k])[0][0, 0]
    assert np.abs(solved - eigenvalues(assemble_reduced(p, q, k, 0))).max() < 1e-12
    for m in range(8):
        got = model_spectra(ReducedHarper(m), q, [p], [k])[0, 0]
        assert np.abs(got - eigenvalues(assemble_reduced(p, q, k, m))).max() < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3, 4, 7, 40])
def test_chambers_stack_at_the_edges_of_the_invariant(q):
    import hyperband.spectrum as spectrum

    ps = [p for p in range(1, 2 * q) if math.gcd(p, q) == 1]
    momenta = [BlochMomentum(k1, k2, 0.3, 0.9) for k1, k2 in _edge_momenta(q)]
    items = [(p, k) for p in ps for k in momenta]
    for m in range(8):
        got = model_spectra(ReducedHarper(m), q, ps, momenta).reshape(len(items), q)
        dense = np.linalg.eigvalsh(np.stack([assemble_reduced(p, q, k, m) for p, k in items]))
        assert np.abs(got - dense).max() < 1e-12


def test_chambers_sign_convention_sigma_is_minus_one_at_k1_pi_over_q():
    # q k2 = 2.25 lies in [0, pi], so each momentum maps to itself; the gauge
    # e^{i j k1} on site j turns the complex sector matrix into the real one
    import hyperband.spectrum as spectrum

    q, p = 5, 2
    c = -1.0 / (8.0 * MU * MU)
    for k1, sigma in ((math.pi / q, -1.0), (0.0, 1.0)):
        k = BlochMomentum(k1, 0.45, 1.0, 2.0)
        real = spectrum._chambers_stack(q, *item_arrays(p, k))[0]
        gauge = np.exp(1j * np.arange(q) * k1)
        gauged = gauge.conj()[:, None] * assemble_reduced(p, q, k, 0) * gauge[None, :]
        assert np.abs(gauged - real).max() < 1e-15
        assert real[0, q - 1] == real[q - 1, 0] == c * sigma
        assert real[0, 1] == real[1, 0] == c


def test_batches_count_eight_bytes_per_real_and_sixteen_per_complex_entry(monkeypatch):
    import hyperband.spectrum as spectrum

    stacks = []
    real_eigvalsh = np.linalg.eigvalsh

    def recording(h):
        stacks.append((len(h), h.dtype))
        return real_eigvalsh(h)

    # every stack the sweep solves reaches LAPACK here, on the worker thread or inline
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    # handoffs of at most half of it: three complex 5 x 5 matrices
    monkeypatch.setattr(spectrum, "_BATCH_BYTES", 2 * 16 * 5 * 5 * 3)
    momenta = [BlochMomentum(0.4 * i, 0.2, 0.3, 0.4) for i in range(13)]
    for model in (ReducedHarper(2), BlockAnisotropic()):
        stacks.clear()
        spectrum._solved_spectra(model, {5: [1]}, momenta)
        assert stacks == [(6, np.float64), (6, np.float64), (1, np.float64)]
    # block-iso at q = 1: four complex 2 x 2 sectors, 256 B per item
    stacks.clear()
    spectrum._solved_spectra(BlockIsotropic(), {1: [1]}, momenta)
    assert stacks == [(16, np.complex128)] * 3 + [(4, np.complex128)]


def test_batch_boundaries_keep_each_p_with_its_momenta(monkeypatch):
    # several numerators and momenta: a p slice and a k slice that drift apart at a
    # batch boundary would pair a flux with another flux's momenta
    import hyperband.spectrum as spectrum

    momenta = [BlochMomentum(0.4 * i, 0.2 + 0.3 * i, 0.3, 0.4 * i) for i in range(5)]
    cases = (
        (ReducedHarper(0), spectrum._chambers_stack, 7, [1, 2, 3, 5, 9]),
        (BlockIsotropic(), spectrum._iso_stack, 5, [1, 2, 3, 7, 9]),
    )
    for model, stack, q, ps in cases:
        default = spectrum._solved_spectra(model, {q: ps}, momenta)[0]
        monkeypatch.setattr(spectrum, "_BATCH_BYTES", 1)  # one (p, k) item per batch
        single = spectrum._solved_spectra(model, {q: ps}, momenta)[0]
        monkeypatch.undo()
        assert np.array_equal(single, default)
        for i, p in enumerate(ps):
            for j, k in enumerate(momenta):
                assert np.array_equal(default[i, j], np.linalg.eigvalsh(stack(q, *item_arrays(p, k))).ravel())


_ORBIT_MODELS = [ReducedHarper(0), ReducedHarper(5), BlockAnisotropic(), BlockIsotropic()]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.sampled_from(_ORBIT_MODELS))
@example(8, ReducedHarper(0))  # 1, 3, 3, 1, 1, 3, 3, 1 at the odd p
@example(8, BlockIsotropic())  # 1, 3, 5, 7, 7, 5, 3, 1 at the odd p
@example(1, BlockAnisotropic())  # 1 at every p
@example(4, ReducedHarper(3))  # p = 4: the representative 0 is not coprime to 4
@example(1, BlockIsotropic())  # p = 0 keeps 0: block-iso is 4 pi periodic, not 2 pi
def test_orbit_representative_is_the_smallest_member_and_shared_by_its_orbit(q, model):
    import hyperband.spectrum as spectrum

    iso = isinstance(model, BlockIsotropic)
    period = 2 * q if iso else q
    ps = list(range(2 * q))
    solved, row = spectrum._solved_numerators(model, ps, q)
    assert solved.tolist() == sorted(set(solved.tolist()))
    rep = solved[row].tolist()
    for p in ps:
        r = rep[p]
        if period == 1:
            assert r == 1
        else:
            # the smallest r >= 0 with r = +-p mod the period; it is 0 only at p = 0 mod the period
            assert (r - p) % period == 0 or (r + p) % period == 0
            assert r == min(x for x in range(period) if (x - p) % period == 0 or (x + p) % period == 0)
        orbit = (p, 2 * q - p) if iso else (p, p + q, q - p, 2 * q - p)
        assert {rep[member % (2 * q)] for member in orbit} == {r}
        if q > 1 and math.gcd(p, q) != 1:
            assert math.gcd(r, q) != 1
            with pytest.raises(ValueError, match="not coprime"):
                model_spectra(model, q, [1, p], [])  # nothing to solve, but p is still refused


@st.composite
def _orbit_check_samples(draw):
    # two pairs at one q (possibly the same pair twice) and a third at any q, in any order
    q = draw(st.integers(min_value=1, max_value=9))
    coprime = [p for p in range(1, 2 * q) if math.gcd(p, q) == 1]
    shared = [FluxParam(p, q) for p in draw(st.lists(st.sampled_from(coprime), min_size=2, max_size=2))]
    other = FluxParam(*draw(st.sampled_from(coprime_flux_pairs(9))))
    pairs = draw(st.permutations([*shared, other]))
    k = st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=4, max_size=4)
    return pairs, [BlochMomentum(*ks) for ks in draw(st.lists(k, min_size=1, max_size=2))]


@settings(max_examples=25, deadline=None)
@given(_orbit_check_samples())
@example(([FluxParam(1, 5), FluxParam(2, 5), FluxParam(1, 2)], [BlochMomentum(0.3, 1.2, 2.0, 4.1)]))
@example(([FluxParam(1, 1), FluxParam(1, 1), FluxParam(101, 52)], [BlochMomentum.zero()]))
def test_merged_orbit_check_is_the_worst_of_its_pairs_bit_for_bit(sample):
    pairs, momenta = sample
    assert checks.flux_orbits(pairs, momenta) == max(checks.flux_orbits([pair], momenta) for pair in pairs)


def test_orbit_check_runs_each_route_once_per_model_over_all_its_pairs(monkeypatch):
    import hyperband.spectrum as spectrum

    calls, nested, pipelines = [], [], []
    real_sweep, real_solved, real_solve = spectrum._sweep_spectra, spectrum._solved_spectra, spectrum._solve_in_order

    def sweep(model, numerators, momenta):
        calls.append(("sweep", model, list(numerators.items())))
        nested.append(True)
        try:
            return real_sweep(model, numerators, momenta)
        finally:
            nested.pop()

    def solved(model, numerators, momenta):
        if not nested:  # the direct route, not the sweep's own solve
            calls.append(("solved", model, list(numerators.items())))
        return real_solved(model, numerators, momenta)

    def solve(handoffs, pendants):
        pipelines.append(pendants)
        return real_solve(handoffs, pendants)

    monkeypatch.setattr(spectrum, "_sweep_spectra", sweep)
    monkeypatch.setattr(spectrum, "_solved_spectra", solved)
    monkeypatch.setattr(spectrum, "_solve_in_order", solve)
    momenta = [BlochMomentum(0.3, 1.2, 2.0, 4.1), BlochMomentum(2.5, 0.1, 5.0, 1.0)]
    defect = checks.flux_orbits([FluxParam(3, 7), FluxParam(1, 5)], momenta)
    assert defect < checks.TOLERANCES["sector"]
    members = [(7, [3, 4, 10, 11]), (5, [1, 4, 6, 9])]  # each pair's orbit, in pair order
    assert calls == [
        (route, model, members)
        for model in (ReducedHarper(0), BlockIsotropic())
        for route in ("sweep", "solved")
    ]
    assert pipelines == [False, False, True, True]


# ---------------------------------------------------------------- sweeps


def test_coprime_flux_pairs_float_order_is_exact_up_to_the_sweep_bound():
    pairs = coprime_flux_pairs(500)
    assert len(pairs) == len(set(pairs))
    assert pairs == sorted(pairs, key=lambda pq: Fraction(*pq))


def test_coprime_flux_pairs_enumeration():
    pairs = coprime_flux_pairs(2)
    assert pairs == [(1, 2), (1, 1), (3, 2)]  # phi = pi, 2 pi, 3 pi
    for p, q in coprime_flux_pairs(7):
        assert 1 <= p < 2 * q and math.gcd(p, q) == 1
    phis = [p / q for p, q in coprime_flux_pairs(7)]
    assert phis == sorted(phis)


def test_momentum_samples_deterministic_and_seeded():
    a = momentum_samples(3, 0)
    b = momentum_samples(3, 0)
    assert a == b
    assert a[0] == BlochMomentum.zero()  # unscrambled sequence starts at the origin
    shifted = momentum_samples(2, 1)
    assert shifted[0] == a[1] and shifted[1] == a[2]
    with pytest.raises(ValueError):
        momentum_samples(0, 0)
    with pytest.raises(ValueError):
        momentum_samples(1, -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_momentum_samples_match_scipy_halton(k_samples, seed):
    halton = qmc.Halton(d=4, scramble=False)
    halton.fast_forward(seed)
    want = [BlochMomentum(*row) for row in halton.random(k_samples) * TWO_PI]
    assert momentum_samples(k_samples, seed) == want  # bit for bit


def test_momentum_samples_hold_python_floats():
    # like `checks.random_momenta` and `cli.parse_momentum`, not numpy scalars
    for k in momentum_samples(3, 0) + momentum_samples(2, 346_747_834):
        assert all(type(x) is float for x in (k.k1, k.k2, k.k3, k.k4))


def test_momentum_samples_large_seed_is_cheap():
    # the seed indexes the sequence directly; no skipped point is generated
    seed = 346_747_834
    got = momentum_samples(4, seed)
    assert len(got) == 4
    assert got[1:] == momentum_samples(3, seed + 1)
    for i, k in enumerate(got):
        for base, value in zip((2, 3, 5, 7), (k.k1, k.k2, k.k3, k.k4)):
            index, exact, f = seed + i, Fraction(0), Fraction(1)
            while index:
                f /= base
                index, digit = divmod(index, base)
                exact += f * digit
            assert abs(value - TWO_PI * float(exact)) < 1e-14


def test_butterfly_sweep_small():
    sweep = butterfly_sweep(ReducedHarper(0), 2, 2, 0)
    phis = [phi for phi, _ in sweep]
    assert [round(phi, 12) for phi in phis] == [round(math.pi, 12), round(TWO_PI, 12), round(3.0 * math.pi, 12)]
    assert phis == sorted(phis)
    # one row per momentum sample, in sample order
    momenta = momentum_samples(2, 0)
    for (phi, spectra), (p, q) in zip(sweep, coprime_flux_pairs(2)):
        assert spectra.shape == (2, q)
        for row, k in zip(spectra, momenta):
            assert np.array_equal(row, model_spectrum(ReducedHarper(0), p, q, k))


def test_butterfly_eigenvalue_counts_match_dimension():
    for model, per_q in ((ReducedHarper(3), 1), (BlockAnisotropic(), 8), (BlockIsotropic(), 8)):
        sweep = butterfly_sweep(model, 3, 1, 0)
        for (phi, spectra), (p, q) in zip(sweep, coprime_flux_pairs(3), strict=True):
            assert phi == TWO_PI * p / q
            assert spectra.shape == (1, per_q * q)


def test_reduced_sweep_matches_dense_eigenvalues():
    momenta = momentum_samples(3, 11)
    for model in (ReducedHarper(0), ReducedHarper(5)):
        sweep = butterfly_sweep(model, 12, 3, 11)
        for (phi, spectra), (p, q) in zip(sweep, coprime_flux_pairs(12), strict=True):
            for row, k in zip(spectra, momenta, strict=True):
                assert np.abs(row - eigenvalues(assemble_reduced(p, q, k, model.m))).max() < 1e-12


def test_sweep_certifies_one_matrix_set_per_orbit_and_momentum(monkeypatch):
    import hyperband.spectrum as spectrum

    certified = []
    real_certify = spectrum._certify

    def counting(h, band, vals, pendants):
        certified.append(len(h))
        real_certify(h, band, vals, pendants)

    # the certificate `_solve_in_order` runs on the band it gathered for the gate
    monkeypatch.setattr(spectrum, "_certify", counting)
    q_max, k_samples = 12, 3
    pairs = coprime_flux_pairs(q_max)
    for model, sectors in ((ReducedHarper(6), 1), (BlockAnisotropic(), 1), (BlockIsotropic(), 4)):
        if isinstance(model, BlockIsotropic):
            orbits = {(q, frozenset({p, 2 * q - p})) for p, q in pairs}
        else:
            orbits = {(q, frozenset(x % (2 * q) for x in _orbit(p, q))) for p, q in pairs}
        certified.clear()
        butterfly_sweep(model, q_max, k_samples, 0)
        assert sum(certified) == sectors * k_samples * len(orbits)
    # reduced and block-aniso solve 24 orbits for the 91 fluxes
    assert len({(q, frozenset(x % (2 * q) for x in _orbit(p, q))) for p, q in pairs}) == 24 < len(pairs) == 91


def test_butterfly_sweep_reproducible():
    a = butterfly_sweep(ReducedHarper(0), 4, 2, 7)
    b = butterfly_sweep(ReducedHarper(0), 4, 2, 7)
    assert [(phi, e.tobytes()) for phi, e in a] == [(phi, e.tobytes()) for phi, e in b]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([ReducedHarper(0), ReducedHarper(3), BlockAnisotropic(), BlockIsotropic()]),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from([None, 4096]),
)
def test_sweep_spectra_equal_model_spectra_bit_for_bit(model, q_max, k_samples, seed, batch_bytes):
    # the sweep sends every denominator through one pipeline; each flux must still read
    # exactly what the one-denominator route gives, inline or on the worker thread
    import unittest.mock

    import hyperband.spectrum as spectrum

    with unittest.mock.patch.object(spectrum, "_BATCH_BYTES", batch_bytes or spectrum._BATCH_BYTES):
        sweep = butterfly_sweep(model, q_max, k_samples, seed)
        momenta = momentum_samples(k_samples, seed)
        numerators: dict[int, list[int]] = {}
        for p, q in coprime_flux_pairs(q_max):
            numerators.setdefault(q, []).append(p)
        want = {}
        for q, ps in numerators.items():
            want.update(zip(((p, q) for p in ps), model_spectra(model, q, ps, momenta)))
    for (phi, spectra), (p, q) in zip(sweep, coprime_flux_pairs(q_max), strict=True):
        assert spectra.tobytes() == want[p, q].tobytes()


def test_a_moved_worker_eigenvalue_fails_the_certificate(monkeypatch, thread_starts):
    # every spectrum the worker returns goes through the certificate: one eigenvalue of a
    # later stack, moved by 1e-6 on the worker thread, stops the sweep
    import threading

    real_eigvalsh = np.linalg.eigvalsh
    solvers = []

    def moved(h):
        vals = real_eigvalsh(h)
        solvers.append(threading.current_thread())
        if len(solvers) == 20:
            vals[0, 3] += 1e-6
        return vals

    before = threading.active_count()
    monkeypatch.setattr(np.linalg, "eigvalsh", moved)
    with pytest.raises(RuntimeError, match="inertia certificate failed for eigenvalue 3"):
        butterfly_sweep(ReducedHarper(0), 30, 2, 0)
    assert len(thread_starts) == 1 and solvers[19] is thread_starts[0]
    assert threading.active_count() == before


def test_the_pipeline_joins_its_worker_when_returning_or_failing(monkeypatch, thread_starts):
    import threading

    import hyperband.spectrum as spectrum

    before = threading.active_count()
    k = np.array([[0.3, 0.4, 0.5, 0.6]])
    good = [functools.partial(spectrum._chambers_stack, 5, np.array([float(p)]), k) for p in (1, 2)]
    # three handoffs come back as one list, in order, with the one worker already joined
    spectra = spectrum._solve_in_order([good[:1], good[1:], good[:1]], False)
    assert isinstance(spectra, list) and [vals.shape for vals in spectra] == [(1, 5)] * 3
    assert np.array_equal(spectra[0], spectra[2])
    assert len(thread_starts) == 1 and threading.active_count() == before

    def skewed():
        h = spectrum._chambers_stack(5, np.array([1.0]), k)
        h[0, 0, 1] += 1e-9
        return h

    # the gate refuses a later handoff before it is handed over
    with pytest.raises(RuntimeError, match="fails Hermiticity"):
        spectrum._solve_in_order([good[:1], good[1:], [skewed]], False)
    assert len(thread_starts) == 2 and threading.active_count() == before

    def no_convergence(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the worker's solve fails: its error is raised here, after the join
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(RuntimeError, match="did not converge on a stack of 5x5"):
        spectrum._solve_in_order([good[:1], good[1:]], False)
    assert len(thread_starts) == 3 and threading.active_count() == before


def _split_stacks():
    # a few small stacks of each layout: Chambers twins (q = 1 puts the corners on the
    # diagonal) and block-iso pendant stacks, two momenta per stack
    import hyperband.spectrum as spectrum

    k = np.array([[0.3, 0.4, 0.5, 0.6], [1.1, 2.0, 0.2, 5.0]])
    p = np.array([1.0, 1.0])
    chambers = [functools.partial(spectrum._chambers_stack, q, p * r, k) for r, q in ((1, 3), (2, 5), (1, 1), (3, 7))]
    pendant = [functools.partial(spectrum._iso_stack, q, p * r, k) for r, q in ((1, 3), (3, 5), (1, 1))]
    return {False: chambers, True: pendant}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.booleans(), st.lists(st.booleans(), min_size=6, max_size=6))
def test_any_split_into_handoffs_gives_the_inline_spectra(thread_starts, pendants, cuts):
    # cut after stack i when cuts[i]: 1..n handoffs of the same stacks, in the same order
    import threading

    import hyperband.spectrum as spectrum

    builds = _split_stacks()[pendants]
    inline = [spectrum._solve_in_order([[build]], pendants)[0] for build in builds]
    handoffs = [[builds[0]]]
    for build, cut in zip(builds[1:], cuts):
        if cut:
            handoffs.append([])
        handoffs[-1].append(build)
    before = threading.active_count()
    thread_starts.clear()
    got = spectrum._solve_in_order(handoffs, pendants)
    assert [vals.tobytes() for vals in got] == [vals.tobytes() for vals in inline]
    assert len(thread_starts) == (len(handoffs) > 1)
    assert threading.active_count() == before


def test_butterfly_sweep_guards():
    with pytest.raises(ValueError):
        butterfly_sweep(ReducedHarper(0), 1, 1, 0)
    with pytest.raises(ValueError):
        butterfly_sweep(BlockIsotropic(), 60, 4, 0)  # workload over budget
    with pytest.raises(ValueError):
        butterfly_sweep(ReducedHarper(0), 501, 1, 0)


def test_sweep_row_guard_refuses_before_any_momentum(monkeypatch, tmp_path, capsys):
    # q_max 2 at 2e8 momenta passes the workload guard (1.8e9 <= 2e9) but would be 1e9 rows
    import hyperband.spectrum as spectrum
    from hyperband import cli

    def refuse(*args, **kwargs):
        raise AssertionError("momentum_samples ran")

    monkeypatch.setattr(spectrum, "momentum_samples", refuse)
    out = tmp_path / "b.csv"
    argv = ["butterfly", "--model", "reduced", "--q-max", "2", "--k-samples", "200000000", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "sweep of 1.00e+09 rows exceeds 2.00e+07" in capsys.readouterr().err
    assert not out.exists()
    # the largest sweep the workload guard admits at 4 momenta (1.15e7 rows) passes both guards
    with pytest.raises(AssertionError, match="momentum_samples ran"):
        butterfly_sweep(BlockAnisotropic(), 96, 4, 0)


def test_sweep_guard_charges_the_solved_dimension(monkeypatch):
    # block-aniso solves one q x q matrix per flux orbit {p, p+q, q-p, 2q-p} and
    # momentum, block-iso four 2q x 2q S^2 sectors per orbit {p, 2q-p}; the guard
    # is checked before the sweep's route (`_sweep_spectra`) is entered
    import hyperband.spectrum as spectrum

    butterfly_sweep(BlockAnisotropic(), 21, 4, 0)
    solved = []

    def stub(model, numerators, momenta):
        solved.extend(numerators)
        return [np.zeros((len(ps), len(momenta), 1)) for ps in numerators.values()]

    monkeypatch.setattr(spectrum, "_sweep_spectra", stub)
    for model, refused_from in ((BlockIsotropic(), 42), (ReducedHarper(0), 97), (BlockAnisotropic(), 97)):
        butterfly_sweep(model, refused_from - 1, 4, 0)
        assert solved
        solved.clear()
        with pytest.raises(ValueError, match="workload"):
            butterfly_sweep(model, refused_from, 4, 0)
        assert solved == []


# ---------------------------------------------------------------- harper oracle


def test_harper_oracle_q2_hand_values():
    assert harper_oracle_compare(1, 2, 0.0, 0.0) < 1e-10
    # the bare q=2 core at k=0 is [[2, 2], [2, -2]]: eigenvalues -+2 sqrt 2
    core = harper_core(FluxParam(1, 2), 0.0, 0.0)
    assert np.abs(core - np.array([[2.0, 2.0], [2.0, -2.0]])).max() < 1e-15
    got = np.sort(np.linalg.eigvalsh(core))
    assert np.abs(got - np.array([-2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0)])).max() < 1e-12


def test_harper_oracle_random_momenta():
    rng = np.random.default_rng(241)
    for _ in range(5):
        k1, k2 = rng.uniform(0.0, TWO_PI, size=2)
        assert harper_oracle_compare(1, 3, k1, k2) < 1e-9


def test_harper_oracle_all_small_q():
    rng = np.random.default_rng(251)
    for q in range(1, 13):
        for p in range(1, 2 * q):
            if math.gcd(p, q) == 1:
                k1, k2 = rng.uniform(0.0, TWO_PI, size=2)
                assert harper_oracle_compare(p, q, k1, k2) < 1e-9


def test_harper_oracle_rejects_p_zero():
    with pytest.raises(ValueError):
        harper_oracle_compare(0, 1, 0.0, 0.0)


# ---------------------------------------------------------------- dense oracle


def test_dense_oracle_is_defined_in_checks_alone():
    import hyperband.spectrum as spectrum

    for name in ("ring_matrix", "harper_core", "_reduced_stack", "assemble_reduced", "assemble_block", "eigenvalues"):
        assert not hasattr(spectrum, name), name
    for fn in (ring_matrix, harper_core, assemble_reduced, assemble_block, eigenvalues):
        assert fn.__module__ == "hyperband.checks"


class _SweepRouteCalled(Exception):
    pass


def test_dense_oracle_never_calls_the_sweep_route(monkeypatch):
    import hyperband.spectrum as spectrum
    from hyperband import checks

    rng = np.random.default_rng(263)
    pair = FluxParam(3, 5)
    momenta = [random_momentum(rng) for _ in range(2)]
    models = (BlockAnisotropic(), BlockIsotropic())

    def defects():
        dense = [eigenvalues(np.array([assemble_block(model, 3, 5, k) for k in momenta])) for model in models]
        return (
            [vals.tolist() for vals in dense],
            checks.lattice_hermiticity(pair, momenta),
            checks.harper_oracle_compare(3, 7, 0.4, 1.1),
        )

    def refuse(*args, **kwargs):
        raise _SweepRouteCalled

    expected = defects()
    for name in (
        "_chambers_stack", "_chambers_momenta", "_solve_in_order", "_solved_spectra", "_sweep_spectra", "model_spectra"
    ):
        monkeypatch.setattr(spectrum, name, refuse)
    # the patch bites: the checks that compare the two routes now stop
    with pytest.raises(_SweepRouteCalled):
        checks.chambers([pair], momenta)
    for model in models:
        with pytest.raises(_SweepRouteCalled):
            checks.sector_union(model, pair, momenta)
    assert defects() == expected
