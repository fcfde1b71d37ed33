"""Fuchsian generators, defining relation, fundamental domain, tile enumeration."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperband import tiling
from hyperband.halfplane import (
    HPoint,
    Sl2Element,
    exp_s,
    exp_t,
    exp_u,
    hyperbolic_distance,
    moebius_act,
    psl2_distance,
)
from hyperband.tiling import (
    FuchsianGenerators,
    FundamentalDomain,
    GroupWord,
    TilingParams,
    check_tiling_size,
    edge_pairing_defect,
    enumerate_tiles,
    make_fundamental_domain,
    make_generators,
    relation_defect,
    relation_word,
    scaling_parameter,
)


def test_params_reject_low_genus():
    with pytest.raises(ValueError):
        TilingParams(1)
    with pytest.raises(ValueError):
        TilingParams(0)
    TilingParams(2)


def test_scaling_parameter_closed_forms_agree():
    # cot(pi/8) + sqrt(cot^2(pi/8) - 1) and (1+sqrt2)(1+sqrt2*sqrt(sqrt2-1))
    # are the same algebraic number
    e_mu = math.exp(scaling_parameter(2))
    alt = (1 + math.sqrt(2)) * (1 + math.sqrt(2) * math.sqrt(math.sqrt(2) - 1))
    assert abs(e_mu - alt) < 1e-12
    assert abs(e_mu - 4.611581789308715) < 1e-12


def test_generator_count_and_first_is_diagonal():
    gens = make_generators(TilingParams(2))
    assert len(gens.gammas) == 4
    g1 = gens.gammas[0]
    e_mu = math.exp(gens.mu)
    assert abs(g1.a - e_mu) < 1e-12 and abs(g1.d - 1.0 / e_mu) < 1e-12
    assert abs(g1.b) < 1e-12 and abs(g1.c) < 1e-12


def test_generators_symmetric_positive_definite():
    # conjugating a positive diagonal by a rotation keeps R A R^T symmetric
    gens = make_generators(TilingParams(3))
    assert len(gens.gammas) == 6
    for gamma in gens.gammas:
        assert abs(gamma.b - gamma.c) < 1e-12
        assert gamma.a > 0 and gamma.d > 0


def test_generator_trace_is_2cosh_mu():
    for g in (2, 3, 4):
        gens = make_generators(TilingParams(g))
        for gamma in gens.gammas:
            assert abs(gamma.trace - 2.0 * math.cosh(gens.mu)) < 1e-10


def test_generator_matches_rotated_scaling_orbit():
    # gamma_j moves the domain center i the same hyperbolic distance 2mu as
    # the pure scaling does, in the direction rotated by (j-1)pi/4g
    gens = make_generators(TilingParams(2))
    center = HPoint(0.0, 1.0)
    for gamma in gens.gammas:
        d = hyperbolic_distance(center, moebius_act(gamma, center))
        assert abs(d - 2.0 * gens.mu) < 1e-10


def test_generators_invariant_enforced():
    gens = make_generators(TilingParams(2))
    with pytest.raises(ValueError):
        FuchsianGenerators(gens.gammas, gens.mu + 1e-6)
    with pytest.raises(ValueError):
        FuchsianGenerators(gens.gammas[:3], gens.mu)


# ---------------------------------------------------------------- relation


def test_relation_defect_small_for_all_genera():
    # measured at most 1.1e-10 (g = 8); g = 12 reads 8.3e-10 and g = 13 fails
    for g in range(2, 9):
        gens = make_generators(TilingParams(g))
        assert relation_defect(gens) < 1e-9


def test_relation_word_shape():
    w = relation_word(2)
    assert w.letters == (
        (1, 1), (2, -1), (3, 1), (4, -1),
        (1, -1), (2, 1), (3, -1), (4, 1),
    )


def test_relation_defect_sensitive_to_mu():
    # rebuilding the generators with mu + 0.01 must visibly break the relation
    g = 2
    mu = scaling_parameter(g) + 0.01
    mats = []
    for j in range(1, 2 * g + 1):
        rot = exp_s((j - 1) * math.pi / (4 * g))
        mats.append(rot @ exp_u(mu) @ rot.inverse())
    prod = Sl2Element.identity()
    for idx, exp in relation_word(g).letters:
        m = mats[idx - 1]
        prod = prod @ (m if exp == 1 else m.inverse())
    assert psl2_distance(prod, Sl2Element.identity()) > 1e-3


def test_group_word_rejects_unreduced():
    with pytest.raises(ValueError):
        GroupWord(((1, 1), (1, -1)))
    with pytest.raises(ValueError):
        GroupWord(((2, 1), (3, 2)))
    GroupWord(((1, 1), (1, 1), (2, -1)))  # squares are fine


def test_group_word_refuses_letters_outside_the_generators():
    with pytest.raises(ValueError, match="generator index must be a positive integer, got 0"):
        GroupWord(((1, 1), (0, 1)))
    word = GroupWord(((1, 1), (5, -1)))  # a letter of genus 3, past 2g = 4
    with pytest.raises(ValueError, match="letter index 5 out of range for genus 2"):
        word.matrix(make_generators(TilingParams(2)))


# ---------------------------------------------------------------- domain


def test_domain_refuses_vertex_and_edge_counts_that_disagree():
    dom = make_fundamental_domain(TilingParams(2))
    for vertices, edges in ((dom.vertices[:-4], dom.edges), (dom.vertices, dom.edges[:-4])):
        with pytest.raises(ValueError, match="domain needs 4g vertices and 4g edges"):
            FundamentalDomain(vertices, edges)


def test_domain_frozen_vertex_values():
    dom = make_fundamental_domain(TilingParams(2))
    assert len(dom.vertices) == 8 and len(dom.edges) == 8
    v8 = dom.vertices[7]
    assert abs(v8.x - 4.19736822693562) < 1e-12
    assert abs(v8.y - 1.9101797211244547) < 1e-12
    # v_1 mirrors v_8 across the imaginary axis
    v1 = dom.vertices[0]
    assert abs(v1.x + v8.x) < 1e-9 and abs(v1.y - v8.y) < 1e-9


def test_domain_vertices_equidistant_from_center():
    for g in (2, 3):
        dom = make_fundamental_domain(TilingParams(g))
        center = HPoint(0.0, 1.0)
        dists = [hyperbolic_distance(center, v) for v in dom.vertices]
        assert max(dists) - min(dists) < 1e-9


def test_domain_vertices_are_rotated_copies():
    g = 2
    dom = make_fundamental_domain(TilingParams(g))
    v_last = dom.vertices[-1]
    for j in range(1, 4 * g):
        w = moebius_act(exp_s(j * math.pi / (4 * g)), v_last)
        assert abs(w.x - dom.vertices[j - 1].x) < 1e-9
        assert abs(w.y - dom.vertices[j - 1].y) < 1e-9


def test_domain_edge_wiring_wraps():
    dom = make_fundamental_domain(TilingParams(2))
    assert dom.edges[0] == (7, 0)  # C_1 connects v_8 (as v_0) and v_1
    assert dom.edges[3] == (2, 3)
    assert dom.edges[7] == (6, 7)


# ---------------------------------------------------------------- edge pairing


def test_edge_pairing_defect_small():
    # measured at most 4.5e-13 (g = 7)
    for g in range(2, 9):
        p = TilingParams(g)
        assert edge_pairing_defect(make_generators(p), make_fundamental_domain(p)) < 1e-9


def test_edge_pairing_defect_detects_wrong_generator():
    p = TilingParams(2)
    gens = make_generators(p)
    dom = make_fundamental_domain(p)
    # swapping gamma_1 for gamma_2 sends C_5 nowhere near C_1
    broken = FuchsianGenerators((gens.gammas[1],) + gens.gammas[1:], gens.mu)
    assert edge_pairing_defect(broken, dom) > 0.1


@pytest.mark.parametrize("genus, least", [(2, 3.0), (3, 3.9), (5, 5.0)])
def test_edge_pairing_defect_fails_the_centre_half_turn(genus, least):
    # z -> -1/z carries C_{1+2g} onto C_1 with its endpoints in the same order, not reversed,
    # so it reads about 1e-14 when either matching may count (3.06, 3.98 and 5.06 as one map)
    p = TilingParams(genus)
    gens = make_generators(p)
    broken = FuchsianGenerators((exp_s(math.pi / 2),) + gens.gammas[1:], gens.mu)
    assert edge_pairing_defect(broken, make_fundamental_domain(p)) > least


def _better_matching_defect(gens, dom):
    """The edge pairing defect with either endpoint matching allowed, the smaller one kept."""
    g = gens.genus
    worst = 0.0
    for j in range(1, 2 * g + 1):
        src, dst = dom.edges[j + 2 * g - 1], dom.edges[j - 1]
        a = moebius_act(gens.gammas[j - 1], dom.vertices[src[0]])
        b = moebius_act(gens.gammas[j - 1], dom.vertices[src[1]])
        p, q = dom.vertices[dst[0]], dom.vertices[dst[1]]
        straight = max(hyperbolic_distance(a, p), hyperbolic_distance(b, q))
        crossed = max(hyperbolic_distance(a, q), hyperbolic_distance(b, p))
        worst = max(worst, min(straight, crossed))
    return worst


def test_edge_pairing_defect_is_the_better_matching_bit_for_bit():
    # the reversed matching is the better one at every genus, so no printed defect moves;
    # the edge pairing first fails its 1e-9 bound at g = 101
    for g in [*range(2, 61), 100, 101, 150, 200]:
        p = TilingParams(g)
        gens, dom = make_generators(p), make_fundamental_domain(p)
        assert edge_pairing_defect(gens, dom).hex() == _better_matching_defect(gens, dom).hex(), g


def test_edge_pairing_defect_checks_genus_match():
    gens = make_generators(TilingParams(2))
    dom = make_fundamental_domain(TilingParams(3))
    with pytest.raises(ValueError):
        edge_pairing_defect(gens, dom)


# ---------------------------------------------------------------- enumeration


class _TileIndex:
    """Scalar oracle of the dedup: a hash on the image w = x + iy of i, confirming hits by matrix distance.

    The key is the cell of (x / y, log y) on an h-grid; the 3 x 3 neighbouring
    cells hold every floating-point copy of an element.
    """

    _H = 0.05

    def __init__(self):
        self._buckets: dict[tuple[int, int], list[Sl2Element]] = {}

    def probe_or_add(self, m: Sl2Element, w: HPoint) -> bool:
        """True if an equivalent element was already present."""
        kx = round(w.x / (w.y * self._H))
        ky = round(math.log(w.y) / self._H)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for seen in self._buckets.get((kx + dx, ky + dy), ()):
                    if psl2_distance(m, seen) < tiling._DEDUP_TOL:
                        return True
        self._buckets.setdefault((kx, ky), []).append(m)
        return False


def _scalar_enumerate_tiles(gens: FuchsianGenerators, depth: int) -> list[Sl2Element]:
    """Scalar oracle of `enumerate_tiles`: one checked Sl2Element and one probe per candidate."""
    center = HPoint(0.0, 1.0)
    identity = Sl2Element.identity()
    index = _TileIndex()
    index.probe_or_add(identity, center)
    out = [identity]
    letters = []
    for j in range(1, 2 * gens.genus + 1):
        gamma = gens.gammas[j - 1]
        letters.append(((j, 1), gamma))
        letters.append(((j, -1), gamma.inverse()))

    frontier: list[tuple[tuple[int, int] | None, Sl2Element]] = [(None, identity)]
    for _ in range(depth):
        grown: list[tuple[tuple[int, int] | None, Sl2Element]] = []
        for last, mat in frontier:
            for letter, gamma in letters:
                if last is not None and last == (letter[0], -letter[1]):
                    continue  # free reduction: skip immediate backtracking
                m = mat @ gamma
                if not index.probe_or_add(m, moebius_act(m, center)):
                    out.append(m)
                    grown.append((letter, m))
        frontier = grown
    return out


def _bits(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4).view(np.int64)


@pytest.mark.parametrize("genus, depth", [(2, d) for d in range(6)] + [(3, d) for d in range(5)])
def test_enumeration_is_bit_identical_to_scalar_oracle(genus, depth):
    gens = make_generators(TilingParams(genus))
    rows = enumerate_tiles(gens, depth)
    assert rows.dtype == np.float64 and rows.shape[1:] == (4,)
    oracle = _scalar_enumerate_tiles(gens, depth)
    assert np.array_equal(_bits(rows), _bits([m.entries() for m in oracle]))


@pytest.mark.parametrize("genus, depth", [(2, 4), (2, 5), (3, 3)])
def test_level_chunks_do_not_change_the_rows(genus, depth, monkeypatch):
    # depth 4 = 2g is where copies merge, across chunks as well as within one; at depth 5 the words under
    # the copies are formed and dropped too (chunks of 1 are slow there)
    gens = make_generators(TilingParams(genus))
    want = _bits(enumerate_tiles(gens, depth))
    past = tiling.check_tiling_size(genus, depth) * (4 * genus)
    for chunk in (7, past) if depth == 5 else (1, 7, past):
        monkeypatch.setattr(tiling, "_LEVEL_CHUNK", chunk)
        assert np.array_equal(_bits(enumerate_tiles(gens, depth)), want)


def _complex_neighbour_pairs(keys, order, base_keys, base_order) -> tuple[np.ndarray, np.ndarray]:
    """Oracle of `tiling._neighbour_pairs` on complex cells column + i row, which numpy sorts lexicographically."""
    firsts, seconds = [], []
    for dx in (-1.0, 0.0, 1.0):
        lo = np.searchsorted(base_keys, keys + (dx - 1j), "left")
        n = np.searchsorted(base_keys, keys + (dx + 1j), "right") - lo
        firsts.append(np.repeat(order, n))
        seconds.append(base_order[np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)])
    return np.concatenate(firsts), np.concatenate(seconds)


_LIMIT = 2**45  # tiling._COLUMN_LIMIT
# columns and rows bunched so that cells meet, around 0 and at the clip bound, and spread wide
_CELL = st.tuples(
    st.one_of(
        st.integers(-3, 3),
        st.integers(_LIMIT - 3, _LIMIT + 3),
        st.integers(-_LIMIT - 3, -_LIMIT + 3),
        st.integers(-(2**52), 2**52),
    ),
    st.one_of(st.integers(-3, 3), st.integers(-15000, -14996), st.integers(14996, 15000), st.integers(-15000, 15000)),
)


def _pairs(first, second) -> list[tuple[int, int]]:
    return sorted(zip(first.tolist(), second.tolist()))


@settings(max_examples=300, deadline=None)
@given(st.lists(_CELL, min_size=1, max_size=30), st.lists(_CELL, min_size=1, max_size=30))
@example([(_LIMIT + 9, 4), (_LIMIT, -15000)], [(_LIMIT + 1, 5), (_LIMIT - 1, -14999), (2**52, 3)])
@example([(-1, -1), (0, 15000)], [(-2, -2), (-1, 0), (0, 1), (1, 14999), (-1, -15000)])
def test_packed_cell_keys_give_the_complex_keys_neighbours(queries, base):
    # the complex oracle sees the clipped columns: clipping is the one place where the keys may merge cells
    def cells(pairs):
        column, row = np.array(pairs, dtype=float).T
        packed, clipped = tiling._cell_keys(column, row), np.clip(column, -_LIMIT, _LIMIT) + 1j * row
        order = np.argsort(clipped, kind="stable")
        assert np.array_equal(np.argsort(packed, kind="stable"), order)
        return (packed[order], order), (clipped[order], order)

    (packed, order), (clipped, _) = cells(queries)
    (base_packed, base_order), (base_clipped, _) = cells(base)
    want = _pairs(*_complex_neighbour_pairs(clipped, order, base_clipped, base_order))
    assert _pairs(*tiling._neighbour_pairs(packed, order, base_packed, base_order)) == want


def test_cell_keys_clip_non_finite_columns_to_the_bound():
    column = np.array([np.inf, -np.inf, np.nan, 2.0**60, -(2.0**45), 5.0])
    keys = tiling._cell_keys(column, np.array([3.0, -3.0, 0.0, -15000.0, 15000.0, -1.0]))
    bound = _LIMIT << 17
    assert keys.tolist() == [bound + 3, -bound - 3, -bound, bound - 15000, -bound + 15000, (5 << 17) - 1]


def test_first_copy_wins_where_merges_start():
    # depth 4 = 2g is where two words of half the relator length name one
    # element; the one met first breadth-first stays, at its own position
    gens = make_generators(TilingParams(2))
    rows = enumerate_tiles(gens, 4)
    letters = [(j, e) for j in range(1, 5) for e in (1, -1)]
    words = [()]
    level = [()]
    for _ in range(4):
        level = [w + (x,) for w in level for x in letters if not w or w[-1] != (x[0], -x[1])]
        words += level
    assert len(words) == 3201 and len(rows) == 3193  # eight words repeat an element
    # brute force over all word matrices: keep each word unless an earlier kept one is close
    kept: list[np.ndarray] = []
    for word in words:
        m = np.array(GroupWord(word).matrix(gens).entries())
        seen = np.array(kept).reshape(-1, 4)
        if not (np.minimum(np.abs(seen - m).max(axis=1), np.abs(seen + m).max(axis=1)) < 1e-6).any():
            kept.append(m)
    assert len(kept) == len(rows)
    assert np.abs(np.array(kept) - rows).max() < 1e-9
    assert np.array_equal(_bits(rows), _bits([m.entries() for m in _scalar_enumerate_tiles(gens, 4)]))


_ANGLE = st.floats(0.0, 2 * math.pi)
_NEW_ROW = st.tuples(st.just("new"), _ANGLE, st.floats(0.0, 1.5), _ANGLE)
# a factor within 1e-10 of I moves a row with entries below e^1.5 by < 1e-9; one within 3e-7 of I moves it by
# up to about 2e-6, so such neighbours fall on either side of _DEDUP_TOL and a row close only to a dropped one stays
_NUDGE = st.one_of(st.floats(-1e-10, 1e-10), st.floats(-3e-7, 3e-7))
_NEAR_ROW = st.tuples(st.just("near"), st.integers(0, 99), _NUDGE, _NUDGE, _NUDGE, st.booleans())


def _planted_rows(draws) -> np.ndarray:
    """Rows e^{t S} e^{s U} e^{t' S}, and earlier rows (copies too) times a factor near I, maybe negated."""
    rows: list[Sl2Element] = []
    for draw in draws:
        if draw[0] == "new":
            _, t, s, t2 = draw
            m = exp_s(t) @ exp_u(s) @ exp_s(t2)
        else:
            _, source, e1, e2, e3, flip = draw
            m = rows[source % len(rows)] @ Sl2Element(1.0 + e1, e2, e3, (1.0 + e2 * e3) / (1.0 + e1))
            if flip:  # the same element of PSL(2,R)
                m = Sl2Element(*(-x for x in m.entries()))
        rows.append(m)
    return np.array([m.entries() for m in rows])


@settings(max_examples=300, deadline=None)
@given(_NEW_ROW, st.lists(st.one_of(_NEW_ROW, _NEAR_ROW), max_size=40))
# one element seven times over, a sorted run of keys that spans three chunks of 3, with a chain of copies of copies
@example(("new", 0.3, 1.0, 2.0), [("near", i, 1e-10, -1e-10, 0.0, i % 2 == 1) for i in range(6)])
# a row 1.2e-6 from the first is kept: it is close only to the dropped row between them
@example(("new", 0.0, 0.0, 0.0), [("near", 0, 6e-7, 0.0, 0.0, False), ("near", 1, 6e-7, 0.0, 0.0, True)])
# the same chain with the first row one column away, so the probe meets the pair (2, 1) before (1, 0)
@example(("new", 0.003446534, 1.0, 0.0), [("near", 0, 3e-7, 0.0, 0.0, False), ("near", 1, 3e-7, 0.0, 0.0, False)])
def test_first_copies_keep_each_row_unless_an_earlier_kept_row_is_close(first, draws):
    rows, keys = tiling._gated_rows(_planted_rows([first, *draws]))
    # brute force, O(n^2): row i stays unless a row kept before it is within _DEDUP_TOL in PSL(2,R)
    want = np.zeros(len(rows), dtype=bool)
    for i, m in enumerate(rows):
        seen = rows[:i][want[:i]]
        want[i] = not (np.minimum(np.abs(seen - m).max(axis=1), np.abs(seen + m).max(axis=1)) < tiling._DEDUP_TOL).any()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tiling, "_LEVEL_CHUNK", 3)
        assert tiling._first_copies(rows, keys).tolist() == want.tolist()


_SHEAR = (exp_t(1e10), Sl2Element(1.0, 0.0, 1e10, 1.0))


@pytest.mark.parametrize(
    "gammas, message",
    [
        (_SHEAR * 2, "determinant 0.0"),  # gamma_1 gamma_2 = [[1 + 1e20, 1e10], [1e10, 1]] rounds to det 0
        ((exp_u(200.0),) * 4, "degenerate"),  # gamma_1 gamma_1 sends i to e^800 i: |cz + d|^2 underflows
    ],
)
def test_enumeration_refuses_what_the_scalar_oracle_refuses(gammas, message):
    gens = FuchsianGenerators(gammas, scaling_parameter(2))
    with pytest.raises(ValueError, match=message) as scalar:
        _scalar_enumerate_tiles(gens, 2)
    with pytest.raises(ValueError) as array:
        enumerate_tiles(gens, 2)
    assert str(array.value) == str(scalar.value)
    assert len(enumerate_tiles(gens, 1)) == len(_scalar_enumerate_tiles(gens, 1))


def test_enumerate_depth_zero_and_one():
    gens = make_generators(TilingParams(2))
    tiles0 = enumerate_tiles(gens, 0)
    assert tiles0.tolist() == [[1.0, 0.0, 0.0, 1.0]]
    tiles1 = [Sl2Element(*row) for row in enumerate_tiles(gens, 1)]
    assert len(tiles1) == 9
    for i in range(9):
        for j in range(i + 1, 9):
            assert psl2_distance(tiles1[i], tiles1[j]) > 1e-6


def test_enumerate_depth_two_matches_brute_force():
    gens = make_generators(TilingParams(2))
    tiles = enumerate_tiles(gens, 2)

    atoms = []
    for gamma in gens.gammas:
        atoms.extend([gamma, gamma.inverse()])
    words = [Sl2Element.identity()] + list(atoms)
    for m1 in atoms:
        for m2 in atoms:
            words.append(m1 @ m2)  # includes unreduced pairs on purpose
    distinct: list[Sl2Element] = []
    for w in words:
        if all(psl2_distance(w, seen) > 1e-6 for seen in distinct):
            distinct.append(w)
    assert len(tiles) == len(distinct) == 65


def test_enumerate_images_of_center_well_separated():
    gens = make_generators(TilingParams(2))
    tiles = enumerate_tiles(gens, 2)
    center = HPoint(0.0, 1.0)
    pts = [moebius_act(Sl2Element(*row), center) for row in tiles]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert hyperbolic_distance(pts[i], pts[j]) > 1e-3


def test_enumerate_deterministic_order():
    gens = make_generators(TilingParams(2))
    a = enumerate_tiles(gens, 3)
    b = enumerate_tiles(gens, 3)
    assert np.array_equal(_bits(a), _bits(b))


def test_enumerate_refuses_explosive_depth():
    gens = make_generators(TilingParams(2))
    with pytest.raises(ValueError):
        enumerate_tiles(gens, 7)  # 8 * sum 7^l crosses 1e6 candidates
    with pytest.raises(ValueError):
        enumerate_tiles(gens, -1)


def test_size_guard_refuses_from_genus_and_depth_alone():
    # genus 2: 8 (7^6 - 1) / 6 = 156864 candidates at depth 6, 1098056 at depth 7
    check_tiling_size(2, 6)
    message = "depth 7 spans > 1000000 candidate words for genus 2"
    with pytest.raises(ValueError, match=message):
        check_tiling_size(2, 7)
    with pytest.raises(ValueError, match=message):
        enumerate_tiles(make_generators(TilingParams(2)), 7)
    # depth 1 has 4g candidates: genus 250001 is past 10^6 of them
    with pytest.raises(ValueError, match="depth 1 spans > 1000000 candidate words for genus 250001"):
        check_tiling_size(250001, 1)
    # and (1 + 4g) 4g corners: 3997 * 3996 = 15972012 at genus 999 pass, 4001 * 4000 at genus 1000 do not,
    # nor do the 10^6 + 1 tiles of 10^6 corners at genus 250000, exactly 10^6 candidates
    check_tiling_size(999, 1)
    for genus in (1000, 250000):
        with pytest.raises(ValueError, match=f"depth 1 spans > 16000000 tile corners for genus {genus}"):
            check_tiling_size(genus, 1)
    # genus 4 depth 5: 16 (15^5 - 1) / 14 = 867856 candidates, (1 + 867856) 16 = 13885712 corners
    check_tiling_size(4, 5)
    with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
        check_tiling_size(2, -1)


def test_enumerate_counts_follow_word_growth():
    # the surface group has no relations shorter than 8 letters, so counts up
    # to depth 3 match the free-group formula 1 + sum 4g (4g-1)^(l-1)
    gens = make_generators(TilingParams(2))
    expected = {0: 1, 1: 9, 2: 65, 3: 457}
    for depth, count in expected.items():
        assert len(enumerate_tiles(gens, depth)) == count


def _surface_group_ball(genus: int, depth: int) -> int:
    """Words of length <= depth in the genus-g surface group (Cannon's growth series).

    Sphere sizes s_d satisfy den(x) * sum s_d x^d = num(x), with
    num = 1 + 2x + ... + 2x^{2g-1} + x^{2g} and
    den = 1 - (4g-2)(x + ... + x^{2g-1}) + x^{2g}.
    """
    n = 2 * genus
    num = [1] + [2] * (n - 1) + [1]
    den = [1] + [-(4 * genus - 2)] * (n - 1) + [1]
    spheres = []
    for d in range(depth + 1):
        s = num[d] if d <= n else 0
        spheres.append(s - sum(den[j] * spheres[d - j] for j in range(1, min(d, n) + 1)))
    return sum(spheres)


@pytest.mark.parametrize("genus, depth", [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4)])
def test_enumerate_counts_follow_surface_group_growth(genus, depth, monkeypatch):
    # from depth 2g (half the relator) on, distinct words can name one element,
    # which the float dedup must merge; the growth series counts elements.
    # Depth 6 = 2g + 2 is the first where the words under copies have words under them
    compared = 0
    close = tiling._psl2_close

    def counted(p, q):
        nonlocal compared
        compared += len(p)
        return close(p, q)

    monkeypatch.setattr(tiling, "_psl2_close", counted)
    gens = make_generators(TilingParams(genus))
    tiles = len(enumerate_tiles(gens, depth))
    assert tiles == _surface_group_ball(genus, depth)
    # the hyperbolic chart keeps deep tiles in cells of their own: a probe
    # rarely meets a matrix to compare (about 0.06 pairs per tile)
    assert 0 < compared < 0.1 * tiles


def test_enumerate_genus_three():
    gens = make_generators(TilingParams(3))
    tiles = enumerate_tiles(gens, 2)
    assert len(tiles) == 1 + 12 + 12 * 11


def test_tile_membership_is_group_closed():
    # every depth-1 product of depth-1 elements must appear in the depth-2 list
    gens = make_generators(TilingParams(2))
    tiles1 = [Sl2Element(*row) for row in enumerate_tiles(gens, 1)]
    tiles2 = [Sl2Element(*row) for row in enumerate_tiles(gens, 2)]
    rng = np.random.default_rng(71)
    idx = rng.integers(0, len(tiles1), size=(12, 2))
    for i, j in idx:
        prod = tiles1[i] @ tiles1[j]
        assert any(psl2_distance(prod, m) < 1e-6 for m in tiles2)


# the deepest admitted depth of genus 2 to 6, 15, 62 and 999: the last four are the largest genus admitted at
# depths 4, 3, 2 and 1
@pytest.mark.parametrize("genus, depth", [(2, 6), (3, 5), (4, 5), (5, 4), (6, 4), (15, 3), (62, 2), (999, 1)])
def test_no_corner_of_an_admitted_tiling_is_refused(genus, depth):
    # the bound of `disk_corners`: entries at most e^(mu depth), and every |cz + d|^2 of a corner
    # at least min(1/4, y^2) / (2 M^2 (1 + 4x^2)), hundreds of orders above the 1e-300 refusal
    with pytest.raises(ValueError, match="spans >"):
        check_tiling_size(genus, depth + 1)
    params = TilingParams(genus)
    rows = enumerate_tiles(make_generators(params), depth)
    largest = np.abs(rows).max()
    assert largest <= math.exp(scaling_parameter(genus) * depth) * (1 + 1e-9)
    for vertex in make_fundamental_domain(params).vertices:
        x, y = vertex.x, vertex.y
        bound = min(0.25, y * y) / (2 * largest**2 * (1 + 4 * x * x))
        assert bound > 1e-21
        cx = rows[:, 2] * x + rows[:, 3]  # |cz + d|^2 as `moebius_rows` forms it
        cy = rows[:, 2] * y
        assert (cx * cx + cy * cy).min() >= bound * (1 - 1e-12)
