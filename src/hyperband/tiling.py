"""Fuchsian group and fundamental domain of the {4g,4g} half-plane tiling.

The group is generated by 2g hyperbolic translations

    gamma_j = R(alpha_j) diag(e^mu, e^-mu) R(-alpha_j),   alpha_j = (j-1) pi / (4g)

with R(a) = e^{a S} and e^mu = cot(pi/4g) + sqrt(cot^2(pi/4g) - 1).  They obey
the single surface-group relation

    gamma_1 gamma_2^-1 ... gamma_{2g}^-1 gamma_1^-1 gamma_2 ... gamma_{2g} = 1

and pair opposite edges of a regular 4g-gon centered at i.  `disk_corners`
and `edge_states` draw tiles on the Poincare disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .halfplane import (
    HPoint,
    Sl2Element,
    exp_s,
    exp_u,
    hyperbolic_distance,
    moebius_act,
    moebius_rows,
    psl2_distance,
    sl2_rows,
)

_DEDUP_TOL = 1e-6
_MAX_CANDIDATE_WORDS = 10**6
# `tile` formats and writes every corner, so this bounds its output and the
# time it takes, not its memory; g = 4 depth 5 has about 13.9M corners
_MAX_TILE_CORNERS = 16 * _MAX_CANDIDATE_WORDS
_ARC_RADIUS_LIMIT = 1e4  # straight-segment fallback for near-diameter geodesics


@dataclass(frozen=True)
class TilingParams:
    """Genus of the target surface; the tile is a regular 4g-gon."""

    genus: int

    def __post_init__(self):
        if not isinstance(self.genus, int) or self.genus < 2:
            raise ValueError(f"genus must be an integer >= 2, got {self.genus!r}")


def scaling_parameter(genus: int) -> float:
    """mu with e^mu = cot(pi/4g) + sqrt(cot^2(pi/4g) - 1)."""
    cot = 1.0 / math.tan(math.pi / (4 * genus))
    return math.log(cot + math.sqrt(cot * cot - 1.0))


@dataclass(frozen=True)
class FuchsianGenerators:
    """The 2g generators gamma_1..gamma_2g together with the scaling mu."""

    gammas: tuple[Sl2Element, ...]
    mu: float

    def __post_init__(self):
        n = len(self.gammas)
        if n < 4 or n % 2 != 0:
            raise ValueError(f"need an even count 2g >= 4 of generators, got {n}")
        expected = scaling_parameter(n // 2)
        if abs(math.exp(self.mu) - math.exp(expected)) > 1e-12:
            raise ValueError(f"mu = {self.mu} inconsistent with genus {n // 2}")

    @property
    def genus(self) -> int:
        return len(self.gammas) // 2


@dataclass(frozen=True)
class FundamentalDomain:
    """Regular 4g-gon: vertices v_1..v_{4g} and edges C_j = (v_{j-1}, v_j).

    edges[k] holds 0-based vertex indices; the j=1 edge wraps to v_{4g}.
    """

    vertices: tuple[HPoint, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.edges) or len(self.vertices) % 4 != 0:
            raise ValueError("domain needs 4g vertices and 4g edges")


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word: letters (generator index 1..2g, exponent +-1)."""

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = None
        for idx, exp in self.letters:
            if not isinstance(idx, int) or idx < 1:
                raise ValueError(f"generator index must be a positive integer, got {idx!r}")
            if exp not in (1, -1):
                raise ValueError(f"exponent must be +-1, got {exp!r}")
            if prev is not None and prev == (idx, -exp):
                raise ValueError(f"word not freely reduced at letter {(idx, exp)}")
            prev = (idx, exp)

    def matrix(self, gens: FuchsianGenerators) -> Sl2Element:
        m = Sl2Element.identity()
        for idx, exp in self.letters:
            if idx > 2 * gens.genus:
                raise ValueError(f"letter index {idx} out of range for genus {gens.genus}")
            gamma = gens.gammas[idx - 1]
            m = m @ (gamma if exp == 1 else gamma.inverse())
        return m


def make_generators(params: TilingParams) -> FuchsianGenerators:
    g = params.genus
    mu = scaling_parameter(g)
    scale = exp_u(mu)
    gammas = []
    for j in range(1, 2 * g + 1):
        alpha = (j - 1) * math.pi / (4 * g)
        rot = exp_s(alpha)
        gammas.append(rot @ scale @ rot.inverse())
    return FuchsianGenerators(tuple(gammas), mu)


def relation_word(genus: int) -> GroupWord:
    """gamma_1 gamma_2^-1 ... gamma_{2g}^-1 gamma_1^-1 gamma_2 ... gamma_{2g}."""
    first = [(j, 1 if j % 2 == 1 else -1) for j in range(1, 2 * genus + 1)]
    second = [(j, -e) for j, e in first]
    return GroupWord(tuple(first + second))


def relation_defect(gens: FuchsianGenerators) -> float:
    """Distance of the defining-relation product from +-identity."""
    product = relation_word(gens.genus).matrix(gens)
    return psl2_distance(product, Sl2Element.identity())


def make_fundamental_domain(params: TilingParams) -> FundamentalDomain:
    g = params.genus
    tan = math.tan(math.pi / (4 * g))
    e_mu = math.exp(scaling_parameter(g))
    v_last = HPoint(e_mu - tan, e_mu * tan)
    # v_j = e^{j pi/(4g) S} v_{4g}, listed in order v_1 .. v_{4g}
    vertices = [moebius_act(exp_s(j * math.pi / (4 * g)), v_last) for j in range(1, 4 * g)]
    vertices.append(v_last)
    n = 4 * g
    edges = tuple(((k - 1) % n, k) for k in range(n))
    return FundamentalDomain(tuple(vertices), edges)


def edge_pairing_defect(gens: FuchsianGenerators, dom: FundamentalDomain) -> float:
    """Max over j of the endpoint mismatch in gamma_j C_{j+2g} = C_j.

    A side pairing reverses the edge it carries across the polygon, so the
    defect of one edge is the larger of the distances from gamma_j(start of
    C_{j+2g}) to the end of C_j and from gamma_j(end of C_{j+2g}) to the start
    of C_j, with start and end as `dom.edges` lists them.
    """
    g = gens.genus
    if len(dom.vertices) != 4 * g:
        raise ValueError("domain and generators disagree on genus")
    v = dom.vertices
    return max(
        hyperbolic_distance(moebius_act(gamma, v[src]), v[dst])
        for gamma, (start, end), (start_j, end_j) in zip(gens.gammas, dom.edges[2 * g :], dom.edges[: 2 * g])
        for src, dst in ((start, end_j), (end, start_j))
    )


_H = 0.05  # side of the dedup cells
_ROW_SPAN = 1 << 17  # a cell key is column * _ROW_SPAN + row
_COLUMN_LIMIT = 2.0**45  # |column| is clipped here, so every key and probe bound fits in int64
# candidates per chunk of a level pass: each chunk's products, gate, cells
# and probes are formed at once, so no temporary of a level outgrows a chunk
# but the sorted keys of the level and of the tiles kept before it
_LEVEL_CHUNK = 4096


def _cell_keys(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The int64 keys column * 2^17 + row of integral float cell columns and rows.

    Columns are clipped to +-2^45 (a NaN column goes to -2^45).  Every
    positive float y has |log y| < 746, so |row| < 15000 < 2^16: sorted keys
    run column by column, and by row within a column, as the pairs
    (column, row) do lexicographically, and key +- 1 is the next row of the
    same column.  Clipping only merges the columns past the bound into the
    edge columns, where they cost comparisons, never a lost copy; at g = 2
    depth 6, g = 3 depth 5 and g = 4 and 5 depth 4, |column| < 2^33.
    """
    column = np.fmin(np.fmax(column, -_COLUMN_LIMIT), _COLUMN_LIMIT)
    return column.astype(np.int64) * _ROW_SPAN + row.astype(np.int64)


def _gated_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate products `raw` as `Sl2Element` builds them, and their dedup cells.

    The rows are `sl2_rows(raw)`, and w = x + iy is the image of i under
    `moebius_rows`, so a refused candidate raises the scalar error.  The cell
    of w is the column round(x / (y h)) and the row round(log(y) / h), packed
    by `_cell_keys`.  In the chart u = x / y, v = log y the hyperbolic metric
    reads ds^2 = (du + u dv)^2 + dv^2: the dilations z -> lambda z, which are
    isometries, shift v and fix u, so a cell has the same hyperbolic size at
    every height.  Deep tiles crowd towards the real axis, where a Euclidean
    grid lumps many of them into one cell; here they keep to cells of their
    own, and a probe rarely meets a matrix to compare.
    """
    rows = sl2_rows(raw)
    x, y = moebius_rows(rows, 0.0, 1.0)
    with np.errstate(all="ignore"):  # x / (y h) may overflow for images near the real axis
        column = np.rint(x[:, 0] / (y[:, 0] * _H))
    return rows, _cell_keys(column, np.rint(np.log(y[:, 0]) / _H))


def _psl2_close(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """psl2_distance(p[i], q[i]) < _DEDUP_TOL for each pair of rows."""
    return (np.abs(p - q).max(axis=1) < _DEDUP_TOL) | (np.abs(p + q).max(axis=1) < _DEDUP_TOL)


def _neighbour_pairs(keys, order, base_keys, base_order) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (order[s], base_order[t]) with base_keys[t] in the 3 x 3 cells around keys[s].

    Both key arrays are sorted; sorted queries keep the binary searches
    local.  The probe only has to catch floating-point copies of one element,
    whose keys differ by far less than h (at g = 2, depth 6: at most 2.3e-7 in
    x / y and 1e-11 in log y); rounding can put two copies on either side of
    a cell boundary, never two cells apart, so the 3 x 3 neighbouring cells
    hold every copy.  The three cells of one column are one run of sorted keys.
    """
    firsts, seconds = [], []
    for dx in (-_ROW_SPAN, 0, _ROW_SPAN):
        lo = np.searchsorted(base_keys, keys + (dx - 1), "left")
        n = np.searchsorted(base_keys, keys + (dx + 1), "right") - lo
        firsts.append(np.repeat(order, n))
        seconds.append(base_order[np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)])
    return np.concatenate(firsts), np.concatenate(seconds)


def check_tiling_size(genus: int, depth: int) -> int:
    """Refuse a negative depth, or one past `_MAX_CANDIDATE_WORDS` candidates or `_MAX_TILE_CORNERS` corners.

    Returns 1 + the candidate count: the freely reduced words of length
    <= depth, the most tiles the enumeration can keep.  The corner bound
    counts that many tiles of 4g corners each: a large genus has few
    candidates at depth 1 but a 4g-gon per tile, and `tile` formats and
    writes every corner, so the bound limits the output's size and the time
    spent on it.  Both counts depend on genus and depth alone, so a caller
    can refuse before it builds the O(genus) generators and fundamental
    domain.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    n_letters = 4 * genus
    candidates = 0
    for length in range(1, depth + 1):
        candidates += n_letters * (n_letters - 1) ** (length - 1)
        if candidates > _MAX_CANDIDATE_WORDS:
            raise ValueError(f"depth {depth} spans > {_MAX_CANDIDATE_WORDS} candidate words for genus {genus}")
    if (1 + candidates) * n_letters > _MAX_TILE_CORNERS:
        raise ValueError(f"depth {depth} spans > {_MAX_TILE_CORNERS} tile corners for genus {genus}")
    return 1 + candidates


def _first_copies(level: np.ndarray, level_keys: np.ndarray, stored: np.ndarray, stored_keys: np.ndarray) -> np.ndarray:
    """Mask of the candidates `level` that no element of `stored`, nor an earlier kept candidate, lies close to.

    Queries go in sorted-key chunks of `_LEVEL_CHUNK`: first every candidate
    against the stored keys, then against the other candidates, where the
    few close pairs are resolved in order.
    """
    order = np.argsort(level_keys, kind="stable")
    level_keys = level_keys[order]
    stored_order = np.argsort(stored_keys, kind="stable")
    stored_keys = stored_keys[stored_order]
    chunks = [(level_keys[lo : lo + _LEVEL_CHUNK], order[lo : lo + _LEVEL_CHUNK]) for lo in range(0, len(order), _LEVEL_CHUNK)]
    kept = np.ones(len(level), dtype=bool)
    for cells in chunks:
        new, old = _neighbour_pairs(*cells, stored_keys, stored_order)
        kept[new[_psl2_close(level[new], stored[old])]] = False
    close_pairs = []
    for cells in chunks:
        later, earlier = _neighbour_pairs(*cells, level_keys, order)
        pair = (earlier < later) & kept[later] & kept[earlier]
        later, earlier = later[pair], earlier[pair]
        close = _psl2_close(level[later], level[earlier])
        close_pairs += zip(later[close].tolist(), earlier[close].tolist())
    # first come wins: a candidate goes when an earlier kept one is close
    for i, j in sorted(close_pairs):
        if kept[j]:
            kept[i] = False
    return kept


def enumerate_tiles(gens: FuchsianGenerators, depth: int) -> np.ndarray:
    """Deduplicated group elements of word length <= depth as rows (a, b, c, d), identity first.

    Breadth-first over freely reduced words; order within a level follows
    gamma_1, gamma_1^-1, gamma_2, ... applied on the right.  A candidate is
    dropped when an element kept before it, at an earlier level or earlier in
    its own level, lies within `_DEDUP_TOL` of it in PSL(2,R).  Each level
    is one array pass in chunks of `_LEVEL_CHUNK` candidates: products, gate
    and cells are written behind the kept rows, in arrays sized once by
    `check_tiling_size`; a sorted-key probe of the stored elements and of
    the level (`_first_copies`) marks the first copies, which are then moved
    up behind the kept rows.  A chunk refuses at its first refused product,
    else at its first refused image.
    """
    size = check_tiling_size(gens.genus, depth)
    n_letters = 4 * gens.genus
    # letter 2j is gamma_{j+1}, letter 2j + 1 its inverse: letter k ^ 1 undoes letter k
    letters = np.array([m.entries() for gamma in gens.gammas for m in (gamma, gamma.inverse())])
    rows, keys = np.empty((size, 4)), np.empty(size, dtype=np.int64)
    last = np.empty(size, dtype=np.int32)  # the last letter of each row's word
    rows[:1], keys[:1] = _gated_rows(np.array([Sl2Element.identity().entries()]))
    last[0] = -1
    lo, kept = 0, 1  # rows[:kept] are the tiles so far, rows[lo:kept] the last level's
    for _ in range(depth):
        end, span = kept, (kept - lo) * n_letters
        for start in range(0, span, _LEVEL_CHUNK):
            parent, letter = np.divmod(np.arange(start, min(start + _LEVEL_CHUNK, span)), n_letters)
            parent += lo
            reduced = letter != last[parent] ^ 1  # free reduction: skip immediate backtracking
            parent, letter = parent[reduced], letter[reduced]
            (a1, b1, c1, d1), (a2, b2, c2, d2) = rows[parent].T, letters[letter].T
            stop = end + len(parent)
            rows[end:stop], keys[end:stop] = _gated_rows(
                np.stack([a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2], axis=1)
            )
            last[end:stop] = letter
            end = stop
        first = _first_copies(rows[kept:end], keys[kept:end], rows[:kept], keys[:kept])
        # move the first copies up, a chunk at a time: each chunk's writes land below its reads
        lo, top = kept, kept
        for start in range(lo, end, _LEVEL_CHUNK):
            at = start + np.flatnonzero(first[start - lo : start - lo + _LEVEL_CHUNK])
            to = slice(top, top + len(at))
            rows[to], keys[to], last[to] = rows[at], keys[at], last[at]
            top = to.stop
        kept = top
    del keys, last  # the copy that trims the rows is then the only other array
    return rows[:kept].copy()


def disk_corners(tiles: np.ndarray, dom: FundamentalDomain) -> tuple[np.ndarray, np.ndarray]:
    """Disk coordinates (u, v) of every corner of tile rows (a, b, c, d), shaped (tiles, vertices).

    Each corner is the float that the scalar `(z - 1j) / (z + 1j)` of
    `z = moebius_act(tile, vertex)` gives; `moebius_rows` refuses as
    `moebius_act` does, but never for a tile of `enumerate_tiles(gens,
    depth)`.  Such a row (a, b, c, d) is a product of at most `depth`
    generators, each of operator norm e^mu, renormalized to ad - bc = 1, so
    its largest entry M is at most e^(mu depth), up to rounding, and
    1 = ad - bc <= M (|c| + |d|) gives c^2 + d^2 >= 1 / (2 M^2).  At a
    vertex x + iy, |cz + d|^2 is (cx + d)^2 + (cy)^2.  Where |d| >= 2|cx|,
    the sum cx + d cannot cancel and the two terms together are at least
    min(1/4, y^2) (c^2 + d^2); elsewhere c^2 + d^2 < c^2 (1 + 4x^2) bounds
    (cy)^2 alone.  So the float that `moebius_rows` forms is, to a few ulps,
    at least min(1/4, y^2) / (2 M^2 (1 + 4x^2)).  At the deepest admitted
    depth of genus 2 to 6, 15, 62 and 999 (the last four the largest genus
    admitted at depths 4, 3, 2 and 1) that is at least 5e-21, hundreds of
    orders above the 1e-300 refusal, and the image is then finite, with
    y > 0.
    """
    x, y = moebius_rows(tiles, np.array([p.x for p in dom.vertices]), np.array([p.y for p in dom.vertices]))
    # Cayley map w = (z - 1j) / (z + 1j), divided by Smith's method as
    # CPython's complex division does; numpy's complex `/` rounds differently
    ar, ai, br, bi = x, y - 1.0, x + 0.0, y + 1.0
    big = np.abs(br) >= np.abs(bi)
    ratio = np.where(big, bi, br) / np.where(big, br, bi)
    denom = np.where(big, br + bi * ratio, br * ratio + bi)
    u = np.where(big, ar + ai * ratio, ar * ratio + ai) / denom
    v = np.where(big, ai - ar * ratio, ai * ratio - ar) / denom
    return u, v


def edge_states(u: np.ndarray, v: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray]:
    """State (0 straight, 1 or 2 arc with sweep flag 0 or 1) and arc radius of every edge, shaped (tiles, edges).

    An edge from w1 to w2 runs along the geodesic circle orthogonal to |w|=1.
    Its center c satisfies 2 Re(w) cx + 2 Im(w) cy = |w|^2 + 1 at both
    endpoints; a vanishing determinant means a diameter, drawn straight, as
    are circles too large to draw.  The sign of the cross product of the
    radii c -> w1 and c -> w2 picks the sweep flag.
    """
    i, j = np.array(edges).T
    # abs(w) ** 2 of the scalar code: `**` is libm pow, which float_power
    # calls; numpy's `** 2` squares and can differ in the last bit
    rhs = np.float_power(np.hypot(u, v), 2) + 1.0
    u1, v1, b1 = u[:, i], v[:, i], rhs[:, i]
    u2, v2, b2 = u[:, j], v[:, j], rhs[:, j]
    a11, a12, a21, a22 = 2.0 * u1, 2.0 * v1, 2.0 * u2, 2.0 * v2
    det = a11 * a22 - a12 * a21
    arc = np.abs(det) >= 1e-9
    det = np.where(arc, det, 1.0)
    cx = (b1 * a22 - b2 * a12) / det
    cy = (a11 * b2 - a21 * b1) / det
    r_sq = cx * cx + cy * cy - 1.0
    arc &= r_sq > 0.0
    radius = np.sqrt(np.where(arc, r_sq, 0.0))
    arc &= radius <= _ARC_RADIUS_LIMIT
    # positive: w2 lies less than a half turn counterclockwise of w1 about c (state 2)
    turn = (u1 - cx) * (v2 - cy) - (v1 - cy) * (u2 - cx)
    return np.where(arc, np.where(turn > 0.0, 2, 1), 0).astype(np.uint8), radius
