"""Fuchsian group and fundamental domain of the {4g,4g} half-plane tiling.

The group is generated by 2g hyperbolic translations

    gamma_j = R(alpha_j) diag(e^mu, e^-mu) R(-alpha_j),   alpha_j = (j-1) pi / (4g)

with R(a) = e^{a S} and e^mu = cot(pi/4g) + sqrt(cot^2(pi/4g) - 1).  They obey
the single surface-group relation

    gamma_1 gamma_2^-1 ... gamma_{2g}^-1 gamma_1^-1 gamma_2 ... gamma_{2g} = 1

and pair opposite edges of a regular 4g-gon centered at i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .halfplane import (
    HPoint,
    Sl2Element,
    exp_s,
    exp_u,
    hyperbolic_distance,
    moebius_act,
    psl2_distance,
)

_DEDUP_TOL = 1e-6
_MAX_CANDIDATE_WORDS = 10**6


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

    Endpoints are matched as unordered pairs: the defect of one edge is the
    smaller over both assignments of the larger endpoint distance.
    """
    g = gens.genus
    if len(dom.vertices) != 4 * g:
        raise ValueError("domain and generators disagree on genus")
    worst = 0.0
    for j in range(1, 2 * g + 1):
        src = dom.edges[j + 2 * g - 1]
        dst = dom.edges[j - 1]
        a = moebius_act(gens.gammas[j - 1], dom.vertices[src[0]])
        b = moebius_act(gens.gammas[j - 1], dom.vertices[src[1]])
        p, q = dom.vertices[dst[0]], dom.vertices[dst[1]]
        straight = max(hyperbolic_distance(a, p), hyperbolic_distance(b, q))
        crossed = max(hyperbolic_distance(a, q), hyperbolic_distance(b, p))
        worst = max(worst, min(straight, crossed))
    return worst


class _TileIndex:
    """Hash on the image w = x + iy of i, confirming hits by matrix distance.

    The key is the cell of (x / y, log y) on an h-grid.  In that chart the
    hyperbolic metric reads ds^2 = (du + u dv)^2 + dv^2 with u = x / y,
    v = log y: the dilations z -> lambda z, which are isometries, shift v and
    fix u, so a cell has the same hyperbolic size at every height.  Deep tiles
    crowd towards the real axis, where a Euclidean grid lumps many of them
    into one cell; here they keep to cells of their own, and a probe rarely
    meets a matrix to compare.

    The probe only has to catch floating-point copies of one element, whose
    keys differ by far less than h (at g = 2, depth 6: at most 2.3e-7 in
    x / y and 1e-11 in log y); rounding can put two copies on either side of
    a cell boundary, never two cells apart, so the 3 x 3 neighbouring cells
    hold every copy.
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
                    if psl2_distance(m, seen) < _DEDUP_TOL:
                        return True
        self._buckets.setdefault((kx, ky), []).append(m)
        return False


def enumerate_tiles(gens: FuchsianGenerators, depth: int) -> list[Sl2Element]:
    """Deduplicated group elements of word length <= depth, identity first.

    Breadth-first over freely reduced words; order within a level follows
    gamma_1, gamma_1^-1, gamma_2, ... applied on the right.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    n_letters = 4 * gens.genus
    candidates = 0
    for length in range(1, depth + 1):
        candidates += n_letters * (n_letters - 1) ** (length - 1)
        if candidates > _MAX_CANDIDATE_WORDS:
            raise ValueError(
                f"depth {depth} spans > {_MAX_CANDIDATE_WORDS} candidate words for genus {gens.genus}"
            )

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
