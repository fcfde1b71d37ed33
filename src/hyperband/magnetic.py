"""Magnetic translation group on the half-plane and its operator algebra.

A uniform field B deforms the rotation generator to

    S_B = (1 + x^2 - y^2) d/dx + 2xy d/dy + 2iBy

while T_B = d/dx and U_B = 2x d/dx + 2y d/dy stay field-free.  The flow
e^{t S_B} moves points exactly like e^{t S} but multiplies functions by the
U(1) cocycle

    j(e^{t S_B}, z) = exp(2iB integral_0^t y(t') dt').

The integral has a closed form.  The Cayley map w = (z - i)/(z + i) turns
e^{t S} into the disk rotation w -> e^{2it} w, along which y is the Poisson
kernel (1 - |w|^2)/|1 - w|^2 with antiderivative psi - 2 arg(1 - w) in the
angle psi of w.  Since 1 - w = 2i/(z + i),

    2 integral_0^t y = 2t + 2 (arg(z_t + i) - arg(z_0 + i)),

and Im(z + i) > 1 keeps arg(z + i) in (0, pi), so principal values are the
continuous branch.  Products of such flows realize a magnetic deformation of
the Fuchsian group: the defining relation no longer closes to 1 but to the
flux phase e^{i 4(g-1) pi B}.

The second half of the module verifies the commutation relations, the
generator form of the Landau Hamiltonian, and the weighted
(automorphy-twisted) actions, all without finite differences.  Every
operator is linear and raises the polynomial degree by at most one, so it is
written once as terms c B^p x^a y^b dx^m dy^n with p <= 2, and becomes a
polynomial in B whose coefficients are field-free matrices on the monomials
x^i y^j.  A residual is a product of such polynomials applied to the cubic
basis, formed power by power, so it holds at every field at once and takes
no field and no sample point.  Every c is a small integer or its half, or
i times one, so every entry of every product is a dyadic rational that
float64 holds exactly: a residual that vanishes reads exactly 0.0.  The
weighted generators X_check are checked the same way against y^{-B} X_B y^{B},
conjugated term by term (`weight_conjugation_residual`).  `Poly2`
is the exact polynomial calculus that the weighted actions use and that the
tests hold the matrices against.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

import numpy as np

from .halfplane import HPoint, Sl2Element, exp_s, exp_t, exp_u, hyperbolic_distance, moebius_act
from .tiling import TilingParams, relation_word, scaling_parameter

_CLOSURE_ERROR = 1e-6


@dataclass(frozen=True)
class FluxParam:
    """Rational field strength B = p/(2q) with p, q coprime, q >= 1."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise ValueError("flux numerator and denominator must be integers")
        if self.q < 1:
            raise ValueError(f"flux denominator must be >= 1, got {self.q}")
        if math.gcd(abs(self.p), self.q) != 1:
            raise ValueError(f"flux parameters p={self.p}, q={self.q} not coprime")

    @classmethod
    def from_field(cls, B: Fraction) -> "FluxParam":
        """B = p/(2q): double the field and read off the reduced fraction."""
        twice = 2 * Fraction(B)
        return cls(twice.numerator, twice.denominator)

    @property
    def field(self) -> float:
        return self.p / (2.0 * self.q)

    def flux(self, genus: int) -> float:
        """Flux through one fundamental tile: 4(g-1) pi B."""
        return 4.0 * (genus - 1) * math.pi * self.p / (2.0 * self.q)


# ---------------------------------------------------------------- phase cocycle


def s_phase(t: float, z0: HPoint, B: float) -> complex:
    """Cocycle exp(2iB integral_0^t y) of the rotation flow e^{t S_B} from z0.

    Closed form exp(2iB (t + arg(z_t + i) - arg(z_0 + i))) with z_t = e^{t S} z0
    (derivation in the module docstring).  Both args lie in (0, pi), so there
    are no turns to count and no branch to track; at z0 = i it reduces to
    exp(2iBt).
    """
    if not math.isfinite(B):
        raise ValueError("non-finite field strength")
    return _rotation_phase(t, z0, moebius_act(exp_s(t), z0), B)


def _rotation_phase(t: float, z0: HPoint, w: HPoint, B: float) -> complex:
    """The closed form of `s_phase` from z0 and its image w = e^{t S} z0."""
    return cmath.exp(2j * B * (t + math.atan2(w.y + 1.0, w.x) - math.atan2(z0.y + 1.0, z0.x)))


# ---------------------------------------------------------------- magnetic words

_FACTOR_KINDS = ("S", "U", "T")


@dataclass(frozen=True)
class MagneticFactor:
    """One primitive flow factor: kind S (rotation), U (scaling), T (translation)."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in _FACTOR_KINDS:
            raise ValueError(f"factor kind must be one of {_FACTOR_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError("non-finite factor parameter")

    def matrix(self) -> Sl2Element:
        if self.kind == "S":
            return exp_s(self.value)
        if self.kind == "U":
            return exp_u(self.value)
        return exp_t(self.value)


def s_rotation(t: float) -> MagneticFactor:
    return MagneticFactor("S", t)


def u_scaling(mu: float) -> MagneticFactor:
    return MagneticFactor("U", mu)


def t_translation(t: float) -> MagneticFactor:
    return MagneticFactor("T", t)


@dataclass(frozen=True)
class MagneticWord:
    """Product of primitive flows, stored in operator order (leftmost first)."""

    factors: tuple[MagneticFactor, ...]

    def inverse(self) -> "MagneticWord":
        return MagneticWord(tuple(MagneticFactor(f.kind, -f.value) for f in reversed(self.factors)))


@dataclass(frozen=True)
class MagneticAction:
    """Result of a magnetic word: accumulated U(1) phase and the moved point."""

    phase: complex
    image: HPoint

    def __post_init__(self):
        if not cmath.isfinite(self.phase) or abs(abs(self.phase) - 1.0) > 1e-12:
            raise ValueError(f"phase modulus {abs(self.phase)} not on the unit circle")


def act_magnetic(word: MagneticWord, z: HPoint, B: float) -> MagneticAction:
    """Evaluate a word of magnetic flows at z.

    Factors are stored in operator order; composing function actions reverses
    the matrix product, so the point is moved by each factor's matrix read
    left to right (the last factor's matrix ends up leftmost).  Only rotation
    factors carry phase, picked up at the point current when they act.
    """
    return _act(word, _factor_matrices(word, B), z, B)


def _factor_matrices(word: MagneticWord, B: float) -> list[Sl2Element]:
    """Each factor's matrix, built once for every point the word acts on.

    A non-finite B is refused here, before any factor acts, when the word
    has a rotation factor to carry phase; a word without one ignores B.
    """
    if not math.isfinite(B) and any(f.kind == "S" for f in word.factors):
        raise ValueError("non-finite field strength")
    return [f.matrix() for f in word.factors]


def _act(word: MagneticWord, matrices: list[Sl2Element], z: HPoint, B: float) -> MagneticAction:
    """`act_magnetic` with the factor matrices given: each moves the point once, and a
    rotation's phase is `s_phase`'s closed form from the point before and the image after."""
    phase = complex(1.0)
    current = z
    for f, g in zip(word.factors, matrices):
        image = moebius_act(g, current)
        if f.kind == "S":
            phase *= _rotation_phase(f.value, current, image, B)
        current = image
    return MagneticAction(phase, current)


def magnetic_generators(params: TilingParams) -> list[MagneticWord]:
    """Magnetic deformations of the 2g tiling generators.

    gamma_j^B = e^{-alpha_j S_B} e^{mu U_B} e^{alpha_j S_B} with
    alpha_j = (j-1) pi/(4g).  The words do not depend on B: the field enters
    through the cocycle when they act.
    """
    g = params.genus
    mu = scaling_parameter(g)
    words = []
    for j in range(1, 2 * g + 1):
        alpha = (j - 1) * math.pi / (4 * g)
        if alpha == 0.0:
            words.append(MagneticWord((u_scaling(mu),)))
        else:
            words.append(MagneticWord((s_rotation(-alpha), u_scaling(mu), s_rotation(alpha))))
    return words


def flux_relation_word(params: TilingParams) -> MagneticWord:
    """Operator form of the defining relation.

    As operators the relation reads gamma_2g ... gamma_2 (gamma_1)^-1
    (gamma_2g)^-1 ... (gamma_2)^-1 gamma_1 (alternating exponents hidden in
    the dots): exactly the letters of the matrix relation in reverse, which is
    why the point orbit still closes while the phase picks up the flux.
    """
    gen_words = magnetic_generators(params)
    factors: list[MagneticFactor] = []
    for idx, exp in reversed(relation_word(params.genus).letters):
        w = gen_words[idx - 1]
        factors.extend(w.factors if exp == 1 else w.inverse().factors)
    return MagneticWord(tuple(factors))


def flux_relation_phase(params: TilingParams, B: float, points: HPoint | Iterable[HPoint]) -> list[complex]:
    """Phase of the relation word at each point (a single point is a one-point list).

    The Gauss-Bonnet value is e^{i4(g-1)pi B} at every point.  The word and
    its factor matrices are built once per call; a point whose orbit does not
    close raises RuntimeError.
    """
    word = flux_relation_word(params)
    matrices = _factor_matrices(word, B)
    phases = []
    for z in [points] if isinstance(points, HPoint) else points:
        action = _act(word, matrices, z, B)
        drift = hyperbolic_distance(action.image, z)
        if drift > _CLOSURE_ERROR:
            raise RuntimeError(
                f"relation word failed to close: image drifted {drift:.3e} from the start "
                "(composition-order bug)"
            )
        phases.append(action.phase)
    return phases


def covering_degree_check(q: int, z: HPoint) -> complex:
    """Phase of the half-turn flow e^{pi S_B} at B = 1/q from z; contract: e^{i 2 pi/q}.

    The point orbit closes (e^{pi S} = -1 acts trivially), so only after q
    half-turns does the phase return to 1: the plain group q-fold covers the
    magnetic one.
    """
    if q < 1:
        raise ValueError(f"covering degree must be >= 1, got {q}")
    return act_magnetic(MagneticWord((s_rotation(math.pi),)), z, 1.0 / q).phase


def automorphic_factor(g: Sl2Element, z: HPoint) -> complex:
    """Weight-one automorphy factor j(g, z) = 1/(cz + d)."""
    den = complex(g.c * z.x + g.d, g.c * z.y)
    if abs(den) < 1e-150:
        raise ValueError("degenerate automorphy denominator |cz + d| ~ 0")
    return 1.0 / den


# ---------------------------------------------------------------- polynomial calculus


class Poly2:
    """Complex polynomial in (x, y): exact arithmetic, derivatives, evaluation.

    Small and closed under every operator in this module, which keeps nested
    commutators of second-order operators at full float accuracy; finite
    differences would lose half the digits per nesting.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], complex] | None = None):
        self.coeffs = {}
        for key, val in (coeffs or {}).items():
            c = complex(val)
            if c != 0.0:
                self.coeffs[key] = c

    @classmethod
    def monomial(cls, i: int, j: int, c: complex = 1.0) -> "Poly2":
        return cls({(i, j): c})

    @classmethod
    def constant(cls, c: complex) -> "Poly2":
        return cls({(0, 0): c})

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0.0) + val
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0.0) - val
        return Poly2(out)

    def __mul__(self, other):
        if isinstance(other, Poly2):
            out: dict[tuple[int, int], complex] = {}
            for (i1, j1), c1 in self.coeffs.items():
                for (i2, j2), c2 in other.coeffs.items():
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0.0) + c1 * c2
            return Poly2(out)
        return Poly2({key: val * other for key, val in self.coeffs.items()})

    __rmul__ = __mul__

    def dx(self) -> "Poly2":
        return Poly2({(i - 1, j): i * c for (i, j), c in self.coeffs.items() if i > 0})

    def dy(self) -> "Poly2":
        return Poly2({(i, j - 1): j * c for (i, j), c in self.coeffs.items() if j > 0})

    def __call__(self, x: float, y: float) -> complex:
        return sum((c * x**i * y**j for (i, j), c in self.coeffs.items()), complex(0.0))

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)


POLY_BASIS: tuple[Poly2, ...] = tuple(
    Poly2.monomial(i, j) for i, j in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
)


class DiffOpId(Enum):
    S_B = "S_B"
    T_B = "T_B"
    U_B = "U_B"
    S_check = "S_check"
    T_check = "T_check"
    U_check = "U_check"
    H_continuum = "H_continuum"


_X = Poly2.monomial(1, 0)
_Y = Poly2.monomial(0, 1)
_ONE = Poly2.constant(1.0)
_S_COEF_X = _ONE + _X * _X - _Y * _Y  # 1 + x^2 - y^2
_TWO_XY = 2.0 * (_X * _Y)


def _apply(op: DiffOpId, f: Poly2, B: float) -> Poly2:
    if op is DiffOpId.S_B:
        return _S_COEF_X * f.dx() + _TWO_XY * f.dy() + (2j * B) * (_Y * f)
    if op is DiffOpId.T_B or op is DiffOpId.T_check:
        return f.dx()
    if op is DiffOpId.U_B:
        return 2.0 * (_X * f.dx()) + 2.0 * (_Y * f.dy())
    if op is DiffOpId.S_check:
        return _S_COEF_X * f.dx() + _TWO_XY * f.dy() + (2.0 * B) * ((_X + 1j * _Y) * f)
    if op is DiffOpId.U_check:
        return 2.0 * (_X * f.dx()) + 2.0 * (_Y * f.dy()) + (2.0 * B) * f
    if op is DiffOpId.H_continuum:
        lap = f.dx().dx() + f.dy().dy()
        return 0.5 * ((-1.0) * (_Y * _Y * lap) + (2j * B) * (_Y * f.dx()) + (B * B) * f)
    raise ValueError(f"unknown operator {op!r}")


def apply_diff_operator(op: DiffOpId, f: Poly2, z: HPoint, B: float) -> complex:
    """Operator applied to a polynomial test function, evaluated at z."""
    return _apply(op, f, B)(z.x, z.y)


def max_or_nan(values: Iterable[float]) -> float:
    """The largest value, or NaN when any value is NaN.

    The builtin `max` keeps a NaN only when it comes first: max(0.0, nan) is
    0.0, which would let an overflowed residual read as a perfect pass.
    """
    values = list(values)
    if not values:
        raise ValueError("max_or_nan needs at least one value, got an empty sequence")
    return math.nan if any(math.isnan(v) for v in values) else max(values)


# ---------------------------------------------------------------- operator matrices

# Each operator as terms (p, c, (a, b, m, n)), the term c B^p x^a y^b dx^m dy^n.
_PARTIAL_X = (0, 1.0, (0, 0, 1, 0))
_S_FIELD_FREE = (_PARTIAL_X, (0, 1.0, (2, 0, 1, 0)), (0, -1.0, (0, 2, 1, 0)), (0, 2.0, (1, 1, 0, 1)))
_U_FIELD_FREE = ((0, 2.0, (1, 0, 1, 0)), (0, 2.0, (0, 1, 0, 1)))
_TERMS: dict[DiffOpId, tuple[tuple[int, complex, tuple[int, int, int, int]], ...]] = {
    DiffOpId.S_B: (*_S_FIELD_FREE, (1, 2j, (0, 1, 0, 0))),
    DiffOpId.T_B: (_PARTIAL_X,),
    DiffOpId.U_B: _U_FIELD_FREE,
    DiffOpId.S_check: (*_S_FIELD_FREE, (1, 2.0, (1, 0, 0, 0)), (1, 2j, (0, 1, 0, 0))),
    DiffOpId.T_check: (_PARTIAL_X,),
    DiffOpId.U_check: (*_U_FIELD_FREE, (1, 2.0, (0, 0, 0, 0))),
    DiffOpId.H_continuum: (
        (0, -0.5, (0, 2, 2, 0)),
        (0, -0.5, (0, 2, 0, 2)),
        (1, 1j, (0, 1, 1, 0)),
        (2, 0.5, (0, 0, 0, 0)),
    ),
}

# The monomials x^i y^j with i + j <= 6, by degree and then by falling i:
# x^i y^j is number d (d + 1)/2 + j with d = i + j, the first ten are
# `POLY_BASIS` in order, and those of degree <= d are the first `_SIZES[d]`.
# An operator's matrix maps the monomials of degree <= 5 (its columns) to
# those of degree <= 6 (its rows).  Every term raises the degree by at most
# one, so a column holds the whole image; the residuals never apply an
# operator to anything of degree 6.
_MONOMIALS = tuple((i, d - i) for d in range(7) for i in range(d, -1, -1))
_SIZES = tuple((d + 1) * (d + 2) // 2 for d in range(7))
_CUBICS = _SIZES[3]


@functools.cache
def _term_entries(a: int, b: int, m: int, n: int) -> tuple[tuple[int, int], ...]:
    """The nonzero entries of the matrix of x^a y^b dx^m dy^n, as (flat index, value).

    The term takes column x^i y^j to row x^(i-m+a) y^(j-n+b) with value
    i!/(i-m)! j!/(j-n)!.
    """
    entries = []
    for col, (i, j) in enumerate(_MONOMIALS[: _SIZES[5]]):
        if i >= m and j >= n:
            d = i - m + a + j - n + b  # the image's degree
            entries.append(((d * (d + 1) // 2 + j - n + b) * _SIZES[5] + col, math.perm(i, m) * math.perm(j, n)))
    return tuple(entries)


def _graded(terms: Iterable[tuple[int, complex, tuple[int, int, int, int]]]) -> np.ndarray:
    """The matrix of a sum of terms as a polynomial in B: entry p of the (3, 28, 21) array holds its B^p terms.

    Every coefficient is a small integer or its half, or i times one, so the
    terms that meet in an entry sum exactly.
    """
    graded = np.zeros((3, _SIZES[6] * _SIZES[5]), dtype=complex)
    for power, coeff, term in terms:
        for flat, value in _term_entries(*term):
            graded[power, flat] += coeff * value
    return graded.reshape(3, _SIZES[6], _SIZES[5])


@functools.cache
def _graded_matrix(op: DiffOpId) -> np.ndarray:
    """`op`'s matrix as a polynomial in B (`_graded` of `_TERMS[op]`)."""
    graded = _graded(_TERMS[op])
    graded.flags.writeable = False  # shared by every caller
    return graded


def _weight_conjugate(op: DiffOpId) -> list[tuple[int, complex, tuple[int, int, int, int]]]:
    """The terms of y^{-B} op y^{B}, from `op`'s terms one at a time.

    y^{-B} dy y^{B} = dy + B/y, so a term c B^p x^a y^b dx^m dy with b >= 1
    also gives c B^(p+1) x^a y^(b-1) dx^m; a term without dy is unchanged.
    Any other dy term has no such polynomial image and is a ValueError.
    """
    terms = []
    for power, coeff, (a, b, m, n) in _TERMS[op]:
        terms.append((power, coeff, (a, b, m, n)))
        if n:
            if n != 1 or b < 1:
                raise ValueError(f"cannot conjugate the term x^{a} y^{b} dx^{m} dy^{n} of {op!r} by y^B")
            terms.append((power + 1, coeff, (a, b - 1, m, 0)))
    return terms


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b as polynomials in B: each power of a times each of b, summed by total power.

    Every image in b's columns must lie in a's columns: b's rows past them are zero and left out.
    """
    products = a[:, None] @ b[None, :, : a.shape[2]]
    out = np.zeros((len(a) + len(b) - 1, *products.shape[2:]), dtype=complex)
    for p, row in enumerate(products):
        out[p : p + len(b)] += row
    return out


_GENERATORS = (DiffOpId.S_B, DiffOpId.T_B, DiffOpId.U_B)


@functools.cache
def _hamiltonian() -> np.ndarray:
    """H in generator form on the monomials of degree <= 4, as a polynomial in B.

    H = 1/(2m) (T_B (S_B - T_B) - 1/4 U_B^2 - 1/2 U_B + B^2), m = 1.  H keeps
    the degree of what it acts on, so its first columns are H on the cubic basis.
    """
    k = _SIZES[4]
    s, t, u = (_graded_matrix(g) for g in _GENERATORS)
    inner = _compose(t, s[..., :k] - t[..., :k]) - 0.25 * _compose(u, u[..., :k])
    inner[:3] -= 0.5 * u[..., :k]
    inner[2, range(k), range(k)] += 1.0
    h = 0.5 * inner
    h.flags.writeable = False  # shared by every caller
    return h


def commutator_residual(op1: DiffOpId, op2: DiffOpId, expected: dict[DiffOpId, complex]) -> float:
    """Largest coefficient, over every power of B, of ([op1, op2] - sum c_i op_i) on the cubic basis."""
    m1, m2 = _graded_matrix(op1), _graded_matrix(op2)
    residual = _compose(m1, m2[..., :_CUBICS]) - _compose(m2, m1[..., :_CUBICS])
    for op, coeff in expected.items():
        residual[:3] -= coeff * _graded_matrix(op)[..., :_CUBICS]
    return float(np.abs(residual).max())


_WEIGHTED = {DiffOpId.S_B: DiffOpId.S_check, DiffOpId.T_B: DiffOpId.T_check, DiffOpId.U_B: DiffOpId.U_check}


def weight_conjugation_residual() -> float:
    """Largest coefficient, over every power of B and X = S, T, U, of X_check - y^{-B} X_B y^{B} on the cubic basis.

    The weighted generators are the field generators conjugated by the
    weight y^B.  This pins every term of the weighted forms; the commutator
    relations alone hold for any multiple of S_check's y^2 dx and 2iBy terms.
    """
    return max_or_nan(
        float(np.abs(_graded_matrix(check)[..., :_CUBICS] - _graded(_weight_conjugate(op))[..., :_CUBICS]).max())
        for op, check in _WEIGHTED.items()
    )


def hamiltonian_commutation_residual(op: DiffOpId) -> float:
    """Largest coefficient, over every power of B, of [H, op] on the cubic basis, H in generator form."""
    if op not in _GENERATORS:
        raise ValueError(f"Hamiltonian symmetry check expects a field generator, got {op!r}")
    h, m = _hamiltonian(), _graded_matrix(op)
    return float(np.abs(_compose(h, m[..., :_CUBICS]) - _compose(m, h[..., :_CUBICS])).max())


def hamiltonian_forms_residual() -> float:
    """Largest coefficient, over every power of B, of (H_generator - H_continuum) on the cubic basis.

    The generator form 1/2 (T_B(S_B - T_B) - U_B^2/4 - U_B/2 + B^2) and the
    Landau form (-y^2 Laplacian + 2iBy d/dx + B^2)/2 are the same operator.
    """
    residual = _hamiltonian()[..., :_CUBICS].copy()
    residual[:3] -= _graded_matrix(DiffOpId.H_continuum)[..., :_CUBICS]
    return float(np.abs(residual).max())


def check_weighted_action(mu_or_t: float, kind: DiffOpId, f: Poly2, z: HPoint, B: float) -> tuple[complex, complex]:
    """Both sides of the weighted one-parameter flow identities.

    T_check:  e^{t T} f(z) = f(z + t)
    U_check:  e^{t U} f(z) = e^{2Bt} f(e^{2t} z),  needs 2B integer

    The left side is the operator-exponential series sum t^n (X^n f)(z)/n!,
    which converges fast on polynomials (U acts diagonally on monomials).
    """
    if kind not in (DiffOpId.T_check, DiffOpId.U_check):
        raise ValueError(f"weighted action check expects T_check or U_check, got {kind!r}")
    if abs(2.0 * B - round(2.0 * B)) > 1e-12:
        raise ValueError(f"weighted action needs 2B integer, got B = {B}")
    t = mu_or_t

    term = f
    left = f(z.x, z.y)
    scale = max(1.0, abs(left))
    for n in range(1, 80):
        term = (t / n) * _apply(kind, term, B)
        contrib = term(z.x, z.y)
        left += contrib
        scale = max(scale, abs(left))
        if abs(contrib) < 1e-17 * scale and term.max_abs() * max(1.0, abs(t)) ** 3 < 1e-15 * scale:
            break

    if kind is DiffOpId.T_check:
        right = f(z.x + t, z.y)
    else:
        grown = math.exp(2.0 * t)
        right = math.exp(2.0 * B * t) * f(grown * z.x, grown * z.y)
    return left, right
