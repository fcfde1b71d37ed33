"""Moebius geometry of the Poincare upper half-plane.

The half-plane H = {x + iy : y > 0} carries the metric ds^2 = (dx^2 + dy^2)/y^2.
SL(2,R) acts by g.z = (az + b)/(cz + d); the kernel of the action is {+-1}, so
everything geometric factors through PSL(2,R).  Three one-parameter subgroups
generate the group:

    e^{theta S} = [[cos t, sin t], [-sin t, cos t]]   (rotation about i)
    e^{t T}     = [[1, t], [0, 1]]                    (horizontal translation)
    e^{mu U}    = [[e^mu, 0], [0, e^-mu]]             (scaling z -> e^{2 mu} z)

and every element factors uniquely as e^{theta S} e^{mu U} e^{t T} (Iwasawa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance ladder: two orders of headroom between successive layers of
# composed arithmetic.
CONSTRUCTION_TOL = 1e-12
COMPARISON_TOL = 1e-10
GEOMETRIC_TOL = 1e-9

_DEGENERATE_DENOMINATOR = "degenerate Moebius denominator |cz + d| ~ 0"

_EPS = 2.220446049250313e-16
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split constant
# largest |mu| of e^{mu U}: the determinant gate splits e^|mu| by `_SPLITTER`, which
# overflows from |mu| = log(DBL_MAX / _SPLITTER) = 691.07
_MAX_SCALING = 690.0


def _two_product(x: float, y: float) -> tuple[float, float]:
    """Exact product x*y = p + e with p = fl(x*y)."""
    p = x * y
    cx = _SPLITTER * x
    hx = cx - (cx - x)
    lx = x - hx
    cy = _SPLITTER * y
    hy = cy - (cy - y)
    ly = y - hy
    e = ((hx * hy - p) + hx * ly + lx * hy) + lx * ly
    return p, e


def _det2(a: float, b: float, c: float, d: float) -> float:
    """a*d - b*c with compensated products (immune to cancellation)."""
    p1, e1 = _two_product(a, d)
    p2, e2 = _two_product(b, c)
    return (p1 - p2) + (e1 - e2)


def det_gate(a, b, c, d):
    """Determinant of [[a, b], [c, d]] and whether `Sl2Element` admits it.

    The admitted |det - 1| is 1e-9 widened by the float64 noise floor of
    a*d - b*c, 32 eps (|a*d| + |b*c|): entries that each carry a few
    roundings move the determinant by that much, so products of deep tiling
    words are not rejected for pure rounding drift, while a large entry
    alone widens nothing (diag(1e20, 1) is refused).  A NaN determinant or
    an overflowing product is refused.  Takes floats or numpy arrays alike,
    so `sl2_rows` applies the same rule to whole arrays.
    """
    det = _det2(a, b, c, d)
    tol = 1e-9 + 32.0 * _EPS * (abs(a * d) + abs(b * c))
    return det, (det > 0.0) & (abs(det - 1.0) <= tol) & (tol < math.inf)


@dataclass(frozen=True)
class HPoint:
    """A point x + iy of the upper half-plane, y > 0 strictly."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite half-plane point ({self.x}, {self.y})")
        if self.y <= 0.0:
            raise ValueError(f"half-plane point needs y > 0, got y = {self.y}")

    def as_complex(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class Sl2Element:
    """Real 2x2 matrix [[a, b], [c, d]] with det = 1.

    Construction renormalizes by 1/sqrt(det) and rejects input whose
    determinant is not within tolerance of 1 (`det_gate`).
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
            raise ValueError("non-finite matrix entry")
        det, admitted = det_gate(a, b, c, d)
        if not admitted:
            raise ValueError(f"matrix determinant {det} too far from 1")
        if abs(det - 1.0) > 1e-15:
            s = math.sqrt(det)
            object.__setattr__(self, "a", a / s)
            object.__setattr__(self, "b", b / s)
            object.__setattr__(self, "c", c / s)
            object.__setattr__(self, "d", d / s)

    @classmethod
    def identity(cls) -> "Sl2Element":
        return cls(1.0, 0.0, 0.0, 1.0)

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "Sl2Element") -> "Sl2Element":
        return Sl2Element(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Sl2Element":
        # det = 1 makes the adjugate the exact inverse
        return Sl2Element(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "Sl2Element":
        return Sl2Element(-self.a, -self.b, -self.c, -self.d)

    @property
    def trace(self) -> float:
        return self.a + self.d


def exp_s(theta: float) -> Sl2Element:
    """Rotation subgroup element e^{theta S}."""
    if not math.isfinite(theta):
        raise ValueError("non-finite rotation parameter")
    c, s = math.cos(theta), math.sin(theta)
    return Sl2Element(c, s, -s, c)


def exp_t(t: float) -> Sl2Element:
    """Translation subgroup element e^{t T}, acting as z -> z + t."""
    if not math.isfinite(t):
        raise ValueError("non-finite translation parameter")
    return Sl2Element(1.0, t, 0.0, 1.0)


def exp_u(mu: float) -> Sl2Element:
    """Scaling subgroup element e^{mu U}, acting as z -> e^{2 mu} z, for |mu| <= `_MAX_SCALING`."""
    if not math.isfinite(mu):
        raise ValueError("non-finite scaling parameter")
    if abs(mu) > _MAX_SCALING:
        raise ValueError(f"scaling parameter {mu} outside the supported range |mu| <= {_MAX_SCALING:g}")
    e = math.exp(mu)
    return Sl2Element(e, 0.0, 0.0, 1.0 / e)


def moebius_act(g: Sl2Element, z: HPoint) -> HPoint:
    """Apply g.z = (az + b)/(cz + d).

    The imaginary part is computed as y/|cz+d|^2, which is positive by
    construction and immune to cancellation near the real axis.
    """
    cx = g.c * z.x + g.d
    cy = g.c * z.y
    den = cx * cx + cy * cy
    if den < 1e-300:
        raise ValueError(_DEGENERATE_DENOMINATOR)
    ax = g.a * z.x + g.b
    ay = g.a * z.y
    return HPoint((ax * cx + ay * cy) / den, z.y / den)


# Array twins of `Sl2Element` and `moebius_act`: the same operations in the
# same order on whole arrays, so every float and every refusal message is
# the scalar one.  The scalar forms stay the reference and the fast path for
# single elements.


def sl2_rows(raw: np.ndarray) -> np.ndarray:
    """`Sl2Element(*row).entries()` for every row (a, b, c, d) of an (n, 4) array.

    Refuses at the first refused row with `Sl2Element`'s ValueError.
    """
    a, b, c, d = raw.T
    with np.errstate(all="ignore"):  # refused rows raise below
        det, ok = det_gate(a, b, c, d)
        ok &= np.isfinite(raw).all(axis=1)
        if not ok.all():
            Sl2Element(*raw[np.argmin(ok)].tolist())  # the same checks on the same floats: raises
        return np.where((np.abs(det - 1.0) > 1e-15)[:, None], raw / np.sqrt(det)[:, None], raw)


def moebius_rows(rows: np.ndarray, x, y) -> tuple[np.ndarray, np.ndarray]:
    """`moebius_act` of every row (a, b, c, d) at every point (x, y), shaped (rows, points).

    `x` and `y` are the points' coordinates, 1-D arrays or the floats of one
    point; the rows are used as they are, not renormalized.  Refuses at
    the first refused (row, point) in row-major order with the scalar
    ValueError: the degenerate denominator, or what `HPoint` raises.
    """
    a, b, c, d = rows.T[:, :, None]
    with np.errstate(all="ignore"):  # overflow and underflow are refused below
        cx = c * x + d
        cy = c * y
        den = cx * cx + cy * cy
        ax = a * x + b
        ay = a * y
        wx, wy = (ax * cx + ay * cy) / den, y / den
        ok = ~(den < 1e-300) & np.isfinite(wx) & np.isfinite(wy) & (wy > 0.0)
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), ok.shape)
        if den[first] < 1e-300:
            raise ValueError(_DEGENERATE_DENOMINATOR)
        HPoint(float(wx[first]), float(wy[first]))  # the point `moebius_act` would build: raises
    return wx, wy


@dataclass(frozen=True)
class IwasawaFactors:
    """Parameters of the factorization g = e^{theta S} e^{mu U} e^{t T}."""

    theta: float
    mu: float
    t: float


def iwasawa_decompose(g: Sl2Element) -> IwasawaFactors:
    """Factor g (up to sign) with theta normalized into (-pi/2, pi/2].

    The rotation angle of -g differs by pi, so folding theta by pi picks the
    unique PSL(2,R) representative; recomposition then matches +-g.
    """
    theta = math.atan2(-g.c, g.a)
    if theta <= -math.pi / 2.0:
        theta += math.pi
    elif theta > math.pi / 2.0:
        theta -= math.pi
    r2 = g.a * g.a + g.c * g.c  # = e^{2 mu}, sign-independent
    mu = 0.5 * math.log(r2)
    t = (g.a * g.b + g.c * g.d) / r2
    return IwasawaFactors(theta, mu, t)


def iwasawa_recompose(f: IwasawaFactors) -> Sl2Element:
    return exp_s(f.theta) @ exp_u(f.mu) @ exp_t(f.t)


@dataclass(frozen=True)
class OrbitCircle:
    """Euclidean circle x^2 + (y - a)^2 = b^2 traced by the rotation orbit.

    center_y is the height a of the center i*a; radius b satisfies
    a^2 - b^2 = 1.  b = 0 exactly for the fixed point z = i.
    """

    center_y: float
    radius: float


def rotation_orbit_circle(z0: HPoint) -> OrbitCircle:
    """Orbit {e^{t S} z0} as a Euclidean circle centered on the imaginary axis."""
    a = (z0.x * z0.x + z0.y * z0.y + 1.0) / (2.0 * z0.y)
    b = math.sqrt(max(a * a - 1.0, 0.0))
    return OrbitCircle(a, b)


def hyperbolic_distance(z1: HPoint, z2: HPoint) -> float:
    """Poincare distance arccosh(1 + |z1 - z2|^2 / (2 y1 y2)).

    Evaluated through asinh of the half-chord, which keeps full relative
    accuracy for nearby points where the arccosh form loses half the digits.
    """
    dx = z1.x - z2.x
    dy = z1.y - z2.y
    return 2.0 * math.asinh(math.sqrt((dx * dx + dy * dy) / (4.0 * z1.y * z2.y)))


def psl2_distance(g: Sl2Element, h: Sl2Element) -> float:
    """Max-entry distance between g and h as PSL(2,R) elements (min over sign)."""
    d_plus = max(abs(g.a - h.a), abs(g.b - h.b), abs(g.c - h.c), abs(g.d - h.d))
    d_minus = max(abs(g.a + h.a), abs(g.b + h.b), abs(g.c + h.c), abs(g.d + h.d))
    return min(d_plus, d_minus)
