"""Half-plane geometry: subgroup actions, Iwasawa factors, orbit circles, metric."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from hyperband.halfplane import (
    COMPARISON_TOL,
    CONSTRUCTION_TOL,
    GEOMETRIC_TOL,
    HPoint,
    IwasawaFactors,
    Sl2Element,
    det_gate,
    exp_s,
    exp_t,
    exp_u,
    hyperbolic_distance,
    iwasawa_decompose,
    iwasawa_recompose,
    moebius_act,
    psl2_distance,
    rotation_orbit_circle,
    sl2_rows,
)


def random_point(rng) -> HPoint:
    return HPoint(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-1.5, 1.5)))


def random_element(rng) -> Sl2Element:
    return iwasawa_recompose(
        IwasawaFactors(
            theta=rng.uniform(-math.pi / 2, math.pi / 2),
            mu=rng.uniform(-1.2, 1.2),
            t=rng.uniform(-2.0, 2.0),
        )
    )


# ---------------------------------------------------------------- construction


def test_hpoint_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        HPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        HPoint(1.0, -0.3)
    with pytest.raises(ValueError):
        HPoint(math.nan, 1.0)


def test_sl2_rejects_bad_determinant():
    with pytest.raises(ValueError):
        Sl2Element(1.0, 0.0, 0.0, 2.0)  # det = 2
    with pytest.raises(ValueError):
        Sl2Element(0.0, 1.0, 1.0, 0.0)  # det = -1
    with pytest.raises(ValueError):
        Sl2Element(1.0, math.inf, 0.0, 1.0)
    # one large entry widens nothing: these determinants are 1e20 and 1e200
    with pytest.raises(ValueError, match="too far from 1"):
        Sl2Element(1e20, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="too far from 1"):
        Sl2Element(1e200, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="too far from 1"):
        Sl2Element(1e200, 0.0, 0.0, 1e200)  # a*d overflows: no determinant to judge


def test_sl2_admits_exact_unit_determinants_with_large_entries():
    assert exp_t(1e8).entries() == (1.0, 1e8, 0.0, 1.0)
    assert abs(exp_u(30.0).a - math.exp(30.0)) < 1e-3
    for entries in ((1e200, 0.0, 0.0, 1e-200), (0.0, -1e-160, 1e160, 0.0), (1e160, 0.0, 1e160, 1e-160)):
        assert Sl2Element(*entries).entries() == entries


_ENTRY = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -1.0, 1e20, 1e-20, 1e200, 1e-200]),
)


def _near_unit(a: float, b: float, c: float, drift: float) -> tuple[float, float, float, float]:
    # d so that det - 1 is drift times about the gate's bound: both verdicts, near the edge
    a = a if abs(a) > 1e-3 else 1.0
    bound = 32.0 * 2.220446049250313e-16 * (1.0 + 2.0 * abs(b * c))
    return a, b, c, (1.0 + b * c + drift * (1e-9 + bound)) / a


_MATRIX = st.one_of(
    st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
    st.builds(_near_unit, *[st.floats(-1e6, 1e6)] * 3, st.floats(-3.0, 3.0)),
)


@given(_MATRIX)
@example((1e20, 0.0, 0.0, 1.0))
@example((1.0 + 3e-10, 0.0, 0.0, 1.0 + 3e-10))
def test_det_gate_gives_arrays_the_scalar_verdict(entries):
    def built(rows):
        """`Sl2Element(*row)` of each row as int64 bit patterns, or the first refusal's message."""
        try:
            return np.array([Sl2Element(*row).entries() for row in rows]).view(np.int64).tolist()
        except ValueError as exc:
            return str(exc)

    want = built([entries])
    with np.errstate(all="ignore"):
        _, ok = det_gate(*np.array([entries]).T)
    assert bool(ok[0] & np.isfinite(entries).all()) == (not isinstance(want, str))
    # sl2_rows: the same floats, or the same refusal at the first refused row
    for rows in ([entries], [(1.0, 0.0, 0.0, 1.0), entries, (1.0, 0.0, 0.0, 2.0)]):
        try:
            got = sl2_rows(np.array(rows)).view(np.int64).tolist()
        except ValueError as exc:
            got = str(exc)
        assert got == built(rows)


def test_sl2_renormalizes_small_drift():
    s = 1.0 + 3e-10  # det = s^2 ~ 1 + 6e-10, inside the gate
    g = Sl2Element(s, 0.0, 0.0, s)
    assert abs(g.a * g.d - g.b * g.c - 1.0) < 1e-15


def test_subgroup_elements_match_closed_forms():
    th, mu, t = 0.37, -0.82, 1.91
    s = exp_s(th)
    assert abs(s.a - math.cos(th)) < CONSTRUCTION_TOL
    assert abs(s.b - math.sin(th)) < CONSTRUCTION_TOL
    assert abs(s.c + math.sin(th)) < CONSTRUCTION_TOL
    assert abs(s.d - math.cos(th)) < CONSTRUCTION_TOL
    u = exp_u(mu)
    assert abs(u.a - math.exp(mu)) < CONSTRUCTION_TOL
    assert abs(u.d - math.exp(-mu)) < CONSTRUCTION_TOL
    assert u.b == 0.0 and u.c == 0.0
    tr = exp_t(t)
    assert tr.entries() == (1.0, t, 0.0, 1.0)


def test_exp_s_at_pi_is_minus_identity():
    g = exp_s(math.pi)
    assert psl2_distance(g, Sl2Element.identity()) < CONSTRUCTION_TOL
    assert g.a < 0  # genuinely -1 in SL(2,R), identity only in the quotient


def test_one_parameter_homomorphisms():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s, t = rng.uniform(-2, 2, size=2)
        for exp in (exp_s, exp_t, exp_u):
            lhs = exp(s) @ exp(t)
            rhs = exp(s + t)
            assert psl2_distance(lhs, rhs) < COMPARISON_TOL


# ---------------------------------------------------------------- Moebius action


def test_translation_and_scaling_actions():
    z = HPoint(0.3, 2.0)
    w = moebius_act(exp_t(1.5), z)
    assert abs(w.x - 1.8) < CONSTRUCTION_TOL and abs(w.y - 2.0) < CONSTRUCTION_TOL
    w = moebius_act(exp_u(0.25), z)
    f = math.exp(0.5)
    assert abs(w.x - 0.3 * f) < CONSTRUCTION_TOL
    assert abs(w.y - 2.0 * f) < CONSTRUCTION_TOL


@pytest.mark.parametrize("exp, name", [(exp_s, "rotation"), (exp_t, "translation"), (exp_u, "scaling")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_subgroup_elements_refuse_a_non_finite_parameter(exp, name, value):
    with pytest.raises(ValueError, match=f"non-finite {name} parameter"):
        exp(value)


@pytest.mark.parametrize("mu", [690.5, 800.0, -745.0, -800.0, 1e300])
def test_scaling_refuses_a_parameter_past_its_bound_with_a_value_error(mu):
    # past |mu| = 690 the determinant gate's split of e^|mu| overflows; math.exp itself
    # overflows from 709.8 and e^-mu from 745.2 divides by zero
    with pytest.raises(ValueError, match=r"scaling parameter .* outside the supported range \|mu\| <= 690"):
        exp_u(mu)


@pytest.mark.parametrize("mu", [690.0, -690.0])
def test_scaling_admits_its_bound(mu):
    g = exp_u(mu)
    assert g.a == math.exp(mu) and g.b == g.c == 0.0


def test_rotation_fixes_i():
    for th in (0.1, 1.0, -2.3, math.pi / 2):
        w = moebius_act(exp_s(th), HPoint(0.0, 1.0))
        assert abs(w.x) < COMPARISON_TOL and abs(w.y - 1.0) < COMPARISON_TOL


def test_action_is_homomorphism():
    rng = np.random.default_rng(23)
    for _ in range(50):
        g1, g2 = random_element(rng), random_element(rng)
        z = random_point(rng)
        w1 = moebius_act(g1, moebius_act(g2, z))
        w2 = moebius_act(g1 @ g2, z)
        assert abs(w1.x - w2.x) < GEOMETRIC_TOL
        assert abs(w1.y - w2.y) < GEOMETRIC_TOL


def test_sign_quotient_acts_identically():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_element(rng)
        z = random_point(rng)
        w1 = moebius_act(g, z)
        w2 = moebius_act(-g, z)
        assert abs(w1.x - w2.x) < CONSTRUCTION_TOL
        assert abs(w1.y - w2.y) < CONSTRUCTION_TOL


def test_inverse_undoes_action():
    rng = np.random.default_rng(37)
    for _ in range(20):
        g = random_element(rng)
        z = random_point(rng)
        w = moebius_act(g.inverse(), moebius_act(g, z))
        assert abs(w.x - z.x) < GEOMETRIC_TOL
        assert abs(w.y - z.y) < GEOMETRIC_TOL


# ---------------------------------------------------------------- Iwasawa


def test_iwasawa_roundtrip():
    rng = np.random.default_rng(41)
    for _ in range(50):
        g = random_element(rng)
        f = iwasawa_decompose(g)
        assert -math.pi / 2 < f.theta <= math.pi / 2
        assert psl2_distance(iwasawa_recompose(f), g) < COMPARISON_TOL


def test_iwasawa_parameter_recovery():
    # decompose(recompose(theta, mu, t)) returns the same parameters when
    # theta is already in the fold window
    rng = np.random.default_rng(43)
    for _ in range(30):
        th = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
        mu = rng.uniform(-1.5, 1.5)
        t = rng.uniform(-3.0, 3.0)
        f = iwasawa_decompose(iwasawa_recompose(IwasawaFactors(th, mu, t)))
        assert abs(f.theta - th) < COMPARISON_TOL
        assert abs(f.mu - mu) < COMPARISON_TOL
        assert abs(f.t - t) < COMPARISON_TOL


def test_iwasawa_sign_invariance():
    rng = np.random.default_rng(47)
    for _ in range(20):
        g = random_element(rng)
        f1, f2 = iwasawa_decompose(g), iwasawa_decompose(-g)
        assert abs(f1.theta - f2.theta) < CONSTRUCTION_TOL
        assert abs(f1.mu - f2.mu) < CONSTRUCTION_TOL
        assert abs(f1.t - f2.t) < CONSTRUCTION_TOL


# ---------------------------------------------------------------- orbit circles


def test_orbit_circle_frozen_values():
    # z0 = 2i: a = (0 + 4 + 1)/4 = 1.25, b = sqrt(1.25^2 - 1) = 0.75
    c = rotation_orbit_circle(HPoint(0.0, 2.0))
    assert abs(c.center_y - 1.25) < CONSTRUCTION_TOL
    assert abs(c.radius - 0.75) < CONSTRUCTION_TOL
    # z0 = 1 + i: a = 3/2, b = sqrt(9/4 - 1) = sqrt(5)/2
    c = rotation_orbit_circle(HPoint(1.0, 1.0))
    assert abs(c.center_y - 1.5) < CONSTRUCTION_TOL
    assert abs(c.radius - math.sqrt(1.25)) < CONSTRUCTION_TOL


def test_orbit_circle_fixed_point():
    c = rotation_orbit_circle(HPoint(0.0, 1.0))
    assert abs(c.center_y - 1.0) < CONSTRUCTION_TOL
    assert c.radius < 1e-7


def test_rotation_orbit_stays_on_circle():
    rng = np.random.default_rng(53)
    for _ in range(10):
        z0 = random_point(rng)
        circ = rotation_orbit_circle(z0)
        for th in rng.uniform(-math.pi, math.pi, size=8):
            w = moebius_act(exp_s(th), z0)
            r = math.hypot(w.x, w.y - circ.center_y)
            assert abs(r - circ.radius) < GEOMETRIC_TOL


def test_rotation_orbit_matches_flow_ode():
    # The rotation flow satisfies dx/dt = 1 + x^2 - y^2, dy/dt = 2xy.
    # Integrating it independently must land on the Moebius image.
    def rhs(_, s):
        x, y = s
        return [1.0 + x * x - y * y, 2.0 * x * y]

    for z0, t_end in [(HPoint(0.4, 1.3), 0.9), (HPoint(-1.1, 0.6), 1.7), (HPoint(2.0, 2.5), 0.45)]:
        sol = solve_ivp(rhs, (0.0, t_end), [z0.x, z0.y], rtol=1e-12, atol=1e-12)
        w = moebius_act(exp_s(t_end), z0)
        assert abs(sol.y[0, -1] - w.x) < 1e-8
        assert abs(sol.y[1, -1] - w.y) < 1e-8


def test_rotation_orbit_is_counterclockwise():
    # d(angle)/dt = 2y > 0 around the center i*a: the circle-angle must
    # increase for small positive flow time
    z0 = HPoint(0.8, 1.7)
    circ = rotation_orbit_circle(z0)
    th0 = math.atan2(z0.y - circ.center_y, z0.x)
    w = moebius_act(exp_s(0.01), z0)
    th1 = math.atan2(w.y - circ.center_y, w.x)
    dth = (th1 - th0) % (2.0 * math.pi)
    assert 0.0 < dth < math.pi


def test_rotation_orbit_period_maps_half_turn_to_full_circle():
    # t = pi gives -1 in SL(2,R), the identity Moebius map: full circle sweep
    z0 = HPoint(1.0, 1.0)
    w = moebius_act(exp_s(math.pi), z0)
    assert abs(w.x - z0.x) < COMPARISON_TOL
    assert abs(w.y - z0.y) < COMPARISON_TOL


# ---------------------------------------------------------------- metric


def test_distance_frozen_value():
    d = hyperbolic_distance(HPoint(0.0, 1.0), HPoint(1.0, 1.0))
    assert abs(d - math.acosh(1.5)) < CONSTRUCTION_TOL
    assert abs(d - 0.9624236501192069) < CONSTRUCTION_TOL


def test_distance_on_imaginary_axis_is_log_ratio():
    assert abs(hyperbolic_distance(HPoint(0.0, 1.0), HPoint(0.0, 5.0)) - math.log(5.0)) < COMPARISON_TOL


def test_distance_axioms():
    rng = np.random.default_rng(59)
    for _ in range(30):
        z1, z2, z3 = (random_point(rng) for _ in range(3))
        d12 = hyperbolic_distance(z1, z2)
        assert d12 >= 0.0
        assert abs(d12 - hyperbolic_distance(z2, z1)) < CONSTRUCTION_TOL
        assert d12 <= hyperbolic_distance(z1, z3) + hyperbolic_distance(z3, z2) + GEOMETRIC_TOL
    assert hyperbolic_distance(HPoint(0.7, 0.4), HPoint(0.7, 0.4)) == 0.0


def test_distance_is_moebius_invariant():
    rng = np.random.default_rng(61)
    for _ in range(30):
        g = random_element(rng)
        z1, z2 = random_point(rng), random_point(rng)
        d0 = hyperbolic_distance(z1, z2)
        d1 = hyperbolic_distance(moebius_act(g, z1), moebius_act(g, z2))
        assert abs(d0 - d1) < GEOMETRIC_TOL


def test_psl2_distance_quotients_sign():
    rng = np.random.default_rng(67)
    g = random_element(rng)
    assert psl2_distance(g, -g) == 0.0
    h = random_element(rng)
    assert psl2_distance(g, h) == psl2_distance(-g, h)
