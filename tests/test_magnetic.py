"""Magnetic cocycle, flux relation, covering degree, operator algebra."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hyperband import checks
from hyperband.checks import COMMUTATORS
from hyperband.halfplane import HPoint, exp_s, moebius_act, rotation_orbit_circle
from hyperband.magnetic import (
    DiffOpId,
    FluxParam,
    MagneticAction,
    MagneticFactor,
    MagneticWord,
    POLY_BASIS,
    Poly2,
    _MONOMIALS,
    _SIZES,
    _TERMS,
    _apply,
    _graded_matrix,
    _hamiltonian,
    _weight_conjugate,
    act_magnetic,
    apply_diff_operator,
    automorphic_factor,
    check_weighted_action,
    commutator_residual,
    covering_degree_check,
    flux_relation_phase,
    flux_relation_word,
    hamiltonian_commutation_residual,
    hamiltonian_forms_residual,
    magnetic_generators,
    max_or_nan,
    s_phase,
    s_rotation,
    t_translation,
    u_scaling,
    weight_conjugation_residual,
)
from hyperband.tiling import TilingParams, make_fundamental_domain, make_generators


def random_point(rng) -> HPoint:
    return HPoint(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-1.5, 1.5)))


def phase_by_quadrature(t: float, z0: HPoint, B: float) -> complex:
    """Independent oracle: integrate 2B Im(e^{uS} z0) du directly.

    Integrated per half-period so the sharp dip of far orbits never straddles
    one adaptive panel.
    """

    def height(u):
        return moebius_act(exp_s(u), z0).y

    n = max(1, math.ceil(abs(t) / (math.pi / 2.0)))
    total = 0.0
    for k in range(n):
        val, err = quad(
            lambda u: 2.0 * B * height(u), t * k / n, t * (k + 1) / n, epsabs=1e-12, epsrel=1e-12, limit=300
        )
        assert err < 1e-9
        total += val
    return cmath.exp(1j * total)


def phase_by_stepping(t: float, z0: HPoint, B: float) -> complex:
    """Independent oracle: track the angle swept along the Euclidean orbit circle.

    The orbit is the circle x = b cos(th), y = a + b sin(th); the flow sweeps
    th monotonically (d th / dt = 2y > 0) and one period t = pi is exactly one
    full turn.  The whole turns are therefore floor(t/pi); the fractional turn
    is branch-tracked by stepping the rotation parameter finely enough that no
    step can sweep a full circle (step sweep <= 2(a+b) dr < 2 pi).  Near i the
    subtraction w.y - a cancels, so the oracle loses about 5e-16/|z0 - i| there.
    """
    circ = rotation_orbit_circle(z0)
    a, b = circ.center_y, circ.radius
    if b < 1e-12:
        return cmath.exp(2j * B * t)  # orbit pinned at i: y == 1 along the flow

    turns = math.floor(t / math.pi)
    r = t - turns * math.pi
    if r < 0.0:  # rounding guards: keep the fractional parameter in [0, pi)
        turns -= 1
        r += math.pi
    elif r >= math.pi:
        turns += 1
        r -= math.pi

    steps = max(1, math.ceil(r / (math.pi / 8)), math.ceil(2.0 * (a + b) * r / math.pi))
    theta_prev = math.atan2(z0.y - a, z0.x)
    swept = 0.0
    for k in range(1, steps + 1):
        w = moebius_act(exp_s(r * k / steps), z0)
        theta_k = math.atan2(w.y - a, w.x)
        swept += (theta_k - theta_prev) % (2.0 * math.pi)
        theta_prev = theta_k
    return cmath.exp(1j * B * (2.0 * math.pi * turns + swept))


# ---------------------------------------------------------------- s_phase


def test_s_phase_frozen_examples():
    assert s_phase(0.0, HPoint(0.7, 2.1), 0.9) == 1.0
    # half-turn sweeps the full orbit circle: phase e^{i 2 pi B}
    got = s_phase(math.pi, HPoint(1.0, 1.0), 1.0 / 3.0)
    assert abs(got - cmath.exp(2j * math.pi / 3.0)) < 1e-12
    # degenerate orbit at i: y == 1, phase exp(2iBt)
    got = s_phase(math.pi / 2.0, HPoint(0.0, 1.0), 0.25)
    assert abs(got - cmath.exp(1j * math.pi / 4.0)) < 1e-12


def test_s_phase_agrees_with_quadrature():
    rng = np.random.default_rng(101)
    for _ in range(50):
        t = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        z0 = random_point(rng)
        B = rng.uniform(-1.0, 1.0)
        assert abs(s_phase(t, z0, B) - phase_by_quadrature(t, z0, B)) < 1e-7


def test_s_phase_tracks_many_turns():
    # t = 7.5 pi is seven and a half turns; mod-2pi reading of the endpoint
    # angle would be off by 7 turns
    z0 = HPoint(0.5, 1.5)
    t = 7.5 * math.pi
    B = 0.21
    assert abs(s_phase(t, z0, B) - phase_by_quadrature(t, z0, B)) < 1e-7


def test_s_phase_far_orbit_needs_fine_steps():
    # a + b ~ 50: a coarse fixed step would sweep more than a full circle at
    # the bottom of the orbit and drop whole turns
    z0 = HPoint(0.1, 0.01)
    for t in (0.8, math.pi - 0.1):
        assert abs(s_phase(t, z0, 0.4) - phase_by_quadrature(t, z0, 0.4)) < 1e-7


def test_s_phase_cocycle_composition():
    rng = np.random.default_rng(103)
    for _ in range(25):
        t1, t2 = rng.uniform(-4.0, 4.0, size=2)
        z = random_point(rng)
        B = rng.uniform(-1.0, 1.0)
        whole = s_phase(t1 + t2, z, B)
        split = s_phase(t2, moebius_act(exp_s(t1), z), B) * s_phase(t1, z, B)
        assert abs(whole - split) < 1e-9


def test_s_phase_zero_field_is_exactly_one():
    assert s_phase(1.234, HPoint(0.4, 0.8), 0.0) == 1.0


def test_s_phase_near_i_matches_quadrature():
    # within ~1e-9 of i the orbit circle is tiny and an angle read off its
    # center cancels; the closed form never forms that difference
    points = [
        HPoint(9.195e-10, 0.9999999992773),
        HPoint(-4.0e-10, 1.0 + 8.0e-10),
        HPoint(1.0e-9, 1.0 - 1.0e-9),
        HPoint(-7.5e-10, 1.0 - 3.0e-10),
    ]
    for z0 in points:
        for t in (2.104, 0.5, -3.3, 6.0):
            for B in (0.3, 1.0, -0.77):
                assert abs(s_phase(t, z0, B) - phase_by_quadrature(t, z0, B)) < 1e-12


def test_s_phase_sign_of_arg_difference():
    # z0 = 1 + i, t = pi/2: z_t = -1/z0 and arg(z_t + i) - arg(z0 + i) = pi/4,
    # so the phase is e^{2i(pi/2 + pi/4)} = -i; subtracting the arg difference
    # instead would give e^{2i(pi/2 - pi/4)} = +i
    z0, t, B = HPoint(1.0, 1.0), math.pi / 2.0, 1.0
    got = s_phase(t, z0, B)
    assert abs(got - (-1j)) < 1e-12
    assert abs(got - phase_by_quadrature(t, z0, B)) < 1e-12
    assert abs(got - 1j) > 1.9


_XS = st.floats(min_value=-3.0, max_value=3.0)
_YS = st.floats(min_value=1e-3, max_value=5.0)
_TS = st.floats(min_value=-7.0, max_value=7.0)
_BS = st.floats(min_value=-1.0, max_value=1.0)


@settings(max_examples=100, deadline=None)
@given(_TS, _XS, _YS, _BS)
@example(1e-15, 0.3, 0.2, 0.9)
@example(math.pi - 1e-15, -2.0, 1e-3, 1.0)
@example(2.0 * math.pi + 1e-15, 3.0, 1e-3, -1.0)
def test_s_phase_matches_stepping_oracle(t, x, y, B):
    z0 = HPoint(x, y)
    # the stepping oracle cancels near i (about 5e-16/|z0 - i|); there the
    # closed form is checked against quadrature instead
    assume(math.hypot(x, y - 1.0) >= 1e-3)
    assert abs(s_phase(t, z0, B) - phase_by_stepping(t, z0, B)) < 1e-11


@settings(max_examples=100, deadline=None)
@given(_TS, _TS, _XS, _YS, _BS)
def test_s_phase_cocycle_composition_property(t1, t2, x, y, B):
    z = HPoint(x, y)
    whole = s_phase(t1 + t2, z, B)
    split = s_phase(t2, moebius_act(exp_s(t1), z), B) * s_phase(t1, z, B)
    assert abs(whole - split) < 1e-12


# ---------------------------------------------------------------- act_magnetic


def test_act_empty_word():
    z = HPoint(0.2, 1.1)
    out = act_magnetic(MagneticWord(()), z, 0.7)
    assert out.phase == 1.0 and out.image == z


def test_act_scaling_carries_no_phase():
    out = act_magnetic(MagneticWord((u_scaling(0.8),)), HPoint(0.0, 1.0), 0.9)
    assert out.phase == 1.0
    assert abs(out.image.y - math.exp(1.6)) < 1e-12


def test_act_translation_carries_no_phase():
    out = act_magnetic(MagneticWord((t_translation(2.5),)), HPoint(0.1, 1.3), 0.9)
    assert out.phase == 1.0
    assert abs(out.image.x - 2.6) < 1e-12


def test_act_half_turn_is_pure_phase():
    out = act_magnetic(MagneticWord((s_rotation(math.pi),)), HPoint(0.0, 2.0), 0.2)
    assert abs(out.phase - cmath.exp(2j * math.pi / 5.0)) < 1e-12
    assert abs(out.image.x) < 1e-12 and abs(out.image.y - 2.0) < 1e-12


def test_act_word_point_motion_composes_left_to_right():
    # factors in operator order: the later factor's matrix multiplies on the left
    rng = np.random.default_rng(107)
    for _ in range(10):
        t1, mu, t2 = rng.uniform(-1.0, 1.0, size=3)
        word = MagneticWord((s_rotation(t1), u_scaling(mu), t_translation(t2)))
        z = random_point(rng)
        got = act_magnetic(word, z, 0.3).image
        m = word.factors[2].matrix() @ word.factors[1].matrix() @ word.factors[0].matrix()
        want = moebius_act(m, z)
        assert abs(got.x - want.x) < 1e-9 and abs(got.y - want.y) < 1e-9


def test_word_inverse_cancels():
    rng = np.random.default_rng(109)
    word = MagneticWord((s_rotation(0.7), u_scaling(-0.4), s_rotation(1.2), t_translation(0.9)))
    for _ in range(5):
        z = random_point(rng)
        B = rng.uniform(-1.0, 1.0)
        fwd = act_magnetic(word, z, B)
        back = act_magnetic(word.inverse(), fwd.image, B)
        assert abs(fwd.phase * back.phase - 1.0) < 1e-10
        assert abs(back.image.x - z.x) < 1e-8 and abs(back.image.y - z.y) < 1e-8


def test_magnetic_action_validates_phase_modulus():
    with pytest.raises(ValueError):
        MagneticAction(1.5 + 0.0j, HPoint(0.0, 1.0))
    with pytest.raises(ValueError):
        MagneticFactor("Q", 1.0)


def test_magnetic_action_rejects_non_finite_phase():
    # |nan| - 1 > tol is False, so a modulus test alone lets NaN through
    for phase in (complex(math.nan, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(ValueError, match="unit circle"):
            MagneticAction(phase, HPoint(0.0, 1.0))


@pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf])
def test_non_finite_field_is_rejected(B):
    word = MagneticWord((s_rotation(0.7), u_scaling(0.3)))
    with pytest.raises(ValueError, match="field strength"):
        act_magnetic(word, HPoint(0.2, 1.1), B)
    with pytest.raises(ValueError, match="field strength"):
        s_phase(0.7, HPoint(0.2, 1.1), B)
    with pytest.raises(ValueError, match="field strength"):
        flux_relation_phase(TilingParams(2), B, [HPoint(0.2, 1.1)])


# ---------------------------------------------------------------- generators


def test_magnetic_generator_words():
    words = magnetic_generators(TilingParams(2))
    assert len(words) == 4
    assert len(words[0].factors) == 1 and words[0].factors[0].kind == "U"
    w3 = words[2]  # j=3: rotation angles -+ pi/4 around the scaling
    assert [f.kind for f in w3.factors] == ["S", "U", "S"]
    assert abs(w3.factors[0].value + math.pi / 4.0) < 1e-15
    assert abs(w3.factors[2].value - math.pi / 4.0) < 1e-15


def test_magnetic_generator_moves_point_like_fuchsian_generator():
    params = TilingParams(2)
    gens = make_generators(params)
    words = magnetic_generators(params)
    rng = np.random.default_rng(113)
    for _ in range(5):
        z = random_point(rng)
        for gamma, word in zip(gens.gammas, words):
            got = act_magnetic(word, z, 0.45).image
            want = moebius_act(gamma, z)
            assert abs(got.x - want.x) < 1e-9 and abs(got.y - want.y) < 1e-9


def test_magnetic_generator_zero_field_phase_is_one():
    words = magnetic_generators(TilingParams(2))
    rng = np.random.default_rng(127)
    for word in words:
        for _ in range(3):
            assert act_magnetic(word, random_point(rng), 0.0).phase == 1.0


# ---------------------------------------------------------------- flux relation


def test_flux_relation_frozen_values():
    dom = make_fundamental_domain(TilingParams(2))
    [got] = flux_relation_phase(TilingParams(2), 0.25, [dom.vertices[7]])
    assert abs(got - (-1.0)) < 1e-7  # phi = 4 pi B = pi
    [got] = flux_relation_phase(TilingParams(3), 0.5, [HPoint(0.2, 1.6)])
    assert abs(got - 1.0) < 1e-7  # e^{i 4 pi} with g-1 = 2


def test_flux_relation_matches_gauss_bonnet_phase():
    rng = np.random.default_rng(131)
    for g in (2, 3):
        for B in (0.0, 0.25, 1.0 / 3.0, 0.7):
            z = random_point(rng)
            [got] = flux_relation_phase(TilingParams(g), B, [z])
            want = cmath.exp(1j * 4.0 * (g - 1) * math.pi * B)
            assert abs(got - want) < 1e-7


def test_flux_relation_sign_convention():
    # B = 1/3 separates e^{+i4piB} from its conjugate; a reversed word order
    # would land on the conjugate
    [got] = flux_relation_phase(TilingParams(2), 1.0 / 3.0, [HPoint(0.4, 1.2)])
    assert abs(got - cmath.exp(4j * math.pi / 3.0)) < 1e-7
    assert abs(got - cmath.exp(-4j * math.pi / 3.0)) > 1.0


def test_flux_relation_independent_of_base_point():
    rng = np.random.default_rng(137)
    phases = flux_relation_phase(TilingParams(2), 0.37, [random_point(rng) for _ in range(10)])
    for ph in phases[1:]:
        assert abs(ph - phases[0]) < 1e-8


def test_flux_relation_point_closure():
    rng = np.random.default_rng(139)
    for g in (2, 3):
        word = flux_relation_word(TilingParams(g))
        for _ in range(10):
            z = random_point(rng)
            out = act_magnetic(word, z, 0.3)
            # closure to machine-level accuracy, far inside the 1e-7 contract
            assert math.hypot(out.image.x - z.x, out.image.y - z.y) < 1e-8


def test_flux_relation_reports_non_closure(monkeypatch):
    # a word that moves the point (here a bare translation) must trip the
    # closure guard instead of returning a bogus phase
    import hyperband.magnetic as mag

    monkeypatch.setattr(mag, "flux_relation_word", lambda p: MagneticWord((t_translation(1.0),)))
    with pytest.raises(RuntimeError):
        mag.flux_relation_phase(TilingParams(2), 0.3, [HPoint(0.2, 1.1)])


def _per_point_fold(word: MagneticWord, z: HPoint, B: float) -> complex:
    # each factor moves the point by its own freshly built matrix; a rotation's
    # phase comes from `s_phase` at the point current when it acts
    phase, current = complex(1.0), z
    for f in word.factors:
        if f.kind == "S":
            phase *= s_phase(f.value, current, B)
        current = moebius_act(f.matrix(), current)
    return phase


@settings(max_examples=40, deadline=None)
@given(
    g=st.integers(2, 8),
    B=st.floats(-50.0, 50.0, allow_nan=False),
    coords=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.2, 3.0)), min_size=1, max_size=6),
)
@example(g=2, B=0.0, coords=[(0.2, 1.1)])
@example(g=5, B=0.37, coords=[(-1.5, 0.3), (0.0, 1.0), (1.9, 2.9)])
@example(g=8, B=1.0 / 3.0, coords=[(2.0, 0.2)] * 6)
def test_flux_relation_phase_is_the_per_point_fold(g, B, coords):
    params = TilingParams(g)
    points = [HPoint(x, y) for x, y in coords]
    word = flux_relation_word(params)
    want = [_per_point_fold(word, z, B) for z in points]
    assert flux_relation_phase(params, B, points) == want


def test_flux_relation_check_builds_each_rotation_matrix_once(monkeypatch):
    # a factor builds its matrix at construction, in construction order, so the
    # calls are compared as multisets: one per rotation factor, never one per point
    import hyperband.magnetic as mag

    word = flux_relation_word(TilingParams(5))
    rotations = [f.value for f in word.factors if f.kind == "S"]
    assert len(rotations) == 36
    calls = []
    real_exp_s = mag.exp_s
    monkeypatch.setattr(mag, "exp_s", lambda t: calls.append(t) or real_exp_s(t))
    points = [HPoint(0.3 * i - 0.6, 0.5 + 0.4 * i) for i in range(5)]
    checks.flux_relation(5, 0.25, points)
    assert sorted(calls) == sorted(rotations)


@pytest.mark.parametrize("kind, value", [("S", math.nan), ("U", math.inf)])
def test_factor_refuses_a_non_finite_value_before_building_its_matrix(kind, value, monkeypatch):
    import hyperband.magnetic as mag

    def unreachable(t):
        raise AssertionError(f"matrix built for {t!r}")

    for name in ("exp_s", "exp_t", "exp_u"):
        monkeypatch.setattr(mag, name, unreachable)
    with pytest.raises(ValueError, match="non-finite factor parameter"):
        MagneticFactor(kind, value)


def test_scaling_factor_past_the_bound_is_a_value_error():
    # a finite mu above about 709 overflowed math.exp into an OverflowError
    with pytest.raises(ValueError, match=r"\|mu\| <= 690"):
        MagneticFactor("U", 800.0)


# ---------------------------------------------------------------- covering


def test_covering_degrees():
    for q in range(1, 9):
        got = covering_degree_check(q, HPoint(1.0, 1.0))
        assert abs(got - cmath.exp(2j * math.pi / q)) < 1e-8


def test_covering_q3_frozen():
    assert abs(covering_degree_check(3, HPoint(1.0, 1.0)) - complex(-0.5, math.sqrt(3.0) / 2.0)) < 1e-10


def test_covering_full_turns_close():
    # q half-turns at B = 1/q: phase e^{i 2 pi} = 1
    for q in (2, 4):
        out = act_magnetic(MagneticWord((s_rotation(q * math.pi),)), HPoint(1.0, 1.0), 1.0 / q)
        assert abs(out.phase - 1.0) < 1e-9
        # and the same through q separate factors
        out = act_magnetic(MagneticWord(tuple(s_rotation(math.pi) for _ in range(q))), HPoint(1.0, 1.0), 1.0 / q)
        assert abs(out.phase - 1.0) < 1e-9


def test_covering_rejects_bad_degree():
    with pytest.raises(ValueError):
        covering_degree_check(0, HPoint(1.0, 1.0))


# ---------------------------------------------------------------- vertex angle


def test_vertex_angle_identity():
    for g in (2, 3):
        v1 = make_fundamental_domain(TilingParams(g)).vertices[0]
        for B in (0.5, 1.0):
            got = s_phase((2 * g - 1) * math.pi / (4 * g), v1, B)
            assert abs(got - cmath.exp(1j * B * math.pi / (2 * g))) < 1e-8


# ---------------------------------------------------------------- flux parameter


def test_flux_param_validation():
    FluxParam(1, 3)
    FluxParam(-3, 2)
    FluxParam(0, 1)
    with pytest.raises(ValueError):
        FluxParam(2, 4)
    with pytest.raises(ValueError):
        FluxParam(1, 0)
    with pytest.raises(ValueError):
        FluxParam(1.0, 2)


def test_flux_param_from_field():
    assert FluxParam.from_field(Fraction(1, 2)) == FluxParam(1, 1)
    assert FluxParam.from_field(Fraction(1, 6)) == FluxParam(1, 3)
    assert FluxParam.from_field(Fraction(1, 4)) == FluxParam(1, 2)
    assert FluxParam.from_field(Fraction(1, 3)) == FluxParam(2, 3)
    fp = FluxParam.from_field(Fraction(1, 6))
    assert abs(fp.field - 1.0 / 6.0) < 1e-15


# ---------------------------------------------------------------- automorphy factor


def test_automorphic_factor_values():
    from hyperband.halfplane import Sl2Element

    z = HPoint(0.3, 0.9)
    assert automorphic_factor(Sl2Element.identity(), z) == 1.0
    got = automorphic_factor(exp_s(math.pi / 2.0), HPoint(0.0, 1.0))
    assert abs(got - 1j) < 1e-12  # 1/(-i) = i


def random_sl2(rng):
    from hyperband.halfplane import exp_t, exp_u

    return exp_s(rng.uniform(-2.0, 2.0)) @ exp_u(rng.uniform(-1.0, 1.0)) @ exp_t(rng.uniform(-2.0, 2.0))


def test_automorphic_factor_cocycle():
    rng = np.random.default_rng(149)
    for _ in range(100):
        g1, g2 = random_sl2(rng), random_sl2(rng)
        z = random_point(rng)
        lhs = automorphic_factor(g1 @ g2, z)
        rhs = automorphic_factor(g1, moebius_act(g2, z)) * automorphic_factor(g2, z)
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------- operator algebra


_GENERATORS = (DiffOpId.S_B, DiffOpId.T_B, DiffOpId.U_B)


def test_apply_diff_operator_examples():
    assert apply_diff_operator(DiffOpId.T_B, Poly2.monomial(1, 0), HPoint(0.9, 0.4), 0.3) == 1.0
    got = apply_diff_operator(DiffOpId.U_B, Poly2.monomial(2, 1), HPoint(1.0, 2.0), 0.0)
    assert abs(got - 12.0) < 1e-12  # 2x(2xy) + 2y(x^2) at (1,2)
    got = apply_diff_operator(DiffOpId.S_B, Poly2.constant(1.0), HPoint(0.0, 2.0), 0.5)
    assert abs(got - 2j) < 1e-12  # only the 2iBy term survives on constants


def test_commutator_relations_field_family():
    assert commutator_residual(DiffOpId.U_B, DiffOpId.T_B, {DiffOpId.T_B: -2.0}) == 0.0
    assert commutator_residual(DiffOpId.S_B, DiffOpId.T_B, {DiffOpId.U_B: -1.0}) == 0.0
    assert commutator_residual(DiffOpId.U_B, DiffOpId.S_B, {DiffOpId.T_B: -4.0, DiffOpId.S_B: 2.0}) == 0.0


def test_commutator_relations_checked_family():
    assert commutator_residual(DiffOpId.U_check, DiffOpId.T_check, {DiffOpId.T_check: -2.0}) == 0.0
    assert commutator_residual(DiffOpId.S_check, DiffOpId.T_check, {DiffOpId.U_check: -1.0}) == 0.0
    expected = {DiffOpId.T_check: -4.0, DiffOpId.S_check: 2.0}
    assert commutator_residual(DiffOpId.U_check, DiffOpId.S_check, expected) == 0.0


def test_commutator_of_operator_with_itself_vanishes():
    assert commutator_residual(DiffOpId.T_B, DiffOpId.T_B, {}) == 0.0


def test_commutator_detects_wrong_expectation():
    # [U, T] - 2T = -4T, whose largest coefficient on the cubic basis is -4 T x^3 = -12 x^2
    assert commutator_residual(DiffOpId.U_B, DiffOpId.T_B, {DiffOpId.T_B: +2.0}) == 12.0


def test_hamiltonian_commutes_with_generators():
    assert [hamiltonian_commutation_residual(op) for op in _GENERATORS] == [0.0] * 3
    with pytest.raises(ValueError):
        hamiltonian_commutation_residual(DiffOpId.S_check)


def test_hamiltonian_generator_form_equals_landau_form():
    assert hamiltonian_forms_residual() == 0.0


def test_overflowed_residuals_are_nan_not_zero():
    # the builtin max(0.0, nan) is 0.0, which would let an overflowed defect read as a perfect pass
    assert math.isnan(max_or_nan([0.0, math.nan, 1.0])) and max_or_nan([0.0, 2.0, 1.0]) == 2.0




def _generator_form(f, B) -> Poly2:
    """Oracle: H = 1/(2m) (T_B (S_B - T_B) - 1/4 U_B^2 - 1/2 U_B + B^2), m = 1, applied to f by `_apply`."""
    sf, tf, uf = (_apply(op, f, B) for op in _GENERATORS)
    first = _apply(DiffOpId.T_B, sf - tf, B)
    return 0.5 * (first - 0.25 * _apply(DiffOpId.U_B, uf, B) - 0.5 * uf + (B * B) * f)


def per_point_residual(residual, points) -> float:
    """Oracle: max over the cubic basis and the points of |residual(f)(z)|, each polynomial built by `_apply`."""
    polys = [residual(f) for f in POLY_BASIS]
    return max_or_nan(max_or_nan(abs(poly(z.x, z.y)) for poly in polys) for z in points)


def oracle_commutator(op1, op2, expected, B):
    def residual(f):
        comm = _apply(op1, _apply(op2, f, B), B) - _apply(op2, _apply(op1, f, B), B)
        for op, coeff in expected.items():
            comm = comm - coeff * _apply(op, f, B)
        return comm

    return residual


def oracle_hamiltonian_commutation(op, B):
    return lambda f: _generator_form(_apply(op, f, B), B) - _apply(op, _generator_form(f, B), B)


def oracle_forms(B):
    return lambda f: _generator_form(f, B) - _apply(DiffOpId.H_continuum, f, B)


def oracle_residuals(B) -> list:
    """The residual of every algebra line by `_apply` at field B, in the order the lines take them."""
    oracles = [oracle_commutator(op1, op2, expected, B) for op1, op2, expected in COMMUTATORS]
    oracles += [oracle_hamiltonian_commutation(op, B) for op in _GENERATORS]
    oracles.append(oracle_forms(B))
    return oracles


def test_algebra_residuals_match_the_poly2_oracle():
    # at a dyadic field the oracle's coefficients and products are exact too, so it reads 0.0 at any point,
    # as the library does at every field
    library = [commutator_residual(op1, op2, expected) for op1, op2, expected in COMMUTATORS]
    library += [hamiltonian_commutation_residual(op) for op in _GENERATORS]
    library.append(hamiltonian_forms_residual())
    assert library == [0.0] * 10
    points = [HPoint(0.5, 1.0), HPoint(-1.0058843066593584, 1.0184488054017977), HPoint(-3.0, 20.0)]
    for B in (0.0, -0.0, 0.25, -1.375, 3000.25):
        assert [per_point_residual(oracle, points) for oracle in oracle_residuals(B)] == [0.0] * 10, B


def _images_along(word, f, B) -> list[Poly2]:
    """f's images under each prefix of `word` (letters applied in order), H's inner images included.

    The letter "H" is H in generator form, 1/2 (T(S - T) - U^2/4 - U/2 + B^2):
    its inner images are S f, T f, (S - T) f, T (S - T) f, U f and U U f.
    """
    images = []
    for letter in word:
        if letter == "H":
            sf, tf, uf = (_apply(op, f, B) for op in _GENERATORS)
            inner = [sf, tf, sf - tf, _apply(DiffOpId.T_B, sf - tf, B), uf, _apply(DiffOpId.U_B, uf, B)]
            images += inner
            f = _generator_form(f, B)
        else:
            f = _apply(letter, f, B)
        images.append(f)
    return images


def degree(poly: Poly2) -> int:
    return max((i + j for i, j in poly.coeffs), default=0)


@pytest.mark.parametrize("B", [0.37, -1.25])
def test_no_operator_meets_a_missing_column(B):
    """An operator's matrix has columns for the monomials of degree <= 5 only.

    Every image that the residuals form of a cubic basis monomial, inner
    images included, has degree < 6, so no operator is applied to a term
    its matrix has no column for; and H keeps the degree of what it acts
    on, which lets its columns be formed for the degrees the residuals use.
    """
    words = [(op2, op1) for op1, op2, _ in COMMUTATORS] + [(op1, op2) for op1, op2, _ in COMMUTATORS]
    words += [(op, "H") for op in _GENERATORS] + [("H", op) for op in _GENERATORS]
    words += [("H",), (DiffOpId.H_continuum,)]
    for word in words:
        for f in POLY_BASIS:
            assert all(degree(image) < 6 for image in _images_along(word, f, B)), (word, f.coeffs)
    for i in range(5):
        for j in range(5 - i):
            f = Poly2.monomial(i, j)
            assert degree(_generator_form(f, B)) == i + j
            assert degree(_apply(DiffOpId.H_continuum, f, B)) == i + j


@pytest.mark.parametrize("B", [0.0, 1.0 / 3.0, -1.9068267436675859, 0.37])
def test_operator_matrices_hold_the_poly2_images(B):
    # `_apply` gives v(B) = c0 + c1 B + c2 B^2 exactly at B = 0, 1, 2, which pins the matrix of each power:
    # column k of the power-p matrix is c_p of the image of monomial k, for every monomial of degree <= 5;
    # summed at the field B, the powers give the image of monomial k at B
    assert [Poly2.monomial(i, j).coeffs for i, j in _MONOMIALS[:10]] == [f.coeffs for f in POLY_BASIS]

    def column(poly: Poly2) -> np.ndarray:
        out = np.zeros(len(_MONOMIALS), dtype=complex)
        for (a, b), c in poly.coeffs.items():
            out[_MONOMIALS.index((a, b))] = c
        return out

    for op in DiffOpId:
        graded = _graded_matrix(op)
        for k, (i, j) in enumerate(_MONOMIALS[: _SIZES[5]]):
            v0, v1, v2 = (column(_apply(op, Poly2.monomial(i, j), b)) for b in (0.0, 1.0, 2.0))
            c2 = (v2 - 2.0 * v1 + v0) / 2.0
            assert np.array_equal(graded[:, :, k], [v0, v1 - v0 - c2, c2]), (op, i, j)
            at_field = graded[0, :, k] + B * graded[1, :, k] + B * B * graded[2, :, k]
            np.testing.assert_allclose(at_field, column(_apply(op, Poly2.monomial(i, j), B)), rtol=1e-15, atol=0.0)


# the operators each algebra line is built from
_LINE_OPERATORS = {
    "operator commutators": {op for op1, op2, expected in COMMUTATORS for op in (op1, op2, *expected)},
    "hamiltonian symmetry": set(_GENERATORS),
    "hamiltonian forms": {*_GENERATORS, DiffOpId.H_continuum},
}


@pytest.mark.parametrize("op", list(DiffOpId))
def test_a_flipped_coefficient_fails_every_line_that_uses_its_operator(op, monkeypatch):
    # the first term of each operator: not every term is pinned, since the commutator relations
    # hold for any multiple of S's y^2 d/dx and 2iBy terms
    power, coeff, term = _TERMS[op][0]
    monkeypatch.setitem(_TERMS, op, ((power, -coeff, term), *_TERMS[op][1:]))
    _graded_matrix.cache_clear()
    _hamiltonian.cache_clear()
    try:
        defects = {
            "operator commutators": checks.operator_commutators(),
            "hamiltonian symmetry": checks.hamiltonian_symmetry(),
            "hamiltonian forms": checks.hamiltonian_forms(),
        }
    finally:
        monkeypatch.undo()
        _graded_matrix.cache_clear()
        _hamiltonian.cache_clear()
    assert {name for name, ops in _LINE_OPERATORS.items() if op in ops} == {
        name for name, defect in defects.items() if defect > 0.0
    }


@pytest.mark.parametrize("index, residual", enumerate([6.0, 6.0, 6.0, 12.0, 4.0, 4.0]))
def test_each_flipped_s_check_coefficient_fails_operator_commutators(index, residual, monkeypatch):
    # the commutator relations alone hold for any multiple of S_check's y^2 d/dx and 2iBy terms;
    # the weight conjugation y^{-B} S_B y^{B} pins all six
    terms = _TERMS[DiffOpId.S_check]
    assert len(terms) == 6
    power, coeff, term = terms[index]
    monkeypatch.setitem(_TERMS, DiffOpId.S_check, (*terms[:index], (power, -coeff, term), *terms[index + 1 :]))
    _graded_matrix.cache_clear()
    try:
        conjugation, line = weight_conjugation_residual(), checks.operator_commutators()
    finally:
        monkeypatch.undo()
        _graded_matrix.cache_clear()
    assert conjugation == residual
    assert line >= residual
    assert weight_conjugation_residual() == checks.operator_commutators() == 0.0


def test_weight_conjugation_refuses_a_dy_term_without_a_polynomial_image(monkeypatch):
    with pytest.raises(ValueError, match="cannot conjugate"):
        _weight_conjugate(DiffOpId.H_continuum)  # y^2 dy^2
    monkeypatch.setitem(_TERMS, DiffOpId.T_B, ((0, 1.0, (0, 0, 0, 1)),))  # dy: B/y is no polynomial
    with pytest.raises(ValueError, match="cannot conjugate"):
        _weight_conjugate(DiffOpId.T_B)


# ---------------------------------------------------------------- weighted actions


def test_weighted_translation_examples():
    left, right = check_weighted_action(1.0, DiffOpId.T_check, Poly2.monomial(1, 0), HPoint(0.0, 1.0), 0.0)
    assert abs(left - 1.0) < 1e-12 and abs(right - 1.0) < 1e-12
    rng = np.random.default_rng(173)
    for _ in range(10):
        t = rng.uniform(-2.0, 2.0)
        z = random_point(rng)
        f = Poly2({(3, 0): 1.0, (1, 2): -0.5, (0, 1): 2.0})
        left, right = check_weighted_action(t, DiffOpId.T_check, f, z, 1.0)
        assert abs(left - right) < 1e-10


def test_weighted_scaling_examples():
    left, right = check_weighted_action(0.5, DiffOpId.U_check, Poly2.constant(1.0), HPoint(0.0, 1.0), 1.0)
    assert abs(left - math.e) < 1e-10 and abs(right - math.e) < 1e-12
    left, right = check_weighted_action(0.3, DiffOpId.U_check, Poly2.monomial(0, 1), HPoint(0.0, 2.0), 0.5)
    want = math.exp(0.3) * (math.exp(0.6) * 2.0)
    assert abs(left - want) < 1e-10 and abs(right - want) < 1e-12


def test_weighted_scaling_random_polynomials():
    rng = np.random.default_rng(179)
    for _ in range(15):
        t = rng.uniform(-0.8, 0.8)
        B = float(rng.integers(-2, 3)) / 2.0
        z = random_point(rng)
        f = Poly2({(i, j): rng.standard_normal() for i, j in [(0, 0), (1, 0), (0, 1), (2, 1), (0, 3)]})
        left, right = check_weighted_action(t, DiffOpId.U_check, f, z, B)
        assert abs(left - right) < 1e-10


def test_weighted_action_requires_half_integer_field():
    with pytest.raises(ValueError):
        check_weighted_action(0.3, DiffOpId.U_check, Poly2.constant(1.0), HPoint(0.0, 1.0), 0.3)
    with pytest.raises(ValueError):
        check_weighted_action(0.3, DiffOpId.S_B, Poly2.constant(1.0), HPoint(0.0, 1.0), 0.5)
