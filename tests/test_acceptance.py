"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (visible under pytest -s or in the
captured output of a failure) and asserts both the numerical bound and the
runtime budget.
"""

import cmath
import math
import time

import numpy as np

from hyperband import checks
from hyperband.cli import main
from hyperband.halfplane import (
    CONSTRUCTION_TOL,
    GEOMETRIC_TOL,
    exp_s,
    exp_t,
    exp_u,
    hyperbolic_distance,
    iwasawa_decompose,
    iwasawa_recompose,
    moebius_act,
    psl2_distance,
    rotation_orbit_circle,
)
from hyperband.magnetic import FluxParam, s_phase
from hyperband.spectrum import BlochMomentum, BlockAnisotropic, BlockIsotropic, coprime_flux_pairs
from hyperband.tiling import TilingParams, make_fundamental_domain


def _report(num: int, name: str, defect: float, tol: float, elapsed: float, limit: float) -> None:
    ok = defect < tol and elapsed < limit
    print(
        f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): "
        f"defect {defect:.3e} tol {tol:.0e}, runtime {elapsed:.2f}s limit {limit:.0f}s"
    )
    assert defect < tol
    assert elapsed < limit


def test_criterion_1_fuchsian_relation():
    start = time.perf_counter()
    defect = checks.fuchsian_relation(range(2, 9))
    _report(1, "fuchsian relation", defect, checks.TOLERANCES["relation"], time.perf_counter() - start, 1.0)


def test_criterion_2_covering_theorem():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    defect = checks.covering_degree((q, z) for q in range(1, 9) for z in checks.random_points(rng, 5))
    _report(2, "covering theorem", defect, checks.TOLERANCES["covering"], time.perf_counter() - start, 1.0)


def test_criterion_3_flux_relation():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    # each phase is taken only after its word's point orbit closed within 1e-6
    defect = max(
        checks.flux_relation(g, B, checks.random_points(rng, 5))[0]
        for g in (2, 3, 5, 8)
        for B in (0.0, 0.25, 1.0 / 3.0, 0.7)
    )
    _report(3, "flux relation", defect, checks.TOLERANCES["flux"], time.perf_counter() - start, 5.0)


def test_criterion_4_vertex_angle_identity():
    start = time.perf_counter()
    defect = 0.0
    for g in (2, 3):
        v1 = make_fundamental_domain(TilingParams(g)).vertices[0]
        angle = (2 * g - 1) * math.pi / (4 * g)
        for B in (0.5, 1.0):
            expected = cmath.exp(1j * B * math.pi / (2 * g))
            defect = max(defect, abs(s_phase(angle, v1, B) - expected))
    _report(4, "vertex-angle identity", defect, 1e-8, time.perf_counter() - start, 1.0)


def test_criterion_5_operator_algebra():
    start = time.perf_counter()
    defect = max(checks.operator_commutators(), checks.hamiltonian_symmetry(), checks.hamiltonian_forms())
    tol = min(checks.TOLERANCES[key] for key in ("algebra", "hamiltonian", "forms"))
    _report(5, "operator algebra", defect, tol, time.perf_counter() - start, 2.0)


def test_criterion_6_rotation_sector_consistency():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    defect = 0.0
    for p, q in ((1, 2), (1, 3), (2, 3), (1, 5)):
        pair, momenta = FluxParam(p, q), checks.random_momenta(rng, 3)
        defect = max(
            defect,
            checks.sector_union(BlockAnisotropic(), pair, momenta),
            checks.sector_union(BlockIsotropic(), pair, momenta),
            checks.flux_orbits([pair], momenta),
            checks.chambers([pair], momenta),
        )
    # LAPACK fails on the bare scaled Harper core here; the sector unions must still
    # match, and so must the spectra derived across its flux orbit {3, 49, 55, 101}
    # and the real Chambers twin
    hard, origin = FluxParam(101, 52), [BlochMomentum.zero()]
    defect = max(
        defect,
        checks.sector_union(BlockAnisotropic(), hard, origin),
        checks.sector_union(BlockIsotropic(), hard, origin),
        checks.flux_orbits([hard], origin),
        checks.chambers([hard], origin),
    )
    _report(6, "rotation-sector consistency", defect, checks.TOLERANCES["sector"], time.perf_counter() - start, 10.0)


def test_criterion_7_harper_oracle():
    rng = np.random.default_rng(1007)
    start = time.perf_counter()
    defect = 0.0
    for q in range(1, 13):
        for p in range(1, 2 * q):
            if math.gcd(p, q) != 1:
                continue
            for _ in range(3):
                k1, k2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
                defect = max(defect, checks.harper_oracle_compare(p, q, k1, k2))
    _report(7, "harper oracle", defect, 1e-9, time.perf_counter() - start, 10.0)


def test_criterion_8_butterfly_pipeline(tmp_path, capsys):
    start = time.perf_counter()
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        code = main(
            ["butterfly", "--q-max", "20", "--k-samples", "4", "--model", "reduced",
             "--out", str(path)]
        )
        assert code == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    first, second = (path.read_bytes() for path in paths)
    identical = first == second
    # The sweep's pipeline (spectrum._solve_in_order) gates every stack before
    # its solve and certifies it after, on the calling thread, against the
    # matrix the LAPACK worker solved: it raises on a non-finite,
    # non-Hermitian or out-of-band matrix and on any eigenvalue failing the
    # inertia certificate |mu_i - lambda_i| <= 1e-8 (1 + ||H||_F), so
    # completing with exit 0 certifies every matrix solved.
    expected_rows = 4 * sum(q for _, q in coprime_flux_pairs(20))
    assert len(first.decode().splitlines()) == expected_rows + 1
    with capsys.disabled():
        _report(8, "butterfly pipeline", 0.0 if identical else 1.0, 0.5, elapsed, 60.0)


def test_criterion_9_geometry_suite():
    rng = np.random.default_rng(1009)
    start = time.perf_counter()

    orbit = 0.0
    for z0 in checks.random_points(rng, 100):
        circle = rotation_orbit_circle(z0)
        t = float(rng.uniform(0.0, math.pi))
        w = moebius_act(exp_s(t), z0)
        radial = math.hypot(w.x, w.y - circle.center_y)
        orbit = max(orbit, abs(radial - circle.radius))

    iwasawa = 0.0
    for _ in range(100):
        g = exp_s(float(rng.uniform(-3.0, 3.0))) @ exp_u(float(rng.uniform(-1.5, 1.5))) @ exp_t(
            float(rng.uniform(-3.0, 3.0))
        )
        iwasawa = max(iwasawa, psl2_distance(iwasawa_recompose(iwasawa_decompose(g)), g))

    metric = 0.0
    for _ in range(100):
        z, w = checks.random_points(rng, 2)
        g = exp_s(float(rng.uniform(-3.0, 3.0))) @ exp_t(float(rng.uniform(-2.0, 2.0))) @ exp_u(
            float(rng.uniform(-1.0, 1.0))
        )
        metric = max(
            metric,
            abs(hyperbolic_distance(moebius_act(g, z), moebius_act(g, w)) - hyperbolic_distance(z, w)),
        )

    pairing = checks.edge_pairing(range(2, 9))

    elapsed = time.perf_counter() - start
    assert iwasawa < CONSTRUCTION_TOL * 1e3  # round-trips sit at a few ulps
    defect = max(orbit, metric, pairing)
    _report(9, "geometry suite", defect, GEOMETRIC_TOL, elapsed, 2.0)
