"""Exit codes, report text, SVG and CSV artifacts of the command-line front end."""

import decimal
import functools
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperband import checks, cli, magnetic
from hyperband.checks import assemble_block, eigenvalues
from hyperband.cli import _svg_paths, main, parse_config_file, parse_model
from hyperband.halfplane import HPoint, Sl2Element, moebius_act, moebius_rows
from hyperband.magnetic import DiffOpId, FluxParam, max_or_nan
from hyperband.spectrum import BlochMomentum, BlockAnisotropic, BlockIsotropic, ReducedHarper, butterfly_sweep
from hyperband.spectrum import model_spectrum
from hyperband.tiling import (
    _ARC_RADIUS_LIMIT,
    FundamentalDomain,
    TilingParams,
    disk_corners,
    edge_states,
    enumerate_tiles,
    make_fundamental_domain,
    make_generators,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_scipy_unloaded(subprocess_env):
    probe = "import sys, hyperband.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_verify_leaves_numpy_random_unloaded(subprocess_env):
    # verify draws its samples from the stdlib random module
    probe = (
        "import contextlib, io, sys, hyperband.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hyperband.cli.main(['verify', '--g', '5'])\n"
        "print(code, 'numpy.random' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "0 False"


@pytest.mark.parametrize(
    "flags, argv, lines_read",
    [
        # unbuffered, each verify line is written as its check ends, after the reader has gone
        (["-u"], ["verify", "--g", "5"], 1),
        # block-buffered, everything is written by the final flush, into a pipe closed at start-up
        ([], ["spectrum", "--B", "1/6"], 0),
        # --out names the same closed pipe
        ([], ["butterfly", "--model", "block-aniso", "--q-max", "12", "--k-samples", "2", "--out", "/dev/stdout"], 0),
        # so does the binary SVG writer
        ([], ["tile", "--g", "2", "--depth", "3", "--out", "/dev/stdout"], 0),
    ],
)
def test_closed_stdout_exits_141_without_a_traceback(flags, argv, lines_read, subprocess_env):
    proc = subprocess.Popen(
        [sys.executable, *flags, "-m", "hyperband", *argv],
        env=subprocess_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline().startswith(b"PASS fuchsian relation")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    # exit 1 would read as a verification failure
    assert proc.wait(timeout=60) == 141
    assert err == b""  # no traceback, and no "Exception ignored" from the exit flush


@pytest.mark.parametrize("argv", [["verify", "--g", "2"], ["spectrum", "--B", "1/6"]])
def test_unwritable_stdout_exits_2_without_a_traceback(argv, subprocess_env):
    with open("/dev/full", "w") as full:  # every write fails with ENOSPC
        result = subprocess.run(
            [sys.executable, "-m", "hyperband", *argv], env=subprocess_env, stdout=full, stderr=subprocess.PIPE
        )
    err = result.stderr.decode().splitlines()
    assert result.returncode == 2
    assert len(err) == 1 and err[0].startswith("error: cannot write stdout: ")


def test_tile_to_a_full_device_exits_2_without_a_traceback(subprocess_env):
    result = subprocess.run(
        [sys.executable, "-m", "hyperband", "tile", "--out", "/dev/full"], env=subprocess_env, capture_output=True
    )
    err = result.stderr.decode().splitlines()
    assert result.returncode == 2 and result.stdout == b""
    assert len(err) == 1 and err[0].startswith("error: cannot write /dev/full: ")


# ---------------------------------------------------------------- verify


def test_verify_passes_at_quarter_flux(capsys):
    code, out, _ = run(capsys, "verify", "--g", "2", "--B", "1/4")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines)
    flux_line = next(line for line in lines if "flux relation" in line)
    assert "phase -1" in flux_line


def test_verify_zero_field_phase_is_one(capsys):
    code, out, _ = run(capsys, "verify", "--g", "2", "--B", "0")
    assert code == 0
    flux_line = next(line for line in out.splitlines() if "flux relation" in line)
    assert "phase 1" in flux_line


def test_verify_accepts_bare_real_field(capsys):
    code, out, _ = run(capsys, "verify", "--B", "0.7")
    assert code == 0


@pytest.mark.parametrize("field, pair", [("1", "(p=2, q=1)"), ("2", "(p=4, q=1)"), ("0", "(p=0, q=1)")])
def test_verify_runs_the_lattice_lines_at_an_integer_field(field, pair, capsys):
    # an integer field is exact, so the lattice lines take its pair, not the 1/3 placeholder of a real
    code, out, _ = run(capsys, "verify", "--B", field)
    assert code == 0
    lattice = [line for line in out.splitlines() if "lattice hermiticity" in line or "sectors" in line]
    assert len(lattice) == 3 and all(line.endswith(pair) for line in lattice)


def test_negative_values_attached_with_equals(capsys):
    # detached, argparse reads -1/4 as an option and exits 2
    with pytest.raises(SystemExit) as info:
        main(["verify", "--B", "-1/4"])
    assert info.value.code == 2 and "expected one argument" in capsys.readouterr().err
    code, out, _ = run(capsys, "verify", "--B=-1/4")
    assert code == 0 and "(p=-1, q=2)" in out
    code, out, _ = run(capsys, "spectrum", "--B=-1/6", "--k=0,0,0,0")
    assert code == 0
    want = model_spectrum(ReducedHarper(0), -1, 3, BlochMomentum.zero())
    assert out == "".join(f"{value:.12g}\n" for value in want)


def test_verify_rejects_low_genus(capsys):
    code, _, err = run(capsys, "verify", "--g", "1")
    assert code == 2
    assert "genus" in err


def test_verify_tolerance_override_can_force_failure(capsys):
    code, out, _ = run(capsys, "verify", "--tol", "relation=1e-16")
    assert code == 1
    assert any(line.startswith("FAIL fuchsian relation") for line in out.splitlines())


def test_verify_prints_the_bound_it_applies(capsys):
    code, out, _ = run(capsys, "verify", "--tol", "flux=1.5e-7")
    assert code == 0
    flux_line = next(line for line in out.splitlines() if "flux relation" in line)
    assert "  tol 1.5e-07  phase" in flux_line


def test_verify_fails_a_nan_defect(capsys, monkeypatch):
    # NaN < tol is false, so a NaN defect fails its line, and the exit code is 1
    suite = list(checks.SUITE)
    index = [name for name, _, _ in suite].index("hamiltonian symmetry")
    suite[index] = ("hamiltonian symmetry", "hamiltonian", lambda s: (math.nan, ""))
    monkeypatch.setattr(checks, "SUITE", tuple(suite))
    code, out, _ = run(capsys, "verify", "--g", "2", "--B", "1/4")
    assert code == 1
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL hamiltonian symmetry     defect nan  tol 1e-08"
    ]


def _nan_on_third_call(residual):
    calls = []

    def patched(*args):
        calls.append(args)
        return math.nan if len(calls) == 3 else residual(*args)

    return patched


def _nan_for_t_b(residual):
    return lambda op: math.nan if op is DiffOpId.T_B else residual(op)


def _nan_term_for_t_b(conjugate):
    # y^{-B} T_B y^{B} gains a NaN constant term: the second of the three conjugation residuals is NaN
    return lambda op: conjugate(op) + [(0, complex(math.nan), (0, 0, 0, 0))] if op is DiffOpId.T_B else conjugate(op)


@pytest.mark.parametrize(
    "name, residual, patch",
    [
        ("operator commutators", "commutator_residual", _nan_on_third_call),
        ("operator commutators", "_weight_conjugate", _nan_term_for_t_b),
        ("hamiltonian symmetry", "hamiltonian_commutation_residual", _nan_for_t_b),
    ],
    ids=["commutators", "conjugation", "symmetry"],
)
def test_verify_fails_an_algebra_line_with_a_nan_residual_past_the_first(name, residual, patch, capsys, monkeypatch):
    # the builtin max keeps a NaN only when it comes first; these lines combine through max_or_nan
    monkeypatch.setattr(magnetic, residual, patch(getattr(magnetic, residual)))
    code, out, _ = run(capsys, "verify", "--g", "2", "--B", "1/4")
    assert code == 1
    [line] = [line for line in out.splitlines() if not line.startswith("PASS")]
    assert line.startswith(f"FAIL {name:<24s} defect nan  tol ")


def test_verify_reports_library_errors_as_failures(capsys):
    # q = 300: the 2400 x 2400 block matrices exceed the dimension bound; the
    # flux orbits line solves only q x q and 2q x 2q sector matrices
    code, out, err = run(capsys, "verify", "--B", "1/600")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines[:7])
    for line, name in zip(lines[7:10], ("lattice hermiticity", "rotation sectors", "iso sectors"), strict=True):
        assert line.startswith(f"FAIL {name}")
        assert "defect inf" in line and "exceeds the supported bound 2000" in line
    assert lines[10].startswith("PASS flux orbits")
    assert lines[11].startswith("PASS chambers")


def test_verify_refuses_a_rational_flux_too_large_for_a_float(capsys):
    code, out, err = run(capsys, "verify", "--B", "1" + "0" * 400 + "/3")
    assert (code, out) == (2, "")
    assert err.startswith("error: flux must be finite as a float")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--B", "abc"), "bad flux 'abc'"),
        (("verify", "--B", "inf"), "flux must be finite, got 'inf'"),
        (("spectrum", "--k=1,2,x,4"), "bad momentum '1,2,x,4'"),
        (("verify", "--tol", "flux"), "tolerance override needs name=value, got 'flux'"),
        (("verify", "--tol", "flux=abc"), "bad tolerance value 'abc'"),
    ],
)
def test_unparsable_values_exit_2_with_one_error_line(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_verify_fails_the_lattice_lines_of_a_denominator_too_large_for_a_float(capsys):
    # B = 1/10^400 is 0.0 as a float, a usable field; its pair (1, 5 10^399) is not
    code, out, err = run(capsys, "verify", "--B", "1/1" + "0" * 400)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines[:7])
    assert all(line.startswith("FAIL") and "defect inf" in line for line in lines[7:])


def test_verify_hermiticity_line_can_fail(monkeypatch, capsys):
    real_ring = checks.ring_matrix

    def skewed_ring(B):
        ring = real_ring(B)
        ring[0, 1] += 1e-9j  # [1, 0] left alone, so every block matrix is off by ~1e-9
        return ring

    monkeypatch.setattr(checks, "ring_matrix", skewed_ring)
    for tol, verdict in (((), "FAIL"), (("--tol", "hermiticity=1e-6"), "PASS")):
        code, out, _ = run(capsys, "verify", "--g", "2", "--B", "1/4", *tol)
        assert code == 1
        line = next(line for line in out.splitlines() if "lattice hermiticity" in line)
        # the measured defect, judged by the hermiticity bound alone
        assert line.startswith(f"{verdict} lattice hermiticity      defect 1.621e-09")
        fails = [line.split("  ")[0] for line in out.splitlines() if line.startswith("FAIL")]
        # the dense oracle behind both sector lines still refuses the skewed block matrices
        assert fails[-2:] == ["FAIL rotation sectors", "FAIL iso sectors"]
        assert len(fails) == (3 if verdict == "FAIL" else 2)


def test_verify_sector_and_chambers_lines_catch_a_wrong_real_twin(monkeypatch, capsys):
    # with sigma flipped the sweep and the flux-orbit line's direct route share the wrong
    # real matrices, so only the comparisons with the dense matrices fail: the block-aniso
    # sector union and the sector-0 twin (block-iso solves no Chambers twin)
    import hyperband.spectrum as spectrum

    real_momenta = spectrum._chambers_momenta

    def flipped_sigma(q, k1, k2):
        k1r, k2r = real_momenta(q, k1, k2)
        return math.pi / q - k1r, k2r

    monkeypatch.setattr(spectrum, "_chambers_momenta", flipped_sigma)
    code, out, _ = run(capsys, "verify", "--g", "2", "--B", "1/4")
    assert code == 1
    fails = [line.split("  ")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL rotation sectors", "FAIL chambers"]


def test_verify_rotation_sectors_line_reads_the_sweeps_block_aniso_spectrum(monkeypatch, capsys):
    # a block-aniso sweep spectrum off by 1e-6 in one eigenvalue fails that line alone
    import hyperband.spectrum as spectrum

    real_spectra = spectrum.model_spectra

    def nudged(model, q, ps, momenta):
        vals = real_spectra(model, q, ps, momenta)
        if isinstance(model, BlockAnisotropic):
            vals[0, 0, 3] += 1e-6
        return vals

    monkeypatch.setattr(spectrum, "model_spectra", nudged)
    code, out, _ = run(capsys, "verify", "--g", "2", "--B", "1/4")
    assert code == 1
    assert [line.split("  ")[0] for line in out.splitlines() if line.startswith("FAIL")] == ["FAIL rotation sectors"]


def test_verify_suite_names_are_unique_and_use_every_tolerance():
    names = [name for name, _, _ in checks.SUITE]
    assert len(names) == len(set(names))
    # every `--tol NAME` bounds some line, and every line's bound can be overridden
    assert {key for _, key, _ in checks.SUITE} == set(checks.TOLERANCES)


@pytest.mark.parametrize(
    "check, name",
    [
        (lambda: checks.fuchsian_relation([]), "genus list"),
        (lambda: checks.edge_pairing([]), "genus list"),
        (lambda: checks.covering_degree([]), r"\(q, z\) sample list"),
        (lambda: checks.flux_relation(2, 0.25, []), "point list"),
        (lambda: checks.lattice_hermiticity(FluxParam(1, 3), []), "momentum list"),
        (lambda: checks.sector_union(BlockAnisotropic(), FluxParam(1, 3), []), "momentum list"),
        (lambda: checks.sector_union(BlockIsotropic(), FluxParam(1, 3), []), "momentum list"),
        (lambda: checks.flux_orbits([], [BlochMomentum.zero()]), "flux pair list"),
        (lambda: checks.flux_orbits([FluxParam(1, 3)], []), "momentum list"),
        (lambda: checks.chambers([], [BlochMomentum.zero()]), "flux pair list"),
        (lambda: max_or_nan([]), "sequence"),
    ],
)
def test_checks_refuse_an_empty_sample_list_by_name(check, name):
    with pytest.raises(ValueError, match=f"empty {name}"):
        check()


def test_chambers_runs_its_fixed_momenta_without_sampled_ones():
    assert checks.chambers([FluxParam(1, 3)], []) < checks.TOLERANCES["sector"]


@pytest.mark.parametrize("seed", [0, 5, 11, 2718])
def test_random_momenta_draw_a_numpy_generator_like_its_size_4_draws(seed):
    rng = np.random.default_rng(seed)
    old = [BlochMomentum(*rng.uniform(0.0, 2.0 * math.pi, size=4)) for _ in range(3)]
    assert checks.random_momenta(np.random.default_rng(seed), 3) == old


def test_verify_rejects_unknown_tolerance(capsys):
    code, _, err = run(capsys, "verify", "--tol", "nonsense=1")
    assert code == 2
    assert "nonsense" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_verify_refuses_a_tolerance_that_is_not_finite_and_positive(value, capsys):
    code, out, err = run(capsys, "verify", "--tol", f"algebra={value}")
    assert code == 2
    assert out == ""
    assert "finite positive" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------- tile


# Scalar oracle of the tile renderer: one complex number per corner, one
# geodesic at a time.  `tiling` and the CLI compute the same floats on arrays.


def _cayley(z: HPoint) -> complex:
    w = (z.as_complex() - 1j) / (z.as_complex() + 1j)
    return w


def _edge_geometry(w1: complex, w2: complex) -> tuple[int, float]:
    """Geodesic from w1 to w2 along the circle orthogonal to |w|=1: (0, 0.0) for a
    straight segment, else (1 + SVG sweep flag, arc radius).

    The center c of that circle satisfies 2 Re(w) cx + 2 Im(w) cy = |w|^2 + 1
    at both endpoints; a vanishing determinant means the geodesic is a
    diameter, drawn straight.
    """
    a11, a12, b1 = 2.0 * w1.real, 2.0 * w1.imag, abs(w1) ** 2 + 1.0
    a21, a22, b2 = 2.0 * w2.real, 2.0 * w2.imag, abs(w2) ** 2 + 1.0
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-9:
        return 0, 0.0
    cx = (b1 * a22 - b2 * a12) / det
    cy = (a11 * b2 - a21 * b1) / det
    r_sq = cx * cx + cy * cy - 1.0
    if r_sq <= 0.0:
        return 0, 0.0
    radius = math.sqrt(r_sq)
    if radius > _ARC_RADIUS_LIMIT:
        return 0, 0.0
    theta1 = math.atan2(w1.imag - cy, w1.real - cx)
    theta2 = math.atan2(w2.imag - cy, w2.real - cx)
    delta = (theta2 - theta1) % math.tau
    if delta > math.pi:
        delta -= math.tau
    sweep = 1 if delta > 0.0 else 0
    return 1 + sweep, radius


def _disk_edge_path(w1: complex, w2: complex) -> str:
    """SVG segment from w1 to w2."""
    state, radius = _edge_geometry(w1, w2)
    if state == 0:
        return f"L {w2.real:.6f} {w2.imag:.6f}"
    return f"A {radius:.6f} {radius:.6f} 0 0 {state - 1} {w2.real:.6f} {w2.imag:.6f}"


def _as_element(row) -> Sl2Element:
    """A tile row (a, b, c, d) as an Sl2Element holding exactly its floats.

    `Sl2Element(*row)` would renormalize by the determinant recomputed from
    the stored floats once more, which moves the last bits of deep tiles.
    """
    m = Sl2Element.identity()
    for name, value in zip("abcd", np.asarray(row).tolist()):
        object.__setattr__(m, name, value)
    return m


def _tile_path(dom: FundamentalDomain, tile: Sl2Element) -> str:
    corners = [_cayley(moebius_act(tile, v)) for v in dom.vertices]
    start = corners[dom.edges[0][0]]
    parts = [f"M {start.real:.6f} {start.imag:.6f}"]
    for i, j in dom.edges:
        parts.append(_disk_edge_path(corners[i], corners[j]))
    parts.append("Z")
    return " ".join(parts)


def _vector_paths(pairs) -> list[str]:
    """`d` attributes the CLI formats for one-edge paths w1 -> w2, in one batch."""
    u = np.array([[w1.real, w2.real] for w1, w2 in pairs])
    v = np.array([[w1.imag, w2.imag] for w1, w2 in pairs])
    text = _svg_paths(u, v, ((0, 1),)).decode("ascii")
    return [line.split('"')[1] for line in text.splitlines()]


def _oracle_path(w1: complex, w2: complex) -> str:
    return f"M {w1.real:.6f} {w1.imag:.6f} {_disk_edge_path(w1, w2)} Z"


def test_cayley_sends_domain_center_to_origin():
    assert abs(_cayley(HPoint(0.0, 1.0))) < 1e-15
    dom = FundamentalDomain((HPoint(0.0, 1.0),) * 4, ((3, 0), (0, 1), (1, 2), (2, 3)))
    u, v = disk_corners(np.array([Sl2Element.identity().entries()]), dom)
    assert np.abs(u).max() < 1e-15 and np.abs(v).max() < 1e-15


def test_diameter_edges_fall_back_to_lines():
    w = 0.3 + 0.4j
    pairs = [(w, -w), (0.5 + 0j, -0.2 + 0j)]
    for (w1, w2), d in zip(pairs, _vector_paths(pairs)):
        assert _disk_edge_path(w1, w2).startswith("L ")
        assert d == _oracle_path(w1, w2)


def test_generic_edge_is_an_arc():
    seg = _disk_edge_path(0.5 + 0j, 0.0 + 0.5j)
    assert seg.startswith("A ")
    radius = float(seg.split()[1])
    # circle through (.5,0) and (0,.5) orthogonal to the unit circle: c=(1.25,1.25)
    assert abs(radius - math.sqrt(2 * 1.25**2 - 1.0)) < 1e-6
    assert _vector_paths([(0.5 + 0j, 0.0 + 0.5j)]) == [f"M 0.500000 0.000000 {seg} Z"]


_UNIT = st.floats(-1.0, 1.0)
_ANGLE = st.floats(-math.pi, math.pi)
_DISK = st.builds(lambda r, t: complex(r * math.cos(t), r * math.sin(t)), st.floats(0.0, 0.999999), _ANGLE)


def _near_limit_pair(phi: float, s: float, t1: float, t2: float) -> tuple[complex, complex]:
    # two points near the origin on the orthogonal circle of radius ~ the limit
    r = _ARC_RADIUS_LIMIT * (1.0 + 1e-3 * s)
    c = math.sqrt(1.0 + r * r) * complex(math.cos(phi), math.sin(phi))
    return tuple(c - r * complex(math.cos(phi + 5e-5 * t), math.sin(phi + 5e-5 * t)) for t in (t1, t2))


def _small_det_pair(w: complex, t: float, s: float) -> tuple[complex, complex]:
    # w2 off the line through 0 and w by just enough for det = 4 Im(conj(w1) w2) ~ s * 1e-9
    w = w if abs(w) > 1e-3 else 0.5 + 0j
    return w, t * w + 1j * w / abs(w) * (s * 1e-9 / (4.0 * abs(w)))


_PAIRS = st.one_of(
    st.tuples(_DISK, _DISK),
    _DISK.map(lambda w: (w, -w)),
    st.builds(lambda w, t: (w, t * w), _DISK, _UNIT),
    _DISK.map(lambda w: (0j, w)),
    _DISK.map(lambda w: (w, 0j)),
    st.builds(_near_limit_pair, _ANGLE, _UNIT, _UNIT, _UNIT),
    st.builds(_small_det_pair, _DISK, _UNIT, st.floats(-3.0, 3.0)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_PAIRS, min_size=1, max_size=16))
@example([(0.3 + 0.4j, -0.3 - 0.4j), (0.5 + 0j, 0.25 + 0j), (0j, 0.2 - 0.7j), (0.6 + 0.1j, 0j)])
@example([_near_limit_pair(0.7, s, -1.0, 1.0) for s in (-1.0, -1e-3, 0.0, 1e-3, 1.0)])
@example([_small_det_pair(0.5 + 0.2j, -0.5, s) for s in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5)])
@example([(0.9183524836262199 + 0j, 0.1 + 0.5j)])  # abs(w) ** 2 != w.real * w.real: libm pow
def test_vectorized_segments_equal_scalar_oracle(pairs):
    assert _vector_paths(pairs) == [_oracle_path(w1, w2) for w1, w2 in pairs]
    # the same floats, not just the same six decimals
    u = np.array([[w1.real, w2.real] for w1, w2 in pairs])
    v = np.array([[w1.imag, w2.imag] for w1, w2 in pairs])
    state, radius = edge_states(u, v, ((0, 1),))
    got = [(s, r if s else 0.0) for s, r in zip(state[:, 0].tolist(), radius[:, 0].tolist())]
    assert got == [_edge_geometry(w1, w2) for w1, w2 in pairs]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(st.lists(_PAIRS, min_size=k, max_size=k), min_size=1, max_size=8)))
@example([[(0.3 + 0.4j, -0.3 - 0.4j), (0.5 + 0j, 0.0 + 0.5j), (0.5 + 0j, 0.25 + 0j), (0.6 + 0.1j, -0.2 + 0.3j)]])
@example([[_near_limit_pair(0.7, s, -1.0, 1.0) for s in (-1.0, 1.0, -1e-3, 1e-3)]])
def test_mixed_edge_rows_equal_scalar_oracle_slot_by_slot(rows):
    # edge e of a row runs from corner 2e to corner 2e + 1, so one row mixes straight edges and arcs
    points = np.array([[w for pair in row for w in pair] for row in rows])
    edges = tuple((2 * e, 2 * e + 1) for e in range(len(rows[0])))
    lines = _svg_paths(points.real.copy(), points.imag.copy(), edges).decode("ascii").splitlines()
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        head, *segments, tail = re.split(r" (?=[ALZ])", line.split('"')[1])
        assert head == f"M {row[0][0].real:.6f} {row[0][0].imag:.6f}" and tail == "Z"
        assert len(segments) == len(row)
        for segment, (w1, w2) in zip(segments, row):
            state, radius = _edge_geometry(w1, w2)
            words = segment.split()
            if state:  # both radius slots hold the one formatted radius
                assert words[:6] == ["A", f"{radius:.6f}", f"{radius:.6f}", "0", "0", str(state - 1)]
            else:  # the radius slots and their separators are empty
                assert words[0] == "L" and len(words) == 3
            assert words[-2:] == [f"{w2.real:.6f}", f"{w2.imag:.6f}"]
            assert segment == _disk_edge_path(w1, w2)


def _number_texts(values) -> tuple[list[str], int]:
    """What `cli._number_words` writes for each value, and how many it handed to `%`."""
    x = np.array(values, dtype=float)
    out = np.zeros(x.shape + (2,), dtype="<u8")
    scalar = cli._number_words(x, out)
    return [words.tobytes().translate(None, b"\0").decode("ascii") for words in out], scalar


def _must_take_percent(x: float) -> bool:
    # non-finite, integer part >= 10^4, or an exact tie (odd multiples of 1/128 are the only float ones)
    return not math.isfinite(x) or abs(x) >= 1e4 or abs(x) * 128 % 2 == 1


_SIGN = st.sampled_from([1.0, -1.0])
_PATH_NUMBER = st.one_of(
    st.floats(-2e4, 2e4),  # subnormals included
    # decimal ties n + 1/2 at the sixth place: the float sits just off the tie
    st.builds(lambda n, s: s * (n + 0.5) / 1e6, st.integers(0, 2 * 10**10), _SIGN),
    # dyadic values, exact products; odd k / 128 are exact ties
    st.builds(lambda k, e: k / 2.0**e, st.integers(-(2**21), 2**21), st.sampled_from([7, 20])),
    st.sampled_from([0.0, -0.0, -1e-9, 5e-324, -5e-324, 1e4, -1e4, math.nan, math.inf, -math.inf]),
)
_TIES = [k / 128 for k in (1, 3, -3, 5, 127, 129, 1279999, -1279999)] + [k / 2.0**20 for k in (1, 3, 8191, 8193, -24575)]


def _with_neighbours(values: list[float]) -> list[float]:
    """Each value and the floats on either side of it."""
    return [float(np.nextafter(x, side)) for x in values for side in (-math.inf, x, math.inf)]


# decimal near-ties (n + 1/2) 10^-6 and their neighbours: |y - n| < 1/2 alone must decide the rounding
_DECIMAL_NEAR_TIES = _with_neighbours(
    [s * (n + 0.5) / 1e6 for n in (0, 1, 2, 12345, 999999, 10**10 - 1) for s in (1.0, -1.0)]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PATH_NUMBER, min_size=1, max_size=24))
@example([-0.0, -1e-9, -4e-7, 0.0, 5e-324])
@example(_TIES)
@example([2.5e-06, 1.25e-05, -2.05e-05, 0.0234375, 9999.9999995, 1e4, -1e4, 9999.999999, -9999.999999])
@example([math.nan, math.inf, -math.inf, 1.0, -1.0])
@example(_DECIMAL_NEAR_TIES)
def test_number_words_are_percent_six_f(values):
    text, scalar = _number_texts(values)
    assert text == ["%.6f" % x for x in values]
    assert scalar >= sum(map(_must_take_percent, values))


def test_number_words_hand_ties_and_non_finite_values_to_percent():
    assert _number_texts([-0.0, -1e-9])[0] == ["-0.000000", "-0.000000"]
    assert _number_texts(_TIES) == (["%.6f" % x for x in _TIES], 8)  # the eight k / 128
    assert _number_texts([math.nan, math.inf, -math.inf, 1e4, 9999.9999995]) == (
        ["nan", "inf", "-inf", "10000.000000", "%.6f" % 9999.9999995],
        5,
    )
    assert _number_texts([0.5, 0.25, -0.125, 9999.0])[1] == 0
    assert _number_texts([99999999.0, -9999999.0])[0] == ["99999999.000000", "-9999999.000000"]
    with pytest.raises(ValueError, match="wider than 15"):
        _number_texts([1.0, -1e8])  # -100000000.000000


def test_path_numbers_leave_room_for_their_space():
    # a path keeps the space before a number in the first of its 16 bytes: 15 characters fit, 16 do not
    u, v = np.array([[99999999.0, 0.5]]), np.array([[-0.25, 0.0]])
    assert _svg_paths(u, v, ((0, 1),)).startswith(b'<path d="M 99999999.000000 -0.250000 ')
    with pytest.raises(ValueError, match="cannot write -99999999.000000 into a path: wider than 15 characters"):
        _svg_paths(-u, v, ((0, 1),))


def test_disk_corners_are_the_scalar_floats():
    dom = make_fundamental_domain(TilingParams(2))
    tiles = enumerate_tiles(make_generators(TilingParams(2)), 3)
    u, v = disk_corners(tiles, dom)
    want = [[_cayley(moebius_act(_as_element(row), vertex)) for vertex in dom.vertices] for row in tiles]
    assert (u + 1j * v).tolist() == want


# tiles whose corners the scalar code refuses, and the refusal each one hits
_DEGENERATE_TILES = [
    (Sl2Element(1e200, 0.0, 0.0, 1e-200), "degenerate"),  # |cz + d|^2 underflows
    (Sl2Element(0.0, -1e-160, 1e160, 0.0), "y > 0"),  # |cz + d|^2 overflows, y = 0
    (Sl2Element(1e160, 0.0, 1e160, 1e-160), "non-finite"),  # inf / inf
]


def _scalar_images(rows, points):
    """`moebius_act` for every row and point, row-major; the first refusal's message if one refuses."""
    try:
        return [[moebius_act(_as_element(row), z) for z in points] for row in rows]
    except ValueError as exc:
        return str(exc)


_ROW_ENTRY = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -1.0, 1e160, -1e160, 1e-160, 1e200, 1e-200]),
)
_ROW = st.one_of(st.tuples(*[_ROW_ENTRY] * 4), st.sampled_from([t.entries() for t, _ in _DEGENERATE_TILES]))
_POINT = st.builds(HPoint, st.floats(-1e300, 1e300), st.floats(1e-300, 1e300))
_OCTAGON = make_fundamental_domain(TilingParams(2)).vertices


@settings(max_examples=200, deadline=None)
@given(st.lists(_ROW, min_size=1, max_size=4), st.one_of(st.lists(_POINT, min_size=1, max_size=3), st.just(_OCTAGON)))
@example([t.entries() for t, _ in _DEGENERATE_TILES], _OCTAGON)
# an earlier non-finite corner is reported before a later degenerate tile
@example([(1.0, 0.0, 0.0, 1.0), _DEGENERATE_TILES[2][0].entries(), _DEGENERATE_TILES[0][0].entries()], _OCTAGON)
def test_moebius_rows_is_moebius_act_bit_for_bit(rows, points):
    want = _scalar_images(rows, points)
    x, y = np.array([z.x for z in points]), np.array([z.y for z in points])
    try:
        wx, wy = moebius_rows(np.array(rows, dtype=float), x, y)
    except ValueError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str)
    assert wx.view(np.int64).tolist() == np.array([[w.x for w in line] for line in want]).view(np.int64).tolist()
    assert wy.view(np.int64).tolist() == np.array([[w.y for w in line] for line in want]).view(np.int64).tolist()


@pytest.mark.parametrize("tile, message", _DEGENERATE_TILES)
def test_corner_arrays_refuse_what_the_scalar_path_refuses(tile, message):
    dom = make_fundamental_domain(TilingParams(2))
    with pytest.raises(ValueError, match=message) as scalar:
        for vertex in dom.vertices:
            moebius_act(tile, vertex)
    with pytest.raises(ValueError) as array:
        disk_corners(np.array([Sl2Element.identity().entries(), tile.entries()]), dom)
    assert str(array.value) == str(scalar.value)


def test_refused_tile_runs_leave_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "tile", "--depth", "9")  # enumeration guard
    assert code == 2 and "depth" in err
    assert not (tmp_path / "tiling.svg").exists()


def test_a_refused_corner_exits_2_with_its_scalar_message(tmp_path, monkeypatch, capsys):
    # no enumerated tile reaches this refusal (`tiling.disk_corners`), so the rows are injected
    monkeypatch.chdir(tmp_path)
    tile, message = _DEGENERATE_TILES[0]
    rows = np.array([Sl2Element.identity().entries(), tile.entries()])
    monkeypatch.setattr(cli, "enumerate_tiles", lambda gens, depth: rows)
    code, _, err = run(capsys, "tile", "--depth", "1")
    assert code == 2 and message in err


@pytest.mark.parametrize("first, second", [(0, 2), (2, 1)])
def test_refused_tiles_in_later_blocks_exit_2_with_only_the_earliest_scalar_message(
    first, second, tmp_path, monkeypatch, capsys
):
    # one refused tile in the second written block of corners, another in the third: the earlier one is reported;
    # the blocks written before it stay in the file
    monkeypatch.chdir(tmp_path)
    step = cli._SVG_BLOCK_CORNERS // 8  # octagons per written block: 256
    rows = np.tile(Sl2Element.identity().entries(), (3 * step, 1))
    rows[step + 44] = _DEGENERATE_TILES[first][0].entries()
    rows[2 * step + 88] = _DEGENERATE_TILES[second][0].entries()
    monkeypatch.setattr(cli, "enumerate_tiles", lambda gens, depth: rows)
    code, out, err = run(capsys, "tile", "--depth", "1")
    message = _scalar_images(rows, _OCTAGON)
    assert _DEGENERATE_TILES[first][1] in message
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "genus, depth, message",
    [
        (2, 9, "depth 9 spans > 1000000 candidate words for genus 2"),
        (300000, 2, "depth 2 spans > 1000000 candidate words for genus 300000"),
        (3000000, 1, "depth 1 spans > 1000000 candidate words for genus 3000000"),
        (30000, 1, "depth 1 spans > 16000000 tile corners for genus 30000"),
        (2, -1, "depth must be >= 0, got -1"),
    ],
)
def test_oversized_tiling_is_refused_before_the_group_is_built(genus, depth, message, tmp_path, monkeypatch, capsys):
    def not_built(params):
        raise AssertionError("the guard refuses before the generators and the domain are built")

    monkeypatch.setattr(cli, "make_generators", not_built)
    monkeypatch.setattr(cli, "make_fundamental_domain", not_built)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "tile", "--g", str(genus), "--depth", str(depth))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "tiling.svg").exists()


@functools.lru_cache(maxsize=None)
def _oracle_svg_lines(genus: int, depth: int) -> tuple[str, ...]:
    dom = make_fundamental_domain(TilingParams(genus))
    tiles = enumerate_tiles(make_generators(TilingParams(genus)), depth)
    return tuple(
        f'<path d="{_tile_path(dom, _as_element(row))}" fill="none" stroke="#1f3a5f" stroke-width="0.0025"/>'
        for row in tiles
    )


@pytest.mark.parametrize("genus, depth", [(2, d) for d in range(5)] + [(3, d) for d in range(4)] + [(4, d) for d in range(3)])
def test_tile_svg_is_byte_identical_to_scalar_rendering(genus, depth, tmp_path, capsys):
    out = tmp_path / "patch.svg"
    code, _, _ = run(capsys, "tile", "--g", str(genus), "--depth", str(depth), "--out", str(out))
    assert code == 0
    # breadth-first enumeration: the tiles up to any depth open the deepest list
    count = len(enumerate_tiles(make_generators(TilingParams(genus)), depth))
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.05 -1.05 2.1 2.1" width="720" height="720">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#999999" stroke-width="0.004"/>',
        *_oracle_svg_lines(genus, {2: 4, 3: 3, 4: 2}[genus])[:count],
        "</svg>",
    ]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("genus, depth", [(2, 3), (4, 1)])  # octagon and 16-gon rows
def test_tile_svg_does_not_depend_on_the_block_size(genus, depth, tmp_path, monkeypatch, capsys):
    argv = ["tile", "--g", str(genus), "--depth", str(depth), "--out"]
    assert run(capsys, *argv, str(tmp_path / "default.svg"))[0] == 0
    want = (tmp_path / "default.svg").read_bytes()
    paths = want.splitlines()[2:-1]
    assert paths == [line.encode() for line in _oracle_svg_lines(genus, {2: 4, 4: 2}[genus])[: len(paths)]]
    for block in (1, 7, len(paths) + 1):  # tiles
        monkeypatch.setattr(cli, "_SVG_BLOCK_CORNERS", block * 4 * genus)
        assert run(capsys, *argv, str(tmp_path / f"{block}.svg"))[0] == 0
        assert (tmp_path / f"{block}.svg").read_bytes() == want


def test_tile_depth_zero_single_octagon(tmp_path, capsys):
    out = tmp_path / "patch.svg"
    code, text, _ = run(capsys, "tile", "--depth", "0", "--out", str(out))
    assert code == 0 and "1 tiles" in text
    root = ET.fromstring(out.read_text())
    assert root.get("viewBox") == "-1.05 -1.05 2.1 2.1"
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(f"{ns}path")
    assert len(paths) == 1
    assert root.find(f"{ns}circle").get("r") == "1"
    d = paths[0].get("d")
    assert d.startswith("M ") and d.endswith("Z")
    assert d.count("A ") == 8  # all eight octagon edges render as arcs


def test_tile_count_matches_enumeration(tmp_path, capsys):
    out = tmp_path / "patch.svg"
    code, text, _ = run(capsys, "tile", "--g", "2", "--depth", "2", "--out", str(out))
    assert code == 0
    expected = len(enumerate_tiles(make_generators(TilingParams(2)), 2))
    root = ET.fromstring(out.read_text())
    assert len(root.findall("{http://www.w3.org/2000/svg}path")) == expected


def test_tile_rejects_bad_depth_and_path(tmp_path, capsys):
    code, _, err = run(capsys, "tile", "--depth", "-1")
    assert code == 2
    code, _, err = run(capsys, "tile", "--depth", "9")  # enumeration guard
    assert code == 2 and "depth" in err
    code, _, err = run(capsys, "tile", "--out", str(tmp_path / "missing" / "x.svg"))
    assert code == 2


# ---------------------------------------------------------------- spectrum


def test_spectrum_half_flux_single_eigenvalue(capsys):
    code, out, _ = run(capsys, "spectrum", "--B", "1/2", "--model", "reduced", "--m", "0", "--k", "0,0,0,0")
    assert code == 0
    assert len(out.split()) == 1
    float(out)  # parses as a number


def test_spectrum_block_dimension_and_order(capsys):
    for name, model in (("block-aniso", BlockAnisotropic()), ("block-iso", BlockIsotropic())):
        code, out, _ = run(capsys, "spectrum", "--B", "1/6", "--model", name)
        assert code == 0
        values = [float(line) for line in out.split()]
        assert len(values) == 24
        assert values == sorted(values)
        # the dense oracle, within 1e-12 beyond the 12-digit rounding of the print
        dense = eigenvalues(assemble_block(model, 1, 3, BlochMomentum.zero()))
        assert all(abs(v - d) <= 1e-12 + 5e-12 * abs(d) for v, d in zip(values, dense, strict=True))


@pytest.mark.parametrize("field, model, dim", [("1/4002", "reduced", 2001), ("1/2002", "block-iso", 2002)])
def test_spectrum_refuses_over_bound_dimension_before_allocating(monkeypatch, capsys, field, model, dim):
    real_zeros = np.zeros
    shapes = []

    def recording_zeros(shape, *args, **kwargs):
        shapes.append(shape)
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", recording_zeros)
    code, _, err = run(capsys, "spectrum", "--B", field, "--model", model)
    assert code == 2
    assert f"dimension {dim} exceeds the supported bound 2000" in err
    assert all(max(np.atleast_1d(shape), default=0) <= 2000 for shape in shapes)


def test_spectrum_rejects_bad_flux_and_model(capsys):
    assert run(capsys, "spectrum", "--B", "0.25")[0] == 2
    assert run(capsys, "spectrum", "--B", "1/0")[0] == 2
    assert run(capsys, "spectrum", "--B", "1/6", "--model", "nonsense")[0] == 2
    assert run(capsys, "spectrum", "--B", "1/6", "--model", "block-iso", "--m", "2")[0] == 2
    assert run(capsys, "spectrum", "--k", "1,2,3")[0] == 2


@pytest.mark.parametrize("integer, fraction", [("2", "2/1"), ("0", "0/1"), ("-1", "-1/1"), ("+3", "3/1")])
def test_spectrum_takes_an_integer_flux_as_exact(integer, fraction, capsys):
    assert run(capsys, "spectrum", f"--B={integer}") == run(capsys, "spectrum", f"--B={fraction}")
    assert run(capsys, "spectrum", f"--B={integer}")[0] == 0


def test_spectrum_refuses_a_rational_flux_too_large_for_a_float(capsys):
    code, out, err = run(capsys, "spectrum", "--B", "1" + "0" * 400 + "/3")
    assert (code, out) == (2, "")
    assert err.startswith("error: flux must be finite as a float")


# ---------------------------------------------------------------- butterfly


def test_butterfly_csv_contract(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, text, _ = run(capsys, "butterfly", "--q-max", "2", "--k-samples", "1", "--out", str(out))
    assert code == 0
    assert "3 samples, 5 rows" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,energy"
    rows = [(float(a), float(b)) for a, b in (line.split(",") for line in lines[1:])]
    assert len(rows) == 5  # sum of q over coprime pairs with q_max=2
    assert rows == sorted(rows)
    phis = sorted({phi for phi, _ in rows})
    assert max(abs(p - w) for p, w in zip(phis, [math.pi, 2 * math.pi, 3 * math.pi])) < 1e-9


def test_butterfly_streamed_rows_equal_a_global_sort(tmp_path, monkeypatch, capsys):
    # per-flux spectra with ties across momenta and both signed zeros; the
    # reference writer sorts every (phi, energy) row at once
    sweep = [
        (math.pi, np.array([[-1.5, 0.0, 2.0], [-0.0, 0.0, 2.0]])),
        (2 * math.pi, np.array([[0.0, 0.25], [-0.0, 0.25], [-3.0, 1e-300]])),
        (3 * math.pi, np.array([[-0.0, -0.0, 0.0, 7.125]])),
    ]
    monkeypatch.setattr("hyperband.cli.butterfly_sweep", lambda model, q_max, k_samples, seed: sweep)
    out = tmp_path / "streamed.csv"
    code, text, _ = run(capsys, "butterfly", "--out", str(out))
    assert code == 0 and "6 samples, 16 rows" in text
    rows = sorted((phi, float(e)) for phi, spectra in sweep for row in spectra for e in row)
    reference = "phi,energy\n" + "".join(f"{phi:.10g},{energy:.12g}\n" for phi, energy in rows)
    assert out.read_bytes() == reference.encode()
    assert b"-0\n" in out.read_bytes()


def _energy_texts(values) -> tuple[list[str], int]:
    """What `cli._energy_words` writes for each value, and how many it handed to `%`."""
    x = np.array(values, dtype=float)
    out = np.zeros(x.shape + (4,), dtype="<u8")
    scalar = cli._energy_words(x, out)
    return [words.tobytes().translate(None, b"\0").decode("ascii") for words in out], scalar


def _must_take_percent_g(x: float) -> bool:
    # non-finite, zero, a rounded exponent outside [-4, 3], or an exact tie at the twelfth digit
    if not math.isfinite(x) or x == 0.0:
        return True
    exponent = decimal.Decimal("%.12g" % x).adjusted()
    return not -4 <= exponent <= 3 or (Fraction(abs(x)) * Fraction(10) ** (11 - exponent)).denominator == 2


_POWER_NEIGHBOURS = [
    float(np.nextafter(s * float(f"1e{j}"), s * side))
    for j in range(-5, 5)
    for s in (1.0, -1.0)
    for side in (0.0, math.inf)
]
# decimal near-ties just below a decade, 99...95 10^-k: a carry to the next decade decided by a rounded product
_DECADE_TIES = [s * (10**12 - 0.5) / 10**k for k in range(8, 16) for s in (1.0, -1.0)]
# k / 2^j with 13 significant digits, the last a 5: exact ties, at exponents -4, 0 and 3
_DYADIC_TIES = [7 / 2**16, -7 / 2**16, 4097 / 2**12, 512001 / 2**9, -512001 / 2**9]
# decimal near-ties (m + 1/2) 10^-k at the twelfth digit and their neighbours, at every exponent in [-4, 3]
_TWELFTH_DIGIT_NEAR_TIES = _with_neighbours(
    [s * (m + 0.5) / 10**k for k in range(8, 16) for m in (10**11, 123456789012, 10**12 - 1) for s in (1.0, -1.0)]
)
_ENERGY = st.one_of(
    st.floats(-10, 10),  # subnormals included
    st.floats(-1e4, 1e4),
    # decimal ties (m + 1/2) 10^-k at the twelfth digit: the float sits just off the tie
    st.builds(lambda m, k, s: s * (m + 0.5) / 10**k, st.integers(10**11, 10**12 - 1), st.integers(8, 15), _SIGN),
    # dyadic values k / 2^j; those with 13 significant digits ending in 5 are exact ties
    st.builds(lambda k, j: k / 2.0**j, st.integers(-(2**26), 2**26), st.integers(9, 16)),
    st.sampled_from(_POWER_NEIGHBOURS),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENERGY, min_size=1, max_size=24))
@example([-0.0, 0.0, 1e-4, 9.99999999999995e-5, 1e-5, 9999.99999999995, 1e4, math.nan, math.inf, -math.inf])
@example(_POWER_NEIGHBOURS)
@example(_DECADE_TIES)
@example(_DYADIC_TIES + [0.5, -1.25, 3.0, 1000.0, 0.0001, 1234.5678])
@example(_TWELFTH_DIGIT_NEAR_TIES)
def test_energy_words_are_percent_twelve_g(values):
    text, scalar = _energy_texts(values)
    assert text == ["%.12g\n" % x for x in values]
    alone = [_energy_texts([x])[1] for x in values]
    assert scalar == sum(alone)
    assert all(count == 1 for x, count in zip(values, alone) if _must_take_percent_g(x))


def test_energy_words_hand_ties_zeros_and_wide_exponents_to_percent():
    assert _energy_texts(_DYADIC_TIES) == (["%.12g\n" % x for x in _DYADIC_TIES], 5)
    assert _energy_texts([0.0, -0.0, 1e-5, 1e4, math.nan]) == (["0\n", "-0\n", "1e-05\n", "10000\n", "nan\n"], 5)
    assert _energy_texts([0.5, -1.25, 3.0, 1e-4, 9999.5, -0.1]) == (
        ["0.5\n", "-1.25\n", "3\n", "0.0001\n", "9999.5\n", "-0.1\n"],
        0,
    )


def _percent_csv(sweep) -> bytes:
    """The CSV as a per-flux `%` format writes it: the reference for `cli._csv_rows`."""
    parts = ["phi,energy\n"]
    for phi, spectra in sweep:
        energies = np.sort(spectra, axis=None, kind="stable").tolist()
        parts.append((f"{phi:.10g}," + "%.12g\n") * len(energies) % tuple(energies))
    return "".join(parts).encode("ascii")


@pytest.mark.parametrize("model, m", [("reduced", 0), ("reduced", 5), ("block-aniso", None), ("block-iso", None)])
def test_butterfly_csv_is_byte_identical_to_percent_writer(model, m, tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    sector = [] if m is None else ["--m", str(m)]
    argv = ["butterfly", "--model", model, *sector, "--q-max", "12", "--k-samples", "2", "--out", str(out)]
    want = _percent_csv(butterfly_sweep(parse_model(model, m), 12, 2, 0))
    assert run(capsys, *argv)[0] == 0
    assert out.read_bytes() == want
    # a block ends after the flux that reaches `_CSV_BLOCK_ROWS` rows: one flux a block, or a few
    for rows in (1, 100):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", rows)
        assert run(capsys, *argv)[0] == 0
        assert out.read_bytes() == want


def test_butterfly_solver_failure_exits_1(tmp_path, monkeypatch, capsys):
    def no_convergence(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    code, _, err = run(capsys, "butterfly", "--q-max", "3", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert err.startswith("verification failure: eigensolver did not converge")


def test_butterfly_worker_solver_failure_on_a_later_stack_exits_1_without_file_or_thread(
    tmp_path, monkeypatch, capsys, thread_starts
):
    # reduced --q-max 30 at 2 momenta is two handoffs, so its stacks go through the worker
    import threading

    real_eigvalsh = np.linalg.eigvalsh
    calls = []

    def failing_later(a, UPLO="L"):
        calls.append(threading.current_thread())
        if len(calls) == 25:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigvalsh(a, UPLO)

    before = threading.active_count()
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_later)
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "butterfly", "--q-max", "30", "--k-samples", "2", "--out", str(out))
    assert code == 1
    assert err.startswith("verification failure: eigensolver did not converge")
    assert not out.exists()
    assert len(thread_starts) == 1 and calls[24] is thread_starts[0]
    assert threading.active_count() == before


def test_verify_spectrum_and_a_one_handoff_sweep_start_no_thread(tmp_path, capsys, thread_starts):
    assert run(capsys, "verify", "--g", "2", "--B", "1/4")[0] == 0
    assert run(capsys, "spectrum", "--B", "1/6", "--model", "block-iso")[0] == 0
    out = str(tmp_path / "b.csv")
    argv = ["butterfly", "--model", "block-aniso", "--q-max", "20", "--k-samples", "4", "--out", out]
    assert run(capsys, *argv)[0] == 0
    assert thread_starts == []
    # the count bites: a sweep of two handoffs starts its one worker
    assert run(capsys, "butterfly", "--model", "reduced", "--q-max", "30", "--k-samples", "2", "--out", out)[0] == 0
    assert len(thread_starts) == 1


def test_butterfly_failed_certificate_on_a_representative_exits_1(tmp_path, monkeypatch, capsys):
    # at q = 5 the sweep solves only the orbit representatives p = 1 and 2 and
    # derives the other six fluxes; a wrong eigenvalue of theirs is a verification failure
    real_eigvalsh = np.linalg.eigvalsh

    def duplicating(a, UPLO="L"):
        vals = real_eigvalsh(a, UPLO)
        if vals.shape[-1] == 5:
            vals[..., 2] = vals[..., 3]
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", duplicating)
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "butterfly", "--q-max", "6", "--out", str(out))
    assert code == 1
    assert err.startswith("verification failure: inertia certificate failed for eigenvalue 2 of a 5x5 matrix")
    assert not out.exists()


def test_butterfly_rejects_small_q_max_and_bad_path(tmp_path, capsys):
    assert run(capsys, "butterfly", "--q-max", "1")[0] == 2
    assert run(capsys, "butterfly", "--out", str(tmp_path / "no" / "x.csv"))[0] == 2


@pytest.mark.parametrize(
    "argv, stage",
    [(["tile", "--depth", "0"], "enumerate_tiles"), (["butterfly", "--q-max", "2", "--k-samples", "1"], "butterfly_sweep")],
    ids=["tile", "butterfly"],
)
def test_an_empty_out_is_a_usage_error_before_any_work(argv, stage, tmp_path, monkeypatch, capsys):
    # an empty path is not stdout: argparse refuses it as --out, from the flag or from a config line
    def not_run(*args):
        raise AssertionError("an empty --out is refused before any tile is enumerated or matrix solved")

    monkeypatch.setattr(cli, stage, not_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.cfg").write_text("out =\n")
    for extra in (["--out", ""], ["--out="], ["--config", "out.cfg"]):
        with pytest.raises(SystemExit) as info:
            main(argv + extra)
        assert info.value.code == 2
        assert "argument --out: expected a file name, got an empty path" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["out.cfg"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            # block-iso is charged 4 (2q)^3 per orbit {p, 2q-p} and momentum, so 128
            # momenta at q_max 21 cost what 4 momenta of 8q x 8q matrices per flux did
            ("butterfly", "--model", "block-iso", "--q-max", "21", "--k-samples", "128"),
            "sweep workload 2.25e+09 (sum of dim^3) exceeds 2.00e+09; lower q_max or k_samples",
        ),
        (("spectrum", "--B", "1/4002"), "dimension 2001 exceeds the supported bound 2000"),
    ],
)
def test_library_refusals_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    # a ValueError raised by the library reaches main unwrapped and exits 2
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- config file


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # depth is a tile key: one file may serve several subcommands
    cfg.write_text(f"# sweep setup\nq_max = 2\nk_samples = 1\nmodel = block-aniso\ndepth = 1\nout = {tmp_path / 'c.csv'}\n")
    assert run(capsys, "butterfly", "--config", str(cfg))[0] == 0
    override = tmp_path / "d.csv"
    assert run(capsys, "butterfly", "--config", str(cfg), "--out", str(override))[0] == 0
    flags = tmp_path / "f.csv"
    argv = ["butterfly", "--model", "block-aniso", "--q-max", "2", "--k-samples", "1", "--out", str(flags)]
    assert run(capsys, *argv)[0] == 0
    # the same sweep as the same flags
    assert (tmp_path / "c.csv").read_bytes() == override.read_bytes() == flags.read_bytes()


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfq_max = 4\nk_samples = 1\n")
    assert parse_config_file(str(cfg)) == {"q_max": "4", "k_samples": "1"}
    assert run(capsys, "butterfly", "--config", str(cfg), "--out", str(tmp_path / "c.csv"))[0] == 0
    assert run(capsys, "butterfly", "--q-max", "4", "--k-samples", "1", "--out", str(tmp_path / "f.csv"))[0] == 0
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()


def test_config_file_rejects_unknown_key_and_bad_syntax(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert run(capsys, "butterfly", "--config", str(bad))[0] == 2
    bad.write_text("just words\n")
    assert run(capsys, "butterfly", "--config", str(bad))[0] == 2
    assert run(capsys, "butterfly", "--config", str(tmp_path / "absent.cfg"))[0] == 2


def test_config_values_are_converted_and_reported_as_their_flags(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for command, key, flag in (("verify", "g", "--g"), ("butterfly", "q_max", "--q-max")):
        cfg.write_text(f"{key} = abc\n")
        for argv in ([command, "--config", str(cfg)], [command, flag, "abc"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert f"argument {flag}: invalid int value: 'abc'" in capsys.readouterr().err


def test_config_sector_is_refused_for_a_block_model(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("m = 3\n")
    for command in (["spectrum"], ["butterfly", "--q-max", "2", "--out", str(tmp_path / "x.csv")]):
        code, out, err = run(capsys, *command, "--config", str(cfg), "--model", "block-aniso")
        assert code == 2 and "--m selects a rotation sector" in err
    assert not (tmp_path / "x.csv").exists()


def test_config_parser_strips_comments_and_blanks(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n# top comment\ng = 3  # trailing comment\n\ndepth=1\n")
    assert parse_config_file(str(cfg)) == {"g": "3", "depth": "1"}
