"""Whole `hyperband` runs: verdicts over genera, fields and seeds, spectra against each other, tile path counts,
and the same output bytes through a pipe, under another hash seed and at another BLAS thread count.

The `output` fixture runs each command through `cli.main` in this process once, on first use; the child processes
run `write_outputs` on the same names in directories of their own.
"""

import contextlib
import filecmp
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from hyperband.cli import main

_SWEEP = ["--q-max", "12", "--k-samples", "2"]
# the commands whose output must not depend on the hash seed, by the name of that output
_HASH_SEED_COMMANDS = {
    "verify-g5-quarter.txt": ["verify", "--g", "5", "--B", "1/4", "--seed", "0"],
    "verify-g5-0.37.txt": ["verify", "--g", "5", "--B", "0.37", "--seed", "4"],  # a field that is not dyadic
    **{f"{model}.csv": ["butterfly", "--model", model, *_SWEEP] for model in ("reduced", "block-aniso", "block-iso")},
    "reduced-m5.csv": ["butterfly", "--model", "reduced", "--m", "5", *_SWEEP],
    # octagon and 16-gon rows (64 edge slots)
    **{f"g{g}-d{d}.svg": ["tile", "--g", str(g), "--depth", str(d)] for g, d in ((2, 4), (4, 4), (2, 6))},
}
# each command whose output a test reads
_COMMANDS = {
    **_HASH_SEED_COMMANDS,
    "reduced-q30.csv": ["butterfly", "--model", "reduced", "--q-max", "30", "--k-samples", "2"],
    "block-aniso-q20-k4.csv": ["butterfly", "--model", "block-aniso", "--q-max", "20", "--k-samples", "4"],
    # four handoffs and one worker; seed 0 is the momentum (0, 0, 0, 0)
    "reduced-q40-k1.csv": ["butterfly", "--model", "reduced", "--q-max", "40", "--k-samples", "1", "--seed", "0"],
    **{f"g{g}-d{d}.svg": ["tile", "--g", str(g), "--depth", str(d)] for g, d in ((2, 5), (3, 5), (100, 1))},
}
# solved on the LAPACK worker thread (reduced, block-iso) or inline (block-aniso at one handoff)
_BLAS_OUTPUTS = ["reduced-q30.csv", "block-iso.csv", "block-aniso-q20-k4.csv"]


def write_outputs(directory: str, names) -> None:
    """Run each named command through `cli.main`; its --out, or verify's stdout, is `directory/name`."""
    for name in names:
        argv, path = _COMMANDS[name], os.path.join(directory, name)
        verify = argv[0] == "verify"
        with open(path if verify else os.devnull, "w") as fh, contextlib.redirect_stdout(fh):
            code = main(argv if verify else [*argv, "--out", path])
        assert code == 0, f"{name}: exit {code}"


def _child_outputs(directory: str, names, env: dict[str, str]) -> None:
    """`write_outputs` in a child process with the environment `env`."""
    module = Path(__file__)
    env = dict(env, PYTHONPATH=os.pathsep.join([str(module.parent), env["PYTHONPATH"]]))
    program = f"import sys, {module.stem}; {module.stem}.write_outputs(sys.argv[1], sys.argv[2:])"
    result = subprocess.run([sys.executable, "-c", program, directory, *names], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def output():
    """`output(name)`: the path of that command's output, written by this process on first use."""
    with tempfile.TemporaryDirectory() as directory:

        def path(name: str) -> Path:
            target = Path(directory, name)
            if not target.exists():
                write_outputs(directory, [name])
            return target

        yield path


@pytest.fixture(scope="module")
def other_hash_seed(subprocess_env):
    """The outputs of `_HASH_SEED_COMMANDS`, written by one child under another hash seed than this process's."""
    # 0 turns hash randomization off; unset or "random", this process drew its seed at random
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    with tempfile.TemporaryDirectory() as directory:
        _child_outputs(directory, list(_HASH_SEED_COMMANDS), dict(subprocess_env, PYTHONHASHSEED=seed))
        yield Path(directory)


@pytest.fixture(scope="module")
def blas_threads(subprocess_env):
    """The outputs of `_BLAS_OUTPUTS`, written by two children, at 1 and at 2 OpenBLAS threads."""
    with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as two:
        for threads, directory in (("1", one), ("2", two)):
            _child_outputs(directory, _BLAS_OUTPUTS, dict(subprocess_env, OPENBLAS_NUM_THREADS=threads))
        yield Path(one), Path(two)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------- verify


@pytest.mark.parametrize(
    "args",
    [
        "--g 3 --B 1/3",
        "--g 8",
        "--g 12",  # the largest genus at which every line passes: a 48-letter relation word
        "--g 2 --tol hermiticity=1e-6",
        # the stacked sector build past q = 5: p/q = 5/6 and 3/7
        "--B 5/12",
        "--B 3/14",
        "--B 101/104",  # p/q = 101/52, where LAPACK fails on the bare scaled Harper core
        *(f"--g {g} --seed {seed}" for g in (2, 5, 8) for seed in range(10)),
    ],
)
def test_verify_passes_every_line(args, capsys):
    code, out = run(capsys, "verify", *args.split())
    lines = out.splitlines()
    assert (code, len(lines)) == (0, 12) and all(line.startswith("PASS ") for line in lines), out


@pytest.mark.parametrize("field", ["1/2", "3/4"])
def test_verify_hermiticity_defect_is_zero_where_the_block_cycle_wraps(field, capsys):
    # p/q = 1/1 and 3/2: the block cycle wraps onto itself, and the block is exactly Hermitian
    code, out = run(capsys, "verify", "--B", field)
    assert code == 0
    assert any(line.startswith("PASS lattice hermiticity      defect 0.000e+00 ") for line in out.splitlines())


def test_an_overflowing_field_fails_the_flux_relation_alone(capsys):
    code, out = run(capsys, "verify", "--g", "2", "--B", "1e200")
    lines = out.splitlines()
    assert code == 1
    assert [line.split("  ")[0] for line in lines if line.startswith("FAIL")] == ["FAIL flux relation"]
    # the algebra lines take no field, so their residuals are exact at any field
    algebra = re.compile(r"PASS (operator commutators|hamiltonian symmetry|hamiltonian forms) +defect 0\.000e\+00 ")
    assert sum(bool(algebra.match(line)) for line in lines) == 3


# ---------------------------------------------------------------- spectrum and butterfly


@pytest.mark.parametrize("field, k", [("3/14", "0.3,1.1,2.5,4.0"), ("5/12", "0.3,1.1,2.5,4.0"), ("1/6", "0,0,0,0")])
def test_block_aniso_prints_the_eight_sector_spectra_merged(field, k, capsys):
    # at 5/12 (p/q = 5/6) each sector is shifted from the orbit representative r = 1, not p
    sectors = []
    for m in range(8):
        code, out = run(capsys, "spectrum", "--B", field, "--m", str(m), "--k", k)
        assert code == 0
        sectors += out.splitlines(keepends=True)
    code, out = run(capsys, "spectrum", "--B", field, "--model", "block-aniso", "--k", k)
    # merged as `sort -g` merges: by value, then by text
    assert code == 0 and out == "".join(sorted(sectors, key=lambda line: (float(line), line)))


@pytest.mark.parametrize("p, q, field", [(3, 37, "3/74"), (40, 39, "20/39")])
def test_rows_solved_on_the_worker_equal_spectrum(p, q, field, output, capsys):
    prefix = "%.10g," % (2.0 * math.pi * p / q)
    csv = output("reduced-q40-k1.csv").read_text().splitlines()
    rows = [line[len(prefix) :] + "\n" for line in csv if line.startswith(prefix)]
    code, out = run(capsys, "spectrum", "--B", field)
    assert code == 0 and len(rows) == q and "".join(rows) == out


# ---------------------------------------------------------------- tile


@pytest.mark.parametrize(
    "name, paths",
    [
        ("g2-d5.svg", 22289),
        ("g4-d4.svg", 57857),
        ("g2-d6.svg", 155577),  # many enumeration chunks per level and many corner blocks
        # admitted extremes that no corner check precedes: the deepest genus-3 tiling, 401 tiles of 400 corners each
        ("g3-d5.svg", 193261),
        ("g100-d1.svg", 401),
    ],
)
def test_tile_writes_one_path_per_tile(name, paths, output):
    with open(output(name), "rb") as fh:
        assert sum(b"<path" in line for line in fh) == paths


def test_a_pipe_that_out_names_gets_the_file_bytes_then_the_report(output, subprocess_env):
    argv = [*_COMMANDS["g2-d5.svg"], "--out", "/dev/stdout"]
    result = subprocess.run([sys.executable, "-m", "hyperband", *argv], env=subprocess_env, capture_output=True)
    assert result.returncode == 0
    assert result.stdout == output("g2-d5.svg").read_bytes() + b"wrote /dev/stdout: 22289 tiles (genus 2, depth 5)\n"


# ---------------------------------------------------------------- the same bytes in another process


@pytest.mark.parametrize("name", list(_HASH_SEED_COMMANDS))
def test_output_does_not_depend_on_the_hash_seed(name, output, other_hash_seed):
    assert filecmp.cmp(output(name), other_hash_seed / name, shallow=False)


@pytest.mark.parametrize("name", _BLAS_OUTPUTS)
def test_sweep_does_not_depend_on_the_blas_thread_count(name, blas_threads):
    one, two = blas_threads
    assert filecmp.cmp(one / name, two / name, shallow=False)
