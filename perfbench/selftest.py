#!/usr/bin/env python3
"""Self-test of the benchmark's output checks at tiny sizes.

    python3 perfbench/selftest.py

Runs the CLI once per case (from `src/`, as the benchmark does), shows that
the oracle accepts the clean output, then feeds corrupted copies through the
same judging code the benchmark uses and shows each one counted as a failed
sample: a perturbed CSV energy, a dropped SVG path, a FAIL line, a wrong
printed phase, and output bytes that differ between two samples.  It also
checks that BENCHMARK.json lists the workloads and per-layer metrics this
directory implements, and that a large benchmark seed reaches the butterfly
CLI reduced below run.PROGRAM_SEEDS.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import oracles
import run
import tracing


def perturb_energy(data: bytes) -> bytes:
    """Shift one mid-file energy by 1e-9, about 100 units in its last printed digit."""
    lines = data.decode().split("\n")
    i = len(lines) // 2
    phi, energy = lines[i].split(",")
    lines[i] = f"{phi},{float(energy) + 1e-9:.12g}"
    return "\n".join(lines).encode()


def drop_path(data: bytes) -> bytes:
    lines = data.decode().split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("<path"))
    return "\n".join(lines[:i] + lines[i + 1 :]).encode()


def fail_line(data: bytes) -> bytes:
    return data.replace(b"PASS", b"FAIL", 1)


def wrong_phase(data: bytes) -> bytes:
    return re.sub(rb"phase (\S+)", b"phase -1+0j", data, count=1)


def trailing_space(data: bytes) -> bytes:
    return data[:-1] + b" \n"


CASES = [
    ("butterfly reduced", ["butterfly", "--model", "reduced", "--q-max", "6", "--k-samples", "2", "--seed", "5",
                           "--out", "out.csv"], "out.csv",
     lambda data: oracles.check_butterfly(oracles.butterfly_expected("reduced", 6, 2, 5), data),
     [perturb_energy]),
    ("butterfly block-aniso", ["butterfly", "--model", "block-aniso", "--q-max", "3", "--k-samples", "2",
                               "--seed", "1", "--out", "out.csv"], "out.csv",
     lambda data: oracles.check_butterfly(oracles.butterfly_expected("block-aniso", 3, 2, 1), data),
     [perturb_energy]),
    ("verify g2", ["verify", "--g", "2", "--B", "1/3", "--seed", "1"], None,
     lambda data: oracles.check_verify(2, Fraction(1, 3), data.decode()),
     [fail_line, wrong_phase]),
    ("tile g2 d2", ["tile", "--g", "2", "--depth", "2", "--out", "out.svg"], "out.svg",
     lambda data: oracles.check_tile(2, 2, data),
     [drop_path]),
]


def failed(samples: list[run.Sample], judge) -> int:
    run.judge_samples(samples, judge)
    return sum(bool(s.problems) for s in samples)


def check_benchmark_json(errors: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if workloads != {w.name: w.why for w in run.WORKLOADS.values()}:
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layers != [(m.name, m.unit, m.better) for m in tracing.LAYER_METRICS]:
        errors.append("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.E2E_UNITS:
        errors.append("BENCHMARK.json end_to_end differs from run.E2E_UNITS")


def main() -> int:
    errors: list[str] = []
    if oracles.surface_ball_size(2, 5) != 22289:
        errors.append("growth series does not give 22289 tiles at g=2, depth 5")
    check_benchmark_json(errors)
    for name in ("butterfly-reduced", "butterfly-block"):  # a large seed must not reach the Halton fast-forward
        argv = run.WORKLOADS[name].argv(346747834)
        if not 0 <= int(argv[argv.index("--seed") + 1]) < run.PROGRAM_SEEDS:
            errors.append(f"{name}: benchmark seed passed to the CLI unreduced")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for name, argv, output, judge, corruptions in CASES:
            clean = run.run_child(Path(tmp), argv, "plain", output, timeout=120)
            n_failed = failed([clean], judge)
            print(f"{name:<22s} clean output             failed {n_failed}/1  {clean.problems}")
            if n_failed:
                errors.append(f"{name}: clean output rejected")
            for corrupt in corruptions:
                bad = dataclasses.replace(clean, output=corrupt(clean.output))
                n_failed = failed([bad], judge)
                print(f"{name:<22s} {corrupt.__name__:<24s} failed {n_failed}/1  {bad.problems}")
                if n_failed != 1:
                    errors.append(f"{name}: {corrupt.__name__} not counted as a failure")
            # determinism alone: a judge that accepts anything still fails a second sample with other bytes
            pair = [clean, dataclasses.replace(clean, output=trailing_space(clean.output))]
            n_failed = failed(pair, lambda data: [])
            print(f"{name:<22s} {'bytes differ':<24s} failed {n_failed}/2  {pair[1].problems}")
            if n_failed != 1 or not pair[1].problems:
                errors.append(f"{name}: differing output bytes not counted as one failure")
    for error in errors:
        print(f"SELF-TEST ERROR: {error}")
    print("self-test", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
