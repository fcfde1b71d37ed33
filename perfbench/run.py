#!/usr/bin/env python3
"""Benchmark of the hyperband CLI: cold runs, oracle-checked outputs, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run it from the root of a source checkout; nothing needs installing.  Each
sample is a fresh interpreter (`perfbench/child.py`) that imports
`hyperband.cli` from `src/` and calls `main(argv)` once, the way a CLI user
pays for it.  One child runs at a time and BLAS keeps its default threading.
Every sample's output is judged outside the timed region by `oracles.py`,
which does not import the library, and all samples of a run must produce the
same bytes.  A mismatch counts as a failed sample.

--trace 0 reports the end-to-end metrics wall_s, setup_s and peak_rss_mb
(medians over the samples).  wall_s and setup_s are scaled to a reference
machine speed: each sample also times a fixed reference computation just
before and after `main`, and its times are multiplied by REFERENCE_S over
that.  The raw medians are in the report and in --out.  --trace 1 alternates plain and traced samples
and reports the per-layer metrics of `tracing.LAYER_METRICS`, including the
tracing overhead.  `--workload all` runs every workload in turn.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

MIN_PLAIN_SAMPLES = 3  # a median of three; two or more also test byte determinism
IMPORT_PROBES = 3  # `-X importtime` children per traced run
RUN_CAP_S = 170.0  # a run must end within 180 s whatever --seconds says

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Time of child.reference_s() at the reference speed: about its median on
# the 2-vCPU machine where the recorded results were taken.  A shared host's speed
# drifts by up to 1.7x over seconds and minutes, and the two vCPUs drift
# independently; a sample's time over the reference computation's time in
# the same process, moments apart, cancels most of that.
REFERENCE_S = 0.45


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list[str]]  # benchmark seed -> CLI argv
    output: Optional[str]  # file the CLI writes in its working directory; None means stdout
    judge: Callable[[int], Callable[[bytes], list[str]]]  # seed -> output bytes -> problems


# The butterfly --seed fast-forwards scipy's Halton engine, which generates
# and drops every skipped point: time and memory grow linearly with the seed
# (about 11 GB at seed 3.5e8).  The benchmark therefore passes the benchmark
# seed modulo this many, so any seed gives a run that measures the sweep
# itself.  Fast-forward cost is a program defect left for a later change.
PROGRAM_SEEDS = 1000


def _butterfly(model: str, q_max: int, k_samples: int) -> tuple:
    def argv(seed: int) -> list[str]:
        return ["butterfly", "--model", model, "--q-max", str(q_max), "--k-samples", str(k_samples),
                "--seed", str(seed % PROGRAM_SEEDS), "--out", "out.csv"]

    def judge(seed: int):
        expected = oracles.butterfly_expected(model, q_max, k_samples, seed % PROGRAM_SEEDS)
        return lambda data: oracles.check_butterfly(expected, data)

    return argv, "out.csv", judge


# verify's cost depends on its random sample points (the s_phase step loop
# scales with orbit radius): over program seeds 0-9 the command takes 1.6 to
# 3.3 s, a spread no bound could hold.  Its program seed is therefore fixed,
# like tile's depth, and the benchmark seed does not change its input.
VERIFY_PROGRAM_SEED = 0

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "butterfly-reduced",
            "4406 q x q matrices (q <= 60), 176922 CSV rows: per-matrix Python overhead in spectrum and CLI sort/CSV writing",
            *_butterfly("reduced", 60, 2),
        ),
        Workload(
            "butterfly-block",
            "1020 dense 8q x 8q matrices (dim <= 160), 111648 rows: eigh-bound, where the Harper-core-plus-shift kernel shows",
            *_butterfly("block-aniso", 20, 4),
        ),
        Workload(
            "verify-g5",
            "verify at genus 5: almost all magnetic.s_phase and its moebius_act step loop, no spectrum; fixed program seed 0",
            lambda seed: ["verify", "--g", "5", "--B", "1/4", "--seed", str(VERIFY_PROGRAM_SEED)],
            None,
            lambda seed: lambda data: oracles.check_verify(5, Fraction(1, 4), data.decode("utf-8", "replace")),
        ),
        Workload(
            "tile-g2-d5",
            "genus-2 tiling to depth 5, 22289 tiles: the only workload reaching tiling (dedup probes) and SVG rendering",
            lambda seed: ["tile", "--g", "2", "--depth", "5", "--out", "out.svg"],
            "out.svg",
            lambda seed: lambda data: oracles.check_tile(2, 5, data),
        ),
    )
}


# ---------------------------------------------------------------- children


@dataclass
class Sample:
    mode: str  # "plain" or "trace"
    rc: int
    elapsed_s: float  # parent-side, spawn to exit
    setup_s: float = float("nan")
    wall_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    ref_before_s: float = float("nan")
    ref_after_s: float = float("nan")
    output: bytes = b""
    stderr: str = ""
    dump: Optional[dict] = None
    problems: list[str] = field(default_factory=list)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.output).hexdigest()

    def scaled(self, name: str) -> float:
        """A time of this sample at the reference speed."""
        return getattr(self, name) * REFERENCE_S * 2.0 / (self.ref_before_s + self.ref_after_s)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(workdir: Path, argv: list[str], mode: str, output: Optional[str], timeout: float) -> Sample:
    """Start one child, wait for it, and collect its measurements."""
    report, spans = workdir / "report.json", workdir / "spans.json"
    for stale in (report, spans, *([workdir / output] if output else [])):
        stale.unlink(missing_ok=True)
    flags = ["--trace", str(spans)] if mode == "trace" else []
    spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(CHILD), str(spawn), str(report), *flags, "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=child_env(), capture_output=True, timeout=timeout)
        rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        rc, stdout, stderr = -9, exc.stdout or b"", (exc.stderr or b"") + b"\n(timed out)"
    sample = Sample(mode, rc, (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawn) / 1e9,
                    stderr=stderr.decode("utf-8", "replace"))
    if report.exists():
        for key, value in json.loads(report.read_text()).items():
            setattr(sample, key, value)
    if mode == "trace" and spans.exists():
        sample.dump = json.loads(spans.read_text())
    if output is None:
        sample.output = stdout
    elif (workdir / output).exists():
        sample.output = (workdir / output).read_bytes()
    return sample


def import_self_times(timeout: float) -> dict[str, float]:
    """Self import time per top-level package from one `-X importtime` child."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hyperband.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    totals = {"numpy": 0.0, "scipy": 0.0, "hyperband": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        package = name.split(".")[0]
        if package in totals and self_us.isdigit():
            totals[package] += int(self_us) / 1e6
    return totals


# ---------------------------------------------------------------- environment


def blas_threads() -> Optional[int]:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---------------------------------------------------------------- one workload


def judge_samples(samples: list[Sample], judge: Callable[[bytes], list[str]]) -> None:
    """Exit code, oracle (once per distinct output), and byte determinism."""
    verdicts: dict[str, list[str]] = {}
    first = samples[0].sha256
    for s in samples:
        if s.rc != 0:
            s.problems = [f"exit code {s.rc}: {s.stderr.strip()[-400:]}"]
            continue
        if s.sha256 not in verdicts:
            verdicts[s.sha256] = judge(s.output)
        s.problems = list(verdicts[s.sha256])
        if s.sha256 != first:
            s.problems.append("output bytes differ from the first sample's")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline, hard_stop = start + seconds, start + RUN_CAP_S
    argv = wl.argv(seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)

        def child(mode: str) -> Sample:
            return run_child(workdir, argv, mode, wl.output, max(1.0, hard_stop - time.monotonic()))

        imports = []
        if trace:
            imports = [import_self_times(max(1.0, hard_stop - time.monotonic())) for _ in range(IMPORT_PROBES)]
        samples: list[Sample] = []
        modes = itertools.cycle(["plain", "trace"] if trace else ["plain"])
        while True:
            last = child(next(modes))
            samples.append(last)
            if last.rc == -9:  # killed at the hard stop
                break
            if last.setup_s != last.setup_s:  # NaN: the child never got past the import
                raise SystemExit(f"error: cannot import hyperband.cli from {SRC}:\n{last.stderr}")
            plain = sum(s.mode == "plain" for s in samples)
            enough = len(samples) >= 2 if trace else plain >= MIN_PLAIN_SAMPLES
            next_end = time.monotonic() + statistics.median(s.elapsed_s for s in samples)
            if (enough and next_end > deadline) or next_end > hard_stop:
                break
        judge_samples(samples, wl.judge(seed))  # after the samples: the oracle's BLAS threads stay out of them
    return summarize(wl, seed, argv, samples, imports, time.monotonic() - start)


def median_of(values, median=statistics.median) -> float:
    values = [v for v in values if v == v]  # drop NaN from children that never reported
    return median(values) if values else float("nan")


def summarize(wl: Workload, seed: int, argv: list[str], samples: list[Sample], imports: list[dict], run_s: float) -> dict:
    plain = [s for s in samples if s.mode == "plain"]
    traced = [s for s in samples if s.mode == "trace"]
    failed = sum(bool(s.problems) for s in samples)
    result = {
        "workload": wl.name,
        "why": wl.why,
        "argv": argv,
        "env": environment(seed),
        "run_s": run_s,
        "attempted": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
        "sha256": sorted({s.sha256 for s in samples}),
        "samples": [
            {"mode": s.mode, "rc": s.rc, "setup_s": s.setup_s, "wall_s": s.wall_s, "peak_rss_mb": s.peak_rss_mb,
             "ref_before_s": s.ref_before_s, "ref_after_s": s.ref_after_s, "elapsed_s": s.elapsed_s,
             "sha256": s.sha256, "problems": s.problems}
            for s in samples
        ],
        "metrics": {
            name: {"value": median_of(s.scaled(name) if unit == "s" else getattr(s, name) for s in plain),
                   "unit": unit, "n": len(plain)}
            for name, unit in E2E_UNITS.items()
        },
        "raw": {name: median_of(getattr(s, name) for s in plain) for name in ("wall_s", "setup_s", "ref_before_s", "ref_after_s")},
    }
    if traced:
        result["layers"], result["absent"], result["self_times"] = layer_summary(wl, plain, traced, imports)
    return result


def worst_defect_ratio(stdout: bytes) -> float:
    try:
        return oracles.worst_defect_ratio(stdout.decode("utf-8", "replace"))
    except ValueError:  # malformed output; the oracle has already failed the sample
        return float("nan")


def layer_summary(wl: Workload, plain: list[Sample], traced: list[Sample], imports: list[dict]):
    per_sample, absent = [], set()
    for s in traced:
        if s.dump is None:
            continue
        values, missing = tracing.layer_metrics(s.dump)
        per_sample.append(values)
        absent |= missing
    output = traced[0].output
    extra = {
        "cli.rows": output.count(b"\n") - 1 if wl.output and wl.output.endswith(".csv") else 0,
        "cli.out_bytes": len(output),
        "cli.verify.worst_defect_ratio": worst_defect_ratio(output) if wl.output is None else 0.0,
        "setup.import.numpy_s": median_of(i["numpy"] for i in imports),
        "setup.import.scipy_s": median_of(i["scipy"] for i in imports),
        "setup.import.hyperband_s": median_of(i["hyperband"] for i in imports),
        "trace.overhead_s": median_of(s.scaled("wall_s") for s in traced) - median_of(s.scaled("wall_s") for s in plain),
    }
    layers = {}
    for m in tracing.LAYER_METRICS:
        # median_low keeps a count an integer that repeats exactly across runs
        value = extra[m.name] if m.name in extra else median_of((v[m.name] for v in per_sample), statistics.median_low)
        layers[m.name] = {"value": value, "unit": m.unit, "n": len(per_sample) if m.name not in extra else None}
    absent_metrics = sorted(m.name for m in tracing.LAYER_METRICS if any(src in absent for src in m.sources))
    self_times = tracing.span_table(traced[0].dump) if traced[0].dump else {}
    return layers, absent_metrics, self_times


# ---------------------------------------------------------------- report


def print_report(result: dict, trace: bool) -> None:
    env = result["env"]
    print(f"== {result['workload']}: {' '.join(result['argv'])}")
    print(f"   seed {env['seed']}  commit {env['commit']}  nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  blas {env['blas']} threads {env['blas_threads']} "
          f"(env {env['blas_thread_env']})")
    for name, m in result["metrics"].items():
        raw = f"  (unscaled {result['raw'][name]:.4f} s)" if name in result["raw"] else ""
        print(f"   {name:<13s} {m['value']:12.4f} {m['unit']:<3s} median of {m['n']} cold plain samples{raw}")
    print(f"   {'reference':<13s} {result['raw']['ref_before_s']:12.4f} s   median before main, "
          f"{result['raw']['ref_after_s']:.4f} s after; {REFERENCE_S} s is the reference speed")
    print(f"   {'failed_frac':<13s} {result['failed_frac']:12.4f}     {result['failed']} of {result['attempted']} samples")
    print(f"   output sha256 {', '.join(result['sha256'])}")
    for s in result["samples"]:
        for problem in s["problems"]:
            print(f"   FAILED ({s['mode']} sample): {problem}")
    if trace and "layers" in result:
        absent = set(result["absent"])
        targets = {m.name: m.target for m in tracing.LAYER_METRICS}
        for name, m in result["layers"].items():
            shown = "absent" if name in absent else f"{m['value']:.6g}"
            print(f"   {name:<34s} {shown:>14s} {m['unit']:<5s} -> {targets[name]}")
        print(f"   {'span':<30s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}")
        for name, row in sorted(result["self_times"].items()):
            print(f"   {name:<30s} {row['calls']:9d} {row['total_s']:9.4f} {row['self_s']:9.4f}")


def result_line(results: list[dict], trace: bool) -> dict:
    """The final JSON line.  A value that could not be measured (every sample
    of its kind failed) prints as 0 to keep the line valid JSON; such a run
    always reports failures."""
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        source = r.get("layers", {}) if trace else r["metrics"]
        for name, m in source.items():
            value = m["value"] if math.isfinite(m["value"]) else 0.0
            metrics[prefix + name] = {"value": value, "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results, environment included, as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "hyperband" / "cli.py").is_file():
        print(f"error: no hyperband sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception: run() kills and reaps the running
    # child and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)))
        print_report(results[-1], bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps({"trace": args.trace, "runs": results}, indent=1) + "\n")
    print(json.dumps(result_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
