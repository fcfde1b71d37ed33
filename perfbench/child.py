"""One benchmark sample: a fresh interpreter that runs the hyperband CLI once.

    python3 child.py SPAWN_NS REPORT.json [--trace SPANS.json] -- ARGV...

SPAWN_NS is CLOCK_MONOTONIC in ns, read by the parent just before it started
this process, so setup_s covers interpreter start and `import hyperband.cli`.
The CLI's own stdout and stderr pass through untouched; the measurements go
to REPORT.json: setup_s, wall_s (time of `hyperband.cli.main(argv)`),
exit code, peak RSS, and the time of a fixed reference computation run just
before and just after `main` (ref_before_s, ref_after_s), which tells the
benchmark how fast the machine was while this sample ran.
"""

import sys
import time

import hyperband.cli

_imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (after the timed import on purpose)
import resource  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    VmHWM belongs to the address space made by exec.  ru_maxrss is only the
    fallback: after the parent's vfork it also carries the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_s() -> float:
    """Seconds taken by a fixed computation that uses no hyperband code.

    Half is complex arithmetic in a Python loop, like the Moebius step loops;
    half is eigvalsh of a small Hermitian matrix, like the sweeps.
    """
    import numpy as np

    start = time.perf_counter()
    z = 0.3 + 0.5j
    for _ in range(800_000):
        z = (0.9 * z + 0.1j) / (0.05j * z + 1.0)
    n = np.arange(48)
    h = np.diag(2.0 * np.cos(0.3 * n)) + np.roll(np.eye(48), 1, axis=0) * (0.5 + 0.5j)
    h = h + h.conj().T
    for _ in range(1000):
        np.linalg.eigvalsh(h)
    return time.perf_counter() - start


def main() -> None:
    spawn_ns, report_path, *rest = sys.argv[1:]
    split = rest.index("--")
    flags, argv = rest[:split], rest[split + 1 :]
    report = {"setup_s": (_imported_ns - int(spawn_ns)) / 1e9, "ref_before_s": reference_s()}
    tracer = None
    if flags[:1] == ["--trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        rc = hyperband.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # any crash is a failed sample, not a failed benchmark
        traceback.print_exc()
        rc = 99
    report["wall_s"] = time.perf_counter() - start
    report["rc"] = rc
    report["ref_after_s"] = reference_s()
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(flags[1])
    report["peak_rss_mb"] = peak_rss_mb()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
