"""Outside-in tracing of the hyperband layers.

`Tracer.install()` runs inside the traced child.  It replaces public
functions of `halfplane`, `tiling`, `magnetic`, `spectrum` and `cli` at the
module attribute where the calling code looks each one up, so the library
itself is not edited.  Layer boundaries get spans (name, start, end, parent,
plus the hot counters at both ends) kept in memory and written out once at
the end; the hot `halfplane` functions get bare counters, because a span per
call would cost more than the call.  A target that no longer exists is
recorded as absent and its metrics read as absent; the run goes on.

`layer_metrics()` runs in the benchmark process and turns a dump into the
per-layer metrics listed in `LAYER_METRICS`.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass

# span name -> (module, attribute) lookups it wraps
SPANS = {
    "spectrum.butterfly_sweep": [("hyperband.cli", "butterfly_sweep")],
    "spectrum.assemble": [
        ("hyperband.spectrum", "assemble"),
        ("hyperband.cli", "assemble"),
        ("hyperband.cli", "assemble_reduced"),
        ("hyperband.cli", "assemble_block"),
    ],
    "spectrum.eigenvalues": [("hyperband.spectrum", "eigenvalues"), ("hyperband.cli", "eigenvalues")],
    "spectrum.eigh": [("numpy.linalg", "eigh")],
    "magnetic.s_phase": [("hyperband.magnetic", "s_phase")],
    "magnetic.flux_relation_phase": [("hyperband.cli", "flux_relation_phase")],
    "magnetic.algebra": [
        ("hyperband.cli", "commutator_residual"),
        ("hyperband.cli", "hamiltonian_commutation_residual"),
        ("hyperband.cli", "hamiltonian_forms_residual"),
    ],
    "tiling.enumerate_tiles": [("hyperband.cli", "enumerate_tiles")],
    "cli.render_svg": [("hyperband.cli", "render_tiling_svg")],
}
# counter name -> lookups; the library modules are where the hot loops call them
COUNTERS = {
    "moebius": [("hyperband.magnetic", "moebius_act"), ("hyperband.tiling", "moebius_act")],
    "psl2": [("hyperband.tiling", "psl2_distance")],
}
_COMMAND_TABLE = ("hyperband.cli", "_COMMANDS")  # subcommand dispatch, one span each


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    target: str  # the end-to-end metric and workload(s) it should move
    sources: tuple[str, ...]  # spans/counters it is read from


LAYER_METRICS = (
    LayerMetric("halfplane.moebius_act.calls", "count", "lower", "wall_s on verify-g5 and tile-g2-d5", ("moebius",)),
    LayerMetric("halfplane.psl2_distance.calls", "count", "lower", "wall_s on tile-g2-d5", ("psl2",)),
    LayerMetric("magnetic.s_phase.s", "s", "lower", "wall_s on verify-g5", ("magnetic.s_phase",)),
    LayerMetric("magnetic.s_phase.calls", "count", "lower", "wall_s on verify-g5", ("magnetic.s_phase",)),
    LayerMetric("magnetic.moebius_per_s_phase", "ratio", "lower", "wall_s on verify-g5", ("magnetic.s_phase", "moebius")),
    LayerMetric("magnetic.flux_relation_phase.s", "s", "lower", "wall_s on verify-g5", ("magnetic.flux_relation_phase",)),
    LayerMetric("magnetic.algebra.s", "s", "lower", "wall_s on verify-g5 (predicted unchanged by the s_phase closed form)", ("magnetic.algebra",)),
    LayerMetric("tiling.enumerate_tiles.s", "s", "lower", "wall_s on tile-g2-d5", ("tiling.enumerate_tiles",)),
    LayerMetric("tiling.tiles", "count", "higher", "wall_s on tile-g2-d5 (work done; fixed at 22289)", ("tiling.enumerate_tiles",)),
    LayerMetric("tiling.probes_per_tile", "ratio", "lower", "wall_s on tile-g2-d5", ("tiling.enumerate_tiles", "psl2")),
    LayerMetric("spectrum.assemble.s", "s", "lower", "wall_s on butterfly-reduced and butterfly-block", ("spectrum.assemble",)),
    LayerMetric("spectrum.eigh.s", "s", "lower", "wall_s on butterfly-block and butterfly-reduced", ("spectrum.eigh",)),
    LayerMetric("spectrum.certificate.s", "s", "lower", "wall_s on butterfly-reduced and butterfly-block", ("spectrum.eigenvalues",)),
    LayerMetric("spectrum.matrices", "count", "lower", "wall_s on butterfly-block", ("spectrum.eigenvalues",)),
    LayerMetric("spectrum.max_dim", "count", "lower", "wall_s on butterfly-block", ("spectrum.eigenvalues",)),
    LayerMetric("spectrum.dim3_sum", "count", "lower", "wall_s on butterfly-block", ("spectrum.eigenvalues",)),
    LayerMetric("spectrum.butterfly_sweep.self_s", "s", "lower", "wall_s and peak_rss_mb on butterfly-reduced", ("spectrum.butterfly_sweep",)),
    LayerMetric("cli.csv.s", "s", "lower", "wall_s on butterfly-reduced", ("cli.command.butterfly",)),
    LayerMetric("cli.rows", "count", "higher", "wall_s on butterfly-reduced (work done; fixed per workload)", ()),
    LayerMetric("cli.out_bytes", "B", "lower", "wall_s on butterfly-reduced", ()),
    LayerMetric("cli.render_svg.self_s", "s", "lower", "wall_s on tile-g2-d5", ("cli.render_svg",)),
    LayerMetric("cli.verify.worst_defect_ratio", "ratio", "lower", "correctness margin on verify-g5; must stay below 1", ()),
    LayerMetric("setup.import.numpy_s", "s", "lower", "setup_s on every workload", ()),
    LayerMetric("setup.import.scipy_s", "s", "lower", "setup_s on every workload", ()),
    LayerMetric("setup.import.hyperband_s", "s", "lower", "setup_s on every workload", ()),
    LayerMetric("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s of the same workload", ()),
)


class Tracer:
    """Spans and counters for one traced CLI run."""

    def __init__(self):
        # span: [name, parent index, start ns, end ns, counters at start, counters at end, extra]
        self.spans: list[list] = []
        self.counts = {name: 0 for name in COUNTERS}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _snapshot(self) -> list[int]:
        return [self.counts[name] for name in COUNTERS]

    def spanned(self, name, fn, extra=None):
        spans, stack, snapshot, clock = self.spans, self._stack, self._snapshot, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, snapshot(), None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                rec[5] = snapshot()
            if extra is not None:
                rec[6] = extra(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        extras = {"spectrum.eigenvalues": _dimension, "tiling.enumerate_tiles": lambda args, result: len(result)}
        for name, lookups in SPANS.items():
            for module, attr in lookups:
                self._wrap(module, attr, lambda fn, n=name: self.spanned(n, fn, extras.get(n)))
        for name, lookups in COUNTERS.items():
            for module, attr in lookups:
                self._wrap(module, attr, lambda fn, n=name: self.counted(n, fn))
        table = _lookup(*_COMMAND_TABLE)
        if isinstance(table, dict):
            for command, fn in list(table.items()):
                table[command] = self.spanned(f"cli.command.{command}", fn)
        else:
            self.absent.append(".".join(_COMMAND_TABLE))

    def _wrap(self, module: str, attr: str, make) -> None:
        fn = _lookup(module, attr)
        if callable(fn):
            setattr(importlib.import_module(module), attr, make(fn))
        else:
            self.absent.append(f"{module}.{attr}")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": list(COUNTERS), "counts": self.counts, "absent": self.absent}, fh)


def _lookup(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def _dimension(args, result) -> int:
    h = args[0] if args else None
    shape = getattr(getattr(h, "entries", h), "shape", None)
    return int(shape[0]) if shape else 0


def span_table(dump: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds (minus direct children)."""
    spans = dump["spans"]
    child_ns = [0] * len(spans)
    for name, parent, start, end, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for i, (name, _, start, end, *_) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[i]) / 1e9
    return table


def layer_metrics(dump: dict) -> tuple[dict[str, float], set[str]]:
    """Per-layer values from one traced run, and the names of absent sources.

    Metrics not read from spans (rows, bytes, verify margin, import times,
    overhead) are filled in by the caller.
    """
    spans, counters = dump["spans"], dump["counters"]
    table = span_table(dump)

    def total(name, key="total_s"):
        return table.get(name, {}).get(key, 0)

    def counter_delta(name, counter):
        i = counters.index(counter)
        return sum(s[5][i] - s[4][i] for s in spans if s[0] == name)

    def extras(name):
        return [s[6] for s in spans if s[0] == name and s[6] is not None]  # None: the call raised

    s_phase_calls = total("magnetic.s_phase", "calls")
    tiles = sum(extras("tiling.enumerate_tiles"))
    dims = extras("spectrum.eigenvalues")
    values = {
        "halfplane.moebius_act.calls": dump["counts"]["moebius"],
        "halfplane.psl2_distance.calls": dump["counts"]["psl2"],
        "magnetic.s_phase.s": total("magnetic.s_phase"),
        "magnetic.s_phase.calls": s_phase_calls,
        "magnetic.moebius_per_s_phase": counter_delta("magnetic.s_phase", "moebius") / s_phase_calls if s_phase_calls else 0.0,
        "magnetic.flux_relation_phase.s": total("magnetic.flux_relation_phase"),
        "magnetic.algebra.s": total("magnetic.algebra"),
        "tiling.enumerate_tiles.s": total("tiling.enumerate_tiles"),
        "tiling.tiles": tiles,
        "tiling.probes_per_tile": counter_delta("tiling.enumerate_tiles", "psl2") / tiles if tiles else 0.0,
        "spectrum.assemble.s": total("spectrum.assemble"),
        "spectrum.eigh.s": total("spectrum.eigh"),
        "spectrum.certificate.s": total("spectrum.eigenvalues", "self_s"),
        "spectrum.matrices": len(dims),
        "spectrum.max_dim": max(dims, default=0),
        "spectrum.dim3_sum": sum(d**3 for d in dims),
        "spectrum.butterfly_sweep.self_s": total("spectrum.butterfly_sweep", "self_s"),
        "cli.csv.s": total("cli.command.butterfly", "self_s"),
        "cli.render_svg.self_s": total("cli.render_svg", "self_s"),
    }
    absent_lookups = set(dump["absent"])
    absent_sources = {
        name
        for name, lookups in (*SPANS.items(), *COUNTERS.items())
        if all(f"{m}.{a}" in absent_lookups for m, a in lookups)
    }
    if ".".join(_COMMAND_TABLE) in absent_lookups:
        absent_sources.add("cli.command.butterfly")
    return values, absent_sources
