"""Span tracing for the benchmark's traced run.

Each public function of a package layer is wrapped where the calling code
looks it up (a module global), one span per call: name, parent, start and
end.  Spans stay in memory and are written out when the run ends.  Nothing
under ``src/`` is modified: the wrappers are installed with ``setattr`` for
the duration of one traced pass and removed afterwards, so untraced passes
run the original functions.
"""
from __future__ import annotations

import inspect
import json
import os
import re
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import ssbv
from ssbv import _kernels, decoupling, experiment, routing, simulator

# (module, attribute) lookup sites -> span name.  experiment.py imports these
# by name, so they are wrapped in its namespace; the exact-reference workload
# calls routing, decoupling and simulator functions itself, through their
# own modules.
_SITES = [
    (experiment, "cmd_simulate", "experiment.cmd_simulate"),
    (experiment, "cmd_analyze", "experiment.cmd_analyze"),
    (experiment, "simulate_shots", "trajectory.simulate_shots"),
    (experiment, "route_bv", "routing.route_bv"),
    (experiment, "embed_oracle", "routing.embed_oracle"),
    (experiment, "schedule_dd", "decoupling.schedule_dd"),
    (experiment, "reduce_counts", "oracles.reduce_counts"),
    (experiment, "save_counts", "oracles.save_counts"),
    (experiment, "load_counts", "oracles.load_counts"),
    (experiment, "bootstrap_tts", "analysis.bootstrap_tts"),
    (experiment, "bootstrap_lambda", "analysis.bootstrap_lambda"),
    (experiment, "append_file_entry", "manifest.append_file_entry"),
    (experiment, "append_entry", "manifest.append_entry"),
    (experiment, "start_manifest", "manifest.start_manifest"),
    (experiment, "read_manifest", "manifest.read_manifest"),
    (simulator, "compile_program", "compile.compile_program"),
    (simulator, "simulate_shots", "trajectory.simulate_shots"),
    (simulator, "simulate_exact", "exact.simulate_exact"),
    (routing, "route_bv", "routing.route_bv"),
    (routing, "embed_oracle", "routing.embed_oracle"),
    (decoupling, "schedule_dd", "decoupling.schedule_dd"),
]


def kernel_names() -> list[str]:
    """Kernels are the names simulator.py calls as ``ker.<name>``.

    Only these dispatch wrappers are traced, never the ``np_*`` functions
    behind them, so each kernel call is counted once.
    """
    source = inspect.getsource(simulator)
    names = sorted(set(re.findall(r"\bker\.([A-Za-z_][A-Za-z0-9_]*)\(", source)))
    return [n for n in names if callable(getattr(_kernels, n, None))]


class Tracer:
    """In-memory span recorder plus the counters observed at each boundary."""

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, parent, start, end]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.state_bytes_max = 0
        self.oracles_routed: set[tuple[int, str]] = set()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            span = [name, parent, perf_counter(), None]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return traced

    # -- installation -----------------------------------------------------

    @contextmanager
    def active(self):
        """Wrap every lookup site that exists; restore them on exit."""
        saved = []
        for module, attr, name in _SITES:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, _OBSERVERS.get(name)))
        for kname in kernel_names():
            fn = getattr(_kernels, kname)
            saved.append((_kernels, kname, fn))
            setattr(_kernels, kname,
                    self.wrap(f"kernels.{kname}", fn, _kernel_observer(kname)))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- aggregation ------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: total time, calls and self time (time minus the
        time of direct children)."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: list[float] = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent is not None:
                child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        for (name, _, t0, t1), c in zip(self.spans, child):
            self_s[name] += (t1 - t0) - c
        return total, calls, self_s

    def layer_metrics(self, simulate_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced pass (see bench/README.md)."""
        total, calls, self_s = self.totals()
        c = self.counts
        m: dict[str, float] = {}
        k_s = k_bytes = 0.0
        for kname in kernel_names():
            key = f"kernels.{kname}"
            m[f"{key}.calls"] = calls.get(key, 0)
            m[f"{key}.s"] = total.get(key, 0.0)
            m[f"{key}.bytes"] = c[f"{key}.bytes"]
            k_s += m[f"{key}.s"]
            k_bytes += m[f"{key}.bytes"]
        m["kernels.s"] = k_s
        m["kernels.bytes"] = k_bytes
        m["kernels.gbps"] = k_bytes / k_s / 1e9 if k_s > 0 else 0.0
        m["kernels.share"] = k_s / simulate_s if simulate_s > 0 else 0.0

        m["compile.s"] = total.get("compile.compile_program", 0.0)
        m["compile.calls"] = calls.get("compile.compile_program", 0)
        m["compile.ops"] = c["compile.ops"]
        for kind in _OP_KINDS:
            m[f"compile.ops.{kind}"] = c[f"compile.ops.{kind}"]

        m["trajectory.s"] = total.get("trajectory.simulate_shots", 0.0)
        m["trajectory.self_s"] = self_s.get("trajectory.simulate_shots", 0.0)
        m["trajectory.calls"] = calls.get("trajectory.simulate_shots", 0)
        m["trajectory.shots"] = c["trajectory.shots"]
        m["trajectory.state_bytes_max"] = self.state_bytes_max

        m["exact.s"] = total.get("exact.simulate_exact", 0.0)
        m["exact.calls"] = calls.get("exact.simulate_exact", 0)
        m["exact.ops"] = c["exact.ops"]

        m["analysis.bootstrap_tts_s"] = total.get("analysis.bootstrap_tts", 0.0)
        m["analysis.bootstrap_lambda_s"] = total.get("analysis.bootstrap_lambda", 0.0)
        m["analysis.resamples"] = c["analysis.resamples"]
        m["analysis.kept_frac"] = (c["analysis.kept"] / c["analysis.tts_resamples"]
                                   if c["analysis.tts_resamples"] else 0.0)

        route_calls = calls.get("routing.route_bv", 0)
        m["routing.s"] = (total.get("routing.route_bv", 0.0)
                          + total.get("routing.embed_oracle", 0.0))
        m["routing.calls"] = route_calls
        m["routing.cnots"] = c["routing.cnots"]
        m["routing.unique_frac"] = (len(self.oracles_routed) / route_calls
                                    if route_calls else 0.0)

        m["decoupling.s"] = total.get("decoupling.schedule_dd", 0.0)
        m["decoupling.calls"] = calls.get("decoupling.schedule_dd", 0)
        m["decoupling.pulses"] = c["decoupling.pulses"]

        m["oracles.reduce_s"] = total.get("oracles.reduce_counts", 0.0)
        m["oracles.io_s"] = (total.get("oracles.save_counts", 0.0)
                             + total.get("oracles.load_counts", 0.0))
        m["oracles.io_bytes"] = c["oracles.io_bytes"]
        m["manifest.s"] = sum(v for k, v in total.items() if k.startswith("manifest."))
        m["manifest.entries"] = (calls.get("manifest.append_entry", 0)
                                 + calls.get("manifest.append_file_entry", 0))

        m["experiment.simulate_self_s"] = self_s.get("experiment.cmd_simulate", 0.0)
        m["experiment.analyze_self_s"] = self_s.get("experiment.cmd_analyze", 0.0)
        m["trace.spans"] = len(self.spans)
        return m

    def write_spans(self, fh, pass_index: int) -> None:
        for sid, (name, parent, t0, t1) in enumerate(self.spans):
            fh.write(json.dumps([pass_index, sid, parent, name, t0, t1]) + "\n")


_OP_KINDS = ("u1", "cnot", "dep1", "dep2", "deph", "damp", "detune", "zz")


# -- counters observed at each boundary ---------------------------------------
# Observers run after the span closes, so their cost lands in the parent's
# self time, never in the layer they describe.

def _kernel_observer(kname: str):
    def observe(tr: Tracer, args, kwargs, result) -> None:
        state = args[0]
        if kname.endswith("_rows"):
            rows = args[1]
            nbytes = len(rows) * state.shape[1] * state.itemsize
        else:
            nbytes = state.nbytes
        # Computed, not measured: the bytes of the state rows the call
        # touches, counted once per call.
        tr.counts[f"kernels.{kname}.bytes"] += nbytes
        if tr.parent_name() == "trajectory.simulate_shots":
            tr.state_bytes_max = max(tr.state_bytes_max, state.nbytes)
    return observe


def _observe_compile(tr: Tracer, args, kwargs, program) -> None:
    tr.counts["compile.ops"] += len(program.ops)
    for op in program.ops:
        tr.counts[f"compile.ops.{op.kind}"] += 1
    if tr.parent_name() == "exact.simulate_exact":
        tr.counts["exact.ops"] += len(program.ops)


def _observe_shots(tr: Tracer, args, kwargs, table) -> None:
    plan = args[3] if len(args) > 3 else kwargs["plan"]
    tr.counts["trajectory.shots"] += plan.shots


def _observe_route(tr: Tracer, args, kwargs, routed) -> None:
    spec = args[0]
    tr.counts["routing.cnots"] += routed.cnot_count
    tr.oracles_routed.add((spec.n, spec.b.to01()))


def _observe_dd(tr: Tracer, args, kwargs, circuit) -> None:
    before = sum(1 for ev in args[0].events
                 if ev.kind is ssbv.GateKind.PHASED_PI)
    after = sum(1 for ev in circuit.events if ev.kind is ssbv.GateKind.PHASED_PI)
    tr.counts["decoupling.pulses"] += after - before


def _observe_bootstrap_tts(tr: Tracer, args, kwargs, result) -> None:
    b = args[2].bootstrap_b
    tr.counts["analysis.resamples"] += b
    tr.counts["analysis.tts_resamples"] += b
    tr.counts["analysis.kept"] += len(result[1])


def _observe_bootstrap_lambda(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["analysis.resamples"] += args[2].bootstrap_b


def _observe_save(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["oracles.io_bytes"] += os.path.getsize(args[1])


def _observe_load(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["oracles.io_bytes"] += os.path.getsize(args[0])


_OBSERVERS = {
    "compile.compile_program": _observe_compile,
    "trajectory.simulate_shots": _observe_shots,
    "routing.route_bv": _observe_route,
    "decoupling.schedule_dd": _observe_dd,
    "analysis.bootstrap_tts": _observe_bootstrap_tts,
    "analysis.bootstrap_lambda": _observe_bootstrap_lambda,
    "oracles.save_counts": _observe_save,
    "oracles.load_counts": _observe_load,
}
