"""ssbv benchmark: one workload per invocation, against the public API.

    python3 bench/run.py --workload readme-reduced --seed 7 --seconds 45 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  A run measures set-up in fresh processes,
makes one untimed warm-up pass, then repeats the workload with the same
seed for about ``--seconds`` (at least twice) and reports medians.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced passes interleaved with untraced ones.  The
last line of standard output is one JSON object; the exit code is 1 when
any output check fails.  ``--smoke`` runs every workload at toy size in
both modes and checks that every metric named in BENCHMARK.json is
emitted as a finite number with its unit, or is absent because its kernel
no longer exists.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 7
MIN_PASSES = 2          # untraced; a traced run makes at least U, T, T

# setup_s: a fresh interpreter imports ssbv, loads the profile and resolves
# the layout; interpreter start-up itself is not counted.
_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import ssbv
import workloads
workloads.resolve({name!r}, smoke={smoke!r})
print(repr(time.perf_counter() - t0))
"""


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc, for this process and its children only."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(min(max(want, 1), nproc))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_package():
    sys.path[:0] = [SRC, BENCH]
    import ssbv
    where = os.path.abspath(ssbv.__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"ssbv imported from {where}, not from {SRC}")
    return ssbv


def setup_probe(name: str, smoke: bool) -> float:
    code = _PROBE.format(src=SRC, bench=BENCH, name=name, smoke=smoke)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def _cache_bytes(level: int) -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, entry, "type")) as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            return int(size.rstrip("KMG")) * scale
    except OSError:
        return None
    return None


def environment(blas_threads: int) -> dict:
    import numpy

    import workloads
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    cpu = ln.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    readme = workloads.readme_config(0, smoke=False)
    state = (1 << (readme.n_max + 1)) * readme.shots * 16
    l2 = _cache_bytes(2)
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "l2_bytes": l2,
        "l3_bytes": _cache_bytes(3), "numpy": numpy.__version__,
        "numba_imports": numba_imports, "blas_threads": blas_threads,
        "readme_state_bytes_per_batch": state,
        "readme_state_over_l2": state / l2 if l2 else None,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one workload; returns (metrics, attempted, failed, notes)."""
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    metrics: dict[str, float | None] = {}
    notes: list[str] = []
    # Set-up probes are spread over the run, one before the warm-up and one
    # after each pass, because the machine's speed drifts over seconds.
    probes: list[float] = []

    def probe() -> None:
        if not trace:
            probes.append(setup_probe(name, smoke))

    try:
        probe()
        # The first full-size pass in a process runs markedly slower than
        # the rest (8-10 s against about 6 s for readme-reduced on a 2-core
        # Xeon), so it is a warm-up: its outputs are checked, including the
        # noiseless checks, but it is not timed.
        warm = workloads.run_pass(name, seed, work, smoke=smoke, full_checks=True)

        # Passes repeat while the next one is expected to end within
        # `seconds`; the median pass time so far is the estimate.
        passes, tracers = [], []
        start = perf_counter()
        while (len(passes) < (3 if trace else MIN_PASSES)
               or perf_counter() - start + statistics.median(
                   p.wall_s for p in passes) <= seconds):
            i = len(passes)
            tracer = None
            if trace and (i in (1, 2) or i >= 3 and i % 2 == 0):
                tracer = tracing.Tracer()
            result = workloads.run_pass(
                name, seed, work, smoke=smoke, full_checks=False,
                timed=tracer.active if tracer is not None else nullcontext)
            passes.append(result)
            tracers.append(tracer)
            probe()
        while len(probes) < (3 if smoke else SETUP_PROBES) and not trace:
            probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = [warm] + passes
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    for i, p in enumerate(everything):
        notes += [f"FAIL pass {i}: {what}" for what in p.problems]
    digests = {p.digest for p in everything}
    if len(digests) != 1:
        notes.append(f"FAIL digest differs between passes of one seed: {sorted(digests)}")
    notes.append(f"digest {name} seed {seed}: {warm.digest}")

    plain = [p for p, t in zip(passes, tracers) if t is None]
    traced = [(p, t) for p, t in zip(passes, tracers) if t is not None]
    notes.append(f"warm-up wall_s {warm.wall_s:.3f}; {len(passes)} timed passes "
                 f"({len(traced)} traced), wall_s each: "
                 + " ".join(f"{p.wall_s:.3f}" for p in passes))
    if not trace:
        metrics["setup_s"] = statistics.median(probes)
        metrics["wall_s"] = statistics.median(p.wall_s for p in plain)
        metrics["simulate_s"] = statistics.median(p.simulate_s for p in plain)
        metrics["analyze_s"] = (None if plain[0].analyze_s is None else
                                statistics.median(p.analyze_s for p in plain))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["failed_frac"] = failed / attempted
        return metrics, attempted, failed, notes

    per_pass = [t.layer_metrics(p.simulate_s) for p, t in traced]
    for key in per_pass[0]:
        metrics[key] = statistics.median(m.get(key, 0.0) for m in per_pass)
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p, _ in traced)
                                   - statistics.median(p.wall_s for p in plain))
    with open(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"), "w") as fh:
        for i, (_, t) in enumerate(traced):
            t.write_spans(fh, i)
    notes.append("kernels.*.bytes are computed (state rows each call touches), "
                 "not measured")
    return metrics, attempted, failed, notes + _count_repeats(per_pass)


def _count_repeats(per_pass: list[dict]) -> list[str]:
    """Counts (calls, ops, bytes, pulses, ...) must repeat exactly."""
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    bad = [key for key, unit in units.items() if unit in ("count", "B")
           and len({m.get(key) for m in per_pass}) != 1]
    if bad:
        return [f"FAIL counts differ between traced passes: {bad}"]
    return [f"counts repeat exactly across {len(per_pass)} traced passes"]


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def emit(metrics: dict, trace: bool) -> tuple[dict, list[str]]:
    """Select the BENCHMARK.json metrics; names with no value are absent."""
    wanted = load_spec()["per_layer" if trace else "end_to_end"]
    out, absent = {}, []
    for m in wanted:
        value = metrics.get(m["name"])
        if value is None:
            absent.append(m["name"])
        else:
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out, absent


def print_human(metrics: dict, emitted: dict, absent: list[str]) -> None:
    units = {"analyze_s": "s", "failed_frac": "ratio"}
    for key, value in metrics.items():
        unit = emitted[key]["unit"] if key in emitted else units.get(key, "-")
        if value is None:
            print(f"  {key:36s} {'absent':>14s}")
        else:
            print(f"  {key:36s} {value:14.6g} {unit}")
    for key in absent:
        if key not in metrics:
            print(f"  {key:36s} {'absent':>14s}")


def run_one(args) -> int:
    blas = cap_blas_threads()
    import_package()
    print("# env " + json.dumps(environment(blas)))
    metrics, attempted, failed, notes = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    emitted, absent = emit(metrics, bool(args.trace))
    for note in notes:
        print("# " + note)
        if note.startswith("FAIL"):
            print(note, file=sys.stderr)
    print_human(metrics, emitted, absent)
    correct = failed == 0 and not any(n.startswith("FAIL") for n in notes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": emitted}))
    return 0 if correct else 1


def run_smoke() -> int:
    cap_blas_threads()
    import_package()
    import tracing
    import workloads
    # A metric may be absent only when its kernel no longer exists.
    kernels = set(tracing.kernel_names())
    bad = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            metrics, attempted, failed, notes = measure(name, 1, 0.0, trace,
                                                        smoke=True)
            emitted, absent = emit(metrics, trace)
            for key, m in emitted.items():
                if not math.isfinite(m["value"]):
                    bad.append(f"{name} trace={int(trace)}: {key} = {m['value']}")
            for key in absent:
                parts = key.split(".")
                if not (parts[0] == "kernels" and len(parts) == 3
                        and parts[1] not in kernels):
                    bad.append(f"{name} trace={int(trace)}: {key} not emitted")
            bad += [f"{name} trace={int(trace)}: {n}" for n in notes
                    if n.startswith("FAIL")]
            if failed:
                bad.append(f"{name} trace={int(trace)}: {failed}/{attempted} failed")
            print(f"smoke {name} trace={int(trace)}: {len(emitted)} metrics, "
                  f"{len(absent)} absent, {attempted} ops, {failed} failed")
    for b in bad:
        print("FAIL " + b)
    print("smoke: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("readme-reduced",
                                               "exact-reference"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
