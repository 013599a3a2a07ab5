"""Repeat bench/run.py over several seeds and summarise the spread.

    python3 bench/summarize.py --seeds 10 [--json out.json]

For each workload of BENCHMARK.json it runs ``bench/run.py --trace 0``
once per seed (seeds 1..N) with BENCHMARK.json's ``run_seconds``, one run
at a time, and prints for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile spread as a
share of the median, next to the metric's bound.  A failing run stops the
summary with exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload: str, seed: int, seconds: int) -> tuple[dict, float, str]:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    digest = next((ln.rsplit(" ", 1)[1] for ln in lines
                   if ln.startswith("# digest ")), "")
    return json.loads(lines[-1]), elapsed, digest


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    parser.add_argument("--json", help="write all values and summaries here")
    args = parser.parse_args()
    seeds = list(range(1, args.seeds + 1))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        elapsed, digests = [], {}
        for seed in seeds:
            result, secs, digests[seed] = run(workload, seed, spec["run_seconds"])
            elapsed.append(secs)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {secs:.1f} s  " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in bounds), flush=True)
        summary = {name: spread(v) for name, v in values.items() if len(v) >= 2}
        report[workload] = {"seeds": seeds, "elapsed_s": elapsed,
                            "digests": digests, "values": values,
                            "summary": summary}
        for name in bounds:
            if name in summary:
                s = summary[name]
                print(f"  {workload:16s} {name:12s} median {s['median']:.4g}  "
                      f"q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread "
                      f"{s['spread']:.3f}  bound {bounds[name]}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
