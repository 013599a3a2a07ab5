"""Alternated A/B benchmark of a base revision against the working tree.

    python3 tools/ab.py --base PARENT --pairs 10 --out BENCH_6.json

Extracts the base revision (``git archive``) and the working tree (tracked
and untracked, not ignored, files as they are on disk) into temporary
copies.  For each of N pairs and each workload of BENCHMARK.json it runs

    python3 bench/run.py --workload W --seed 1 --seconds S --trace 0

(S is BENCHMARK.json's ``run_seconds``) once in each copy, one run at a
time.  The order inside a pair alternates (base first in even pairs,
change first in odd ones), so a drift of the host's speed falls on both
sides.  The JSON written to ``--out`` holds, per workload and end-to-end
metric, every value, the median and the quartiles from
``statistics.quantiles(values, n=4)`` of each side, the relative change of
the medians, and the number of pairs the change won; plus each side's
digests and failed-operation counts, and ``outputs_identical``: every run
of both sides printed one and the same digest.  Each metric also gets the
acceptance verdict: ``within_bound`` when the change median is no worse
than the base median by more than the metric's ``bound`` (relative), and
``claim_met`` when the change won at least 9 in 10 of the pairs and its
median is better than the base median by more than the base IQR.  One
summary line per workload names the metrics outside their bound and those
whose claim is met, and says whether the outputs were identical.  Exit
code 1 when a run fails its own output checks.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def extract_revision(rev: str, dest: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest: str) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in filter(None, listed.decode().split("\0")):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):       # deleted but not yet staged
            continue
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=3600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        raise SystemExit(f"{tree}: {workload} printed no result") from None
    result["digest"] = next((ln.rsplit(" ", 1)[1] for ln in lines
                             if ln.startswith("# digest ")), "")
    result["env"] = next((json.loads(ln[len("# env "):]) for ln in lines
                          if ln.startswith("# env ")), {})
    result["exit"] = done.returncode
    result["elapsed_s"] = perf_counter() - t0
    return result


def side_summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def verdict(m: dict, b: dict, c: dict, wins: int, pairs: int) -> dict:
    """Acceptance fields of one metric from both sides' summaries."""
    sign = 1 if m["better"] == "lower" else -1
    gain = sign * (b["median"] - c["median"])      # > 0: the change is better
    bound = m.get("bound")
    return {"within_bound": None if bound is None
            else -gain <= bound * abs(b["median"]),
            "claim_met": 10 * wins >= 9 * pairs and gain > b["iqr"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree against")
    parser.add_argument("--out", required=True, help="JSON report to write")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = {w: {"base": [], "change": []} for w in workloads}

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"base": os.path.join(tmp, "base"),
                 "change": os.path.join(tmp, "change")}
        extract_revision(args.base, trees["base"])
        copy_working_tree(trees["change"])
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in workloads:
                for side in order:
                    result = run_bench(trees[side], workload, args.seed,
                                       spec["run_seconds"])
                    runs[workload][side].append(result)
                    print(f"pair {i} {workload} {side}: {result['elapsed_s']:.0f} s "
                          + "  ".join(f"{k}={v['value']:.4g}"
                                      for k, v in result["metrics"].items()),
                          flush=True)

    report = {
        "base": args.base,
        "base_commit": git("rev-parse", args.base).decode().strip(),
        "change": "working tree",
        "pairs": args.pairs,
        "command": ["python3", "bench/run.py", "--workload", "W", "--seed",
                    str(args.seed), "--seconds", str(spec["run_seconds"]),
                    "--trace", "0"],
        "host": runs[workloads[0]]["base"][0]["env"],
        "workloads": {},
    }
    ok = True
    for workload, sides in runs.items():
        entry = {"digests": {s: sorted({r["digest"] for r in rs})
                             for s, rs in sides.items()},
                 "failed": {s: [r["failed"] for r in rs] for s, rs in sides.items()},
                 "attempted": {s: [r["attempted"] for r in rs]
                               for s, rs in sides.items()},
                 "metrics": {}}
        entry["outputs_identical"] = (len(entry["digests"]["base"]) == 1 and
                                      entry["digests"]["base"] ==
                                      entry["digests"]["change"])
        ok &= all(r["exit"] == 0 for rs in sides.values() for r in rs)
        for name, m in metrics.items():
            base = [r["metrics"][name]["value"] for r in sides["base"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            lower = m["better"] == "lower"
            wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
            b, c = side_summary(base), side_summary(change)
            entry["metrics"][name] = {
                "unit": m["unit"], "better": m["better"], "bound": m.get("bound"),
                "base": b, "change": c,
                "relative_change": (c["median"] - b["median"]) / b["median"],
                "change_wins": wins,
                **verdict(m, b, c, wins, args.pairs),
            }
            print(f"{workload:16s} {name:12s} {b['median']:.4g} -> {c['median']:.4g} "
                  f"({entry['metrics'][name]['relative_change']:+.1%}, "
                  f"base IQR {b['iqr']:.3g}, change better {wins}/{args.pairs})")
        report["workloads"][workload] = entry
        verdicts = entry["metrics"]
        outside = [k for k, v in verdicts.items() if v["within_bound"] is False]
        claimed = [k for k, v in verdicts.items() if v["claim_met"]]
        print(f"{workload}: outside bound: {', '.join(outside) or 'none'}; "
              f"claim met: {', '.join(claimed) or 'none'}; outputs identical: "
              f"{'yes' if entry['outputs_identical'] else 'no'}; failed runs "
              f"{sum(map(bool, entry['failed']['base']))} base, "
              f"{sum(map(bool, entry['failed']['change']))} change")
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
