"""The benchmark's smoke mode runs and still finds every traced metric, and
a real run ends its output with its JSON result."""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_emits_every_metric():
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("smoke ")]
    assert lines
    for line in lines:
        assert " 0 absent," in line, line


def test_bench_run_prints_one_json_result():
    # the last line of standard output is the run's one JSON result
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           "--workload", "exact-reference", "--seed", "1",
                           "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert isinstance(result, dict)
    assert result["correct"] is True
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = [m["name"] for m in json.load(fh)["end_to_end"]]
    for name in wanted:
        assert math.isfinite(result["metrics"][name]["value"]), name
