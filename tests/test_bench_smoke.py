"""The benchmark's smoke mode runs and still finds every traced metric."""
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
