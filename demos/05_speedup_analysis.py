"""End-to-end desk-scale speedup analysis.

Runs the full pipeline (route, decouple, simulate, bootstrap, fit) over a
small size range, with and without DD, and compares the fitted exponent of
log2 TTS against the classical baseline's asymptotic exponent of 1.
Writes plot files and, when matplotlib is present, a summary figure.
"""
import os
import tempfile

from ssbv import ExperimentConfig, cmd_analyze, cmd_simulate

SIZES = (3, 10)
SHOTS = 400

results = {}
with tempfile.TemporaryDirectory(prefix="ssbv-demo-") as tmp:
    for dd in ("none", "ur14"):
        cfg = ExperimentConfig(n_min=SIZES[0], n_max=SIZES[1], shots=SHOTS,
                               layout="heavy-hex-27", profile="montreal",
                               collection="reduced", dd=dd, master_seed=2024,
                               bootstrap_b=50)
        out = os.path.join(tmp, dd)
        cmd_simulate(cfg, out)
        results[dd] = cmd_analyze(cfg, out)
        print(f"[{dd}] results under {out}")

for dd, res in results.items():
    print(f"\n--- dd = {dd} ---")
    for p in res.points:
        label = "terminated" if p.terminated else f"{p.tts_mean*1e6:9.2f} us"
        print(f"  n={p.n:2d}  TTS = {label}")
    if res.fit is not None:
        f = res.fit
        print(f"  worst-case exponent = {f.exponent:.3f} "
              f"[{f.ci_low:.3f}, {f.ci_high:.3f}]")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for dd, res in results.items():
        finite = [p for p in res.points if p.finite]
        ax.semilogy([p.n for p in finite], [p.tts_mean for p in finite],
                    "o-", label=f"dd={dd}")
    classical = results["none"].classical
    ax.semilogy([p.n for p in classical], [p.tts_mean for p in classical],
                "k--", label="classical baseline")
    ax.set_xlabel("problem size n")
    ax.set_ylabel("TTS (s)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("speedup_demo.png", dpi=120)
    print("\nwrote speedup_demo.png")
except ImportError:
    print("\nmatplotlib not installed; skipped the figure")
