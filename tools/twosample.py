"""Two-sample test of the trajectory backend: a base revision against the
working tree, on the top-size oracles of the README config.

    python3 tools/twosample.py --base PARENT --shots 20000

Extracts the base revision (``git archive``) and the working tree into
temporary copies, as ``tools/ab.py`` does, and runs ``ssbv simulate`` with
the README config (n 3-10, heavy-hex-27, montreal, ur14, reduced) at
``--shots`` shots in each copy, one after the other.  The base runs with
``--seed`` and the working tree with ``--seed + 1``, so the two samples are
independent.  For each simulated (top-size) oracle it prints one JSON line:
the chi-squared statistic of the 2 x K table of outcome counts (outcomes
whose expected count is below 5 on either side pooled into one cell), its
degrees of freedom, the success probability p_s (share of shots that read
b) on each side, and the standard error of the difference of the two p_s.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab import ROOT, copy_working_tree, extract_revision  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))
from ssbv.manifest import read_manifest  # noqa: E402
from ssbv.oracles import load_counts  # noqa: E402

README_ARGS = ["--n-min", "3", "--n-max", "10", "--layout", "heavy-hex-27",
               "--profile", "montreal", "--dd", "ur14", "--collection", "reduced"]


def simulate(tree: str, out: str, shots: int, seed: int) -> dict[str, dict[str, int]]:
    """Count tables of the simulated (not derived) oracles of one README run
    in ``tree``, by oracle b."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, "-m", "ssbv.cli", "--out", out, "simulate",
                    *README_ARGS, "--shots", str(shots), "--seed", str(seed)],
                   cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    return {entry["b"]: load_counts(os.path.join(out, entry["file"])).counts
            for entry in read_manifest(os.path.join(out, "manifest.txt"))
            if entry["kind"] == "counts" and entry["derived"] == "0"}


def compare(b: str, base: dict[str, int], change: dict[str, int]) -> dict:
    nb, nc = sum(base.values()), sum(change.values())
    total = nb + nc
    cells, pooled = [], [0, 0]
    for key in sorted(set(base) | set(change)):
        ob, oc = base.get(key, 0), change.get(key, 0)
        if (ob + oc) * min(nb, nc) < 5 * total:     # an expected count below 5
            pooled[0] += ob
            pooled[1] += oc
        else:
            cells.append((ob, oc))
    if sum(pooled):
        cells.append(tuple(pooled))
    stat = sum((obs - row * (ob + oc) / total) ** 2 / (row * (ob + oc) / total)
               for ob, oc in cells for obs, row in ((ob, nb), (oc, nc)))
    df = len(cells) - 1
    ps_b, ps_c = base.get(b, 0) / nb, change.get(b, 0) / nc
    se = math.sqrt(ps_b * (1 - ps_b) / nb + ps_c * (1 - ps_c) / nc)
    return {"b": b, "chi2": round(stat, 2), "df": df, "ps_base": ps_b, "ps_change": ps_c, "se_diff": round(se, 5)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree against")
    parser.add_argument("--shots", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="twosample-") as tmp:
        trees = {"base": os.path.join(tmp, "base"),
                 "change": os.path.join(tmp, "change")}
        extract_revision(args.base, trees["base"])
        copy_working_tree(trees["change"])
        tables = {side: simulate(tree, os.path.join(tmp, side + "-run"), args.shots,
                                 args.seed + (side == "change"))
                  for side, tree in trees.items()}
    for b in sorted(tables["base"], key=lambda s: (s.count("1"), s)):
        print(json.dumps(compare(b, tables["base"][b], tables["change"][b])),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
