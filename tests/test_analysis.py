import math

import numpy as np
import pytest

from ssbv import analysis
from ssbv.analysis import (LAMBDA_CI_SIGMA, AnalysisConfig, FitResult, TTSPoint,
                           bootstrap_lambda, bootstrap_tts, bqp_verdict,
                           classical_points, mean_tts, repetitions,
                           speedup_ratio, tts_classical, tts_quantum,
                           worst_case_lambda)
from ssbv.circuit import Bitstring, DurationModel
from ssbv.oracles import OracleSpec, ShotTable

MONTREAL_MODEL = DurationModel(0.40e-6, 5.28e-6)
CONFIG = AnalysisConfig()
P_D = CONFIG.p_d


def make_points(ns, tts):
    return [TTSPoint(n, t, t, t, 1) for n, t in zip(ns, tts)]


def brute_force_worst_lambda(ns, tts, u, n_min=3):
    """Independent oracle: enumerate every window by direct lstsq."""
    ns = np.asarray(ns, float)
    logt = np.log2(tts)
    best = None
    for l in range(n_min, u - 1):
        sel = (ns >= l) & (ns <= u)
        if sel.sum() < 2:
            continue
        a = np.vstack([ns[sel], np.ones(int(sel.sum()))]).T
        slope = np.linalg.lstsq(a, logt[sel], rcond=None)[0][0]
        best = slope if best is None else max(best, slope)
    return best


def test_success_prob_examples():
    spec = OracleSpec.representative(3, 3)
    full = ShotTable(spec, {"111": 1000}, 1000)
    assert full.success_prob() == 1.0
    mixed = ShotTable(spec, {"111": 599, "000": 401}, 1000)
    assert mixed.success_prob() == pytest.approx(0.599)
    none = ShotTable(spec, {"000": 1000}, 1000)
    assert none.success_prob() == 0.0


def test_repetitions_edges_and_value():
    assert repetitions(0.99, 0.99) == 1.0
    r = repetitions(0.5, 0.99)
    assert r == pytest.approx(math.log(0.01) / math.log(0.5), abs=1e-12)
    assert r == pytest.approx(6.6439, abs=1e-4)
    assert repetitions(0.0, 0.99) == math.inf
    assert repetitions(1.0, 0.99) == 1.0


def test_repetitions_monotone_in_success():
    grid = np.linspace(0.01, 0.99, 50)
    values = [repetitions(p, 0.99) for p in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_tts_quantum_examples():
    assert tts_quantum(10, 1.0, MONTREAL_MODEL, P_D) == pytest.approx(9.28e-6)
    want = 9.28e-6 * math.log(0.01) / math.log(0.5)
    assert tts_quantum(10, 0.5, MONTREAL_MODEL, P_D) == pytest.approx(want)
    assert tts_quantum(10, 0.5, MONTREAL_MODEL, P_D) == pytest.approx(61.66e-6, rel=1e-3)
    assert math.isinf(tts_quantum(10, 0.0, MONTREAL_MODEL, P_D))


def test_tts_classical_values_and_asymptote():
    assert tts_classical(1, P_D) == pytest.approx(1e-6)
    # independent evaluation at n=10
    want = 10e-6 * math.log(0.01) / math.log(1 - 2.0 ** -9)
    assert tts_classical(10, P_D) == pytest.approx(want, rel=1e-12)
    for n in range(10, 31):
        asym = n * 2.0 ** (n - 1) * math.log(100) * 1e-6
        assert tts_classical(n, P_D) == pytest.approx(asym, rel=0.01)
    ratio = tts_classical(31, P_D) / tts_classical(30, P_D)
    assert ratio == pytest.approx(2 * 31 / 30, rel=1e-6)


def test_classical_log_increment_approaches_one():
    incs = [math.log2(tts_classical(n + 1, P_D) / tts_classical(n, P_D))
            for n in range(20, 40)]
    assert all(a >= b for a, b in zip(incs, incs[1:]))
    assert incs[-1] == pytest.approx(1.0, abs=0.04)


def test_mean_tts():
    assert mean_tts([10e-6], 5).tts_mean == pytest.approx(10e-6)
    assert mean_tts([10e-6, 30e-6], 5).tts_mean == pytest.approx(20e-6)
    point = mean_tts([10e-6, math.inf], 5)
    assert point.terminated


def test_bootstrap_zero_width_at_certainty():
    spec = OracleSpec.representative(4, 2)
    tables = [ShotTable(spec, {"1100": 1000}, 1000)]
    cfg = AnalysisConfig(bootstrap_b=50)
    point, samples = bootstrap_tts(tables, MONTREAL_MODEL, cfg,
                                   np.random.default_rng(0))
    assert len(samples) == 50
    assert samples.min() == samples.max()  # every resample hits p=1
    assert point.ci_high - point.ci_low <= 1e-12 * point.tts_mean


def test_bootstrap_sigma_matches_binomial():
    spec = OracleSpec.representative(4, 2)
    n_shots = 100_000
    tables = [ShotTable(spec, {"1100": n_shots // 2, "0000": n_shots // 2}, n_shots)]
    cfg = AnalysisConfig(bootstrap_b=100)
    rng = np.random.default_rng(42)
    _, samples = bootstrap_tts(tables, MONTREAL_MODEL, cfg, rng)
    # map TTS spread back to p_s spread through the local derivative
    p = 0.5
    tts = tts_quantum(4, p, MONTREAL_MODEL, P_D)
    dp = 1e-6
    deriv = (tts_quantum(4, p + dp, MONTREAL_MODEL, P_D) - tts) / dp
    sigma_p = samples.std(ddof=1) / abs(deriv)
    binomial = math.sqrt(p * (1 - p) / n_shots)
    assert abs(sigma_p - binomial) / binomial < 0.2


def test_bootstrap_discards_zero_success_resamples():
    spec = OracleSpec.representative(3, 1)
    tables = [ShotTable(spec, {"100": 2, "000": 998}, 1000)]
    cfg = AnalysisConfig(bootstrap_b=200)
    point, samples = bootstrap_tts(tables, MONTREAL_MODEL, cfg,
                                   np.random.default_rng(1))
    assert 0 < len(samples) < 200  # some resamples draw zero successes
    assert point.finite
    # every resample draws a zero somewhere: the point is terminated
    point, samples = bootstrap_tts(size_tables(3, [1, 1, 1], 1000), MONTREAL_MODEL,
                                   AnalysisConfig(bootstrap_b=2),
                                   np.random.Generator(np.random.Philox(key=0)))
    assert point.terminated and samples.size == 0


def test_bootstrap_terminated_when_no_successes():
    spec = OracleSpec.representative(3, 1)
    tables = [ShotTable(spec, {"000": 1000}, 1000)]
    point, samples = bootstrap_tts(tables, MONTREAL_MODEL, AnalysisConfig(),
                                   np.random.default_rng(2))
    assert point.terminated and len(samples) == 0


def test_worst_case_lambda_exact_exponential():
    ns = list(range(3, 21))
    for lam0 in (0.4, 0.6, 1.0, 1.3):
        tts = [2.0 ** (lam0 * n) * 3e-6 for n in ns]
        fit = worst_case_lambda(make_points(ns, tts), CONFIG)
        assert fit.exponent == pytest.approx(lam0, abs=1e-9)
        assert fit.window[1] == 20


def test_worst_case_lambda_with_prefactor_matches_brute_force():
    ns = list(range(3, 25))
    tts = [n * 2.0 ** (0.6 * n) * 1e-6 for n in ns]
    fit = worst_case_lambda(make_points(ns, tts), CONFIG)
    oracle = brute_force_worst_lambda(ns, tts, u=24)
    assert fit.exponent == pytest.approx(oracle, abs=1e-12)
    assert fit.exponent > 0.6  # concave prefactor inflates early windows


def test_worst_case_lambda_classical_baseline_value():
    # the n prefactor keeps every window's slope above 1; document the
    # asymptotic approach from above rather than equality at finite u
    points = classical_points(range(1, 31), P_D)
    fit30 = worst_case_lambda(points, CONFIG, u=30)
    oracle = brute_force_worst_lambda([p.n for p in points],
                                      [p.tts_mean for p in points], u=30)
    assert fit30.exponent == pytest.approx(oracle, abs=1e-12)
    assert fit30.exponent > 1.0
    big = classical_points(range(1, 121), P_D)
    fit120 = worst_case_lambda(big, CONFIG, u=120)
    assert fit120.exponent < fit30.exponent  # converges toward 1 from above


def test_worst_case_lambda_needs_three_points():
    with pytest.raises(ValueError):
        worst_case_lambda(make_points([3, 4], [1e-6, 2e-6]), CONFIG)


def test_worst_case_is_max_over_windows():
    rng = np.random.default_rng(8)
    ns = list(range(3, 18))
    tts = [2.0 ** (0.5 * n + 0.1 * rng.standard_normal()) * 1e-6 for n in ns]
    fit = worst_case_lambda(make_points(ns, tts), CONFIG)
    assert fit.exponent == max(fit.window_table.values())
    for l, lam in fit.window_table.items():
        assert fit.exponent >= lam


def test_local_lambda_piecewise_and_coincidence():
    ns = list(range(3, 21))
    tts = [2.0 ** (0.4 * n) * 1e-6 if n <= 12 else
           2.0 ** (0.9 * n - 6.0) * 1e-6 for n in ns]
    points = make_points(ns, tts)
    lam_small = worst_case_lambda(points, CONFIG, u=10).exponent
    lam_big = worst_case_lambda(points, CONFIG, u=20).exponent
    assert lam_small == pytest.approx(0.4, abs=1e-9)
    assert lam_big > lam_small
    # at the largest size the local exponent is the full worst-case fit
    assert lam_big == worst_case_lambda(points, CONFIG).exponent


def test_local_lambda_monotone_on_convex_curve():
    ns = list(range(3, 21))
    tts = [2.0 ** (0.3 * n + 0.02 * n * n) * 1e-6 for n in ns]
    points = make_points(ns, tts)
    values = [worst_case_lambda(points, CONFIG, u=h).exponent for h in range(6, 21)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_bootstrap_lambda_covers_truth():
    rng = np.random.default_rng(12)
    lam0, shots = 0.6, 32_000
    model = DurationModel(1e-6, 0.0)
    tables_by_n = {}
    for n in range(3, 15):
        target = 2.0 ** (lam0 * n) * 10e-6
        r = target / model.run_time(n)
        p = 1 - 0.01 ** (1 / r)
        succ = int(rng.binomial(shots, p))
        spec = OracleSpec.representative(n, n)
        tables_by_n[n] = [ShotTable(
            spec, {spec.b.to01(): succ, "0" * n: shots - succ}, shots)]
    fit = bootstrap_lambda(tables_by_n, model, AnalysisConfig(), rng)
    assert fit.ci_low < lam0 < fit.ci_high
    assert fit.ci_high - fit.ci_low < 0.2


def test_bootstrap_lambda_falls_back_to_the_raw_fit():
    # one success in 1000 shots per table: a resample keeps all three sizes,
    # as a fit needs, with probability about 0.63^9
    tables_by_n = {n: size_tables(n, [1, 1, 1], 1000) for n in (3, 4, 5)}
    config = AnalysisConfig(bootstrap_b=2)
    rng = np.random.Generator(np.random.Philox(key=0))
    state = rng.bit_generator.state
    assert analysis._bootstrap_lambdas(tables_by_n, MONTREAL_MODEL, config,
                                       rng).size == 0
    rng.bit_generator.state = state
    raw = worst_case_lambda([mean_tts([tts_quantum(n, 1e-3, MONTREAL_MODEL, P_D)] * 3, n)
                             for n in (3, 4, 5)], config)
    assert bootstrap_lambda(tables_by_n, MONTREAL_MODEL, config, rng) == raw


def test_speedup_ratio_examples():
    ns = list(range(3, 15))
    same = make_points(ns, [2.0 ** n * 1e-6 for n in ns])
    curve = speedup_ratio(same, same)
    assert all(v == pytest.approx(1.0) for v in curve.values)
    assert curve.fitted_exponent == pytest.approx(0.0, abs=1e-12)

    # ideal linear quantum runtime: the n prefactors cancel exactly and the
    # ratio's exponent is the classical repetition exponent, 1 (window away
    # from the small-n deviation of R_C)
    mid = list(range(8, 25))
    classical = classical_points(mid, P_D)
    linear = DurationModel(0.4e-6, 0.0)
    ideal = make_points(mid, [linear.run_time(n) for n in mid])
    curve = speedup_ratio(ideal, classical)
    assert curve.fitted_exponent == pytest.approx(1.0, abs=2e-3)

    # synthetic lambda = 0.6 against the classical baseline: exponent
    # approaches 1 - lambda at large n (the log2(n) prefactor drift fades)
    lam0 = 0.6
    big = list(range(40, 61))
    quantum = make_points(big, [2.0 ** (lam0 * n) * 1e-6 for n in big])
    curve = speedup_ratio(quantum, classical_points(big, P_D))
    assert curve.fitted_exponent == pytest.approx(1 - lam0, abs=0.05)

    # one overlapping finite size: a ratio, but no exponent
    curve = speedup_ratio(make_points([5, 6], [1e-5, 2e-5]), classical_points([6, 7], P_D))
    assert curve.ns == (6,) and math.isnan(curve.fitted_exponent)
    assert curve.values == (tts_classical(6, P_D) / 2e-5,)


def test_success_matrix_verdict_flip():
    spec_a = OracleSpec(Bitstring.from_str("00"))
    spec_b = OracleSpec(Bitstring.from_str("01"))
    just_above = ShotTable(spec_b, {"01": 51, "00": 49}, 100)
    just_below = ShotTable(spec_b, {"01": 49, "00": 51}, 100)
    good = ShotTable(spec_a, {"00": 90, "11": 10}, 100)
    assert bqp_verdict([good, just_above])
    assert not bqp_verdict([good, just_below])


def test_tts_monotone_decreasing_in_success():
    grid = np.linspace(0.05, 1.0, 40)
    tts = [tts_quantum(8, p, MONTREAL_MODEL, P_D) for p in grid]
    assert all(a >= b for a, b in zip(tts, tts[1:]))


# Stream identity: the block bootstrap against the sequential loop it
# replaced, written out below as the reference.

def loop_resample_tts(n, successes, model, config, rng):
    """Reference: one resample of one size, table by table; None at a zero."""
    vals = []
    for s, shots in successes:
        p_star = int(rng.binomial(shots, s / shots)) / shots
        if p_star == 0:
            return None
        vals.append(tts_quantum(n, p_star, model, config.p_d))
    return float(np.mean(vals))


def loop_bootstrap_tts(tables, model, config, rng):
    successes = [(t.success_count(), t.total_shots) for t in tables]
    if any(s == 0 for s, _ in successes):
        return np.empty(0)
    samples = [loop_resample_tts(tables[0].n, successes, model, config, rng)
               for _ in range(config.bootstrap_b)]
    return np.array([s for s in samples if s is not None])


def loop_bootstrap_lambda(tables_by_n, model, config, rng):
    """Reference: resample by resample, size by size, one fit per resample."""
    raw_points = [mean_tts([tts_quantum(n, t.success_prob(), model, config.p_d)
                            for t in tables], n)
                  for n, tables in sorted(tables_by_n.items())]
    raw = worst_case_lambda(raw_points, config)
    successes = {n: [(t.success_count(), t.total_shots) for t in tables]
                 for n, tables in sorted(tables_by_n.items())}
    lams = []
    for _ in range(config.bootstrap_b):
        pts = []
        for n, table_successes in successes.items():
            tts = loop_resample_tts(n, table_successes, model, config, rng)
            if tts is not None:
                pts.append(TTSPoint(n, tts, tts, tts, len(table_successes)))
        try:
            lams.append(worst_case_lambda(pts, config).exponent)
        except ValueError:
            continue
    if not lams:
        return np.empty(0), raw
    arr = np.array(lams)
    mean = float(arr.mean())
    width = LAMBDA_CI_SIGMA * (float(arr.std(ddof=1)) if len(arr) > 1 else 0.0)
    return arr, FitResult(mean, mean - width, mean + width, raw.window,
                          raw.window_table)


def rng_state(rng):
    """The generator's state with its arrays as lists, comparable by ==."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng.bit_generator.state)


def size_tables(n, successes, shots):
    """One table per success count; oracle k = index + 1 of n."""
    out = []
    for k, s in enumerate(successes, start=1):
        spec = OracleSpec.representative(n, min(k, n))
        counts = {spec.b.to01(): s, "0" * n: shots - s}
        out.append(ShotTable(spec, {b: c for b, c in counts.items() if c}, shots))
    return out


def ordinary(n):
    return size_tables(n, [int(180 - 9 * n - 3 * k) for k in range(n + 1)], 200)


# Each case: its own Philox key, fixed so that adding or deleting a case
# moves no other case's stream, and its tables by size.
STREAM_CASES = {
    # every size 3-12, up to 13 tables, none likely to draw a zero
    "ordinary": (1, {n: ordinary(n) for n in range(3, 13)}),
    # 1-2 successes mid-group: draws stop inside the group
    "stop_mid_group": (2, {n: size_tables(n, [15, 1, 12, 2] + [10] * (n - 3), 20)
                           for n in range(3, 9)}),
    # only size 5 draws zeros; sizes 6-9 of the same resample still draw
    "zero_then_later_sizes": (4, {n: ordinary(n) if n != 5 else
                                  size_tables(5, [40, 1, 35, 2, 30, 50], 60)
                                  for n in range(3, 10)}),
    # a 0-success table at size 7 terminates it and consumes no draw
    "zero_success_table": (3, {n: ordinary(n) if n != 7 else
                               size_tables(7, [90, 80, 0, 70, 60, 50, 40, 30], 200)
                               for n in range(3, 10)}),
    # p = 1 tables
    "certain": (0, {n: size_tables(n, [100, 100, 97, 100], 100) for n in range(3, 9)}),
}


def case_rng(case):
    return np.random.Generator(np.random.Philox(key=STREAM_CASES[case][0]))


@pytest.mark.parametrize("block", [None, 1, "all"])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_block_bootstrap_is_stream_identical_to_the_loop(case, block, monkeypatch):
    tables_by_n = STREAM_CASES[case][1]
    config = AnalysisConfig(bootstrap_b=60)
    if block is not None:
        monkeypatch.setattr(analysis, "RESAMPLE_BLOCK",
                            config.bootstrap_b if block == "all" else block)
    rng, ref = case_rng(case), case_rng(case)
    for n in sorted(tables_by_n):
        _, samples = bootstrap_tts(tables_by_n[n], MONTREAL_MODEL, config, rng)
        want = loop_bootstrap_tts(tables_by_n[n], MONTREAL_MODEL, config, ref)
        assert samples.tolist() == want.tolist()
        assert rng_state(rng) == rng_state(ref)
    state = rng.bit_generator.state
    lams = analysis._bootstrap_lambdas(tables_by_n, MONTREAL_MODEL, config, rng)
    want_lams, want_fit = loop_bootstrap_lambda(tables_by_n, MONTREAL_MODEL,
                                                config, ref)
    assert lams.tolist() == want_lams.tolist()
    assert rng_state(rng) == rng_state(ref)
    rng.bit_generator.state = state
    assert bootstrap_lambda(tables_by_n, MONTREAL_MODEL, config, rng) == want_fit
    assert rng_state(rng) == rng_state(ref)


def test_stream_cases_draw_zeros_where_they_say():
    """Sizes whose resamples drew a zero (kept < B) in the reference loop."""
    config = AnalysisConfig(bootstrap_b=60)
    short = {"ordinary": [], "certain": [], "stop_mid_group": list(range(3, 9)),
             "zero_then_later_sizes": [5], "zero_success_table": [7]}
    for case, (_, tables_by_n) in STREAM_CASES.items():
        ref = case_rng(case)
        kept = {n: len(loop_bootstrap_tts(tables, MONTREAL_MODEL, config, ref))
                for n, tables in sorted(tables_by_n.items())}
        assert [n for n, k in kept.items() if k < config.bootstrap_b] == short[case]
        lams, _ = loop_bootstrap_lambda(tables_by_n, MONTREAL_MODEL, config, ref)
        assert len(lams) > config.bootstrap_b // 2, case
