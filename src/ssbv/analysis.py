"""Success probabilities, time-to-solution, bootstrap statistics, and the
speedup-exponent fits.

TTS(n) = t_r(n) * R(n) with R(n) = log(1-p_d) / log(1-p_s); a quantum
speedup is declared when the worst-case fitted exponent of log2 TTS versus
n falls below the classical baseline's asymptotic exponent of 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import DurationModel
from .oracles import ShotTable, classical_success_prob

# Confidence-interval half-widths, in bootstrap standard deviations, of the
# mean TTS per size and of the worst-case exponent.
TTS_CI_SIGMA = 5.0
LAMBDA_CI_SIGMA = 2.0


@dataclass(frozen=True)
class AnalysisConfig:
    p_d: float = 0.99
    bootstrap_b: int = 100
    n_min: int = 3            # excludes small-size effects from fits

    def __post_init__(self) -> None:
        if not 0 < self.p_d < 1:
            raise ValueError("p_d must be in (0,1)")
        if self.bootstrap_b < 2:
            raise ValueError("bootstrap_b must be >= 2")


def success_prob(table: ShotTable) -> tuple[float, float]:
    """Empirical success frequency and its binomial standard error."""
    if table.total_shots <= 0:
        raise ValueError("empty shot table")
    p = table.success_count() / table.total_shots
    sigma = math.sqrt(p * (1 - p) / table.total_shots)
    return p, sigma


def repetitions(p_s: float, p_d: float = 0.99) -> tuple[float, float]:
    """Expected repetitions R to reach success probability p_d, and ceil(R).

    p_s = 0 gives infinity (the instance is unsolved); p_s = 1 gives R = 1
    since one call is always needed; ceil(R) is floored at 1.
    """
    if not 0 <= p_s <= 1:
        raise ValueError(f"p_s {p_s} outside [0,1]")
    if p_s == 0:
        return math.inf, math.inf
    if p_s == 1:
        return 1.0, 1
    r = math.log1p(-p_d) / math.log1p(-p_s)  # log1p keeps tiny p_s exact
    return r, max(1, math.ceil(r))


def tts_quantum(n: int, p_s: float, model: DurationModel,
                p_d: float = 0.99) -> float:
    """Quantum time-to-solution in seconds; +inf when p_s = 0."""
    r, _ = repetitions(p_s, p_d)
    return model.run_time(n) * r


def classical_duration_model(a: float = 1e-6) -> DurationModel:
    """Classical per-query time a*n seconds (cost of adding n bits)."""
    return DurationModel.from_slope_intercept(a, 0.0)


def tts_classical(n: int, classical_model: DurationModel | None = None,
                  p_d: float = 0.99) -> float:
    """Classical baseline TTS: a*n queries at success rate 2^(1-n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    model = classical_model if classical_model is not None else classical_duration_model()
    r, _ = repetitions(classical_success_prob(n), p_d)
    return model.run_time(n) * r


@dataclass(frozen=True)
class TTSPoint:
    """Mean TTS over the executed oracle set at one problem size."""

    n: int
    tts_mean: float
    ci_low: float
    ci_high: float
    num_oracles: int
    terminated: bool = False

    def __post_init__(self) -> None:
        if not self.terminated and not (self.ci_low <= self.tts_mean <= self.ci_high):
            raise ValueError("CI must bracket the mean")

    @property
    def finite(self) -> bool:
        return not self.terminated and math.isfinite(self.tts_mean)


def terminated_point(n: int, num_oracles: int) -> TTSPoint:
    return TTSPoint(n, math.nan, math.nan, math.nan, num_oracles, terminated=True)


def mean_tts(per_oracle_tts, n: int) -> TTSPoint:
    """Arithmetic mean over oracles; any infinite entry terminates the point."""
    values = list(per_oracle_tts)
    if not values:
        raise ValueError("need at least one oracle TTS")
    if any(math.isinf(v) for v in values):
        return terminated_point(n, len(values))
    mean = float(np.mean(values))
    return TTSPoint(n, mean, mean, mean, len(values))


def _resample_tts(n: int, successes: list[tuple[int, int]], model: DurationModel,
                  config: AnalysisConfig, rng: np.random.Generator) -> float | None:
    """Mean TTS of one resample of a size's oracle set, or None if a table
    draws zero successes.  Each table's success count is redrawn, in table
    order, as binomial(shots, successes / shots) (the success marginal of a
    multinomial redraw of its counts); drawing stops at the first zero."""
    vals = []
    for s, shots in successes:
        p_star = int(rng.binomial(shots, s / shots)) / shots
        if p_star == 0:
            return None
        vals.append(tts_quantum(n, p_star, model, config.p_d))
    return float(np.mean(vals))


def bootstrap_tts(tables: list[ShotTable], model: DurationModel,
                  config: AnalysisConfig, rng: np.random.Generator
                  ) -> tuple[TTSPoint, np.ndarray]:
    """Bootstrap the mean TTS over one size's oracle set.

    Each of B resamples redraws every oracle's success count
    (``_resample_tts``); resamples in which an oracle of originally nonzero
    success draws zero successes are discarded (they would give a spurious
    infinite TTS).  Returns the point (mean, +-TTS_CI_SIGMA bounds) and the
    retained resample values.
    """
    if not tables:
        raise ValueError("need at least one table")
    n = tables[0].n
    if any(t.n != n for t in tables):
        raise ValueError("tables mix problem sizes")
    successes = [(t.success_count(), t.total_shots) for t in tables]
    if any(s == 0 for s, _ in successes):
        return terminated_point(n, len(tables)), np.empty(0)

    samples = [tts for tts in (_resample_tts(n, successes, model, config, rng)
                               for _ in range(config.bootstrap_b)) if tts is not None]
    if not samples:
        return terminated_point(n, len(tables)), np.empty(0)
    arr = np.array(samples)
    mean = float(arr.mean())
    sigma = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    width = TTS_CI_SIGMA * sigma
    point = TTSPoint(n, mean, mean - width, mean + width, len(tables))
    return point, arr


@dataclass(frozen=True)
class FitResult:
    """Worst-case speedup exponent: max over window left ends l of the
    OLS slope of log2 TTS on [l, u]."""

    exponent: float
    ci_low: float
    ci_high: float
    window: tuple[int, int]
    window_table: dict[int, float]


def worst_case_lambda(points: list[TTSPoint], u: int | None = None,
                      config: AnalysisConfig | None = None) -> FitResult:
    """Most conservative exponent consistent with the data.

    Fits log2 TTS over every window [l, u] with l in [n_min, u-2] and
    takes the maximum slope; u defaults to the largest finite size.
    """
    config = config or AnalysisConfig()
    finite = sorted((p for p in points if p.finite), key=lambda p: p.n)
    finite = [p for p in finite if p.n >= config.n_min]
    if u is not None:
        finite = [p for p in finite if p.n <= u]
    if len(finite) < 3:
        raise ValueError("need at least 3 finite points in range")
    if u is None:
        u = finite[-1].n
    ns = np.array([p.n for p in finite], dtype=float)
    log_tts = np.log2([p.tts_mean for p in finite])
    table: dict[int, float] = {}
    for l in [int(n) for n in ns if n <= u - 2]:
        sel = (ns >= l) & (ns <= u)
        if sel.sum() < 2:
            continue
        table[l] = float(np.polyfit(ns[sel], log_tts[sel], 1)[0])
    if not table:
        raise ValueError(f"no fit window with >= 2 points ends at u={u}")
    best_l = max(table, key=lambda l: (table[l], -l))
    lam = table[best_l]
    return FitResult(lam, lam, lam, (best_l, u), table)


def local_lambda(points: list[TTSPoint], h_max: int,
                 config: AnalysisConfig | None = None) -> FitResult:
    """Worst-case exponent restricted to sizes <= h_max."""
    return worst_case_lambda(points, u=h_max, config=config)


def bootstrap_lambda(tables_by_n: dict[int, list[ShotTable]], model: DurationModel,
                     config: AnalysisConfig, rng: np.random.Generator,
                     u: int | None = None) -> FitResult:
    """Worst-case exponent with a bootstrap confidence interval.

    Every resample redraws every success count, rebuilds the TTS curve
    (sizes whose resample hits zero successes drop out, mirroring curve
    termination), and refits; the result is the resample mean with
    +-LAMBDA_CI_SIGMA bounds and the raw-data window table.
    """
    raw_points = [mean_tts([tts_quantum(n, t.success_prob(), model, config.p_d)
                            for t in tables], n)
                  for n, tables in sorted(tables_by_n.items())]
    raw = worst_case_lambda(raw_points, u=u, config=config)

    successes = {n: [(t.success_count(), t.total_shots) for t in tables]
                 for n, tables in sorted(tables_by_n.items())}
    lams = []
    for _ in range(config.bootstrap_b):
        pts = []
        for n, table_successes in successes.items():
            tts = _resample_tts(n, table_successes, model, config, rng)
            if tts is not None:
                pts.append(TTSPoint(n, tts, tts, tts, len(table_successes)))
        try:
            lams.append(worst_case_lambda(pts, u=u, config=config).exponent)
        except ValueError:
            continue
    if not lams:
        return raw
    arr = np.array(lams)
    mean = float(arr.mean())
    sigma = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    width = LAMBDA_CI_SIGMA * sigma
    return FitResult(mean, mean - width, mean + width, raw.window, raw.window_table)


@dataclass(frozen=True)
class SpeedupCurve:
    """Elementwise classical/quantum TTS ratio and its fitted exponent."""

    ns: tuple[int, ...]
    values: tuple[float, ...]
    fitted_exponent: float


def speedup_ratio(quantum: list[TTSPoint], classical: list[TTSPoint]) -> SpeedupCurve:
    qmap = {p.n: p.tts_mean for p in quantum if p.finite}
    cmap = {p.n: p.tts_mean for p in classical if p.finite}
    ns = sorted(set(qmap) & set(cmap))
    if not ns:
        raise ValueError("no overlapping finite sizes")
    values = [cmap[n] / qmap[n] for n in ns]
    if len(ns) >= 2:
        exponent = float(np.polyfit(np.array(ns, dtype=float),
                                    np.log2(values), 1)[0])
    else:
        exponent = math.nan
    return SpeedupCurve(tuple(ns), tuple(values), exponent)


def classical_points(n_range, classical_model: DurationModel | None = None,
                     p_d: float = 0.99) -> list[TTSPoint]:
    pts = []
    for n in n_range:
        t = tts_classical(n, classical_model, p_d)
        pts.append(TTSPoint(n, t, t, t, 1))
    return pts


@dataclass(frozen=True)
class SuccessMatrix:
    """Row-normalized output distribution per oracle plus the BQP check:
    a majority vote reaches bounded error 2/3 iff p_s > 1/2 everywhere."""

    n: int
    oracles: tuple[str, ...]
    rows: dict[str, dict[str, float]]
    diagonal: dict[str, float]
    bqp_verdict: bool


def success_matrix(tables: list[ShotTable]) -> SuccessMatrix:
    if not tables:
        raise ValueError("need at least one table")
    n = tables[0].n
    if any(t.n != n for t in tables):
        raise ValueError("tables mix problem sizes")
    rows: dict[str, dict[str, float]] = {}
    diag: dict[str, float] = {}
    for table in sorted(tables, key=lambda t: t.oracle.b.to_int()):
        key = table.oracle.b.to01()
        total = table.total_shots
        rows[key] = {out: c / total for out, c in sorted(table.counts.items())}
        diag[key] = table.success_prob()
    verdict = all(p > 0.5 for p in diag.values())
    return SuccessMatrix(n, tuple(rows), rows, diag, verdict)
