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
# Bootstrap resamples per block: a block holds O(RESAMPLE_BLOCK x tables)
# counts and TTS values, and its fits O(RESAMPLE_BLOCK x sizes^2) sums.
RESAMPLE_BLOCK = 64


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


def repetitions(p_s: float, p_d: float) -> float:
    """Expected repetitions R to reach success probability p_d.

    p_s = 0 gives infinity (the instance is unsolved); p_s = 1 gives R = 1
    since one call is always needed.
    """
    if not 0 <= p_s <= 1:
        raise ValueError(f"p_s {p_s} outside [0,1]")
    if p_s == 0:
        return math.inf
    if p_s == 1:
        return 1.0
    return math.log1p(-p_d) / math.log1p(-p_s)  # log1p keeps tiny p_s exact


def tts_quantum(n: int, p_s: float, model: DurationModel, p_d: float) -> float:
    """Quantum time-to-solution in seconds; +inf when p_s = 0."""
    return model.run_time(n) * repetitions(p_s, p_d)


# Classical per-query time: 1 us per bit, the cost of adding n bits.
CLASSICAL_DURATION_MODEL = DurationModel(1e-6, 0.0)


def tts_classical(n: int, p_d: float) -> float:
    """Classical baseline TTS: n us per query at success rate 2^(1-n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = repetitions(classical_success_prob(n), p_d)
    return CLASSICAL_DURATION_MODEL.run_time(n) * r


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


def _draw_counts(shots: np.ndarray, p: np.ndarray, bounds: list[tuple[int, int]],
                 rows: int, rng: np.random.Generator) -> np.ndarray:
    """``rows`` resamples of every table's success count, shape (rows, tables).

    Stream-identical to the loop "for each resample, for each group of
    ``bounds``, for each table: count ~ binomial(shots, p)", in which a
    group's draws stop at its first zero (its later tables stay 0, undrawn;
    later groups still draw).  Rows without a zero come from one array call,
    which draws the same values in the same order.  At the first row with a
    zero the generator is rewound, the rows before it are drawn again as a
    block and that row table by table; the next call takes twice the rows
    this one kept."""
    out = np.zeros((rows, len(p)), np.int64)
    done = 0
    size = rows
    while done < rows:
        size = min(size, rows - done)
        state = rng.bit_generator.state
        block = rng.binomial(shots, p, size=(size, len(p)))
        zero = (block == 0).any(axis=1)
        kept = int(zero.argmax()) if zero.any() else size
        out[done:done + kept] = block[:kept]
        if kept < size:
            rng.bit_generator.state = state
            rng.binomial(shots, p, size=(kept, len(p)))
            row = out[done + kept]
            for a, z in bounds:
                for j in range(a, z):
                    row[j] = rng.binomial(shots[j], p[j])
                    if not row[j]:
                        break
            kept += 1
        done += kept
        size = 2 * kept
    return out


def _resample_tts(ns: list[int], successes: list[list[tuple[int, int]]],
                  model: DurationModel, config: AnalysisConfig,
                  rng: np.random.Generator):
    """Yield each size's mean resampled TTS, one (resamples, sizes) array per
    block of at most RESAMPLE_BLOCK of the B resamples; +inf where a size's
    resample drew zero successes.  Success counts are redrawn as
    binomial(shots, successes / shots), the success marginal of a
    multinomial redraw (``_draw_counts``); R comes from ``repetitions`` once
    per distinct rate, so every value is the one ``tts_quantum`` gives."""
    sizes = [len(group) for group in successes]
    hits, shots = np.array([pair for group in successes for pair in group]).T
    p = hits / shots
    ends = np.cumsum(sizes).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    run_times = np.repeat([model.run_time(n) for n in ns], sizes)
    for start in range(0, config.bootstrap_b, RESAMPLE_BLOCK):
        rows = min(RESAMPLE_BLOCK, config.bootstrap_b - start)
        rates, inverse = np.unique(_draw_counts(shots, p, bounds, rows, rng) / shots,
                                   return_inverse=True)
        reps = np.array([repetitions(r, config.p_d) for r in rates.tolist()])
        tts = reps[inverse.reshape(rows, -1)]
        tts *= run_times
        means = np.stack([tts[:, a:z].mean(axis=1) for a, z in bounds], axis=1)
        del inverse, tts  # not held while the caller works on the block
        yield means


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

    arr = np.concatenate([block[:, 0] for block in
                          _resample_tts([n], [successes], model, config, rng)])
    arr = arr[np.isfinite(arr)]
    if not arr.size:
        return terminated_point(n, len(tables)), np.empty(0)
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


def _window_slopes(ns: np.ndarray, log_tts: np.ndarray, u: int | None,
                   n_min: int) -> np.ndarray:
    """OLS slopes (curves, sizes) of log2 TTS on n over every window [l, u].

    ``log_tts`` holds one curve per row over the ascending sizes ``ns``, not
    finite where it has no point.  A curve's points are its sizes in
    [n_min, u], u its largest unless given; on curves of >= 3 points a
    window starts at each point l <= u - 2 with >= 2 points in [l, u], and
    the slope is NaN elsewhere.  Sums are centred and run left to right, so
    an absent size adds an exact zero: a curve's slopes depend on nothing
    but its own points."""
    have = np.isfinite(log_tts) & (ns >= n_min)
    if u is not None:
        have &= ns <= u
    top = np.where(have, ns, 0).max(axis=1, keepdims=True) if u is None else u
    w = (have[:, None, :] & (ns >= ns[:, None])).astype(float)  # curve, l, n
    x = ns.astype(float)
    y = np.where(have, log_tts, 0.0)[:, None, :]

    def total(a: np.ndarray) -> np.ndarray:
        return np.add.accumulate(a, axis=2)[..., -1:].copy()

    with np.errstate(invalid="ignore", divide="ignore"):
        count = total(w)
        dx = x - total(w * x) / count
        dx *= w
        dy = y - total(w * y) / count
        del w  # one (curves, sizes, sizes) array fewer while the sums run
        dy *= dx
        slopes = (total(dy) / total(np.square(dx, out=dx)))[..., 0]
    starts = (have & (ns <= top - 2) & (count[..., 0] >= 2)
              & (have.sum(axis=1) >= 3)[:, None])
    return np.where(starts, slopes, np.nan)


def worst_case_lambda(points: list[TTSPoint], config: AnalysisConfig,
                      u: int | None = None) -> FitResult:
    """Most conservative exponent consistent with the data.

    Fits log2 TTS over every window [l, u] with l in [n_min, u-2] and
    takes the maximum slope (ties: the smallest l); u defaults to the
    largest finite size.  The fit is ``_window_slopes`` on one curve.
    """
    finite = sorted((p for p in points if p.finite), key=lambda p: p.n)
    finite = [p for p in finite if p.n >= config.n_min and (u is None or p.n <= u)]
    if len(finite) < 3:
        raise ValueError("need at least 3 finite points in range")
    if u is None:
        u = finite[-1].n
    ns = np.array([p.n for p in finite])
    slopes = _window_slopes(ns, np.log2([[p.tts_mean for p in finite]]), u,
                            config.n_min)
    table = {int(l): float(s) for l, s in zip(ns, slopes[0]) if not math.isnan(s)}
    if not table:
        raise ValueError(f"no fit window with >= 2 points ends at u={u}")
    best_l = max(table, key=lambda l: (table[l], -l))
    lam = table[best_l]
    return FitResult(lam, lam, lam, (best_l, u), table)


def _bootstrap_lambdas(tables_by_n: dict[int, list[ShotTable]], model: DurationModel,
                       config: AnalysisConfig, rng: np.random.Generator) -> np.ndarray:
    """Worst-case exponent of each resample that has one, in resample order:
    sizes whose resample drew a zero drop out, mirroring curve termination,
    and each block is fitted at once, row by row as ``worst_case_lambda``."""
    ns = sorted(tables_by_n)
    successes = [[(t.success_count(), t.total_shots) for t in tables_by_n[n]]
                 for n in ns]
    lams = []
    for means in _resample_tts(ns, successes, model, config, rng):
        slopes = _window_slopes(np.array(ns), np.log2(means), None, config.n_min)
        fitted = ~np.isnan(slopes).all(axis=1)
        lams.append(np.fmax.reduce(slopes[fitted], axis=1))
    return np.concatenate(lams)


def bootstrap_lambda(tables_by_n: dict[int, list[ShotTable]], model: DurationModel,
                     config: AnalysisConfig, rng: np.random.Generator) -> FitResult:
    """Worst-case exponent with a bootstrap confidence interval.

    Every resample rebuilds the TTS curve and refits
    (``_bootstrap_lambdas``); the result is the resample mean with
    +-LAMBDA_CI_SIGMA bounds and the raw-data window table.
    """
    raw_points = [mean_tts([tts_quantum(n, t.success_prob(), model, config.p_d)
                            for t in tables], n)
                  for n, tables in sorted(tables_by_n.items())]
    raw = worst_case_lambda(raw_points, config)
    arr = _bootstrap_lambdas(tables_by_n, model, config, rng)
    if not arr.size:
        return raw
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


def classical_points(n_range, p_d: float) -> list[TTSPoint]:
    pts = []
    for n in n_range:
        t = tts_classical(n, p_d)
        pts.append(TTSPoint(n, t, t, t, 1))
    return pts


def bqp_verdict(tables: list[ShotTable]) -> bool:
    """The BQP check on one size's tables: a majority vote reaches bounded
    error 2/3 iff p_s > 1/2 for every oracle."""
    if not tables:
        raise ValueError("need at least one table")
    n = tables[0].n
    if any(t.n != n for t in tables):
        raise ValueError("tables mix problem sizes")
    return all(t.success_prob() > 0.5 for t in tables)
