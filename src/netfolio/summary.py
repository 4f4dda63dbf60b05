"""Simulation summaries: means, dispersion, Sharpe ratios and Levene tests
over simulated portfolio returns.

Equality of variance across strategies is tested with Levene's statistic,
centred on the median (the Brown-Forsythe variant); its p-value is taken
from ``analytics.f_tail``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .analytics import (
    AnalyticsError,
    LeveneResult,
    SimulationReport,
    StrategyStats,
    f_tail,
    sharpe_ratio,
)

if TYPE_CHECKING:
    from .portfolio_sim import SimulationRun


def _median(values: np.ndarray) -> np.float64:
    """``np.median`` of a 1-d float array without NaNs, bit for bit: the mean
    of the middle one or two sorted values, taken with ``mean`` as numpy
    takes it (so a median of -0.0 comes out as 0.0). It skips numpy's NaN
    check, which imports numpy.ma."""
    s = np.sort(values)
    h = len(s) // 2
    return s[h - 1 + len(s) % 2:h + 1].mean()


def levene_test(groups: list[np.ndarray] | list[list[float]]) -> LeveneResult:
    """Levene's test of equal variances over k groups of observations,
    centred on each group's median (Brown-Forsythe)."""
    arrays = [np.asarray(g, dtype=float) for g in groups]
    k = len(arrays)
    if k < 2 or any(len(g) < 2 for g in arrays):
        raise AnalyticsError("need >= 2 groups with >= 2 observations each")
    z = [np.abs(g - _median(g)) for g in arrays]
    n = np.array([len(g) for g in arrays])
    N = int(n.sum())
    zbar_i = np.array([np.mean(zi) for zi in z])
    zbar = float(np.concatenate(z).mean())
    numerator = float(np.sum(n * (zbar_i - zbar) ** 2))
    denominator = float(sum(np.sum((zi - zb) ** 2) for zi, zb in zip(z, zbar_i)))
    df1, df2 = k - 1, N - k
    if denominator == 0.0:
        if numerator == 0.0:
            return LeveneResult(0.0, df1, df2, 1.0)
        raise AnalyticsError("degenerate Levene denominator with unequal group deviations")
    W = (df2 / df1) * numerator / denominator
    return LeveneResult(W, df1, df2, f_tail(W, df1, df2))


def summarize(runs: list[SimulationRun], rf: float,
              levene_exclude: tuple[str, ...]) -> SimulationReport:
    """Per-run mean/sd/Sharpe plus a Levene comparison per portfolio size.

    The median-centred Levene test spans the strategies not listed in
    levene_exclude; the maximum Sharpe per size is flagged (ties all flagged).
    """
    if not runs:
        raise AnalyticsError("no simulation runs to summarize")
    if len({r.period for r in runs}) != 1:
        raise AnalyticsError("runs must share a period")
    stats: list[StrategyStats] = []
    for r in runs:
        mean = float(np.mean(r.returns))
        sd = float(np.std(r.returns, ddof=1))
        sharpe = sharpe_ratio(mean, sd, rf) if sd > 0 else None
        stats.append(StrategyStats(r.strategy, r.m, mean, sd, sharpe))

    sizes = sorted({s.m for s in stats})
    flagged: list[StrategyStats] = []
    for s in stats:
        block = [t.sharpe for t in stats if t.m == s.m and t.sharpe is not None]
        best = bool(block) and s.sharpe is not None and s.sharpe == max(block)
        flagged.append(StrategyStats(s.strategy, s.m, s.mean, s.std_dev, s.sharpe, best))

    levene: list[tuple[int, tuple[str, ...], LeveneResult]] = []
    for m in sizes:
        included = [r for r in runs if r.m == m and r.strategy not in levene_exclude]
        if len(included) >= 2:
            result = levene_test([r.returns for r in included])
            levene.append((m, tuple(r.strategy for r in included), result))
    return SimulationReport(tuple(flagged), tuple(levene))
