"""Simulation summaries: means, dispersion, Sharpe ratios, Levene tests.

Sharpe ratios use per-period risk-free returns in percent. Variance
equality across strategies is tested with Levene's statistic (median
centering by default, i.e. the Brown-Forsythe variant), with the p-value
taken from the upper F tail via the regularized incomplete beta function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .portfolio_sim import SimulationRun


class AnalyticsError(ValueError):
    pass


def sharpe_ratio(mean_return: float, std_dev: float, rf_return: float) -> float:
    """(mean - rf) / sd, all in period-return percent."""
    if std_dev <= 0:
        raise AnalyticsError("Sharpe ratio requires a positive standard deviation")
    return (mean_return - rf_return) / std_dev


@dataclass(frozen=True)
class LeveneResult:
    W: float
    df1: int
    df2: int
    p_value: float
    center: str


def f_tail(W: float, df1: int, df2: int) -> float:
    """Upper tail P(F(df1, df2) > W) via the regularized incomplete beta."""
    from scipy import special  # imported here so commands without Levene tests skip scipy

    if W <= 0:
        return 1.0
    x = df2 / (df2 + df1 * W)
    return float(special.betainc(df2 / 2.0, df1 / 2.0, x))


def levene_test(groups: list[np.ndarray] | list[list[float]], center: str = "median") -> LeveneResult:
    """Levene's test of equal variances over k groups of observations."""
    if center not in ("mean", "median"):
        raise AnalyticsError("center must be 'mean' or 'median'")
    arrays = [np.asarray(g, dtype=float) for g in groups]
    k = len(arrays)
    if k < 2 or any(len(g) < 2 for g in arrays):
        raise AnalyticsError("need >= 2 groups with >= 2 observations each")
    centers = [np.mean(g) if center == "mean" else np.median(g) for g in arrays]
    z = [np.abs(g - c) for g, c in zip(arrays, centers)]
    n = np.array([len(g) for g in arrays])
    N = int(n.sum())
    zbar_i = np.array([np.mean(zi) for zi in z])
    zbar = float(np.concatenate(z).mean())
    numerator = float(np.sum(n * (zbar_i - zbar) ** 2))
    denominator = float(sum(np.sum((zi - zb) ** 2) for zi, zb in zip(z, zbar_i)))
    df1, df2 = k - 1, N - k
    if denominator == 0.0:
        if numerator == 0.0:
            return LeveneResult(0.0, df1, df2, 1.0, center)
        raise AnalyticsError("degenerate Levene denominator with unequal group deviations")
    W = (df2 / df1) * numerator / denominator
    return LeveneResult(W, df1, df2, f_tail(W, df1, df2), center)


@dataclass(frozen=True)
class StrategyStats:
    strategy: str
    m: int
    mean: float
    std_dev: float  # sample sd across replications (n-1)
    sharpe: float | None  # None when sd == 0
    best: bool = False


@dataclass(frozen=True)
class SimulationReport:
    period: str
    rf: float
    stats: tuple[StrategyStats, ...]
    levene: tuple[tuple[int, tuple[str, ...], LeveneResult], ...]  # (m, strategies, result)


def summarize(
    runs: list[SimulationRun],
    rf: float,
    *,
    levene_exclude: tuple[str, ...] = ("HCT",),
    levene_center: str = "median",
) -> SimulationReport:
    """Per-run mean/sd/Sharpe plus a Levene comparison per portfolio size.

    The Levene test spans the strategies not listed in levene_exclude; the
    maximum Sharpe per size is flagged (ties all flagged).
    """
    if not runs:
        raise AnalyticsError("no simulation runs to summarize")
    periods = {r.period for r in runs}
    if len(periods) != 1:
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
            result = levene_test([r.returns for r in included], center=levene_center)
            levene.append((m, tuple(r.strategy for r in included), result))
    return SimulationReport(next(iter(periods)), rf, tuple(flagged), tuple(levene))


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.2f}"


def render_report(report: SimulationReport, format: str = "markdown") -> str:
    """Deterministic report table: metric x size rows, strategy columns."""
    strategies = list(dict.fromkeys(s.strategy for s in report.stats))
    sizes = sorted({s.m for s in report.stats})
    cell = {(s.strategy, s.m): s for s in report.stats}
    levene_by_m = {m: res for m, _, res in report.levene}

    if format == "csv":
        lines = ["strategy,size,mean,sd,sharpe,best_flag"]
        for s in report.stats:
            lines.append(
                f"{s.strategy},{s.m},{s.mean:.6f},{s.std_dev:.6f},"
                f"{'' if s.sharpe is None else f'{s.sharpe:.6f}'},{int(s.best)}"
            )
        return "\n".join(lines) + "\n"
    if format != "markdown":
        raise AnalyticsError(f"unknown report format {format!r}")

    header = ["Simulation results"] + strategies + ["Levene p-value"]
    rows: list[list[str]] = []
    for metric in ("Mean return", "Standard deviation", "Sharpe ratio"):
        for m in sizes:
            row = [f"{metric} ({m}-stock)"]
            for name in strategies:
                s = cell.get((name, m))
                if s is None:
                    row.append("")
                elif metric == "Mean return":
                    row.append(f"{s.mean:.2f}")
                elif metric == "Standard deviation":
                    row.append(f"{s.std_dev:.2f}")
                else:
                    row.append(_fmt(s.sharpe) + ("*" if s.best else ""))
            if metric == "Standard deviation" and m in levene_by_m:
                row.append(f"{levene_by_m[m].p_value:.3g}")
            else:
                row.append("")
            rows.append(row)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    out = ["| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |"]
    out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        out.append("| " + " | ".join(v.ljust(w) for v, w in zip(r, widths)) + " |")
    return "\n".join(out) + "\n"


def render_levene_csv(report: SimulationReport) -> str:
    lines = ["size,strategies,W,df1,df2,p"]
    for m, names, res in report.levene:
        lines.append(
            f"{m},{'+'.join(names)},{res.W:.6f},{res.df1},{res.df2},{res.p_value:.6g}"
        )
    return "\n".join(lines) + "\n"
