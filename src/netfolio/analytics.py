"""Simulation reports: Sharpe ratios, the F tail of Levene's test, and the
report and Levene tables.

Levene p-values are taken from the upper F tail via the regularized
incomplete beta function. That function (``betainc``) is computed here with
``math`` alone, so no command imports scipy: the continued fraction of
DiDonato & Morris's BFRAC (1992, ACM TOMS 18:360), with the symmetry swap at
x > a/(a+b), times a prefactor whose ln B(a, b) takes lnΓ(a+b) − lnΓ(a) as a
Stirling difference once the larger argument reaches 10. It is within 2e-12
relative of scipy's for df1 ≤ 10 and df2 ≤ 10⁶. The module imports the
standard library alone, so ``report`` loads no numpy; the statistics over
simulated returns are in ``summary``.
"""

from __future__ import annotations

import math

from .record import Record


class AnalyticsError(ValueError):
    pass


def sharpe_ratio(mean_return: float, std_dev: float, rf_return: float) -> float:
    """(mean - rf) / sd, all in period-return percent."""
    if std_dev <= 0:
        raise AnalyticsError("Sharpe ratio requires a positive standard deviation")
    ratio = (mean_return - rf_return) / std_dev
    if not math.isfinite(ratio):
        raise AnalyticsError(f"Sharpe ratio ({mean_return!r} - {rf_return!r}) / {std_dev!r} "
                             "is not finite")
    return ratio


class LeveneResult(Record):
    W: float
    df1: int
    df2: int
    p_value: float


# Coefficients of the Stirling series δ(z) = lnΓ(z) − (z − ½)ln z + z − ½ln 2π
# = Σ B₂ₖ / (2k(2k−1) z²ᵏ⁻¹); seven terms reach double precision for z ≥ 10.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_delta(z: float) -> float:
    w, s = 1.0 / (z * z), 0.0
    for c in reversed(_STIRLING):
        s = s * w + c
    return s / z


def _log_beta(a: float, b: float) -> float:
    small, big = min(a, b), max(a, b)
    if big < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # lnΓ(big + small) − lnΓ(big) without rounding two lgamma values near
    # big·ln big, which alone puts the tail 2e-11 off at df2 = 3996.
    ratio = ((big + small - 0.5) * math.log1p(small / big) + small * math.log(big) - small
             + _stirling_delta(big + small) - _stirling_delta(big))
    return math.lgamma(small) - ratio


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) for λ = a − (a+b)x >= 0, as x^a y^b / B(a, b) times the even
    part of its continued fraction, in the recurrence of DiDonato & Morris's
    BFRAC. Its terms hold λ, formed by the caller without cancellation, where
    the plain fraction's 1 − (a+b)x/(a+1) steps cancel near the mean as a + b
    grows (5e-11 relative at df2 = 10⁶)."""
    front = math.exp(a * math.log(x) + b * math.log(y) - _log_beta(a, b))
    c, c0, c1, yp1 = lam + 1.0, b / a, 1.0 / a + 1.0, y + 1.0
    p, s = 1.0, a + 1.0
    a0, b0, a1, b1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 10_000):
        t, w, e = n / a, n * (b - n) * x, a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (t + 1.0) / (c1 + t + t) * (c + n * yp1)
        p, s = t + 1.0, s + 2.0
        a0, a1 = a1, alpha * a0 + beta * a1
        b0, b1 = b1, alpha * b0 + beta * b1
        r0, r = r, a1 / b1
        if abs(r - r0) <= 1e-15 * r:
            return front * r
        a0, b0, a1, b1 = a0 / b1, b0 / b1, r, 1.0  # rescale
    raise AnalyticsError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given y = 1 − x."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    # λ = a − (a+b)x, from whichever of x and y loses no digits.
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    if lam < 0.0:
        return 1.0 - _beta_fraction(b, a, y, x, -lam)
    return _beta_fraction(a, b, x, y, lam)


def f_tail(W: float, df1: int, df2: int) -> float:
    """Upper tail P(F(df1, df2) > W) via the regularized incomplete beta."""
    if W <= 0:
        return 1.0
    x = df2 / (df2 + df1 * W)
    return betainc(df2 / 2.0, df1 / 2.0, x, 1.0 - x)


class StrategyStats(Record):
    strategy: str
    m: int
    mean: float
    std_dev: float  # sample sd across replications (n-1)
    sharpe: float | None  # None when sd == 0
    best: bool = False


class SimulationReport(Record):
    stats: tuple[StrategyStats, ...]
    levene: tuple[tuple[int, tuple[str, ...], LeveneResult], ...]  # (m, strategies, result)


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.2f}"


REPORT_COLUMNS = ("strategy", "size", "mean", "sd", "sharpe", "best_flag")
LEVENE_COLUMNS = ("size", "strategies", "W", "df1", "df2", "p")


def render_report(report: SimulationReport) -> str:
    """Deterministic markdown report table: metric x size rows, strategy columns."""
    strategies = list(dict.fromkeys(s.strategy for s in report.stats))
    sizes = sorted({s.m for s in report.stats})
    cell = {(s.strategy, s.m): s for s in report.stats}
    levene_by_m = {m: res for m, _, res in report.levene}
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


def render_report_csv(report: SimulationReport) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for s in report.stats:
        lines.append(
            f"{s.strategy},{s.m},{s.mean:.6f},{s.std_dev:.6f},"
            f"{'' if s.sharpe is None else f'{s.sharpe:.6f}'},{int(s.best)}"
        )
    return "\n".join(lines) + "\n"


def render_levene_csv(report: SimulationReport) -> str:
    lines = [",".join(LEVENE_COLUMNS)]
    for m, names, res in report.levene:
        lines.append(
            f"{m},{'+'.join(names)},{res.W:.6f},{res.df1},{res.df2},{res.p_value:.6g}"
        )
    return "\n".join(lines) + "\n"
