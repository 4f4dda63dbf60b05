"""Sharpe ratios, Levene's test, and report rendering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special, stats

from netfolio.analytics import (
    AnalyticsError,
    f_tail,
    render_levene_csv,
    render_report,
    render_report_csv,
    sharpe_ratio,
)
from netfolio.summary import _median, levene_test, summarize
from netfolio.portfolio_sim import SimulationRun


def run(strategy, m, values, period="P1"):
    return SimulationRun(strategy, m, period, np.asarray(values, dtype=float))


class TestSharpe:
    def test_hand_value(self):
        assert sharpe_ratio(10.0, 4.0, 2.0) == pytest.approx(2.0)

    def test_zero_sd_rejected(self):
        with pytest.raises(AnalyticsError):
            sharpe_ratio(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("mean,sd,rf", [(33.6, 0.5, 1e308), (1e308, 0.25, -1e308)])
    def test_overflow_rejected(self, mean, sd, rf):
        # A finite rate far from the returns overflows the ratio, which no
        # report may hold.
        with pytest.raises(AnalyticsError, match="is not finite"):
            sharpe_ratio(mean, sd, rf)


class TestFTail:
    def test_w_zero(self):
        assert f_tail(0.0, 3, 10) == 1.0

    @pytest.mark.parametrize("W,df1,df2", [(1.0, 1, 8), (2.057, 1, 8), (0.5, 3, 40), (4.2, 4, 995)])
    def test_matches_quadrature(self, W, df1, df2):
        # Independent oracle: numerically integrate the F density upper tail.
        tail, _ = integrate.quad(lambda x: stats.f.pdf(x, df1, df2), W, np.inf)
        assert f_tail(W, df1, df2) == pytest.approx(tail, abs=1e-8)


class TestFTailOracle:
    """The in-house incomplete beta against scipy's at the same x, over the
    degrees of freedom a Levene test of up to 11 strategies and 200,000
    replications produces (df2 = 3996 is the paper's)."""

    DF2 = (2, 3, 5, 10, 30, 100, 300, 1000, 1196, 3996, 10000, 20000, 49995, 100000, 10**6)

    @pytest.mark.parametrize("df2", DF2)
    def test_matches_scipy_betainc(self, df2):
        for df1 in range(1, 11):
            for W in np.geomspace(1e-4, 1e3, 60):
                W = float(W)
                x = df2 / (df2 + df1 * W)
                ref = float(special.betainc(df2 / 2.0, df1 / 2.0, x))
                got = f_tail(W, df1, df2)
                where = f"W={W!r}, df1={df1}, df2={df2}"
                if ref >= 1e-290:
                    assert abs(got - ref) <= 2e-12 * ref, where
                    # The Levene CSV prints p as %.6g, the report as %.3g.
                    assert f"{got:.6g}" == f"{ref:.6g}", where
                    assert f"{got:.3g}" == f"{ref:.3g}", where
                else:
                    assert abs(got - ref) <= 1e-300, where

    @pytest.mark.parametrize("W", [0.0, -0.0, -1e-300, -2.5])
    def test_non_positive_w(self, W):
        assert f_tail(W, 3, 3996) == 1.0


class TestLevene:
    def test_hand_oracle(self):
        # Groups {1..5} and {2,4,6,8,10} are symmetric, so their medians are
        # their means: z-deviations are (2,1,0,1,2) and (4,2,0,2,4); W =
        # (8/1) * 18/80 = 144/70... the full arithmetic gives W = 144/70.
        res = levene_test([[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]])
        assert res.W == pytest.approx(144 / 70)
        assert (res.df1, res.df2) == (1, 8)
        assert res.p_value == pytest.approx(f_tail(144 / 70, 1, 8))

    def test_matches_scipy(self, rng):
        groups = [rng.normal(0, s, size=40) for s in (1.0, 1.5, 0.7)]
        res = levene_test(groups)
        ref_w, ref_p = stats.levene(*groups, center="median")
        assert res.W == pytest.approx(ref_w, rel=1e-12)
        assert res.p_value == pytest.approx(ref_p, rel=1e-9)

    def test_location_shift_invariance(self, rng):
        groups = [rng.normal(size=30), rng.normal(size=25)]
        base = levene_test(groups)
        shifted = levene_test([groups[0] + 5.0, groups[1] - 3.0])
        assert base.W == pytest.approx(shifted.W, rel=1e-9)

    def test_common_scale_invariance(self, rng):
        groups = [rng.normal(size=30), rng.normal(size=25)]
        base = levene_test(groups)
        scaled = levene_test([2.0 * g for g in groups])
        assert base.W == pytest.approx(scaled.W, rel=1e-9)

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0, -3.25, 1e-300, -7e12]),
                    min_size=2, max_size=40)
           | st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    def test_median_is_numpys_bit_for_bit(self, values):
        # Odd and even lengths, ties, negative values and both signed zeros.
        values = np.array(values)
        assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()

    def test_degenerate_equal_constants(self):
        res = levene_test([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        assert res.W == 0.0 and res.p_value == 1.0

    def test_validation(self):
        with pytest.raises(AnalyticsError):
            levene_test([[1.0, 2.0]])
        with pytest.raises(AnalyticsError):
            levene_test([[1.0], [2.0, 3.0]])


class TestSummarize:
    def runs(self):
        return [
            run("Random", 2, [1.0, 3.0, 2.0]),  # mean 2, sd 1
            run("Industry", 2, [2.0, 2.5, 2.1]),
            run("HCT", 2, [1.5, 2.0, 1.7]),
        ]

    def test_sample_sd_and_sharpe(self):
        report = summarize(self.runs(), rf=1.0, levene_exclude=())
        s = {x.strategy: x for x in report.stats}
        assert s["Random"].std_dev == pytest.approx(1.0)
        assert s["Random"].sharpe == pytest.approx(1.0)

    def test_best_flag_marks_max_sharpe(self):
        report = summarize(self.runs(), rf=1.0, levene_exclude=())
        best = [x.strategy for x in report.stats if x.best]
        sharpes = {x.strategy: x.sharpe for x in report.stats}
        assert best == [max(sharpes, key=sharpes.get)]

    @pytest.mark.parametrize("exclude,names", [
        ((), ("Random", "Industry", "HCT")), (("HCT",), ("Random", "Industry")),
        (("Random", "HCT"), None),
    ])
    def test_levene_leaves_out_excluded_strategies(self, exclude, names):
        # Levene's test needs two strategies; with one left there is none.
        report = summarize(self.runs(), rf=1.0, levene_exclude=exclude)
        assert [(m, got) for m, got, _ in report.levene] == ([(2, names)] if names else [])

    def test_zero_sd_yields_none_sharpe(self):
        report = summarize(
            [run("Random", 2, [2.0, 2.0, 2.0]), run("Industry", 2, [1.0, 2.0, 3.5])], rf=0.0,
            levene_exclude=(),
        )
        s = {x.strategy: x for x in report.stats}
        assert s["Random"].sharpe is None and not s["Random"].best

    def test_mixed_periods_rejected(self):
        with pytest.raises(AnalyticsError):
            summarize([run("Random", 2, [1, 2]), run("Industry", 2, [1, 2], period="P2")], rf=0.0,
                      levene_exclude=())

    def test_empty_rejected(self):
        with pytest.raises(AnalyticsError):
            summarize([], rf=0.0, levene_exclude=())


class TestRendering:
    def report(self):
        return summarize(
            [
                run("Random", 2, [1.0, 3.0, 2.0]),
                run("Industry", 2, [2.0, 2.5, 2.2]),
                run("Random", 4, [1.5, 2.5, 2.1]),
                run("Industry", 4, [2.0, 2.4, 2.3]),
            ],
            rf=1.0,
            levene_exclude=(),
        )

    def test_csv_shape(self):
        text = render_report_csv(self.report())
        lines = text.strip().splitlines()
        assert lines[0] == "strategy,size,mean,sd,sharpe,best_flag"
        assert len(lines) == 5
        assert all(len(l.split(",")) == 6 for l in lines[1:])

    def test_markdown_contains_all_metrics(self):
        text = render_report(self.report())
        for token in ("Mean return (2-stock)", "Standard deviation (4-stock)",
                      "Sharpe ratio (2-stock)", "Random", "Industry", "Levene p-value"):
            assert token in text
        assert "*" in text  # a best flag is present

    def test_levene_csv(self):
        text = render_levene_csv(self.report())
        lines = text.strip().splitlines()
        assert lines[0] == "size,strategies,W,df1,df2,p"
        assert len(lines) == 3
        assert lines[1].startswith("2,Random+Industry,")

    def test_deterministic(self):
        assert render_report(self.report()) == render_report(self.report())
