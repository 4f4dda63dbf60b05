"""Ingestion, total-return indices, period returns, synthetic panels."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest

from netfolio.market_data import (
    BlockModelSpec,
    DataError,
    Dividend,
    DividendTable,
    PricePanel,
    StudyPeriod,
    ingest,
    period_returns,
    synthesize_panel,
    total_return_index,
)


def write_csvs(tmp_path, price_rows, div_rows):
    prices = tmp_path / "prices.csv"
    prices.write_text("date,ticker,close\n" + "".join(f"{r}\n" for r in price_rows))
    divs = tmp_path / "dividends.csv"
    divs.write_text("ticker,payment_date,amount\n" + "".join(f"{r}\n" for r in div_rows))
    return prices, divs


WEEK1, WEEK2, WEEK3 = "2001-01-02", "2001-01-09", "2001-01-16"


def simple_panel(prices=(10.0, 10.0, 10.0), dividends=()):
    dates = tuple(date(2001, 1, 2) + timedelta(weeks=w) for w in range(len(prices)))
    close = np.array([[p] for p in prices])
    panel = PricePanel(("AAA",), dates, close)
    table = DividendTable(tuple(Dividend("AAA", dates[i], amt) for i, amt in dividends))
    return panel, table


class TestIngest:
    def test_well_formed(self, tmp_path):
        p, d = write_csvs(
            tmp_path,
            [
                f"{WEEK1},AAA,10", f"{WEEK1},BBB,20",
                f"{WEEK2},AAA,11", f"{WEEK2},BBB,21",
                f"{WEEK3},AAA,12", f"{WEEK3},BBB,22",
            ],
            ["AAA,2001-01-09,0.5"],
        )
        panel, divs = ingest(p, d)
        assert panel.tickers == ("AAA", "BBB")
        assert panel.close.size == 6
        assert divs.entries[0].amount == 0.5

    def test_negative_price_names_cell(self, tmp_path):
        p, d = write_csvs(tmp_path, [f"{WEEK1},AAA,10", f"{WEEK2},AAA,-3"], [])
        with pytest.raises(DataError, match=r"2001-01-09, AAA"):
            ingest(p, d)

    def test_missing_cell_named(self, tmp_path):
        p, d = write_csvs(
            tmp_path,
            [f"{WEEK1},AAA,10", f"{WEEK1},BBB,20", f"{WEEK2},AAA,11"],
            [],
        )
        with pytest.raises(DataError, match=r"missing price cell \(2001-01-09, BBB\)"):
            ingest(p, d)

    def test_malformed_row_names_line(self, tmp_path):
        p, d = write_csvs(tmp_path, [f"{WEEK1},AAA,10", "oops"], [])
        with pytest.raises(DataError, match=r":3"):
            ingest(p, d)

    def test_malformed_date_names_line(self, tmp_path):
        p, d = write_csvs(
            tmp_path,
            [f"{WEEK1},AAA,10", f"{WEEK2},AAA,11", f"{WEEK2},BBB,11", "2001-02-30,AAA,12"],
            [],
        )
        with pytest.raises(DataError, match=r"prices\.csv:5: invalid ISO-8601 date '2001-02-30'"):
            ingest(p, d)

    def test_dividend_outside_range(self, tmp_path):
        p, d = write_csvs(
            tmp_path,
            [f"{WEEK1},AAA,10", f"{WEEK2},AAA,11"],
            ["AAA,2005-01-01,0.5"],
        )
        with pytest.raises(DataError, match="outside panel range"):
            ingest(p, d)

    def test_dividend_unknown_ticker(self, tmp_path):
        p, d = write_csvs(tmp_path, [f"{WEEK1},AAA,10", f"{WEEK2},AAA,11"], ["ZZZ,2001-01-02,1"])
        with pytest.raises(DataError, match="unknown ticker 'ZZZ'"):
            ingest(p, d)


class TestTotalReturnIndex:
    def test_constant_price_no_dividends(self):
        panel, divs = simple_panel()
        tri = total_return_index(panel, divs, "AAA")
        assert np.array_equal(tri, [10.0, 10.0, 10.0])

    def test_price_doubling(self):
        panel, divs = simple_panel(prices=(10.0, 20.0))
        tri = total_return_index(panel, divs, "AAA")
        assert tri[-1] / tri[0] - 1.0 == 1.0

    def test_dividend_reinvestment_plus_ten_percent(self):
        panel, divs = simple_panel(dividends=((1, 1.0),))
        tri = total_return_index(panel, divs, "AAA")
        assert tri[-1] == pytest.approx(11.0, abs=0)
        assert tri[-1] / tri[0] - 1.0 == pytest.approx(0.10, rel=1e-14)

    def test_zero_dividends_equals_price_path(self, rng):
        prices = tuple(rng.uniform(5, 50, size=20))
        panel, divs = simple_panel(prices=prices)
        assert np.array_equal(total_return_index(panel, divs, "AAA"), prices)

    def test_two_dividends_multiplicative(self):
        panel, divs = simple_panel(prices=(10.0, 20.0, 40.0), dividends=((1, 2.0), (2, 4.0)))
        tri = total_return_index(panel, divs, "AAA")
        assert tri[-1] == pytest.approx((1 + 2.0 / 20.0) * (1 + 4.0 / 40.0) * 40.0)

    def test_payment_date_rolls_forward(self):
        panel, _ = simple_panel(prices=(10.0, 20.0, 40.0))
        divs = DividendTable((Dividend("AAA", panel.dates[1] - timedelta(days=3), 2.0),))
        rolled = total_return_index(panel, divs, "AAA")
        at_close = total_return_index(
            panel, DividendTable((Dividend("AAA", panel.dates[1], 2.0),)), "AAA"
        )
        assert np.array_equal(rolled, at_close)

    def test_other_tickers_unaffected(self):
        dates = tuple(date(2001, 1, 2) + timedelta(weeks=w) for w in range(3))
        panel = PricePanel(("AAA", "BBB"), dates, np.full((3, 2), 10.0))
        divs = DividendTable((Dividend("BBB", dates[1], 5.0),))
        assert np.array_equal(total_return_index(panel, divs, "AAA"), [10.0, 10.0, 10.0])


class TestPeriodReturns:
    def test_flat_prices(self):
        panel, divs = simple_panel()
        rp = period_returns(panel, divs, [StudyPeriod("P", panel.dates[0], panel.dates[-1])])
        assert rp.total_return[0, 0] == 0.0
        assert np.all(rp.weekly_returns[0] == 0.0)

    def test_return_from_index_levels(self):
        panel, divs = simple_panel(prices=(100.0, 130.0, 160.8))
        rp = period_returns(panel, divs, [StudyPeriod("P", panel.dates[0], panel.dates[-1])])
        assert rp.total_return[0, 0] == pytest.approx(60.8)
        assert rp.weekly_returns[0].shape == (2, 1)

    def test_reference_period_boundaries_accepted(self):
        start, end = date(2001, 1, 2), date(2013, 5, 14)
        dates, d = [], start
        while d <= end:
            dates.append(d)
            d += timedelta(weeks=1)
        if dates[-1] != end:
            dates.append(end)
        panel = PricePanel(("AAA",), tuple(dates), np.full((len(dates), 1), 10.0))
        periods = [
            StudyPeriod("P1", date(2001, 1, 2), date(2004, 1, 6)),
            StudyPeriod("P2", date(2004, 1, 6), date(2007, 1, 2)),
            StudyPeriod("P3", date(2007, 1, 2), date(2010, 1, 5)),
            StudyPeriod("P4", date(2010, 1, 5), date(2013, 5, 14)),
        ]
        rp = period_returns(panel, divs=DividendTable(()), periods=periods)
        assert [p.label for p in rp.periods] == ["P1", "P2", "P3", "P4"]

    def test_boundary_not_a_panel_date(self):
        panel, divs = simple_panel()
        with pytest.raises(DataError, match="not a panel date"):
            period_returns(panel, divs, [StudyPeriod("P", panel.dates[0], date(2030, 1, 1))])

    def test_composition_across_subperiods(self, rng):
        prices = tuple(rng.uniform(20, 60, size=30))
        panel, _ = simple_panel(prices=prices)
        divs = DividendTable(
            tuple(Dividend("AAA", panel.dates[i], a) for i, a in ((5, 0.7), (12, 1.1), (20, 0.3)))
        )
        mid = panel.dates[14]
        periods = [
            StudyPeriod("AB", panel.dates[0], mid),
            StudyPeriod("BC", mid, panel.dates[-1]),
            StudyPeriod("AC", panel.dates[0], panel.dates[-1]),
        ]
        rp = period_returns(panel, divs, periods)
        r = rp.total_return[:, 0] / 100.0
        assert (1 + r[0]) * (1 + r[1]) == pytest.approx(1 + r[2], rel=1e-12)


class TestSynthesizePanel:
    SPEC = BlockModelSpec(block_sizes=(4, 4), loadings=(0.9, 0.9), idio_vol=0.01, weeks=156)

    def test_same_seed_bit_identical(self):
        a, da = synthesize_panel(self.SPEC, seed=3)
        b, db = synthesize_panel(self.SPEC, seed=3)
        assert np.array_equal(a.close, b.close)
        assert da == db

    def test_within_block_correlation_exceeds_cross(self):
        panel, _ = synthesize_panel(self.SPEC, seed=3)
        rets = panel.close[1:] / panel.close[:-1] - 1.0
        rho = np.corrcoef(rets, rowvar=False)
        within = np.concatenate([rho[:4, :4][np.triu_indices(4, 1)], rho[4:, 4:][np.triu_indices(4, 1)]])
        cross = rho[:4, 4:].ravel()
        assert within.mean() > cross.mean() + 0.3

    def test_zero_loading_uncorrelated(self):
        spec = BlockModelSpec(block_sizes=(4, 4), loadings=(0.0, 0.0), idio_vol=0.01, weeks=400)
        panel, _ = synthesize_panel(spec, seed=5)
        rets = panel.close[1:] / panel.close[:-1] - 1.0
        rho = np.corrcoef(rets, rowvar=False)
        off = rho[np.triu_indices(8, 1)]
        assert abs(off.mean()) < 3.0 / np.sqrt(400)

    def test_nonpositive_volatility_rejected(self):
        with pytest.raises(DataError, match="positive"):
            BlockModelSpec(block_sizes=(2,), loadings=(0.5,), idio_vol=0.0, weeks=10)

    def test_dividends_generated_when_enabled(self):
        spec = BlockModelSpec(
            block_sizes=(2,), loadings=(0.5,), idio_vol=0.01, weeks=20, dividend_every=10
        )
        _, divs = synthesize_panel(spec, seed=1)
        assert len(divs.entries) == 4  # 2 payments x 2 stocks
