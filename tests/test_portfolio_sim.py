"""Selection strategies, replication streams, and the Monte Carlo harness."""

from __future__ import annotations

from collections import Counter
from datetime import date
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from netfolio import portfolio_sim
from netfolio.clusters import ClusterPairing, renumber
from netfolio.market_data import ReturnPanel, StudyPeriod
from netfolio.portfolio_sim import (
    DrawPlan,
    IndustryMap,
    PortfolioDraw,
    SimulationError,
    Strategy,
    _draw_row,
    _draw_rows,
    _grouped_plan,
    _replication_words,
    cluster_mean_returns,
    default_industry_map,
    draw_matrices,
    draw_matrix,
    portfolio_return,
    replication_rng,
    run_simulation,
    select_cluster,
    select_industry,
    select_random,
)


def toy_panel(tickers, values):
    period = StudyPeriod("P1", date(2001, 1, 2), date(2004, 1, 6))
    return ReturnPanel(
        tuple(tickers),
        (period,),
        np.array([values], dtype=float),
        (np.zeros((3, len(tickers))),),
    )


FOUR_GROUPS = IndustryMap(
    {"A1": 1, "A2": 1, "B1": 2, "B2": 2, "C1": 3, "C2": 3, "D1": 4, "D2": 4}
)


class TestPortfolioDraw:
    def test_rejects_duplicates(self):
        with pytest.raises(SimulationError):
            PortfolioDraw(0, ("A", "A"))

    def test_return_is_mean_of_members(self):
        panel = toy_panel(["A", "B", "C"], [10.0, 20.0, 60.0])
        assert portfolio_return(PortfolioDraw(0, ("A", "C")), panel, "P1") == pytest.approx(35.0)

    def test_unknown_ticker(self):
        panel = toy_panel(["A"], [1.0])
        with pytest.raises(SimulationError):
            portfolio_return(PortfolioDraw(0, ("Z",)), panel, "P1")


class TestSelectRandom:
    def test_distinct_and_from_universe(self):
        rng = replication_rng(0, 0)
        draw = select_random(("A", "B", "C", "D"), 3, rng)
        assert len(set(draw.tickers)) == 3
        assert set(draw.tickers) <= {"A", "B", "C", "D"}

    def test_oversized_request(self):
        with pytest.raises(SimulationError):
            select_random(("A", "B"), 3, replication_rng(0, 0))

    def test_inclusion_frequency_uniform(self):
        universe = tuple(f"T{i}" for i in range(10))
        counts = Counter()
        reps = 4000
        for rep in range(reps):
            counts.update(select_random(universe, 4, replication_rng(7, rep)).tickers)
        # Each ticker appears with probability m/n = 0.4; three sigma binomial.
        sigma = np.sqrt(reps * 0.4 * 0.6)
        for t in universe:
            assert abs(counts[t] - reps * 0.4) < 3.5 * sigma


class TestSelectIndustry:
    def test_m4_one_per_group(self):
        draw = select_industry(FOUR_GROUPS, 4, replication_rng(0, 0))
        groups = sorted(FOUR_GROUPS.groups[t] for t in draw.tickers)
        assert groups == [1, 2, 3, 4]

    def test_m2_distinct_groups(self):
        for rep in range(200):
            draw = select_industry(FOUR_GROUPS, 2, replication_rng(3, rep))
            g = [FOUR_GROUPS.groups[t] for t in draw.tickers]
            assert g[0] != g[1]

    def test_m8_two_per_group(self):
        draw = select_industry(FOUR_GROUPS, 8, replication_rng(0, 0))
        counts = Counter(FOUR_GROUPS.groups[t] for t in draw.tickers)
        assert sorted(counts.values()) == [2, 2, 2, 2]

    def test_m8_needs_four_groups(self):
        two = IndustryMap({"A": 1, "B": 1, "C": 2, "D": 2})
        with pytest.raises(SimulationError):
            select_industry(two, 8, replication_rng(0, 0))

    def test_unsupported_m(self):
        with pytest.raises(SimulationError):
            select_industry(FOUR_GROUPS, 6, replication_rng(0, 0))

    def test_default_map_covers_dow(self):
        default = default_industry_map()
        sizes = sorted(len(ms) for ms in default.group_members().values())
        assert sum(sizes) == 30
        assert len(sizes) == 4

    def test_group_too_small_for_per_group_quota(self):
        small = IndustryMap({"A": 1, "B": 2, "C": 3, "D": 4})
        with pytest.raises(SimulationError):
            select_industry(small, 8, replication_rng(0, 0))


class TestSelectCluster:
    def assignment(self):
        return renumber([("A1", "A2"), ("B1", "B2"), ("C1", "C2"), ("D1", "D2")], "hct")

    def test_m2_uses_pairing(self):
        assignment = self.assignment()
        pairing = ClusterPairing(((1, 3), (2, 4)))
        seen_pairs = set()
        for rep in range(200):
            draw = select_cluster(assignment, pairing, 2, replication_rng(11, rep))
            cluster_of = assignment.assignment
            pair = tuple(sorted(cluster_of[t] for t in draw.tickers))
            seen_pairs.add(pair)
        assert seen_pairs == {(1, 3), (2, 4)}

    def test_m2_without_pairing_any_groups(self):
        assignment = self.assignment()
        seen = set()
        for rep in range(400):
            draw = select_cluster(assignment, None, 2, replication_rng(5, rep))
            seen.add(tuple(sorted(assignment.assignment[t] for t in draw.tickers)))
        assert seen == {p for p in map(tuple, map(sorted, combinations((1, 2, 3, 4), 2)))}

    def test_m4_and_m8(self):
        assignment = self.assignment()
        d4 = select_cluster(assignment, None, 4, replication_rng(0, 0))
        assert sorted(assignment.assignment[t] for t in d4.tickers) == [1, 2, 3, 4]
        d8 = select_cluster(assignment, None, 8, replication_rng(0, 0))
        assert sorted(d8.tickers) == sorted(assignment.assignment)

    def test_needs_two_or_four_clusters(self):
        three = renumber([("A",), ("B",), ("C",)], "hct")
        with pytest.raises(SimulationError):
            select_cluster(three, None, 2, replication_rng(0, 0))


class TestExactDistribution:
    """On a toy universe the draw distribution can be enumerated exactly."""

    def test_industry_m2_matches_rational_enumeration(self):
        groups = IndustryMap({"A1": 1, "A2": 1, "B1": 2, "C1": 3, "C2": 3, "D1": 4})
        members = groups.group_members()
        # Exact law: choose 2 of 4 groups uniformly, then one stock uniformly
        # within each.
        expected: dict[frozenset, Fraction] = {}
        pair_p = Fraction(1, 6)
        for ga, gb in combinations(sorted(members), 2):
            for a, b in product(members[ga], members[gb]):
                key = frozenset((a, b))
                p = pair_p * Fraction(1, len(members[ga])) * Fraction(1, len(members[gb]))
                expected[key] = expected.get(key, Fraction(0)) + p
        assert sum(expected.values()) == 1
        reps = 30000
        counts: Counter = Counter()
        for rep in range(reps):
            counts[frozenset(select_industry(groups, 2, replication_rng(17, rep)).tickers)] += 1
        assert set(counts) <= set(expected)
        for key, p in expected.items():
            se = float(np.sqrt(reps * float(p) * (1 - float(p))))
            assert abs(counts[key] - reps * float(p)) < 4 * se

    def test_support_is_exactly_the_enumerated_set(self):
        groups = IndustryMap({"A": 1, "B": 2, "C": 3, "D": 4})
        draws = {
            frozenset(select_industry(groups, 2, replication_rng(1, rep)).tickers)
            for rep in range(500)
        }
        assert draws == {frozenset(p) for p in combinations("ABCD", 2)}


class TestReplicationStreams:
    def test_streams_independent_of_order(self):
        a = [replication_rng(9, rep).integers(0, 10**9) for rep in (0, 1, 2, 3)]
        b = [replication_rng(9, rep).integers(0, 10**9) for rep in (3, 2, 1, 0)]
        assert a == b[::-1]

    def test_distinct_across_reps_and_seeds(self):
        v0 = replication_rng(0, 0).integers(0, 10**12)
        assert v0 != replication_rng(0, 1).integers(0, 10**12)
        assert v0 != replication_rng(1, 0).integers(0, 10**12)


class TestRunSimulation:
    def strategy(self):
        return Strategy("Random", "random", universe=("A", "B", "C", "D", "E"))

    def panel(self):
        return toy_panel(["A", "B", "C", "D", "E"], [1.0, 2.0, 4.0, 8.0, 16.0])

    def test_shape_and_metadata(self):
        run = run_simulation(self.strategy(), self.panel(), "P1", 2, reps=50, seed=4)
        assert run.replications == 50
        assert run.strategy == "Random" and run.m == 2 and run.period == "P1"

    def test_deterministic_across_worker_counts(self):
        runs = [
            run_simulation(self.strategy(), self.panel(), "P1", 2, reps=200, seed=4, workers=w)
            for w in (1, 4, 8)
        ]
        np.testing.assert_array_equal(runs[0].returns, runs[1].returns)
        np.testing.assert_array_equal(runs[0].returns, runs[2].returns)

    def test_values_are_pair_means(self):
        run = run_simulation(self.strategy(), self.panel(), "P1", 2, reps=100, seed=0)
        valid = {np.mean(pair) for pair in combinations([1.0, 2.0, 4.0, 8.0, 16.0], 2)}
        assert set(np.round(run.returns, 12)) <= valid

    def test_cluster_mean_returns(self):
        panel = toy_panel(["A", "B", "C", "D"], [1.0, 3.0, 5.0, 7.0])
        assignment = renumber([("A", "B"), ("C", "D")], "hct")
        rows = cluster_mean_returns(assignment, panel, "P1")
        assert rows == [(1, 2.0, 2), (2, 6.0, 2)]


class TestDrawMatrix:
    """The index matrix against the per-draw loop it replaces."""

    TICKERS = ("D2", "A1", "C1", "B2", "A2", "D1", "B1", "C2")

    def panel(self):
        values = np.random.default_rng(3).normal(5.0, 20.0, size=len(self.TICKERS))
        return toy_panel(self.TICKERS, values)

    def strategies(self):
        four = renumber([("A1", "B1"), ("A2", "C2"), ("B2", "D1"), ("C1", "D2")], "hct")
        two = renumber([("A1", "A2", "B1", "B2"), ("C1", "C2", "D1", "D2")], "mst")
        return [
            Strategy("Random", "random", universe=self.TICKERS),
            Strategy("Industry", "industry", industry=FOUR_GROUPS),
            Strategy("Paired", "cluster", assignment=four, pairing=ClusterPairing(((1, 3), (2, 4)))),
            Strategy("Unpaired", "cluster", assignment=four),
            Strategy("Two", "cluster", assignment=two),
        ]

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_rows_are_the_drawn_portfolios(self, m):
        panel = self.panel()
        for strategy in self.strategies():
            columns = draw_matrix(strategy, panel, m, reps=60, seed=12)
            draws = [strategy.draw(m, replication_rng(12, rep), rep) for rep in range(60)]
            expected = [[panel.column[t] for t in d.tickers] for d in draws]
            assert columns.tolist() == expected, strategy.name
            run = run_simulation(strategy, panel, "P1", m, reps=60, seed=12)
            loop = np.array([portfolio_return(d, panel, "P1") for d in draws])
            np.testing.assert_array_equal(run.returns, loop)

    def test_ticker_outside_panel(self):
        panel = toy_panel(["A1", "B1", "C1"], [1.0, 2.0, 3.0])
        strategy = Strategy("Industry", "industry", industry=FOUR_GROUPS)
        with pytest.raises(SimulationError, match="unknown ticker 'A2'"):
            draw_matrix(strategy, panel, 2, reps=5)

    def test_size_checked_before_drawing(self):
        strategy = Strategy("Industry", "industry", industry=FOUR_GROUPS)
        with pytest.raises(SimulationError, match="m <= 4 or m = 8"):
            draw_matrix(strategy, self.panel(), 6, reps=5)

    def test_unknown_kind(self):
        with pytest.raises(SimulationError, match="unknown strategy kind"):
            draw_matrix(Strategy("X", "lottery"), self.panel(), 2, reps=5)


def seeded_plans(seed: int) -> list[DrawPlan]:
    """Random plans over 2..59 tickers (m = n among the sizes drawn), and 2-
    to 5-group plans of 1..11 members each, with singletons, paired and
    unpaired."""
    meta = np.random.default_rng(seed)
    plans = []
    for _ in range(12):
        n = int(meta.integers(2, 60))
        plans.append(DrawPlan("random", tuple(f"T{i}" for i in range(n)), (n,)))
    for c in (2, 3, 4, 4, 4, 5) * 3:
        groups = {g: tuple(f"G{g}_{i}" for i in range(int(meta.integers(1, 12))))
                  for g in range(1, c + 1)}
        pairing = ClusterPairing(((1, 3), (2, 4))) if c == 4 and meta.random() < 0.5 else None
        plans.append(_grouped_plan("cluster" if c in (2, 4) else "industry", groups, pairing))
    groups = {1: ("A",), 2: ("B",), 3: ("C1", "C2", "C3"), 4: ("D",)}
    plans.append(_grouped_plan("cluster", groups, ClusterPairing(((1, 2), (3, 4)))))
    plans.append(_grouped_plan("cluster", groups))
    return plans


def drawable(plan: DrawPlan, m: int) -> bool:
    try:
        plan.check(m)
    except SimulationError:
        return False
    return True


class TestBatchedDraws:
    """The batched core against the scalar core it replays, row for row."""

    REPS = 40

    @pytest.mark.parametrize("seed", [0, 9, 12345, 2**40 + 7])
    def test_rows_equal_scalar_draws(self, seed):
        blocks = 0
        for plan in seeded_plans(seed):
            for m in sorted({1, 2, 3, 4, 8, len(plan.labels)}):
                if not drawable(plan, m):
                    continue
                words = _replication_words(seed, self.REPS, (3 * m + 1) // 2)
                positions, redo = _draw_rows(plan, m, words)
                assert not redo.any()
                expected = [_draw_row(plan, m, replication_rng(seed, rep))
                            for rep in range(self.REPS)]
                assert positions.tolist() == expected, (plan, m)
                blocks += 1
        assert blocks > 100

    def test_draw_matrices_reads_each_stream_once(self, monkeypatch):
        panel = TestDrawMatrix().panel()
        strategies = TestDrawMatrix().strategies()
        calls = []

        def counted(seed, reps, k):
            calls.append((seed, reps, k))
            return _replication_words(seed, reps, k)

        monkeypatch.setattr(portfolio_sim, "_replication_words", counted)
        matrices = draw_matrices(strategies, panel, [2, 4, 8], reps=30, seed=5)
        assert calls == [(5, 30, 12)]
        blocks = [(m, s) for m in (2, 4, 8) for s in strategies]
        assert len(matrices) == len(blocks)
        for (m, strategy), columns in zip(blocks, matrices):
            draws = [strategy.draw(m, replication_rng(5, rep), rep) for rep in range(30)]
            assert columns.tolist() == [[panel.column[t] for t in d.tickers] for d in draws]

    def test_rejected_word_falls_back_to_scalar_core(self, monkeypatch):
        strategy = Strategy("Random", "random", universe=("A", "B", "C", "D"))
        panel = toy_panel(["A", "B", "C", "D"], [1.0, 2.0, 3.0, 4.0])

        def crafted(seed, reps, k):
            # Row 3's first draw is Floyd's j = 2, bound 3: a zero word leaves
            # 0 < (2**32 - 3) % 3 = 1, which numpy rejects and redraws.
            words = _replication_words(seed, reps, k)
            words[3, 0] = 0
            return words

        positions, redo = _draw_rows(strategy.plan, 2, crafted(0, 8, 3))
        assert redo.tolist() == [rep == 3 for rep in range(8)]
        scalar = [_draw_row(strategy.plan, 2, replication_rng(0, rep)) for rep in range(8)]
        assert positions[3].tolist() != scalar[3]
        monkeypatch.setattr(portfolio_sim, "_replication_words", crafted)
        columns = draw_matrix(strategy, panel, 2, reps=8, seed=0)
        assert columns.tolist() == scalar

    def test_rows_past_the_last_word_are_flagged(self):
        plan = Strategy("Industry", "industry", industry=FOUR_GROUPS).plan
        _, redo = _draw_rows(plan, 8, _replication_words(0, 6, 1))
        assert redo.all()

    @pytest.mark.parametrize("n", [10_000, 10_001])
    def test_floyd_limit(self, n):
        tickers = tuple(f"T{i:05d}" for i in range(n))
        strategy = Strategy("Random", "random", universe=tickers)
        panel = toy_panel(tickers, np.zeros(n))
        columns = draw_matrix(strategy, panel, 8, reps=5, seed=3)
        draws = [strategy.draw(8, replication_rng(3, rep), rep) for rep in range(5)]
        assert columns.tolist() == [[panel.column[t] for t in d.tickers] for d in draws]


class TestCachedMembership:
    def test_group_members_is_a_copy(self):
        industry = IndustryMap({"A": 1, "B": 2, "C": 1})
        industry.group_members()[1] = ("Z",)
        assert industry.group_members() == {1: ("A", "C"), 2: ("B",)}
