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
    SimulationError,
    Strategy,
    _draw_row,
    _draw_rows,
    _grouped_plan,
    _replication_words,
    cluster_plan,
    default_industry_map,
    draw_matrices,
    random_plan,
    replication_rng,
    run_simulation,
    score_period,
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


def drawn(plan: DrawPlan, m: int, reps: int = 1, seed: int = 0) -> list[tuple[str, ...]]:
    """The tickers of each row of the ``draw_matrices`` block of ``plan``."""
    tickers = tuple(sorted(plan.labels))
    panel = toy_panel(tickers, np.zeros(len(tickers)))
    columns = draw_matrices([Strategy("S", plan)], panel, [m], reps, seed)[0]
    return [tuple(tickers[c] for c in row) for row in columns.tolist()]


def scalar_columns(plan: DrawPlan, panel: ReturnPanel, m: int, reps: int,
                   seed: int) -> list[list[int]]:
    """The panel columns ``_draw_row`` draws, one replication at a time."""
    return [[panel.column[plan.labels[p]] for p in _draw_row(plan, m, replication_rng(seed, rep))]
            for rep in range(reps)]


class TestSelectRandom:
    def test_distinct_and_from_universe(self):
        (draw,) = drawn(random_plan(("A", "B", "C", "D")), 3)
        assert len(set(draw)) == 3
        assert set(draw) <= {"A", "B", "C", "D"}

    def test_oversized_request(self):
        with pytest.raises(SimulationError):
            drawn(random_plan(("A", "B")), 3)

    def test_inclusion_frequency_uniform(self):
        universe = tuple(f"T{i}" for i in range(10))
        counts = Counter()
        reps = 4000
        for draw in drawn(random_plan(universe), 4, reps, seed=7):
            counts.update(draw)
        # Each ticker appears with probability m/n = 0.4; three sigma binomial.
        sigma = np.sqrt(reps * 0.4 * 0.6)
        for t in universe:
            assert abs(counts[t] - reps * 0.4) < 3.5 * sigma


class TestSelectIndustry:
    def test_m4_one_per_group(self):
        (draw,) = drawn(FOUR_GROUPS.plan, 4)
        groups = sorted(FOUR_GROUPS.groups[t] for t in draw)
        assert groups == [1, 2, 3, 4]

    def test_m2_distinct_groups(self):
        for draw in drawn(FOUR_GROUPS.plan, 2, reps=200, seed=3):
            g = [FOUR_GROUPS.groups[t] for t in draw]
            assert g[0] != g[1]

    def test_m8_two_per_group(self):
        (draw,) = drawn(FOUR_GROUPS.plan, 8)
        counts = Counter(FOUR_GROUPS.groups[t] for t in draw)
        assert sorted(counts.values()) == [2, 2, 2, 2]

    def test_m8_needs_four_groups(self):
        two = IndustryMap({"A": 1, "B": 1, "C": 2, "D": 2})
        with pytest.raises(SimulationError):
            drawn(two.plan, 8)

    def test_unsupported_m(self):
        with pytest.raises(SimulationError):
            drawn(FOUR_GROUPS.plan, 6)

    def test_default_map_covers_dow(self):
        assert sorted(default_industry_map().plan.sizes) == [5, 8, 8, 9]

    def test_group_too_small_for_per_group_quota(self):
        small = IndustryMap({"A": 1, "B": 2, "C": 3, "D": 4})
        with pytest.raises(SimulationError):
            drawn(small.plan, 8)


class TestSelectCluster:
    def assignment(self):
        return renumber([("A1", "A2"), ("B1", "B2"), ("C1", "C2"), ("D1", "D2")], "hct")

    def test_m2_uses_pairing(self):
        assignment = self.assignment()
        pairing = ClusterPairing(((1, 3), (2, 4)))
        seen_pairs = set()
        for draw in drawn(cluster_plan(assignment, pairing), 2, reps=200, seed=11):
            cluster_of = assignment.assignment
            pair = tuple(sorted(cluster_of[t] for t in draw))
            seen_pairs.add(pair)
        assert seen_pairs == {(1, 3), (2, 4)}

    def test_m2_without_pairing_any_groups(self):
        assignment = self.assignment()
        seen = set()
        for draw in drawn(cluster_plan(assignment), 2, reps=400, seed=5):
            seen.add(tuple(sorted(assignment.assignment[t] for t in draw)))
        assert seen == {p for p in map(tuple, map(sorted, combinations((1, 2, 3, 4), 2)))}

    def test_m4_and_m8(self):
        assignment = self.assignment()
        (d4,) = drawn(cluster_plan(assignment), 4)
        assert sorted(assignment.assignment[t] for t in d4) == [1, 2, 3, 4]
        (d8,) = drawn(cluster_plan(assignment), 8)
        assert sorted(d8) == sorted(assignment.assignment)

    def test_needs_two_or_four_clusters(self):
        three = renumber([("A",), ("B",), ("C",)], "hct")
        with pytest.raises(SimulationError):
            drawn(cluster_plan(three), 2)


class TestExactDistribution:
    """On a toy universe the draw distribution can be enumerated exactly."""

    def test_industry_m2_matches_rational_enumeration(self):
        groups = IndustryMap({"A1": 1, "A2": 1, "B1": 2, "C1": 3, "C2": 3, "D1": 4})
        members: dict[int, list[str]] = {}
        for t, g in groups.groups.items():
            members.setdefault(g, []).append(t)
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
        counts = Counter(frozenset(draw) for draw in drawn(groups.plan, 2, reps, seed=17))
        assert set(counts) <= set(expected)
        for key, p in expected.items():
            se = float(np.sqrt(reps * float(p) * (1 - float(p))))
            assert abs(counts[key] - reps * float(p)) < 4 * se

    def test_support_is_exactly_the_enumerated_set(self):
        groups = IndustryMap({"A": 1, "B": 2, "C": 3, "D": 4})
        draws = {frozenset(draw) for draw in drawn(groups.plan, 2, reps=500, seed=1)}
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
        return Strategy("Random", random_plan(("A", "B", "C", "D", "E")))

    def panel(self):
        return toy_panel(["A", "B", "C", "D", "E"], [1.0, 2.0, 4.0, 8.0, 16.0])

    def test_shape_and_metadata(self):
        run = run_simulation(self.strategy(), self.panel(), "P1", 2, reps=50, seed=4)
        assert run.replications == 50
        assert run.strategy == "Random" and run.m == 2 and run.period == "P1"

    def test_values_are_pair_means(self):
        run = run_simulation(self.strategy(), self.panel(), "P1", 2, reps=100, seed=0)
        valid = {np.mean(pair) for pair in combinations([1.0, 2.0, 4.0, 8.0, 16.0], 2)}
        assert set(np.round(run.returns, 12)) <= valid

    def test_return_is_mean_of_members(self):
        panel = toy_panel(["A", "B", "C"], [10.0, 20.0, 60.0])
        run = score_period("X", np.array([[0, 2], [1, 2]]), panel, "P1")
        assert run.returns.tolist() == pytest.approx([35.0, 40.0])


class TestDrawMatrix:
    """Each draw_matrices block against the scalar draws it replays."""

    TICKERS = ("D2", "A1", "C1", "B2", "A2", "D1", "B1", "C2")

    def panel(self):
        values = np.random.default_rng(3).normal(5.0, 20.0, size=len(self.TICKERS))
        return toy_panel(self.TICKERS, values)

    def strategies(self):
        four = renumber([("A1", "B1"), ("A2", "C2"), ("B2", "D1"), ("C1", "D2")], "hct")
        two = renumber([("A1", "A2", "B1", "B2"), ("C1", "C2", "D1", "D2")], "mst")
        return [
            Strategy("Random", random_plan(self.TICKERS)),
            Strategy("Industry", FOUR_GROUPS.plan),
            Strategy("Paired", cluster_plan(four, ClusterPairing(((1, 3), (2, 4))))),
            Strategy("Unpaired", cluster_plan(four)),
            Strategy("Two", cluster_plan(two)),
        ]

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_rows_are_the_drawn_portfolios(self, m):
        panel = self.panel()
        for strategy in self.strategies():
            (columns,) = draw_matrices([strategy], panel, [m], reps=60, seed=12)
            expected = scalar_columns(strategy.plan, panel, m, 60, 12)
            assert columns.tolist() == expected, strategy.name
            run = run_simulation(strategy, panel, "P1", m, reps=60, seed=12)
            loop = np.array([np.mean(panel.returns_for("P1")[row]) for row in expected])
            np.testing.assert_array_equal(run.returns, loop)

    def test_ticker_outside_panel(self):
        panel = toy_panel(["A1", "B1", "C1"], [1.0, 2.0, 3.0])
        strategy = Strategy("Industry", FOUR_GROUPS.plan)
        with pytest.raises(SimulationError, match="unknown ticker 'A2'"):
            draw_matrices([strategy], panel, [2], reps=5)

    def test_size_checked_before_drawing(self):
        strategy = Strategy("Industry", FOUR_GROUPS.plan)
        with pytest.raises(SimulationError, match="m <= 4 or m = 8"):
            draw_matrices([strategy], self.panel(), [6], reps=5)


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

    def test_rows_have_distinct_columns(self):
        for seed in (0, 9, 12345, 2**40 + 7):
            for plan in seeded_plans(seed):
                tickers = tuple(sorted(plan.labels))
                panel = toy_panel(tickers, np.zeros(len(tickers)))
                sizes = [m for m in sorted({1, 2, 3, 4, 8, len(tickers)}) if drawable(plan, m)]
                for columns in draw_matrices([Strategy("S", plan)], panel, sizes, self.REPS, seed):
                    ordered = np.sort(columns, axis=1)
                    assert (ordered[:, 1:] != ordered[:, :-1]).all(), (plan, columns.shape[1])

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
            assert columns.tolist() == scalar_columns(strategy.plan, panel, m, 30, 5)

    def test_rejected_word_falls_back_to_scalar_core(self, monkeypatch):
        strategy = Strategy("Random", random_plan(("A", "B", "C", "D")))
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
        (columns,) = draw_matrices([strategy], panel, [2], reps=8, seed=0)
        assert columns.tolist() == scalar

    def test_rows_past_the_last_word_are_flagged(self):
        _, redo = _draw_rows(FOUR_GROUPS.plan, 8, _replication_words(0, 6, 1))
        assert redo.all()

    @pytest.mark.parametrize("n", [10_000, 10_001])
    def test_floyd_limit(self, n):
        tickers = tuple(f"T{i:05d}" for i in range(n))
        strategy = Strategy("Random", random_plan(tickers))
        panel = toy_panel(tickers, np.zeros(n))
        (columns,) = draw_matrices([strategy], panel, [8], reps=5, seed=3)
        assert columns.tolist() == scalar_columns(strategy.plan, panel, 8, 5, 3)
