"""Portfolio selection strategies and the Monte Carlo replication harness.

Five strategies: uniform random, industry super-groups, and correlation
clusters from each network method. Portfolios are equal-weight buy-and-hold;
a draw's return is the arithmetic mean of its constituents' period returns.

Each strategy resolves once to a DrawPlan: its candidate tickers laid out
group after group. One draw core turns a plan and a replication stream into
the positions of one portfolio; ``draw_matrix`` stacks the portfolios of all
replications into a (reps x m) matrix of ReturnPanel columns, drawn once and
scored on every test period with one gather and mean (``score_period``).
The engine is single-threaded; replication rng streams derive from
(seed, replication index) alone, so the output depends only on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import reference
from .clusters import ClusterAssignment, ClusterPairing
from .market_data import ReturnPanel


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class IndustryMap:
    groups: dict[str, int]  # ticker -> super-group id

    def __post_init__(self) -> None:
        if len(set(self.groups.values())) < 2:
            raise SimulationError("need at least 2 industry groups")

    @cached_property
    def _members(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {}
        for t, g in sorted(self.groups.items()):
            out.setdefault(g, []).append(t)
        return {g: tuple(ms) for g, ms in sorted(out.items())}

    def group_members(self) -> dict[int, tuple[str, ...]]:
        return dict(self._members)

    @cached_property
    def plan(self) -> DrawPlan:
        return _grouped_plan("industry", self._members)


def default_industry_map() -> IndustryMap:
    return IndustryMap(dict(reference.SUPER_GROUPS))


@dataclass(frozen=True)
class PortfolioDraw:
    replication: int
    tickers: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.tickers)) != len(self.tickers):
            raise SimulationError("portfolio tickers must be distinct")

    @property
    def m(self) -> int:
        return len(self.tickers)


@dataclass(frozen=True)
class SimulationRun:
    strategy: str
    m: int
    seed: int
    period: str
    returns: np.ndarray  # per-replication portfolio returns, percent

    @property
    def replications(self) -> int:
        return len(self.returns)


@dataclass(frozen=True)
class DrawPlan:
    """A selection rule over positions into ``labels``.

    ``labels`` lists the candidate tickers group after group (sorted ids,
    sorted members); ``sizes`` are the group lengths and ``ids`` the group
    ids. The random rule is a single unstratified group holding the sorted
    universe. ``pairs`` are group positions for the paired m=2 draw.
    """

    rule: str  # random | industry | cluster
    labels: tuple[str, ...]
    sizes: tuple[int, ...]
    ids: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()

    @cached_property
    def starts(self) -> tuple[int, ...]:
        return tuple(accumulate(self.sizes[:-1], initial=0))

    def check(self, m: int) -> None:
        """Raise SimulationError unless this rule can draw a portfolio of m."""
        c = len(self.sizes)
        if self.rule == "random":
            if m > len(self.labels):
                raise SimulationError(f"cannot draw {m} from {len(self.labels)} tickers")
            return
        if m > 4 and m != 8:
            raise SimulationError(f"{self.rule} selection supports m <= 4 or m = 8")
        if self.rule == "industry" and m == 8 and c != 4:
            raise SimulationError("m=8 industry selection needs exactly 4 groups")
        if self.rule == "cluster" and c not in (2, 4):
            raise SimulationError("cluster selection expects 2 or 4 clusters")
        if m <= 4 and m <= c:
            return
        if m >= c and m % c == 0:
            for g, size in zip(self.ids, self.sizes):
                if size < m // c:
                    raise SimulationError(
                        f"group {g} has {size} stocks; cannot take {m // c} distinct"
                    )
            return
        raise SimulationError(f"portfolio size {m} incompatible with {c} groups")

    def draw(self, m: int, rng: np.random.Generator, replication: int = 0) -> PortfolioDraw:
        self.check(m)
        return PortfolioDraw(replication, tuple(self.labels[p] for p in _draw_row(self, m, rng)))


def _draw_row(plan: DrawPlan, m: int, rng: np.random.Generator) -> list[int]:
    """Positions of one portfolio; the caller has run ``plan.check(m)``.

    Random: m of the universe without replacement. Stratified: one stock
    from each of m groups when m <= group count (for m=2 over more groups,
    the groups of one uniformly chosen pair when the plan has pairs), else
    m / count distinct stocks from every group. Drawing positions consumes
    the stream exactly as drawing the tickers themselves would:
    ``rng.choice(n, ...)`` as ``rng.choice(array_of_n, ...)`` and
    ``rng.integers(n)`` as ``rng.choice(array_of_n)``.
    """
    sizes, starts = plan.sizes, plan.starts
    if plan.rule == "random":
        return rng.choice(sizes[0], size=m, replace=False).tolist()
    c = len(sizes)
    if m <= 4 and m <= c:
        if m == 2 and c > 2 and plan.pairs:
            chosen = plan.pairs[int(rng.integers(len(plan.pairs)))]
        else:
            chosen = rng.choice(c, size=m, replace=False).tolist()
        return [starts[g] + int(rng.integers(sizes[g])) for g in chosen]
    per = m // c
    return [starts[g] + k for g in range(c)
            for k in rng.choice(sizes[g], size=per, replace=False).tolist()]


def _random_plan(universe: tuple[str, ...]) -> DrawPlan:
    if len(set(universe)) != len(universe):
        raise SimulationError("universe tickers must be distinct")
    return DrawPlan("random", tuple(sorted(universe)), (len(universe),))


def _grouped_plan(rule: str, groups: dict[int, tuple[str, ...]],
                  pairing: ClusterPairing | None = None) -> DrawPlan:
    ids = tuple(sorted(groups))
    pos = {g: i for i, g in enumerate(ids)}
    pairs = () if pairing is None else tuple((pos[a], pos[b]) for a, b in pairing.pairs)
    labels = tuple(t for g in ids for t in groups[g])
    return DrawPlan(rule, labels, tuple(len(groups[g]) for g in ids), ids, pairs)


def select_random(universe: tuple[str, ...], m: int, rng: np.random.Generator,
                  replication: int = 0) -> PortfolioDraw:
    """m distinct tickers, uniform without replacement."""
    return _random_plan(universe).draw(m, rng, replication)


def select_industry(industry: IndustryMap, m: int, rng: np.random.Generator,
                    replication: int = 0) -> PortfolioDraw:
    """Uniform group-stratified draw over the industry super-groups."""
    return industry.plan.draw(m, rng, replication)


def select_cluster(assignment: ClusterAssignment, pairing: ClusterPairing | None,
                   m: int, rng: np.random.Generator, replication: int = 0) -> PortfolioDraw:
    """Industry-style stratified draw over correlation clusters.

    With more clusters than stocks wanted (m=2, c=4) the two clusters come
    from one uniformly chosen entry of the pairing when one is given.
    """
    return _grouped_plan("cluster", assignment.clusters(), pairing).draw(m, rng, replication)


def _columns(returns: ReturnPanel, tickers: tuple[str, ...]) -> np.ndarray:
    column = returns.column
    try:
        return np.array([column[t] for t in tickers], dtype=np.intp)
    except KeyError as exc:
        raise SimulationError(f"unknown ticker {exc.args[0]!r} in draw") from None


def portfolio_return(draw: PortfolioDraw, returns: ReturnPanel, period: str) -> float:
    """Equal-weight buy-and-hold period return (%), exact for simple returns."""
    row = returns.returns_for(period)
    return float(np.mean(row[_columns(returns, draw.tickers)]))


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Independent, order-insensitive stream for one replication."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replication,)))


@dataclass(frozen=True)
class Strategy:
    """A named selection rule bound to its inputs."""

    name: str
    kind: str  # random | industry | cluster
    universe: tuple[str, ...] = ()
    industry: IndustryMap | None = None
    assignment: ClusterAssignment | None = None
    pairing: ClusterPairing | None = None

    @cached_property
    def plan(self) -> DrawPlan:
        if self.kind == "random":
            return _random_plan(self.universe)
        if self.kind == "industry":
            assert self.industry is not None
            return self.industry.plan
        if self.kind == "cluster":
            assert self.assignment is not None
            return _grouped_plan("cluster", self.assignment.clusters(), self.pairing)
        raise SimulationError(f"unknown strategy kind {self.kind!r}")

    def draw(self, m: int, rng: np.random.Generator, replication: int = 0) -> PortfolioDraw:
        return self.plan.draw(m, rng, replication)


def draw_matrix(strategy: Strategy, returns: ReturnPanel, m: int, reps: int = 1000,
                seed: int = 0) -> np.ndarray:
    """(reps x m) ReturnPanel columns: row r is the portfolio that
    ``strategy.draw(m, replication_rng(seed, r), r)`` draws, in drawn order."""
    plan = strategy.plan
    plan.check(m)
    columns = _columns(returns, plan.labels)
    positions = np.empty((reps, m), dtype=np.intp)
    for rep in range(reps):
        positions[rep] = _draw_row(plan, m, replication_rng(seed, rep))
    return columns[positions]


def score_period(strategy: str, columns: np.ndarray, returns: ReturnPanel, period: str,
                 seed: int) -> SimulationRun:
    """Score a draw_matrix on one period: each row's mean return (%)."""
    row = returns.returns_for(period)
    return SimulationRun(strategy, columns.shape[1], seed, period, row[columns].mean(axis=1))


def run_simulation(
    strategy: Strategy,
    returns: ReturnPanel,
    period: str,
    m: int,
    reps: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> SimulationRun:
    """reps independent draws scored by their mean period return.

    Deterministic for fixed (seed, strategy, m). ``workers`` is accepted for
    compatibility and has no effect.
    """
    columns = draw_matrix(strategy, returns, m, reps, seed)
    return score_period(strategy.name, columns, returns, period, seed)


def cluster_mean_returns(
    assignment: ClusterAssignment, returns: ReturnPanel, period: str
) -> list[tuple[int, float, int]]:
    """Per-cluster (id, mean member return %, size)."""
    row = returns.returns_for(period)
    return [
        (cid, float(np.mean(row[_columns(returns, members)])), len(members))
        for cid, members in assignment.clusters().items()
    ]
