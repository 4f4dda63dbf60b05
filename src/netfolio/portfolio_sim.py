"""Portfolio selection strategies and the Monte Carlo replication harness.

Five strategies: uniform random, industry super-groups, and correlation
clusters from each network method. Portfolios are equal-weight buy-and-hold;
a draw's return is the arithmetic mean of its constituents' period returns.

A Strategy is a report name and a DrawPlan: its candidate tickers laid out
group after group (``random_plan``, ``IndustryMap.plan``, ``cluster_plan``).
The scalar draw core (``_draw_row``) turns a plan and a replication stream
into the positions of one portfolio. Replication r's stream is
``replication_rng(seed, r)``, numpy's PCG64 seeded by
``SeedSequence(seed, spawn_key=(r,))``, so the output depends only on the
seed, and every bounded draw ``_draw_row`` makes is numpy's Lemire step on
the stream's 32-bit words. ``draw_matrices`` therefore takes the first few
words of every stream as one (reps x K) word matrix and hands it to every
(strategy, m) block. ``_replication_words`` computes that matrix without a
Generator: it replays the SeedSequence hash and the PCG64 seeding and steps
in uint64 array arithmetic over all replications at once, bit for bit. The
batched core (``_draw_rows``) replays numpy's draws on the matrix column by
column, with a cursor per row, and yields the same (reps x m) positions as
``_draw_row`` would. Rows that hit a Lemire rejection or run past K words,
and plans too large for numpy's Floyd branch, are drawn by the scalar core
from ``replication_rng`` instead; only they load numpy.random. Each block
becomes a (reps x m) matrix of ReturnPanel columns, drawn once and scored on
every test period with one gather and mean (``score_period``);
``run_simulation`` does both for one block. The engine is single-threaded.
"""

from __future__ import annotations

import operator
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
    def plan(self) -> DrawPlan:
        """Uniform group-stratified draws over the super-groups."""
        members: dict[int, list[str]] = {}
        for t, g in sorted(self.groups.items()):
            members.setdefault(g, []).append(t)
        return _grouped_plan("industry", {g: tuple(ms) for g, ms in members.items()})


def default_industry_map() -> IndustryMap:
    return IndustryMap(dict(reference.SUPER_GROUPS))


@dataclass(frozen=True)
class SimulationRun:
    strategy: str
    m: int
    period: str
    returns: np.ndarray  # per-replication portfolio returns, percent


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


# numpy's choice(n, m, replace=False) runs Floyd's algorithm for n up to this.
_FLOYD_MAX = 10_000


class _Words:
    """Per-row cursors into a (reps x K) matrix of uint32 stream words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words
        self.rows = np.arange(len(words))
        self.cursor = np.zeros(len(words), dtype=np.intp)
        self.redo = np.zeros(len(words), dtype=bool)

    def below(self, bound) -> np.ndarray:
        """One draw in [0, bound) per row, as ``rng.integers(bound)`` makes it:
        Lemire's multiply-shift on the row's next word. ``bound`` is a scalar
        or one bound per row; a bound of 1 reads no word. Rows whose word
        numpy would reject, or that have no word left, are flagged in
        ``redo`` and their value is meaningless."""
        bound = np.asarray(bound, dtype=np.uint64)
        used = bound > 1
        k = self.words.shape[1]
        self.redo |= used & (self.cursor >= k)
        product = self.words[self.rows, np.minimum(self.cursor, k - 1)] * bound
        self.redo |= (product & 0xFFFFFFFF) < (2**32 - bound) % bound
        self.cursor += used
        return (product >> 32).astype(np.intp)

    def sample(self, n: int, m: int) -> np.ndarray:
        """(rows x m) draws of ``rng.choice(n, m, replace=False)``, n <= 10,000:
        Floyd's algorithm (a value already taken becomes j), then a shuffle."""
        out = np.empty((len(self.rows), m), dtype=np.intp)
        for t, j in enumerate(range(n - m, n)):
            val = self.below(j + 1)
            taken = (out[:, :t] == val[:, None]).any(axis=1)
            out[:, t] = np.where(taken, j, val)
        for i in range(m - 1, 0, -1):
            k = self.below(i + 1)
            swap = out[self.rows, k]
            out[self.rows, k] = out[:, i]
            out[:, i] = swap
        return out


def _draw_rows(plan: DrawPlan, m: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``_draw_row``: row r draws from the uint32 words of replication
    r (see ``_replication_words``). Returns the (reps x m) positions and the
    rows to redraw with ``_draw_row``; every other row equals its draw. The
    caller has run ``plan.check(m)`` and ``_batchable(plan)``."""
    w = _Words(words)
    if plan.rule == "random":
        return w.sample(plan.sizes[0], m), w.redo
    sizes, starts = np.array(plan.sizes), np.array(plan.starts)
    c = len(sizes)
    if m <= 4 and m <= c:
        if m == 2 and c > 2 and plan.pairs:
            chosen = np.array(plan.pairs)[w.below(len(plan.pairs))]
        else:
            chosen = w.sample(c, m)
        positions = np.empty_like(chosen)
        for t in range(m):
            g = chosen[:, t]
            positions[:, t] = starts[g] + w.below(sizes[g])
        return positions, w.redo
    positions = np.hstack([start + w.sample(size, m // c)
                           for start, size in zip(plan.starts, plan.sizes)])
    return positions, w.redo


def _batchable(plan: DrawPlan) -> bool:
    """Whether every ``rng.choice`` the plan makes takes numpy's Floyd branch."""
    return max(len(plan.sizes), *plan.sizes) <= _FLOYD_MAX


# numpy's SeedSequence (O'Neill's seed_seq_fe over a pool of four uint32
# words) and PCG64 (XSL-RR 128/64, O'Neill 2014) constants.
_MASK32 = 0xFFFFFFFF
_POOL_HASH = (0x43B0D7E5, 0x931E8875)  # hashmix's initial constant and multiplier
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)  # the same for generate_state
_MIX = (0xCA01F9DD, 0x4973F715)
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # the LCG multiplier


def _hasher(const: int, mult: int):
    """seed_seq_fe's hashmix. Its hash constant advances on every call, the
    same for every replication, so it stays a Python int; values are Python
    ints or uint64 arrays of uint32 words."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    x = (_MIX[0] * x - _MIX[1] * y) & _MASK32
    return x ^ x >> 16


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state·multiplier + inc mod 2¹²⁸, on uint64 (hi, lo)
    halves; the high half of lo·multiplier comes from four 32-bit products."""
    l0, l1, m0, m1 = lo & _MASK32, lo >> 32, _PCG_LO & _MASK32, _PCG_LO >> 32
    p00, p01, p10 = l0 * m0, l0 * m1, l1 * m0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = (l1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
          + lo * _PCG_HI + hi * _PCG_LO)
    lo = lo * _PCG_LO
    new_lo = lo + inc_lo
    return hi + inc_hi + (new_lo < lo), new_lo


def _replication_words(seed: int, reps: int, k: int) -> np.ndarray:
    """(reps x 2k) uint32 words of every replication stream, from its first k
    64-bit outputs, low half first: the order numpy's bounded draws read a
    fresh PCG64 stream in. Held as uint64, so a word times a bound is exact.

    Row r equals ``replication_rng(seed, r).bit_generator.random_raw(k)``
    bit for bit, computed for all rows at once: the SeedSequence pool mixes
    the seed's uint32 words (zero-padded to four) and then the spawn word r,
    ``generate_state(4, uint64)`` seeds PCG64 (inc = initseq << 1 | 1), and
    k LCG steps each give one XSL-RR output.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, not {seed}")
    if reps > 2**32:
        raise ValueError(f"reps must be at most 2**32 (one spawn word), not {reps}")
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    entropy += [0] * (4 - len(entropy))
    hashmix = _hasher(*_POOL_HASH)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # Only the last entropy word, the spawn key, differs between replications.
    for word in entropy[4:] + [np.arange(reps, dtype=np.uint64)]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(*_STATE_HASH)
    state = [hashmix(pool[i % 4]) for i in range(8)]
    init_hi, init_lo, seq_hi, seq_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    # pcg64_set_seed: state = inc, add the initial state, step once.
    lo = inc_lo + init_lo
    hi, lo = _lcg_step(inc_hi + init_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    words = np.empty((reps, 2 * k), dtype=np.uint64)
    for j in range(k):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        raw = x >> rot | x << (64 - rot & 63)
        words[:, 2 * j] = raw & _MASK32
        words[:, 2 * j + 1] = raw >> 32
    return words


def random_plan(universe: tuple[str, ...]) -> DrawPlan:
    """m distinct tickers, uniform without replacement."""
    if len(set(universe)) != len(universe):
        raise SimulationError("universe tickers must be distinct")
    return DrawPlan("random", tuple(sorted(universe)), (len(universe),))


def cluster_plan(assignment: ClusterAssignment, pairing: ClusterPairing | None = None) -> DrawPlan:
    """Industry-style stratified draws over correlation clusters.

    With more clusters than stocks wanted (m=2, c=4) the two clusters come
    from one uniformly chosen entry of the pairing when one is given.
    """
    return _grouped_plan("cluster", assignment.clusters(), pairing)


def _grouped_plan(rule: str, groups: dict[int, tuple[str, ...]],
                  pairing: ClusterPairing | None = None) -> DrawPlan:
    ids = tuple(sorted(groups))
    pos = {g: i for i, g in enumerate(ids)}
    pairs = () if pairing is None else tuple((pos[a], pos[b]) for a, b in pairing.pairs)
    labels = tuple(t for g in ids for t in groups[g])
    return DrawPlan(rule, labels, tuple(len(groups[g]) for g in ids), ids, pairs)


def _columns(returns: ReturnPanel, tickers: tuple[str, ...]) -> np.ndarray:
    column = returns.column
    try:
        return np.array([column[t] for t in tickers], dtype=np.intp)
    except KeyError as exc:
        raise SimulationError(f"unknown ticker {exc.args[0]!r} in draw") from None


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Independent, order-insensitive stream for one replication."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replication,)))


@dataclass(frozen=True)
class Strategy:
    """A selection rule: the name its report rows carry and the plan it draws."""

    name: str
    plan: DrawPlan


def draw_matrices(strategies: list[Strategy], returns: ReturnPanel, sizes: list[int],
                  reps: int = 1000, seed: int = 0) -> list[np.ndarray]:
    """(reps x m) ReturnPanel columns of every block, m-major: one matrix
    for each m in sizes and each strategy. Row r of a block is the portfolio
    ``_draw_row`` draws from ``replication_rng(seed, r)``, in drawn order.

    Every block is checked before any is drawn. The first K words of every
    replication's stream are computed once, into a word matrix that all
    blocks share; at most 3m uint32 words make one draw without rejections,
    so K covers the largest m.
    """
    blocks = []
    for m in sizes:
        for strategy in strategies:
            plan = strategy.plan
            plan.check(m)
            blocks.append((plan, m, _columns(returns, plan.labels)))
    batched = [m for plan, m, _ in blocks if _batchable(plan)]
    words = _replication_words(seed, reps, (3 * max(batched) + 1) // 2) if batched else None
    matrices = []
    for plan, m, columns in blocks:
        if _batchable(plan):
            positions, redo = _draw_rows(plan, m, words)
            reps_left = np.flatnonzero(redo).tolist()
        else:
            positions = np.empty((reps, m), dtype=np.intp)
            reps_left = range(reps)
        for rep in reps_left:
            positions[rep] = _draw_row(plan, m, replication_rng(seed, rep))
        matrices.append(columns[positions])
    return matrices


def score_period(strategy: str, columns: np.ndarray, returns: ReturnPanel,
                 period: str) -> SimulationRun:
    """Score one draw_matrices block on one period: each row's mean return (%)."""
    row = returns.returns_for(period)
    return SimulationRun(strategy, columns.shape[1], period, row[columns].mean(axis=1))


def run_simulation(strategy: Strategy, returns: ReturnPanel, period: str, m: int,
                   reps: int = 1000, seed: int = 0) -> SimulationRun:
    """reps independent draws scored by their mean period return;
    deterministic for fixed (seed, strategy, m)."""
    columns = draw_matrices([strategy], returns, [m], reps, seed)[0]
    return score_period(strategy.name, columns, returns, period)
