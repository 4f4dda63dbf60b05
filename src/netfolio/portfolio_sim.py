"""Portfolio selection strategies and the Monte Carlo replication harness.

Five strategies: uniform random, industry super-groups, and correlation
clusters from each network method. Portfolios are equal-weight buy-and-hold;
a draw's return is the arithmetic mean of its constituents' period returns.

A strategy is a DrawPlan: its candidate tickers laid out group after group
(``random_plan``, ``industry_plan``, ``cluster_plan``); the caller names
the report rows of its blocks. Row r of every block is the portfolio
numpy's Generator of replication r draws: PCG64 seeded by
``SeedSequence(seed, spawn_key=(r,))``, so the output depends only on the
seed. Every bounded draw a portfolio needs
(``rng.integers(n)``, and ``rng.choice(n, m, replace=False)``, which numpy
runs as Floyd's algorithm plus a shuffle) is numpy's Lemire step on the
stream's 32-bit words: the word times n, shifted down 32 bits, unless the
product's low half falls below (2**32 - n) % n; numpy then rejects the word
and takes the next. ``_replication_words`` computes the first K 64-bit
outputs of every stream as one (reps x 2K) word matrix without a Generator:
it replays the SeedSequence hash and the PCG64 seeding and steps in uint64
array arithmetic over all replications at once, bit for bit.
``draw_matrices`` computes that matrix once and hands it to every
(plan, m) block. The draw core (``_draw_rows``) replays numpy's draws on
it column by column, with a cursor per row (``_Words``): a rejected word
moves only that row on to its next word, and a row that reads past the last
word doubles K, so every row equals its Generator's draw and nothing loads
numpy.random. numpy takes Floyd's branch unless n > 10,000 and m > n // 50;
``DrawPlan.check`` refuses that one case, a random plan over more than
10,000 tickers, which no command reaches. Each block becomes a (reps x m)
matrix of ReturnPanel columns, drawn once and scored on every test period
with one gather and mean (``score_period``). The engine is single-threaded.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import accumulate

import numpy as np

from .clusters import ClusterAssignment, ClusterPairing
from .market_data import ReturnPanel
from .record import Record


class SimulationError(ValueError):
    pass


class SimulationRun(Record):
    strategy: str
    m: int
    period: str
    returns: np.ndarray  # per-replication portfolio returns, percent


# numpy's choice(n, m, replace=False) runs Floyd's algorithm unless n is over
# this and m over n // 50.
_FLOYD_MAX = 10_000


class DrawPlan(Record):
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
            n = len(self.labels)
            if m > n:
                raise SimulationError(f"cannot draw {m} from {n} tickers")
            # Stratified plans take at most 4 per group, always Floyd's branch.
            if n > _FLOYD_MAX and m > n // 50:
                raise SimulationError(f"cannot draw {m} from {n} tickers: over {_FLOYD_MAX} "
                                      f"tickers, a random draw takes at most n // 50 = {n // 50}")
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


class _Words:
    """Per-row cursors into the uint32 words of every replication stream,
    from the first K 64-bit outputs of each (``_replication_words``); K
    doubles whenever a row reads past them."""

    def __init__(self, seed: int, reps: int, k: int) -> None:
        self.seed, self.reps = seed, reps
        self.words = _replication_words(seed, reps, k)
        self.rows = np.arange(reps)
        self.reset()

    def reset(self) -> None:
        """Put every row back at its stream's first word."""
        self.cursor = np.zeros(self.reps, dtype=np.intp)

    def _word(self, rows, cursor) -> np.ndarray:
        """The words of ``rows`` under ``cursor``; K doubles until they exist."""
        while cursor.max(initial=0) >= self.words.shape[1]:
            self.words = _replication_words(self.seed, self.reps, self.words.shape[1])
        return self.words[rows, cursor]

    def below(self, bound) -> np.ndarray:
        """One draw in [0, bound) per row, as ``rng.integers(bound)`` makes it:
        Lemire's multiply-shift on the row's next word, and on the word after
        it for as long as numpy rejects the product. ``bound`` is a scalar or
        one bound per row; a bound of 1 reads no word."""
        bound = np.asarray(bound, dtype=np.uint64)
        product = self._word(self.rows, self.cursor) * bound
        self.cursor += bound > 1
        for row in np.flatnonzero((product & _MASK32) < (2**32 - bound) % bound):
            b = np.broadcast_to(bound, product.shape)[row]
            while product[row] & _MASK32 < (2**32 - b) % b:
                product[row] = self._word(row, self.cursor[row]) * b
                self.cursor[row] += 1
        return (product >> 32).astype(np.intp)

    def sample(self, n: int, m: int) -> np.ndarray:
        """(rows x m) draws of ``rng.choice(n, m, replace=False)`` in Floyd's
        branch: Floyd's algorithm (a value already taken becomes j), then a
        shuffle."""
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


def _draw_rows(plan: DrawPlan, m: int, w: _Words) -> np.ndarray:
    """(reps x m) positions into ``plan.labels``, read from the cursors of
    ``w``: row r is the portfolio replication r's Generator draws. The
    caller has run ``plan.check(m)``.

    One stock from each of m groups when m <= group count (for m=2 over
    more groups, the groups of one uniformly chosen pair when the plan has
    pairs), else m / count distinct stocks from every group; so a random
    plan, one group, draws m of the universe without replacement (for m=1
    the group draw reads no word). Drawing positions consumes the stream
    exactly as drawing the tickers themselves would: ``rng.choice(n, ...)``
    as ``rng.choice(array_of_n, ...)`` and ``rng.integers(n)`` as
    ``rng.choice(array_of_n)``.
    """
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
        return positions
    return np.hstack([start + w.sample(size, m // c)
                      for start, size in zip(plan.starts, plan.sizes)])


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

    Row r equals ``random_raw(k)`` of numpy's PCG64 seeded by
    ``SeedSequence(seed, spawn_key=(r,))``, bit for bit, computed for all
    rows at once: the SeedSequence pool mixes the seed's uint32 words
    (zero-padded to four) and then the spawn word r,
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


def industry_plan(groups: dict[str, int]) -> DrawPlan:
    """Uniform group-stratified draws over a ticker -> group id map."""
    members: dict[int, list[str]] = {}
    for t, g in sorted(groups.items()):
        members.setdefault(g, []).append(t)
    if len(members) < 2:
        raise SimulationError("need at least 2 industry groups")
    return _grouped_plan("industry", {g: tuple(ms) for g, ms in members.items()})


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


def draw_matrices(plans: list[DrawPlan], returns: ReturnPanel, sizes: list[int],
                  reps: int, seed: int) -> list[np.ndarray]:
    """(reps x m) ReturnPanel columns of every block, m-major: one matrix
    for each m in sizes and each plan. Row r of a block is the portfolio
    numpy's Generator of replication r draws (see ``_draw_rows``), in drawn
    order.

    Every block is checked before any is drawn. The words of every
    replication's stream are computed once, into a word matrix that all
    blocks share; at most 3m uint32 words make one draw without rejections,
    so it starts with enough for the largest m.
    """
    blocks = []
    for m in sizes:
        for plan in plans:
            plan.check(m)
            blocks.append((plan, m, _columns(returns, plan.labels)))
    words = _Words(seed, reps, (3 * max(sizes, default=1) + 1) // 2)
    matrices = []
    for plan, m, columns in blocks:
        words.reset()
        matrices.append(columns[_draw_rows(plan, m, words)])
    return matrices


def score_period(strategy: str, columns: np.ndarray, returns: ReturnPanel,
                 period: str) -> SimulationRun:
    """Score one draw_matrices block on one period: each row's mean return (%)."""
    row = returns.returns_for(period)
    return SimulationRun(strategy, columns.shape[1], period, row[columns].mean(axis=1))
