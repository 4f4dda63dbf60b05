"""Scalar reference for the portfolio draws: one numpy Generator per
replication, one ``rng.choice``/``rng.integers`` call at a time, as the
draws were first written. ``draw_matrices`` replays these draws on the
replication streams' words and must agree with them row for row."""

from __future__ import annotations

import numpy as np

from netfolio.portfolio_sim import DrawPlan


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Independent, order-insensitive stream for one replication."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replication,)))


def draw_row(plan: DrawPlan, m: int, rng: np.random.Generator) -> list[int]:
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
