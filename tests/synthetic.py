"""Synthetic block-factor panels and one-block simulation runs, for the tests.

No command reaches these: the commands read their panels from CSV files, and
the benchmark keeps its own generator (``bench/workloads.py``). Their
arithmetic is fixed, because the inputs of ``tests/data/simulate_seed9`` and
of the acceptance fixtures are built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from netfolio.inputs import DataError
from netfolio.market_data import PricePanel, ReturnPanel
from netfolio.portfolio_sim import DrawPlan, SimulationRun, draw_matrices, score_period


@dataclass(frozen=True)
class BlockModelSpec:
    """Block-factor model for synthetic panels.

    Stocks in the same block share a common factor scaled by that block's
    loading; within-block correlation is loading^2*factor_vol^2 over total
    variance, cross-block correlation is zero in expectation. ``block_drift``
    adds a deterministic weekly mean return per block.
    """

    block_sizes: tuple[int, ...]
    loadings: tuple[float, ...]
    idio_vol: float
    weeks: int
    factor_vol: float = 0.02
    block_drift: tuple[float, ...] = ()
    start_price: float = 100.0
    start: date = date(2001, 1, 2)
    dividend_every: int = 0  # weeks between dividends; 0 disables
    dividend_yield: float = 0.005  # per-payment fraction of price

    def __post_init__(self) -> None:
        if len(self.loadings) != len(self.block_sizes):
            raise DataError("one loading per block required")
        if self.block_drift and len(self.block_drift) != len(self.block_sizes):
            raise DataError("one drift per block required")
        if self.idio_vol <= 0 or self.factor_vol <= 0:
            raise DataError("volatilities must be positive")
        if self.weeks < 2 or any(s < 1 for s in self.block_sizes):
            raise DataError("need at least 2 weeks and non-empty blocks")

    @property
    def loading_matrix(self) -> np.ndarray:
        n = sum(self.block_sizes)
        mat = np.zeros((n, len(self.block_sizes)))
        row = 0
        for b, size in enumerate(self.block_sizes):
            mat[row : row + size, b] = self.loadings[b]
            row += size
        return mat

    @property
    def drift_vector(self) -> np.ndarray:
        drift = self.block_drift or (0.0,) * len(self.block_sizes)
        return np.repeat(drift, self.block_sizes)


def panel_from_loadings(
    loadings: np.ndarray,
    idio_vol: float,
    weeks: int,
    seed: int,
    *,
    factor_vol: float = 0.02,
    drift: np.ndarray | None = None,
    tickers: tuple[str, ...] | None = None,
    start: date = date(2001, 1, 2),
    start_price: float = 100.0,
    dividend_every: int = 0,
    dividend_yield: float = 0.005,
) -> PricePanel:
    """Synthesize a weekly panel from an explicit (stocks x factors) loading matrix."""
    if idio_vol <= 0:
        raise DataError("idiosyncratic volatility must be positive")
    loadings = np.asarray(loadings, dtype=float)
    n, n_factors = loadings.shape
    if tickers is None:
        tickers = tuple(f"S{i:02d}" for i in range(n))
    rng = np.random.default_rng(seed)
    factors = rng.normal(0.0, factor_vol, size=(weeks, n_factors))
    idio = rng.normal(0.0, idio_vol, size=(weeks, n))
    returns = factors @ loadings.T + idio
    if drift is not None:
        returns = returns + np.asarray(drift)[None, :]
    returns = np.clip(returns, -0.5, None)  # keep prices positive
    prices = start_price * np.vstack([np.ones(n), np.cumprod(1.0 + returns, axis=0)])
    dates = tuple(start + timedelta(weeks=w) for w in range(weeks + 1))
    dividends = np.zeros(prices.shape)
    if dividend_every > 0:
        paid = slice(dividend_every, weeks + 1, dividend_every)
        dividends[paid] = dividend_yield * prices[paid]
    return PricePanel(tickers, dates, prices, dividends)


# The factor blocks of the hub fixture, whose stock 0 loads on every factor.
HUB_BLOCKS = (8, 8, 7, 7)


def hub_panel() -> PricePanel:
    """156 weeks of four factor blocks of HUB_BLOCKS sizes, in which stock 0
    loads on every factor: it becomes the spanning-tree hub."""
    loadings = np.zeros((sum(HUB_BLOCKS), 4))
    row = 0
    for b, size in enumerate(HUB_BLOCKS):
        loadings[row : row + size, b] = 0.9
        row += size
    loadings[0, :] = [0.75, 0.45, 0.45, 0.45]
    drift = np.repeat([0.004, 0.001, -0.001, 0.0025], HUB_BLOCKS)
    return panel_from_loadings(loadings, 0.01, 156, seed=0, drift=drift)


def synthesize_panel(spec: BlockModelSpec, seed: int) -> PricePanel:
    """Deterministic synthetic panel from a block-factor model."""
    return panel_from_loadings(
        spec.loading_matrix,
        spec.idio_vol,
        spec.weeks,
        seed,
        factor_vol=spec.factor_vol,
        drift=spec.drift_vector,
        start=spec.start,
        start_price=spec.start_price,
        dividend_every=spec.dividend_every,
        dividend_yield=spec.dividend_yield,
    )


def run_simulation(name: str, plan: DrawPlan, returns: ReturnPanel, period: str, m: int,
                   reps: int = 1000, seed: int = 0) -> SimulationRun:
    """reps independent draws scored by their mean period return and named
    ``name``; deterministic for fixed (seed, plan, m)."""
    columns = draw_matrices([plan], returns, [m], reps, seed)[0]
    return score_period(name, columns, returns, period)
