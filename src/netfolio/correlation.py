"""Pearson correlation matrices and the ultrametric distance transform.

Correlations are computed on weekly returns; distances are
d_ij = sqrt(2 * (1 - rho_ij)), mapping rho in [-1, 1] to [0, 2].
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .record import Record


class CorrelationError(ValueError):
    pass


class CorrelationMatrix(Record):
    tickers: tuple[str, ...]
    rho: np.ndarray  # exactly symmetric, unit diagonal

    def __post_init__(self) -> None:
        n = len(self.tickers)
        if self.rho.shape != (n, n):
            raise CorrelationError("correlation matrix shape mismatch")
        if not np.array_equal(self.rho, self.rho.T):
            raise CorrelationError("correlation matrix must be symmetric")
        if not np.all(np.diag(self.rho) == 1.0):
            raise CorrelationError("correlation diagonal must be exactly 1")
        if np.any(self.rho < -1.0) or np.any(self.rho > 1.0):
            raise CorrelationError("correlations must lie in [-1, 1]")


class DistanceMatrix(Record):
    tickers: tuple[str, ...]
    d: np.ndarray  # exactly symmetric, zero diagonal, entries in [0, 2]

    def __post_init__(self) -> None:
        n = len(self.tickers)
        if self.d.shape != (n, n):
            raise CorrelationError("distance matrix shape mismatch")
        if not np.array_equal(self.d, self.d.T):
            raise CorrelationError("distance matrix must be symmetric")
        if not np.all(np.diag(self.d) == 0.0):
            raise CorrelationError("distance diagonal must be exactly 0")
        if np.any(self.d < 0.0) or np.any(self.d > 2.0 + 1e-9):
            raise CorrelationError("distances must lie in [0, 2]")

    @property
    def n(self) -> int:
        return len(self.tickers)

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Each ticker's first row, as ``tuple.index`` would find it."""
        positions: dict[str, int] = {}
        for i, t in enumerate(self.tickers):
            positions.setdefault(t, i)
        return positions

    def ticker_index(self, ticker: str) -> int:
        try:
            return self._positions[ticker]
        except KeyError:
            raise CorrelationError(f"unknown ticker {ticker!r}") from None


def pearson_correlation(returns: np.ndarray, tickers: tuple[str, ...]) -> CorrelationMatrix:
    """Pearson correlation of weekly return columns.

    Requires at least 3 observations and nonzero variance in every column.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2 or returns.shape[1] != len(tickers):
        raise CorrelationError("returns must be (observations x tickers)")
    if returns.shape[0] < 3:
        raise CorrelationError(f"needs at least 3 weekly returns, has {returns.shape[0]}")
    stds = returns.std(axis=0)
    if np.any(stds == 0.0):
        bad = tickers[int(np.argmin(stds))]
        raise CorrelationError(f"ticker {bad} has zero-variance returns")
    rho = np.corrcoef(returns, rowvar=False)
    rho = np.clip((rho + rho.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    return CorrelationMatrix(tuple(tickers), rho)


def ultrametric_distance(corr: CorrelationMatrix) -> DistanceMatrix:
    """Elementwise d_ij = sqrt(2 * (1 - rho_ij)) with an exactly zero diagonal."""
    d = np.sqrt(np.maximum(2.0 * (1.0 - corr.rho), 0.0))
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(corr.tickers, d)

