"""Workload definitions and the deterministic input generator.

Inputs are synthetic block-factor panels: each stock's weekly return is its
block's factor times a block loading, plus idiosyncratic noise and a block
drift. The generator lives here rather than calling
``netfolio.market_data.synthesize_panel`` so that a change to the program
can never move the inputs the goldens were captured on; every generated
file's sha256 is recorded next to the results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

START = date(2001, 1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    index: int  # mixed into the seed so workloads never share a stream
    block_sizes: tuple[int, ...]
    loadings: tuple[float, ...]
    block_drift: tuple[float, ...]
    closes: int  # weekly closes per ticker
    n_periods: int
    dividend_every: int  # weeks between dividends
    reps: int
    sizes: tuple[int, ...]
    test_periods: tuple[str, ...]
    workers: int
    idio_vol: float = 0.02
    factor_vol: float = 0.02
    dividend_yield: float = 0.005
    k: int = 4

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    def params(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper",
            why="paper scale (30 stocks, 4 periods, 1000 reps x m in {2,4,8} x 5 strategies): "
            "portfolio_sim dominates and every draw is redone for each of 4 test periods",
            index=0,
            block_sizes=(8, 8, 7, 7),
            loadings=(1.0, 0.9, 0.8, 0.7),
            block_drift=(0.003, 0.001, -0.001, 0.002),
            closes=640,
            n_periods=4,
            dividend_every=13,
            reps=1000,
            sizes=(2, 4, 8),
            test_periods=("P1", "P2", "P3", "P4"),
            workers=1,
        ),
        Workload(
            name="wide",
            why="48 stocks, 2 periods, one test period, 2 worker threads: neighbor_net and "
            "nnls dominate, draws are never redundant and the thread-pool path runs",
            index=1,
            block_sizes=(12, 12, 12, 12),
            loadings=(1.0, 0.9, 0.8, 0.7),
            block_drift=(0.003, 0.001, -0.001, 0.002),
            closes=260,
            n_periods=2,
            dividend_every=13,
            reps=300,
            sizes=(2, 4, 8),
            test_periods=("P2",),
            workers=2,
        ),
        Workload(
            name="history",
            why="30 stocks over 2600 weeks with a dividend every 4 weeks: market_data ingest, "
            "re-run by every command, dominates while the simulation is light",
            index=2,
            block_sizes=(8, 8, 7, 7),
            loadings=(1.0, 0.9, 0.8, 0.7),
            block_drift=(0.003, 0.001, -0.001, 0.002),
            closes=2600,
            n_periods=4,
            dividend_every=4,
            reps=200,
            sizes=(4,),
            test_periods=("P2",),
            workers=1,
        ),
    )
}


def generate(w: Workload, seed: int, out: Path) -> dict[str, str]:
    """Write prices, dividends, periods, industry map and config under out.

    Returns {file name: sha256} of everything written. Paths in the config
    are bare file names, so commands run with ``out`` as their directory.
    """
    rng = np.random.default_rng([seed, w.index])
    n, weeks = w.n, w.closes - 1
    tickers = [f"S{i:02d}" for i in range(n)]
    block = np.repeat(np.arange(len(w.block_sizes)), w.block_sizes)
    loading = np.asarray(w.loadings)[block]
    factors = rng.normal(0.0, w.factor_vol, size=(weeks, len(w.block_sizes)))
    idio = rng.normal(0.0, w.idio_vol, size=(weeks, n))
    rets = factors[:, block] * loading + idio + np.asarray(w.block_drift)[block]
    rets = np.clip(rets, -0.5, None)
    prices = 100.0 * np.vstack([np.ones(n), np.cumprod(1.0 + rets, axis=0)])
    dates = [(START + timedelta(weeks=i)).isoformat() for i in range(w.closes)]

    files: dict[str, str] = {}
    rows = ["date,ticker,close"]
    for i, d in enumerate(dates):
        rows.extend(f"{d},{t},{prices[i, j]:.6f}" for j, t in enumerate(tickers))
    files["prices.csv"] = "\n".join(rows) + "\n"
    rows = ["ticker,payment_date,amount"]
    for i in range(w.dividend_every, w.closes, w.dividend_every):
        rows.extend(
            f"{t},{dates[i]},{w.dividend_yield * prices[i, j]:.6f}" for j, t in enumerate(tickers)
        )
    files["dividends.csv"] = "\n".join(rows) + "\n"
    bounds = np.linspace(0, w.closes - 1, w.n_periods + 1).round().astype(int)
    periods = [
        {"label": f"P{p + 1}", "start": dates[bounds[p]], "end": dates[bounds[p + 1]]}
        for p in range(w.n_periods)
    ]
    files["periods.json"] = json.dumps(periods, indent=1) + "\n"
    files["industry.csv"] = (
        "ticker,group\n" + "".join(f"{t},{block[j] + 1}\n" for j, t in enumerate(tickers))
    )
    config = {
        "prices": "prices.csv",
        "dividends": "dividends.csv",
        "periods": "periods.json",
        "industry_map": "industry.csv",
        "clustering": {"k": w.k},
        "simulation": {
            "reps": w.reps,
            "sizes": list(w.sizes),
            "model_period": "P1",
            "test_periods": list(w.test_periods),
            "risk_free": {p["label"]: 1.0 + 0.5 * i for i, p in enumerate(periods)},
        },
    }
    files["config.json"] = json.dumps(config, indent=1) + "\n"

    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in files.items():
        data = text.encode()
        (out / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests
