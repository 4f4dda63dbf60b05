"""Built-in reference data for the 30-stock Dow Jones universe.

The four industry super-groups used by the industry selection strategy and
the per-period risk-free returns used in Sharpe ratios.
"""

from __future__ import annotations

# The four super-groups (sizes 8, 5, 9, 8) used for industry selection.
SUPER_GROUPS: dict[str, int] = {
    # finance / healthcare / pharma
    "AXP": 1, "BOA": 1, "JNJ": 1, "JPM": 1, "MRK": 1, "PFE": 1, "TRV": 1, "UNH": 1,
    # resources / aerospace / energy
    "AA": 2, "BA": 2, "CVX": 2, "XOM": 2, "UTX": 2,
    # industrials / consumer
    "MMM": 3, "CAT": 3, "CCE": 3, "DD": 3, "GE": 3, "HD": 3, "MCD": 3, "WMT": 3, "DIS": 3,
    # technology / telecom
    "T": 4, "CRJ": 4, "HPQ": 4, "INTC": 4, "IBM": 4, "MSFT": 4, "PG": 4, "VZWI": 4,
}

# Risk-free period returns (%) for the Sharpe ratios, by period label.
RISK_FREE_PCT: dict[str, float] = {"P1": 3.0, "P2": 2.2, "P3": 4.4, "P4": 1.7}
