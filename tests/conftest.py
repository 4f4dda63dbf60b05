"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from netfolio.correlation import DistanceMatrix
from netfolio.tree_cluster import SpanningTree
from nn_reference import all_arc_splits


def canonical_cycle(order: tuple[str, ...]) -> tuple[str, ...]:
    """Normalize a circular ordering up to rotation and reflection."""
    order = list(order)
    n = len(order)
    i = order.index(min(order))
    forward = [order[(i + k) % n] for k in range(n)]
    backward = [order[(i - k) % n] for k in range(n)]
    return tuple(min(forward, backward))


def random_distance_matrix(rng: np.random.Generator, n: int) -> DistanceMatrix:
    """Symmetric random distances in (0, 2] with zero diagonal."""
    d = rng.uniform(0.05, 2.0, size=(n, n))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    tickers = tuple(f"T{i:02d}" for i in range(n))
    return DistanceMatrix(tickers, d)


def circular_metric_matrix(n: int, splits: list[tuple[int, int, float]]) -> np.ndarray:
    """Raw position-indexed distance matrix induced by weighted arc splits."""
    d, pos = np.zeros((n, n)), np.arange(n)
    for s, length, w in splits:  # one split at a time: the same sums as pair by pair
        inside = (s <= pos) & (pos < s + length)
        d += w * (inside[:, None] != inside)
    return d


def circular_metric(
    ordering: tuple[str, ...], splits: list[tuple[int, int, float]]
) -> DistanceMatrix:
    """Distance matrix induced by weighted arc splits of an ordering."""
    d = circular_metric_matrix(len(ordering), splits)
    idx = np.argsort(np.array(ordering))
    tickers = tuple(sorted(ordering))
    return DistanceMatrix(tickers, d[np.ix_(idx, idx)])


def tree_weight(tree: SpanningTree) -> float:
    """Total edge weight of a spanning tree."""
    return float(sum(w for _, _, w in tree.edges))


def planted_split_system(rng: np.random.Generator, n: int):
    """A random circular split system with every arc split active.

    Returns (ordering, weights by canonical split side, DistanceMatrix).
    Weights are drawn uniform [0.1, 1] then rescaled so the induced metric
    fits the [0, 2] distance bound; positivity and exact representability
    are preserved.
    """
    tickers = tuple(f"T{i:02d}" for i in range(n))
    perm = rng.permutation(n)
    ordering = tuple(tickers[p] for p in perm)
    arcs = all_arc_splits(n)
    weights = rng.uniform(0.1, 1.0, size=len(arcs))
    raw = circular_metric_matrix(n, [(s, L, w) for (s, L), w in zip(arcs, weights)])
    weights = weights * (2.0 / raw.max())
    dist = circular_metric(ordering, [(s, L, w) for (s, L), w in zip(arcs, weights)])
    full = frozenset(tickers)

    def canon_side(side: frozenset) -> frozenset:
        other = full - side
        return min(side, other, key=lambda f: (len(f), sorted(f)))

    planted = {}
    for (s, L), w in zip(arcs, weights):
        key = canon_side(frozenset(ordering[s : s + L]))
        planted[key] = planted.get(key, 0.0) + w
    return ordering, planted, dist


def split_weight_table(system) -> dict[frozenset, float]:
    """Fitted weights keyed by canonical split side, for planted comparisons."""
    full = frozenset(system.ordering)
    table: dict[frozenset, float] = {}
    for sp in system.splits:
        side = frozenset(system.arc_members(sp))
        side = min(side, full - side, key=lambda f: (len(f), sorted(f)))
        table[side] = table.get(side, 0.0) + sp.weight
    return table


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260826)


_ACCEPTANCE_OUTCOMES: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.split("::")[-1]
    if "test_acceptance.py" in report.nodeid and name.startswith("test_criterion_"):
        _ACCEPTANCE_OUTCOMES[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_OUTCOMES):
        number = int(name.split("_")[2])
        label = " ".join(name.split("_")[3:])
        verdict = "PASS" if _ACCEPTANCE_OUTCOMES[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{verdict}] {label}")
