"""Cluster partitions of the stock universe and cluster pairing rules.

A ClusterAssignment maps every ticker to a cluster id in 1..k. Pairings mark
which clusters are treated as mutually most distant when portfolios draw
from paired clusters.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property
from itertools import combinations

import numpy as np

from .correlation import DistanceMatrix
from .record import Record


class ClusterError(ValueError):
    pass


class ClusterAssignment(Record):
    assignment: dict[str, int]  # ticker -> cluster id in 1..k

    def __post_init__(self) -> None:
        ids = sorted(set(self.assignment.values()))
        if not self.assignment:
            raise ClusterError("empty assignment")
        if ids != list(range(1, len(ids) + 1)):
            raise ClusterError(f"cluster ids must be 1..k, got {ids}")

    @property
    def k(self) -> int:
        return max(self.assignment.values())

    @cached_property
    def _clusters(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {c: [] for c in range(1, self.k + 1)}
        for t, c in sorted(self.assignment.items()):
            out[c].append(t)
        return {c: tuple(ms) for c, ms in out.items()}

    def members(self, cluster_id: int) -> tuple[str, ...]:
        return self._clusters.get(cluster_id, ())

    def clusters(self) -> dict[int, tuple[str, ...]]:
        return dict(self._clusters)


class ClusterPairing(Record):
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for a, b in self.pairs:
            if a == b or a in seen or b in seen:
                raise ClusterError("each cluster may appear in at most one pair")
            seen.update((a, b))


def renumber(groups: list[tuple[str, ...]]) -> ClusterAssignment:
    """Number groups 1..k by lexicographically smallest member for determinism."""
    ordered = sorted(groups, key=lambda g: min(g))
    mapping = {t: i + 1 for i, g in enumerate(ordered) for t in g}
    return ClusterAssignment(mapping)


def pair_by_size(assignment: ClusterAssignment) -> ClusterPairing:
    """Pair the largest cluster with the smallest, second largest with second
    smallest, and so on (the rule used for unbalanced dendrogram clusters)."""
    if assignment.k % 2 != 0:
        raise ClusterError("size pairing requires an even cluster count")
    by_size = sorted(range(1, assignment.k + 1), key=lambda c: (len(assignment.members(c)), c))
    pairs = []
    for i in range(assignment.k // 2):
        pairs.append(tuple(sorted((by_size[i], by_size[-1 - i]))))
    return ClusterPairing(tuple(sorted(pairs)))


def mean_intercluster_distance(assignment: ClusterAssignment, dist: DistanceMatrix, a: int, b: int) -> float:
    ia = [dist.ticker_index(t) for t in assignment.members(a)]
    ib = [dist.ticker_index(t) for t in assignment.members(b)]
    return float(np.mean(dist.d[np.ix_(ia, ib)]))


def best_matching(k: int, score: Callable[[int, int], float]) -> tuple[tuple[int, int], ...]:
    """Perfect matching of clusters 1..k (k even) maximizing the summed pair score.

    Matchings are enumerated by pairing the smallest remaining id with each
    larger one in turn; the first matching found keeps a tie (as ``max``
    does). Each total adds its scores in order along the recursion.
    """
    def matchings(remaining: list[int], chosen: list[tuple[int, int]], total: float):
        if not remaining:
            yield total, tuple(chosen)
            return
        first = remaining[0]
        for other in remaining[1:]:
            rest = [c for c in remaining if c not in (first, other)]
            yield from matchings(rest, chosen + [(first, other)], total + score(first, other))

    return max(matchings(list(range(1, k + 1)), [], 0.0), key=lambda found: found[0])[1]


def pair_by_distance(assignment: ClusterAssignment, dist: DistanceMatrix) -> ClusterPairing:
    """Perfect matching of clusters maximizing total mean inter-cluster distance."""
    if assignment.k % 2 != 0:
        raise ClusterError("distance pairing requires an even cluster count")
    gap = {
        (a, b): mean_intercluster_distance(assignment, dist, a, b)
        for a, b in combinations(range(1, assignment.k + 1), 2)
    }
    return ClusterPairing(best_matching(assignment.k, lambda a, b: gap[a, b]))
