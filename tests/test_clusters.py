"""Cluster containers and the two pairing rules."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from netfolio.clusters import (
    ClusterAssignment,
    ClusterError,
    best_matching,
    mean_intercluster_distance,
    pair_by_distance,
    pair_by_size,
    renumber,
)
from netfolio.correlation import DistanceMatrix
from conftest import random_distance_matrix


class TestClusterAssignment:
    def test_members_and_sizes(self):
        a = ClusterAssignment({"A": 1, "B": 2, "C": 1})
        assert a.members(1) == ("A", "C")
        assert a.clusters() == {1: ("A", "C"), 2: ("B",)}

    def test_rejects_gap_in_labels(self):
        with pytest.raises(ClusterError):
            ClusterAssignment({"A": 1, "B": 3})

    def test_renumber_orders_by_smallest_member(self):
        a = renumber([("Z", "M"), ("B", "Y")])
        assert a.clusters() == {1: ("B", "Y"), 2: ("M", "Z")}


class TestPairBySize:
    def test_largest_with_smallest(self):
        a = renumber([("A", "B", "C"), ("D",), ("E", "F"), ("G", "H", "I", "J")])
        pairing = pair_by_size(a)
        paired = {frozenset(p) for p in pairing.pairs}
        big = a.clusters()
        by_size = sorted(big, key=lambda c: (len(big[c]), c))
        assert frozenset((by_size[0], by_size[-1])) in paired
        assert frozenset((by_size[1], by_size[2])) in paired

    def test_requires_even_cluster_count(self):
        a = renumber([("A",), ("B",), ("C",)])
        with pytest.raises(ClusterError):
            pair_by_size(a)


class TestPairByDistance:
    def brute_force_best(self, assignment, dist):
        labels = sorted(assignment.clusters())
        best, best_total = None, -np.inf
        for perm in permutations(labels):
            pairs = [tuple(sorted(perm[i : i + 2])) for i in range(0, len(perm), 2)]
            total = sum(
                mean_intercluster_distance(assignment, dist, a, b) for a, b in pairs
            )
            if total > best_total:
                best_total, best = total, frozenset(map(frozenset, pairs))
        return best, best_total

    @pytest.mark.parametrize("trial", range(8))
    def test_matches_exhaustive_matching(self, trial):
        rng = np.random.default_rng(700 + trial)
        dist = random_distance_matrix(rng, 8)
        groups = [dist.tickers[0:2], dist.tickers[2:4], dist.tickers[4:6], dist.tickers[6:8]]
        assignment = renumber(groups)
        pairing = pair_by_distance(assignment, dist)
        got = frozenset(frozenset(p) for p in pairing.pairs)
        expected, expected_total = self.brute_force_best(assignment, dist)
        total = sum(
            mean_intercluster_distance(assignment, dist, a, b) for a, b in pairing.pairs
        )
        assert total == pytest.approx(expected_total, rel=1e-12)

    def test_mean_intercluster_distance_hand_value(self):
        d = np.array(
            [
                [0.0, 0.2, 0.4, 0.6],
                [0.2, 0.0, 0.8, 1.0],
                [0.4, 0.8, 0.0, 0.2],
                [0.6, 1.0, 0.2, 0.0],
            ]
        )
        dist = DistanceMatrix(("A", "B", "C", "D"), d)
        a = renumber([("A", "B"), ("C", "D")])
        # Cross distances: AC=0.4, AD=0.6, BC=0.8, BD=1.0 -> mean 0.7.
        assert mean_intercluster_distance(a, dist, 1, 2) == pytest.approx(0.7)


class TestBestMatching:
    def test_first_matching_wins_ties(self):
        assert best_matching(4, lambda a, b: 1.0) == ((1, 2), (3, 4))
        assert best_matching(6, lambda a, b: 0.0) == ((1, 2), (3, 4), (5, 6))


class TestCachedMembership:
    def test_clusters_is_a_copy(self):
        a = ClusterAssignment({"A": 1, "B": 2, "C": 1})
        a.clusters()[1] = ("Z",)
        assert a.clusters() == {1: ("A", "C"), 2: ("B",)}
        assert a.members(1) == ("A", "C") and a.members(3) == ()
