"""Dendrograms, spanning trees, and cluster extraction, checked against
independent brute-force oracles."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from netfolio.clusters import ClusterError
from netfolio.correlation import DistanceMatrix
from netfolio.tree_cluster import (
    Dendrogram,
    Merge,
    average_linkage_hct,
    cut_dendrogram,
    edge_list_csv,
    minimum_spanning_tree,
    mst_clusters,
    to_dot,
    to_newick,
)
from conftest import random_distance_matrix, tree_weight


def matrix(tickers, entries):
    n = len(tickers)
    d = np.zeros((n, n))
    for (a, b), w in entries.items():
        i, j = tickers.index(a), tickers.index(b)
        d[i, j] = d[j, i] = w
    return DistanceMatrix(tuple(tickers), d)


def between(dist: DistanceMatrix, a: str, b: str) -> float:
    """The distance between two tickers, read from the matrix."""
    return float(dist.d[dist.ticker_index(a), dist.ticker_index(b)])


def sizes(assignment) -> tuple[int, ...]:
    """The member count of each cluster, by cluster id."""
    return tuple(len(assignment.members(c)) for c in range(1, assignment.k + 1))


def naive_average_linkage(dist: DistanceMatrix):
    """O(n^3) oracle: recompute every cluster-pair mean from the raw matrix."""
    clusters: list[tuple[str, ...]] = [(t,) for t in dist.tickers]
    merges = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                mean = np.mean(
                    [between(dist, a, b) for a in clusters[i] for b in clusters[j]]
                )
                key = (mean, tuple(sorted((min(clusters[i]), min(clusters[j])))), i, j)
                if best is None or key < best:
                    best = key
        mean, _, i, j = best
        merges.append((frozenset(clusters[i]), frozenset(clusters[j]), mean))
        merged = tuple(sorted(clusters[i] + clusters[j]))
        clusters = [c for t, c in enumerate(clusters) if t not in (i, j)] + [merged]
    return merges


def leaves_under(tree: Dendrogram, node: int) -> tuple[str, ...]:
    # Iterative: a chained dendrogram is as deep as it has leaves.
    n, stack, leaves = tree.n, [node], []
    while stack:
        x = stack.pop()
        if x < n:
            leaves.append(tree.tickers[x])
        else:
            stack += (tree.merges[x - n].left, tree.merges[x - n].right)
    return tuple(sorted(leaves))


def dendrogram_merge_sets(tree):
    out = []
    for m in tree.merges:
        out.append(
            (
                frozenset(leaves_under(tree, m.left)),
                frozenset(leaves_under(tree, m.right)),
                m.height,
            )
        )
    return out


def brute_force_mst_weight(dist: DistanceMatrix) -> float:
    """Minimum over all n^(n-2) labeled spanning trees via Prüfer sequences."""
    n = dist.n
    best = np.inf
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        seq_list = list(seq)
        total = 0.0
        deg = degree[:]
        available = sorted(i for i in range(n) if deg[i] == 1)
        for v in seq_list:
            leaf = min(i for i in range(n) if deg[i] == 1)
            total += dist.d[leaf, v]
            deg[leaf] -= 1
            deg[v] -= 1
        last = [i for i in range(n) if deg[i] == 1]
        total += dist.d[last[0], last[1]]
        if total < best:
            best = total
    return best


class TestAverageLinkage:
    def test_two_leaves(self):
        dist = matrix(["A", "B"], {("A", "B"): 0.5})
        tree = average_linkage_hct(dist)
        assert len(tree.merges) == 1
        assert tree.merges[0].height == 0.5

    def test_three_leaf_hand_example(self):
        dist = matrix(["A", "B", "C"], {("A", "B"): 0.2, ("A", "C"): 0.8, ("B", "C"): 0.6})
        tree = average_linkage_hct(dist)
        sets = dendrogram_merge_sets(tree)
        assert sets[0][:2] == (frozenset("A"), frozenset("B"))
        assert sets[0][2] == 0.2
        assert sets[1][2] == pytest.approx(0.7)

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_naive_oracle(self, trial):
        rng = np.random.default_rng(100 + trial)
        dist = random_distance_matrix(rng, int(rng.integers(4, 9)))
        tree = average_linkage_hct(dist)
        got = dendrogram_merge_sets(tree)
        expected = naive_average_linkage(dist)
        for (gl, gr, gh), (el, er, eh) in zip(got, expected):
            assert {gl, gr} == {el, er}
            assert gh == pytest.approx(eh, rel=1e-12)

    def test_heights_non_decreasing(self, rng):
        for _ in range(10):
            dist = random_distance_matrix(rng, 8)
            tree = average_linkage_hct(dist)
            heights = [m.height for m in tree.merges]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_permutation_equivariance(self, rng):
        dist = random_distance_matrix(rng, 7)
        perm = rng.permutation(7)
        permuted = DistanceMatrix(
            tuple(dist.tickers[p] for p in perm), dist.d[np.ix_(perm, perm)]
        )
        # Same ticker set, same distances: identical merge structure.
        a = dendrogram_merge_sets(average_linkage_hct(dist))
        b = dendrogram_merge_sets(average_linkage_hct(permuted))
        assert [({l, r}, pytest.approx(h)) for l, r, h in a] == [
            ({l, r}, pytest.approx(h)) for l, r, h in b
        ]


class TestCutDendrogram:
    def three_leaf_tree(self):
        return average_linkage_hct(
            matrix(["A", "B", "C"], {("A", "B"): 0.2, ("A", "C"): 0.8, ("B", "C"): 0.6})
        )

    def test_k_one(self):
        assignment = cut_dendrogram(self.three_leaf_tree(), 1)
        assert sizes(assignment) == (3,)

    def test_k_equals_n(self):
        assignment = cut_dendrogram(self.three_leaf_tree(), 3)
        assert sizes(assignment) == (1, 1, 1)

    def test_k_two_cuts_last_merge(self):
        assignment = cut_dendrogram(self.three_leaf_tree(), 2)
        assert set(assignment.clusters().values()) == {("A", "B"), ("C",)}

    def test_k_out_of_range(self):
        with pytest.raises(ClusterError):
            cut_dendrogram(self.three_leaf_tree(), 4)

    def test_chained_dendrogram_deeper_than_recursion_limit(self):
        n = 1500
        tickers = tuple(f"T{i:04d}" for i in range(n))
        merges = [Merge(0, 1, 0.0)] + [Merge(n + i - 1, i + 1, float(i)) for i in range(1, n - 1)]
        assert sizes(cut_dendrogram(Dendrogram(tickers, tuple(merges)), 2)) == (n - 1, 1)

    def test_cuts_refine(self, rng):
        dist = random_distance_matrix(rng, 9)
        tree = average_linkage_hct(dist)
        for k in range(2, 10):
            fine = cut_dendrogram(tree, k).clusters().values()
            coarse = cut_dendrogram(tree, k - 1).clusters().values()
            for cluster in fine:
                assert any(set(cluster) <= set(c) for c in coarse)


class TestMinimumSpanningTree:
    def test_two_vertices(self):
        tree = minimum_spanning_tree(matrix(["A", "B"], {("A", "B"): 0.7}))
        assert tree.edges == (("A", "B", 0.7),)

    def test_three_vertex_example(self):
        dist = matrix(["A", "B", "C"], {("A", "B"): 0.1, ("A", "C"): 0.2, ("B", "C"): 0.3})
        tree = minimum_spanning_tree(dist)
        assert {(a, b) for a, b, _ in tree.edges} == {("A", "B"), ("A", "C")}
        assert tree_weight(tree) == pytest.approx(0.3)

    @pytest.mark.parametrize("trial", range(10))
    def test_optimal_vs_enumeration(self, trial):
        rng = np.random.default_rng(300 + trial)
        dist = random_distance_matrix(rng, 5)
        tree = minimum_spanning_tree(dist)
        assert tree_weight(tree) == pytest.approx(brute_force_mst_weight(dist), rel=1e-12)

    def test_edge_weights_match_matrix(self, rng):
        dist = random_distance_matrix(rng, 8)
        tree = minimum_spanning_tree(dist)
        for a, b, w in tree.edges:
            assert w == between(dist, a, b)


class TestMstClusters:
    def path_tree(self):
        dist = matrix(
            ["A", "B", "C", "D"],
            {("A", "B"): 0.1, ("B", "C"): 0.9, ("C", "D"): 0.1,
             ("A", "C"): 1.0, ("A", "D"): 1.1, ("B", "D"): 1.0},
        )
        return minimum_spanning_tree(dist), dist

    def test_k_one(self):
        tree, dist = self.path_tree()
        assert sizes(mst_clusters(tree, dist, 1, mode="gap", min_branch=5)) == (4,)

    def test_heaviest_edge_deleted(self):
        tree, dist = self.path_tree()
        assignment = mst_clusters(tree, dist, 2, mode="gap", min_branch=5)
        assert set(assignment.clusters().values()) == {("A", "B"), ("C", "D")}

    def test_components_partition_universe(self, rng):
        dist = random_distance_matrix(rng, 10)
        tree = minimum_spanning_tree(dist)
        for k in (2, 3, 4):
            assignment = mst_clusters(tree, dist, k, mode="gap", min_branch=5)
            assert assignment.k == k
            assert sorted(t for c in assignment.clusters().values() for t in c) == sorted(dist.tickers)

    def test_hub_mode_nearest_neighbor_rule(self):
        # Star: hub H with branches (A1,A2,A3) via A1 and (B1,B2,B3) via B1,
        # plus ambiguous X hanging off H, nearer to the A branch by distance.
        tickers = ["A1", "A2", "A3", "B1", "B2", "B3", "H", "X"]
        base = {}
        for i, a in enumerate(tickers):
            for b in tickers[i + 1:]:
                base[(a, b)] = 1.8
        chain = {("H", "A1"): 0.5, ("A1", "A2"): 0.2, ("A2", "A3"): 0.2,
                 ("H", "B1"): 0.5, ("B1", "B2"): 0.2, ("B2", "B3"): 0.2,
                 ("H", "X"): 0.4, ("X", "A1"): 0.6}
        base.update(chain)
        dist = matrix(tickers, base)
        tree = minimum_spanning_tree(dist)
        assignment = mst_clusters(tree, dist, 2, mode="hub", min_branch=3, hub="H")
        cluster_of = assignment.assignment
        assert cluster_of["X"] == cluster_of["A1"]
        assert cluster_of["H"] == cluster_of["X"]  # H joins via X at 0.4

    def test_hub_mode_too_few_branches(self):
        tree, dist = self.path_tree()
        with pytest.raises(ClusterError, match="smaller min_branch"):
            mst_clusters(tree, dist, 3, mode="hub", min_branch=2, hub="B")


def test_default_hub_on_degree_tie_is_smaller_ticker():
    # Two stars joined at their centres: B (over A, C, D) and E (over F, G,
    # H) each have degree 4, so the default hub is B, the smaller ticker.
    tickers = ["A", "B", "C", "D", "E", "F", "G", "H"]
    entries = {(a, b): 1.8 for i, a in enumerate(tickers) for b in tickers[i + 1:]}
    entries.update({("A", "B"): 0.3, ("B", "C"): 0.4, ("B", "D"): 0.5, ("B", "E"): 0.6,
                    ("E", "F"): 0.3, ("E", "G"): 0.4, ("E", "H"): 0.5})
    dist = matrix(tickers, entries)
    tree = minimum_spanning_tree(dist)
    degree = {t: sum(t in e[:2] for e in tree.edges) for t in tickers}
    assert degree["B"] == degree["E"] == max(degree.values()) == 4
    default = mst_clusters(tree, dist, 3, mode="hub", min_branch=1)
    assert default == mst_clusters(tree, dist, 3, mode="hub", min_branch=1, hub="B")
    assert default != mst_clusters(tree, dist, 3, mode="hub", min_branch=1, hub="E")


class TestScipyLinkageOracle:
    """On tie-free distances, cutting the average-linkage dendrogram and
    deleting the heaviest MST edges give scipy's maxclust partitions of
    average and single linkage."""

    @staticmethod
    def scipy_partition(dist, method, k):
        labels = fcluster(linkage(squareform(dist.d), method), k, "maxclust")
        return {
            frozenset(t for t, c in zip(dist.tickers, labels) if c == label)
            for label in set(labels)
        }

    @staticmethod
    def partition(assignment):
        return {frozenset(c) for c in assignment.clusters().values()}

    @pytest.mark.parametrize("n", [*range(2, 14), 40, 100])
    def test_every_cut_matches_scipy(self, rng, n):
        for _ in range(3):
            dist = random_distance_matrix(rng, n)
            tree = average_linkage_hct(dist)
            mst = minimum_spanning_tree(dist)
            for k in range(1, n + 1):
                assert self.partition(cut_dendrogram(tree, k)) == self.scipy_partition(
                    dist, "average", k
                )
                gap = mst_clusters(mst, dist, k, mode="gap", min_branch=5)
                assert self.partition(gap) == self.scipy_partition(dist, "single", k)


class TestExports:
    def test_newick_shape(self):
        dist = matrix(["A", "B", "C"], {("A", "B"): 0.2, ("A", "C"): 0.8, ("B", "C"): 0.6})
        text = to_newick(average_linkage_hct(dist))
        assert text.endswith(";")
        assert text.count("(") == 2
        for t in ("A", "B", "C"):
            assert t in text

    def test_newick_text(self):
        dist = matrix(["A", "B", "C"], {("A", "B"): 0.2, ("A", "C"): 0.8, ("B", "C"): 0.6})
        text = to_newick(average_linkage_hct(dist))
        assert text == "((A:0.100000,B:0.100000):0.250000,C:0.350000);"

    def test_chained_newick_deeper_than_recursion_limit(self):
        n = 1100
        tickers = tuple(f"T{i:04d}" for i in range(n))
        merges = [Merge(0, 1, 0.0)] + [Merge(n + i - 1, i + 1, float(i)) for i in range(1, n - 1)]
        text = to_newick(Dendrogram(tickers, tuple(merges)))
        assert text.startswith("(" * (n - 1) + "T0000:0.000000,T0001:0.000000):0.500000,T0002:")
        assert text.endswith(f"):0.500000,T{n - 1:04d}:{(n - 2) / 2:.6f});")
        assert text.count("(") == n - 1

    @pytest.mark.parametrize("merges,message", [
        ((Merge(0, 4, 0.1), Merge(1, 2, 0.2)), "merge 0 uses node 4 before it exists"),
        ((Merge(0, 1, 0.1), Merge(3, 1, 0.2)), "node 1 used twice"),
        ((Merge(0, 1, 0.1), Merge(3, 3, 0.2)), "node 3 used twice"),
    ])
    def test_merges_must_join_fresh_earlier_nodes(self, merges, message):
        with pytest.raises(ClusterError, match=message):
            Dendrogram(("A", "B", "C"), merges)

    def test_dot_and_csv(self):
        dist = matrix(["A", "B"], {("A", "B"): 0.7})
        tree = minimum_spanning_tree(dist)
        dot = to_dot(tree)
        assert '"A" -- "B"' in dot and dot.startswith("graph mst {\n")
        csv_text = edge_list_csv(tree)
        assert csv_text.splitlines()[0] == "from,to,weight"
        assert csv_text.splitlines()[1].startswith("A,B,0.7")
