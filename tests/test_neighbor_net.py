"""Neighbor-Net orderings, circular split fitting, arc clusters, and Nexus
export, checked against planted systems and closed forms."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from netfolio import neighbor_net
from netfolio.clusters import ClusterError, renumber
from netfolio.correlation import DistanceMatrix
from netfolio.neighbor_net import (
    NeighborNetError,
    SplitOperators,
    fit_split_weights,
    neighbornet_ordering,
    nn_clusters,
    pair_nn_clusters,
    write_nexus,
)
from conftest import (
    canonical_cycle,
    circular_metric,
    planted_split_system,
    random_distance_matrix,
    split_weight_table,
)
from nn_reference import all_arc_splits, loop_design_matrix, loop_ordering, split_design_matrix


def matrix(tickers, entries):
    n = len(tickers)
    d = np.zeros((n, n))
    for (a, b), w in entries.items():
        i, j = tickers.index(a), tickers.index(b)
        d[i, j] = d[j, i] = w
    return DistanceMatrix(tuple(tickers), d)


class TestOrdering:
    def test_rejects_tiny_input(self):
        with pytest.raises(NeighborNetError):
            neighbornet_ordering(matrix(["A", "B"], {("A", "B"): 1.0}))

    def test_three_taxa_trivial_cycle(self):
        dist = matrix(["A", "B", "C"], {("A", "B"): 0.3, ("A", "C"): 0.5, ("B", "C"): 0.4})
        order = neighbornet_ordering(dist)
        assert sorted(order) == ["A", "B", "C"]

    def test_path_metric_gives_compatible_cycle(self):
        # Points at coordinates 0, 0.2, 0.5, 0.9 on a line. The metric is a
        # path-tree metric, so a compatible cycle must keep the {A,B}|{C,D}
        # split contiguous: only (A,B,C,D) and (A,B,D,C) qualify, and either
        # represents the metric exactly.
        coords = {"A": 0.0, "B": 0.2, "C": 0.5, "D": 0.9}
        dist = matrix(
            list(coords),
            {(a, b): abs(coords[a] - coords[b]) for a, b in combinations(coords, 2)},
        )
        order = neighbornet_ordering(dist)
        assert canonical_cycle(order) in {("A", "B", "C", "D"), ("A", "B", "D", "C")}
        assert fit_split_weights(dist, order).residual < 1e-12

    @pytest.mark.parametrize("trial", range(10))
    def test_recovers_planted_cycle(self, trial):
        rng = np.random.default_rng(1200 + trial)
        n = int(rng.integers(5, 11))
        ordering, _, dist = planted_split_system(rng, n)
        assert canonical_cycle(neighbornet_ordering(dist)) == canonical_cycle(ordering)

    def test_permutation_invariance(self, rng):
        ordering, _, dist = planted_split_system(rng, 7)
        perm = rng.permutation(7)
        shuffled = DistanceMatrix(
            tuple(dist.tickers[p] for p in perm), dist.d[np.ix_(perm, perm)]
        )
        assert canonical_cycle(neighbornet_ordering(dist)) == canonical_cycle(
            neighbornet_ordering(shuffled)
        )


class TestSplitFitting:
    def test_arc_count(self):
        for n in (3, 5, 8):
            assert len(all_arc_splits(n)) == n * (n - 1) // 2

    def test_design_matrix_sums_to_pair_count(self):
        n = 6
        A = split_design_matrix(n)
        assert A.shape == (15, 15)
        # Each split separates length*(n-length) position pairs.
        for col, (s, length) in enumerate(all_arc_splits(n)):
            assert A[:, col].sum() == length * (n - length)

    def test_three_taxa_closed_form(self):
        # For n=3 the split weights are the tree branch lengths:
        # w({A}) = (d(A,B)+d(A,C)-d(B,C))/2, and cyclically.
        dist = matrix(["A", "B", "C"], {("A", "B"): 0.3, ("A", "C"): 0.5, ("B", "C"): 0.4})
        system = fit_split_weights(dist, ("A", "B", "C"))
        table = split_weight_table(system)
        assert table[frozenset({"A"})] == pytest.approx((0.3 + 0.5 - 0.4) / 2)
        assert table[frozenset({"B"})] == pytest.approx((0.3 + 0.4 - 0.5) / 2)
        assert table[frozenset({"C"})] == pytest.approx((0.5 + 0.4 - 0.3) / 2)
        assert system.residual < 1e-12

    @pytest.mark.parametrize("trial", range(10))
    def test_planted_weights_recovered(self, trial):
        rng = np.random.default_rng(1300 + trial)
        n = int(rng.integers(5, 11))
        ordering, planted, dist = planted_split_system(rng, n)
        system = fit_split_weights(dist, neighbornet_ordering(dist))
        table = split_weight_table(system)
        assert set(table) == set(planted)
        for side, w in planted.items():
            assert table[side] == pytest.approx(w, abs=1e-8)
        assert system.residual < 1e-8

    def test_kkt_on_noisy_matrix(self, rng, monkeypatch):
        monkeypatch.setattr(neighbor_net, "PRUNE", 0.0)
        dist = random_distance_matrix(rng, 8)
        ordering = neighbornet_ordering(dist)
        system = fit_split_weights(dist, ordering)
        n = dist.n
        A = split_design_matrix(n)
        idx = [dist.ticker_index(t) for t in ordering]
        b = np.array([dist.d[idx[p], idx[q]] for p, q in combinations(range(n), 2)])
        w = np.array([sp.weight for sp in system.splits])
        g = A.T @ (b - A @ w)
        active = w > 1e-10
        assert (w >= 0).all()
        if active.any():
            assert np.abs(g[active]).max() < 1e-8
        if (~active).any():
            assert g[~active].max() < 1e-8

    def test_round_trip_metric(self, rng):
        ordering, _, dist = planted_split_system(rng, 6)
        system = fit_split_weights(dist, ordering)
        back = circular_metric(
            system.ordering, [(s.start, s.length, s.weight) for s in system.splits]
        )
        np.testing.assert_allclose(back.d, dist.d, atol=1e-10)

    def test_ordering_mismatch_rejected(self, rng):
        dist = random_distance_matrix(rng, 5)
        with pytest.raises(NeighborNetError):
            fit_split_weights(dist, ("X", "Y", "Z", "W", "V"))


class TestSplitOperators:
    """The prefix-sum products and the closed-form Gram block against the
    design matrix they stand for."""

    def test_operator_arcs_follow_reference_order(self):
        # The operators take their arcs from the pair triangle they already
        # hold; the order must be the reference arc list's.
        for n in range(3, 41):
            ops = SplitOperators(n)
            starts, lengths = np.array(all_arc_splits(n)).T
            np.testing.assert_array_equal(ops.starts, starts)
            np.testing.assert_array_equal(ops.lengths, lengths)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_products_and_gram_equal_design_matrix(self, n):
        rng = np.random.default_rng(4300 + n)
        A, ops = split_design_matrix(n), SplitOperators(n)
        size = A.shape[1]
        x = np.where(rng.random(size) < 0.1, rng.uniform(0.0, 2.0, size), 0.0)
        y = rng.normal(size=size)
        np.testing.assert_allclose(ops.matvec(x), A @ x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ops.rmatvec(y), A.T @ y, rtol=1e-12, atol=1e-11)
        gram = A.T @ A
        cols = rng.choice(size, size=min(size, 25), replace=False)
        rows = rng.choice(size, size=min(size, 7), replace=False)
        assert np.array_equal(ops.gram(cols, cols), gram[np.ix_(cols, cols)])
        assert np.array_equal(ops.gram(rows, cols), gram[np.ix_(rows, cols)])

    @pytest.mark.parametrize("n", range(3, 61))
    def test_solve_inverts_design_matrix(self, n):
        # The closed-form circular inverse against a dense solve, and A·A⁻¹b = b.
        rng = np.random.default_rng(4400 + n)
        ops = SplitOperators(n)
        b = rng.uniform(0.05, 2.0, size=n * (n - 1) // 2)
        x, want = ops.solve(b), np.linalg.solve(split_design_matrix(n), b)
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(ops.matvec(x), b, rtol=1e-12, atol=0)


class TestLoopReferences:
    """The vectorized design matrix and ordering against their loop forms."""

    @pytest.mark.parametrize("n", range(3, 41))
    def test_design_matrix_equals_loop(self, n):
        got, want = split_design_matrix(n), loop_design_matrix(n)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("trial", range(30))
    def test_ordering_equals_loop(self, trial):
        # Coarse grids make many exactly tied criteria, so the tie-breaks run.
        rng = np.random.default_rng(4100 + trial)
        n = int(rng.integers(3, 31))
        step = (0.5, 0.1, 0.01)[trial % 3]
        d = np.triu(np.round(rng.uniform(0.0, 2.0, size=(n, n)) / step) * step, 1)
        tickers = tuple(f"Q{i:02d}" for i in rng.permutation(n))
        dist = DistanceMatrix(tickers, d + d.T)
        assert neighbornet_ordering(dist) == loop_ordering(dist)

    @pytest.mark.parametrize("n", (40, 48, 60))
    @pytest.mark.parametrize("step", (0.5, 0.1, 0.01))
    def test_ordering_equals_loop_at_bench_sizes(self, n, step):
        # The bench runs the ordering at n = 30 and 48; the sizes above the
        # draws of test_ordering_equals_loop, on the same tie-making grids.
        rng = np.random.default_rng(4200 + n)
        d = np.triu(np.round(rng.uniform(0.0, 2.0, size=(n, n)) / step) * step, 1)
        tickers = tuple(f"Q{i:02d}" for i in rng.permutation(n))
        dist = DistanceMatrix(tickers, d + d.T)
        assert neighbornet_ordering(dist) == loop_ordering(dist)


class TestArcClusters:
    def test_gap_cuts(self):
        # Ordering A..F with large adjacent gaps between A-B and D-E:
        # cutting into 2 arcs yields {B,C,D} and {E,F,A}.
        tickers = ["A", "B", "C", "D", "E", "F"]
        entries = {(a, b): 1.0 for a, b in combinations(tickers, 2)}
        entries.update(
            {("A", "B"): 0.8, ("B", "C"): 0.1, ("C", "D"): 0.1,
             ("D", "E"): 0.9, ("E", "F"): 0.1, ("F", "A"): 0.1}
        )
        dist = matrix(tickers, entries)
        assignment = nn_clusters(tuple(tickers), dist, 2)
        assert set(map(frozenset, assignment.clusters().values())) == {
            frozenset({"B", "C", "D"}),
            frozenset({"E", "F", "A"}),
        }

    def test_manual_breaks(self, rng):
        ordering, _, dist = planted_split_system(rng, 6)
        assignment = nn_clusters(ordering, dist, 3, manual_breaks=[0, 2, 4])
        clusters = set(map(frozenset, assignment.clusters().values()))
        expected = {
            frozenset(ordering[0:2]),
            frozenset(ordering[2:4]),
            frozenset(ordering[4:6]),
        }
        assert clusters == expected

    def test_manual_breaks_validated(self, rng):
        ordering, _, dist = planted_split_system(rng, 6)
        with pytest.raises(ClusterError):
            nn_clusters(ordering, dist, 3, manual_breaks=[0, 2])
        with pytest.raises(ClusterError):
            nn_clusters(ordering, dist, 2, manual_breaks=[0, 6])

    def test_clusters_are_contiguous_arcs(self, rng):
        ordering, _, dist = planted_split_system(rng, 9)
        pos = {t: i for i, t in enumerate(ordering)}
        for k in (2, 3, 4):
            for members in nn_clusters(ordering, dist, k).clusters().values():
                ps = sorted(pos[t] for t in members)
                contiguous = any(
                    sorted((p - ps[r]) % 9 for p in ps) == list(range(len(ps)))
                    for r in range(len(ps))
                )
                assert contiguous

    def test_one_cluster_holds_every_ticker(self, rng):
        ordering, _, dist = planted_split_system(rng, 7)
        assert nn_clusters(ordering, dist, 1).assignment == {t: 1 for t in ordering}

    def test_cuts_at_largest_adjacent_gaps(self):
        # The gap before each position of (A, B, C), circularly: d(C, A) = 0.5,
        # d(A, B) = 0.3 and d(B, C) = 0.4. Two cuts take the two largest.
        dist = matrix(["A", "B", "C"], {("A", "B"): 0.3, ("A", "C"): 0.5, ("B", "C"): 0.4})
        assert nn_clusters(("A", "B", "C"), dist, 2).clusters() == {1: ("A", "B"), 2: ("C",)}


class TestArcPairing:
    def test_opposite_arcs_paired(self, rng):
        ordering, _, dist = planted_split_system(rng, 8)
        assignment = nn_clusters(ordering, dist, 4, manual_breaks=[0, 2, 4, 6])
        pairing = pair_nn_clusters(assignment, ordering)
        # Arcs at positions 0-1, 2-3, 4-5, 6-7: opposite pairs are (1,3), (2,4)
        # after renumbering by smallest member; verify via midpoint separation.
        pos = {t: i for i, t in enumerate(ordering)}
        mids = {
            cid: float(np.mean(sorted(pos[t] for t in members)))
            for cid, members in assignment.clusters().items()
        }
        for a, b in pairing.pairs:
            sep = abs(mids[a] - mids[b])
            assert min(sep, 8 - sep) == pytest.approx(4.0)

    def test_odd_count_rejected(self, rng):
        ordering, _, dist = planted_split_system(rng, 6)
        assignment = nn_clusters(ordering, dist, 3, manual_breaks=[0, 2, 4])
        with pytest.raises(ClusterError):
            pair_nn_clusters(assignment, ordering)

    def test_wrapping_arc_midpoint(self):
        # On a circle of 7 the arc G,A starts at G: midpoints are {G,A} 6.5,
        # {B,C,D} 2, {E} 4, {F} 5, so (1,3)+(2,4) separates 2.5+3 and beats
        # the other two matchings at 3.5 each.
        assignment = renumber([("A", "G"), ("B", "C", "D"), ("E",), ("F",)])
        pairing = pair_nn_clusters(assignment, ("A", "B", "C", "D", "E", "F", "G"))
        assert pairing.pairs == ((1, 3), (2, 4))

    def test_non_contiguous_cluster_rejected(self):
        assignment = renumber([("A", "C"), ("B", "D"), ("E",), ("F",)])
        with pytest.raises(ClusterError, match="cluster 1 is not a contiguous arc"):
            pair_nn_clusters(assignment, ("A", "B", "C", "D", "E", "F"))


class TestNexus:
    def test_splits_block(self, rng):
        ordering, _, dist = planted_split_system(rng, 5)
        system = fit_split_weights(dist, ordering)
        text = write_nexus(dist, system)
        assert text.startswith("#NEXUS")
        assert "BEGIN Taxa;" in text and "BEGIN Distances;" in text
        assert "DIMENSIONS ntax=5;" in text
        assert "BEGIN Splits;" in text
        assert f"nsplits={len(system.splits)}" in text
        assert "CYCLE" in text
        # Each split line carries a weight and the arc's taxon numbers.
        split_lines = [l for l in text.splitlines() if l.endswith(",")]
        assert len(split_lines) == len(system.splits)
