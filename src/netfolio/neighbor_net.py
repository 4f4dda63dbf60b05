"""Neighbor-Net circular orderings, circular split weights, and Nexus export.

The ordering is built agglomeratively: active components (chains of linked
nodes) are merged by a neighbor-joining-style criterion, chains of three
linked nodes are reduced to two synthetic nodes, and expanding the
reductions of the final chain yields the circular ordering. Clusters are
contiguous arcs of the ordering. Split weights, which only the Nexus export
reads, are fitted by non-negative least squares over all contiguous-arc
splits of the ordering.
"""

from __future__ import annotations

import numpy as np

from .clusters import ClusterAssignment, ClusterError, ClusterPairing, best_matching, renumber
from .correlation import DistanceMatrix
from .nnls import nnls_gram
from .record import Record


class NeighborNetError(ValueError):
    pass


class Split(Record):
    start: int  # arc start position in the ordering, 1..n-1
    length: int  # arc length, 1..n-start (the arc never wraps position 0)
    weight: float


class CircularSplitSystem(Record):
    ordering: tuple[str, ...]
    splits: tuple[Split, ...]
    residual: float

    def arc_members(self, split: Split) -> tuple[str, ...]:
        return self.ordering[split.start : split.start + split.length]


def neighbornet_ordering(dist: DistanceMatrix) -> tuple[str, ...]:
    """Circular ordering of the tickers by neighbor-Net agglomeration."""
    n = dist.n
    if n < 3:
        raise NeighborNetError("neighbor-Net needs at least 3 tickers")

    # A reduction turns three linked nodes into two, and the last chain has
    # two nodes: n - 2 reductions make 2(n - 2) synthetic nodes. One more
    # node, ``none``, stands in for the missing second node of a singleton
    # component: its distances stay 0.0, so a sum over a component's two
    # nodes adds 0.0 for a singleton, as a sum over its one node would.
    none = 3 * n - 4
    D = np.zeros((none + 1, none + 1))
    D[:n, :n] = dist.d
    # Labels enter only through comparisons, so each node keeps the rank of
    # its label among the tickers, at its id; a synthetic node takes the
    # smaller rank of two, and ``none`` ranks after every ticker.
    rank = np.unique(np.array(dist.tickers), return_inverse=True)[1].tolist() + [n] * (2 * n - 3)
    # The components, in order: first node and second node (``none`` for a
    # singleton) of a chain of one or two linked nodes.
    first, second = list(range(n)), [none] * n
    reductions: list[tuple[int, int, int, int, int]] = []  # (u, v, x, y, z)
    next_id = n
    # The strict lower triangle and the diagonal are never a candidate pair.
    below = np.tril(np.full((n, n), np.inf))

    # Each value below comes from the same floating-point operations, in the
    # same order, as np.mean over the member distances (a left-to-right sum
    # divided by the count) and a left-to-right sum over the other components,
    # so every tie-break, and with it the ordering, is exact. The sums over
    # components are cumsums (np.add.accumulate, np.cumsum without its
    # wrapper): they add in order on every Python, where the builtin sum
    # compensates its float additions from 3.12 on.
    # The component distance matrix is kept across merges: a merge deletes
    # the two merged components and appends the new one, so each entry keeps
    # the lower-numbered component as its row, as when it was computed. The
    # singletons' distances are the input's.
    # A merge makes a fixed number of numpy calls: the m x m primary selection
    # and O(m) rows gathered once; the few node-to-node distances within the
    # merged chains are Python floats.
    cd = dist.d
    every = np.ones(n, dtype=bool)
    while (m := len(first)) > 1:
        row = np.add.accumulate(cd, axis=1)[:, -1]
        q = (m - 2) * cd
        q -= row[:, None]
        q -= row
        q += below[:m, :m]
        tied = (q == q.min()).ravel().nonzero()[0].tolist()  # row-major, as the upper triangle runs
        i, j = divmod(tied[0], m) if len(tied) == 1 else min(
            (divmod(t, m) for t in tied),
            key=lambda ij: sorted(min(rank[first[c]], rank[second[c]]) for c in ij))
        A = [first[i]] if second[i] == none else [first[i], second[i]]
        B = [first[j]] if second[j] == none else [first[j], second[j]]
        keep = every[:m].copy()
        keep[i] = keep[j] = False
        del first[j], first[i], second[j], second[i]

        # Each node of A and B against the nodes of the other components,
        # first nodes then second ones: the only distances a merge reads
        # beside those among A and B.
        mo, ends = len(first), A + B
        others = np.array(first + second, dtype=np.intp)
        o_size = 1.0 + (others[mo:] != none)
        rows = D.take(ends, axis=0)
        near = rows.take(others, axis=1)

        # Secondary selection: endpoints of A against endpoints of B, with the
        # nodes of A and B treated as singleton units beside the other
        # components. Each endpoint's sum over the units is taken once: the
        # other components' means left to right, then its own distances to
        # the rest of A and B. Two singletons have one pair of endpoints.
        if len(ends) > 2:
            own = rows.take(ends, axis=1).tolist()
            pair = {(x, w): own[r][c] for r, x in enumerate(ends) for c, w in enumerate(ends)}
            # No other component is left at the last merge: the sums start
            # with the first own distance.
            units = [None] * len(ends)
            if mo:
                means = (near[:, :mo] + near[:, mo:]) / o_size
                units = np.add.accumulate(means, axis=1)[:, -1].tolist()
            unit_sum = {}
            for x, total in zip(ends, units):
                for w in ends:
                    if w != x:
                        total = pair[x, w] if total is None else total + pair[x, w]
                unit_sum[x] = total
            m_hat = mo + len(ends)

            def node_key(xy: tuple[int, int]) -> tuple:
                q_xy = (m_hat - 2) * pair[xy] - unit_sum[xy[0]] - unit_sum[xy[1]]
                return q_xy, sorted(rank[v] for v in xy)

            x, y = min(((x, y) for x in A for y in B), key=node_key)  # first of ties
            chain_a = A if A[-1] == x else A[::-1]
            chain_b = B if B[0] == y else B[::-1]
            chain = chain_a + chain_b
        else:
            chain = ends

        # Every time the chain still exceeds two nodes, contract its leading
        # three linked nodes into two synthetic ones. A node's distances to
        # the other components' nodes are its row of ``near``, or the row its
        # reduction made; only the last pair's distances are written into D.
        vec = dict(zip(ends, near))
        while len(chain) > 2:
            cx, cy, cz = chain[0], chain[1], chain[2]
            u, v = next_id, next_id + 1
            next_id += 2
            vec[u] = (2.0 * vec[cx] + vec[cy]) / 3.0
            vec[v] = (vec[cy] + 2.0 * vec[cz]) / 3.0
            for w in chain[3:]:
                pair[w, u] = pair[u, w] = (2.0 * pair[w, cx] + pair[w, cy]) / 3.0
                pair[w, v] = pair[v, w] = (pair[w, cy] + 2.0 * pair[w, cz]) / 3.0
            pair[u, v] = pair[v, u] = (pair[cx, cy] + pair[cx, cz] + pair[cy, cz]) / 3.0
            rank[u], rank[v] = min(rank[cx], rank[cy]), min(rank[cy], rank[cz])
            reductions.append((u, v, cx, cy, cz))
            chain = [u, v] + chain[3:]
        f, l = chain
        vf, vl = vec[f], vec[l]
        if f not in ends:  # the chain was reduced, to two new nodes
            D[f, others] = D[others, f] = vf
            D[l, others] = D[others, l] = vl
            D[f, l] = D[l, f] = pair[f, l]

        # The new component, appended last, is the chain f, l. Its distance
        # to component t (the row) sums D[f_t, f], D[f_t, l], D[s_t, f] and
        # D[s_t, l] left to right, the last two 0.0 when t is a singleton,
        # and divides by the count of member pairs.
        new = (vf[:mo] + vl[:mo] + vf[mo:] + vl[mo:]) / (o_size * 2.0)
        cd, old = np.empty((m - 1, m - 1)), cd
        cd[:-1, :-1] = old.compress(keep, axis=0).compress(keep, axis=1)
        cd[:-1, -1] = cd[-1, :-1] = new
        cd[-1, -1] = 0.0
        first.append(f)
        second.append(l)

    order = [first[0], second[0]]
    for u, v, x, y, z in reversed(reductions):
        pos = order.index(u)
        if pos + 1 < len(order) and order[pos + 1] == v:
            order[pos : pos + 2] = [x, y, z]
        elif pos > 0 and order[pos - 1] == v:
            order[pos - 1 : pos + 1] = [z, y, x]
        else:
            raise AssertionError("reduced pair not adjacent during expansion")
    if sorted(order) != list(range(n)):
        raise AssertionError("expansion did not yield a permutation of the taxa")
    return tuple(dist.tickers[i] for i in order)


class SplitOperators:
    """Products with the circular split matrix A of n positions in O(n²),
    without A (Bryant & Huson 2023).

    Rows of A are the position pairs p<q and columns the arcs [s, e) not
    containing position 0, arc [p + 1, q + 1) in column p<q: both orders are
    the row-major strict upper triangle of an n x n grid. A product writes
    its input onto an (n + 2) x (n + 2) grid, takes 2-D prefix sums P[a, c]
    (the sum of the cells (i, j) with i <= a and j <= c) and reads
    2P[i, j] - P[i, i] - P[j, j] + P[j, n + 1] - P[i, n + 1] for every i < j
    of the triangle. For A·x the grid holds arc [s, e) at (s + 1, e + 1), and
    i, j are p + 1, q + 1; for Aᵀ·y it holds pair p<q at (p + 1, q + 1), and
    i, j are s, e.
    """

    def __init__(self, n: int):
        self.n = n
        self.p, self.q = np.triu_indices(n, 1)
        self.starts, self.lengths = self.p + 1, self.q - self.p
        self.ends = self.starts + self.lengths
        self._upper = np.triu(np.ones((n, n), dtype=bool), 1)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A·x, the circular metric of arc weights x: arc [s, e) separates
        p<q when s <= p < e <= q or p < s <= q < e."""
        return self._prefix_read(x, 2)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Aᵀ·y: an arc's entry sums y over the pairs with one end in it."""
        return self._prefix_read(y, 1)

    def _prefix_read(self, values: np.ndarray, offset: int) -> np.ndarray:
        n = self.n
        grid = np.zeros((n + 2, n + 2))
        grid[offset : offset + n, offset : offset + n][self._upper] = values
        np.cumsum(grid, axis=0, out=grid)
        np.cumsum(grid, axis=1, out=grid)
        diag, last = grid.diagonal()[1 : n + 1], grid[1 : n + 1, n + 1]
        out = 2.0 * grid[1 : n + 1, 1 : n + 1]
        out += last - diag
        out -= (last + diag)[:, None]
        return out[self._upper]

    def solve(self, y: np.ndarray) -> np.ndarray:
        """A⁻¹·y, the arc weights whose circular metric is y (Chepoi & Fichet
        1998): with y as the symmetric pair table d, arc [s, e) gets
        ½(d(s−1, e−1) + d(s, e) − d(s−1, e) − d(s, e−1)), indices mod n."""
        d = np.zeros((self.n, self.n))
        d[self._upper] = y
        d += d.T
        s, e = self.starts, self.ends % self.n
        return 0.5 * (d[s - 1, e - 1] + d[s, e] - d[s - 1, e] - d[s, e - 1])

    def gram(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(AᵀA)[rows][:, cols]. Pairs split by both arcs: a*d + b*c for
        a = |S1∩S2|, b = |S1∖S2|, c = |S2∖S1|, d = n-a-b-c, which expands to
        the closed form below."""
        r = np.asarray(rows)[:, None]
        starts, ends, lengths = self.starts, self.ends, self.lengths
        a = np.maximum(np.minimum(ends[r], ends[cols]) - np.maximum(starts[r], starts[cols]), 0)
        return a * (self.n - 2 * (lengths[r] + lengths[cols]) + 2 * a) + lengths[r] * lengths[cols]


# A fitted weight below this is the solver's rounding of a zero weight.
PRUNE = 1e-9


def fit_split_weights(dist: DistanceMatrix, ordering: tuple[str, ...]) -> CircularSplitSystem:
    """Non-negative least squares fit of all contiguous-arc split weights;
    the splits of weight below ``PRUNE`` are dropped."""
    n = dist.n
    if sorted(ordering) != sorted(dist.tickers):
        raise NeighborNetError("ordering must be a permutation of the distance tickers")
    ops = SplitOperators(n)
    pos = np.array([dist.ticker_index(t) for t in ordering])
    b = dist.d[pos[ops.p], pos[ops.q]]
    # The fit starts from the 2n largest positive weights of the unconstrained
    # solution A⁻¹b; the optimum keeps about 3n splits. About half of all
    # weights are positive, most of them outside the optimum (873 of 1,050 on
    # the n = 64 golden, whose optimum has 200 splits).
    free = ops.solve(b)
    top = np.argsort(-free, kind="stable")[: 2 * n]
    start = np.sort(top[free[top] > 0])
    w, residual = nnls_gram(ops.gram, ops.matvec, ops.rmatvec, b, 10 * n * n, start)
    kept = np.flatnonzero(w >= PRUNE)
    splits = tuple(
        Split(s, length, weight)
        for s, length, weight in zip(ops.starts[kept].tolist(), ops.lengths[kept].tolist(),
                                     w[kept].tolist())
    )
    return CircularSplitSystem(tuple(ordering), splits, residual)


def nn_clusters(
    ordering: tuple[str, ...],
    dist: DistanceMatrix,
    k: int,
    manual_breaks: list[int] | None = None,
) -> ClusterAssignment:
    """Cut the circular ordering into k contiguous arcs.

    Automatic mode cuts at the k largest adjacent-pair distances; manual mode
    uses the supplied cut positions (a cut at position p starts a cluster at
    ordering[p]).
    """
    n = len(ordering)
    if not 1 <= k <= n:
        raise ClusterError(f"k must be in [1, {n}]")
    if manual_breaks is not None:
        cuts = sorted(manual_breaks)
        if len(cuts) != k or len(set(cuts)) != k or any(not 0 <= c < n for c in cuts):
            raise ClusterError(f"manual breaks must be {k} distinct positions in [0, {n})")
    else:
        # gaps[i] is the distance between positions i-1 and i (circularly).
        pos = np.array([dist.ticker_index(t) for t in ordering])
        gaps = dist.d[np.roll(pos, 1), pos]
        cuts = sorted(np.argsort(-gaps, kind="stable")[:k].tolist())
    arcs: list[tuple[str, ...]] = []
    for a, b in zip(cuts, cuts[1:] + [cuts[0] + n]):
        arcs.append(tuple(ordering[p % n] for p in range(a, b)))
    return renumber(arcs)


def pair_nn_clusters(assignment: ClusterAssignment, ordering: tuple[str, ...]) -> ClusterPairing:
    """Pair arcs with the arc most nearly diametrically opposite.

    Maximizes the total circular separation of arc midpoints over all perfect
    matchings; requires an even cluster count.
    """
    if assignment.k % 2 != 0:
        raise ClusterError("arc pairing requires an even cluster count; use distance pairing")
    n = len(ordering)
    pos = {t: i for i, t in enumerate(ordering)}
    midpoints: dict[int, float] = {}
    for cid, members in assignment.clusters().items():
        ps = {pos[t] for t in members}
        # A contiguous arc has exactly one member whose predecessor is outside it.
        starts = [p for p in ps if (p - 1) % n not in ps]
        if len(starts) != 1:
            raise ClusterError(f"cluster {cid} is not a contiguous arc of the ordering")
        midpoints[cid] = (starts[0] + (len(ps) - 1) / 2.0) % n

    def separation(a: int, b: int) -> float:
        diff = abs(midpoints[a] - midpoints[b])
        return min(diff, n - diff)

    return ClusterPairing(best_matching(assignment.k, separation))


def write_nexus(dist: DistanceMatrix, system: CircularSplitSystem) -> str:
    """SplitsTree-compatible Nexus: TAXA, DISTANCES and the fitted SPLITS."""
    n = dist.n
    out = ["#NEXUS", "", "BEGIN Taxa;", f"DIMENSIONS ntax={n};", "TAXLABELS"]
    for i, t in enumerate(dist.tickers, start=1):
        out.append(f"[{i}] '{t}'")
    out += [";", "END; [Taxa]", "", "BEGIN Distances;", f"DIMENSIONS ntax={n};",
            "FORMAT labels=left diagonal triangle=both;", "MATRIX"]
    # One % per row, over the row's Python floats: "%.6f" formats a float64
    # exactly as its f-string does. Only one row is converted at a time.
    row = "'%s'" + " %.6f" * n
    out += [row % (t, *values.tolist()) for t, values in zip(dist.tickers, dist.d)]
    taxon_no = {t: str(i) for i, t in enumerate(dist.tickers, start=1)}.__getitem__
    cycle = " ".join(map(taxon_no, system.ordering))
    out += [";", "END; [Distances]", "", "BEGIN Splits;",
            f"DIMENSIONS ntax={n} nsplits={len(system.splits)};",
            "FORMAT labels=no weights=yes confidences=no intervals=no;",
            f"[fit: ordinary least squares with non-negativity; residual {system.residual:.6g}]",
            f"CYCLE {cycle};", "MATRIX"]
    for idx, split in enumerate(system.splits, start=1):
        members = " ".join(map(taxon_no, system.arc_members(split)))
        out.append(f"[{idx}] {split.weight:.8f} {members},")
    out += [";", "END; [Splits]"]
    return "\n".join(out) + "\n"
