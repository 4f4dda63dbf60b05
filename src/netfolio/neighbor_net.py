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
    # two nodes: n - 2 reductions make 2(n - 2) synthetic nodes.
    nodes = 3 * n - 4
    D = np.zeros((nodes, nodes))
    D[:n, :n] = dist.d
    # Labels enter only through comparisons, so each node keeps the rank of
    # its label among the tickers; a synthetic node takes the smaller rank.
    rank = np.empty(nodes, dtype=np.intp)
    rank[:n] = np.unique(np.array(dist.tickers), return_inverse=True)[1]
    # The components, in order, as columns: first node, last node and
    # smallest label rank of a chain of one or two linked nodes.
    comps = np.stack([np.arange(n), np.arange(n), rank[:n]])
    reductions: list[tuple[int, int, int, int, int]] = []  # (u, v, x, y, z)
    next_id = n
    upper = np.triu(np.ones((n, n), dtype=bool), 1)

    # Each value below comes from the same floating-point operations, in the
    # same order, as np.mean over the member distances (a left-to-right sum
    # divided by the count) and a left-to-right sum over the other components,
    # so every tie-break, and with it the ordering, is exact. The sums over
    # components are cumsums: they add in order on every Python, where the
    # builtin sum compensates its float additions from 3.12 on.
    # The component distance matrix is kept across merges: a merge deletes
    # the two merged components and appends the new one, so each entry keeps
    # the lower-numbered component as its row, as when it was computed. The
    # singletons' distances are the input's.
    cd = dist.d
    while cd.shape[0] > 1:
        m = cd.shape[0]
        first, last, low = comps
        two = first != last
        size = two + 1.0
        row = np.cumsum(cd, axis=1)[:, -1]
        q = np.where(upper[:m, :m], (m - 2) * cd - row[:, None] - row, np.inf)
        tied = np.flatnonzero(q == q.min())  # row-major, as the upper triangle runs
        i, j = min((divmod(int(t), m) for t in tied),
                   key=lambda ij: sorted((low[ij[0]], low[ij[1]])))
        A = [int(first[i]), int(last[i])][: int(size[i])]
        B = [int(first[j]), int(last[j])][: int(size[j])]

        # Secondary selection: endpoints of A against endpoints of B, with the
        # nodes of A and B treated as singleton units beside the other
        # components. A and B hold only their endpoints, and each endpoint's
        # sum over the units is taken once.
        keep = np.ones(m, dtype=bool)
        keep[[i, j]] = False
        o_first, o_last, o_two, o_size = first[keep], last[keep], two[keep], size[keep]
        m_hat = o_first.size + len(A) + len(B)
        ends = np.array(A + B)
        units = (D[np.ix_(ends, o_first)] + np.where(o_two, D[np.ix_(ends, o_last)], 0.0)) / o_size
        own = D[ends[:, None], [[u for u in A + B if u != x] for x in ends.tolist()]]
        unit_sum = dict(zip(ends.tolist(), np.cumsum(np.hstack([units, own]), axis=1)[:, -1]))

        def node_key(xy: tuple[int, int]) -> tuple:
            q_xy = (m_hat - 2) * D[xy] - unit_sum[xy[0]] - unit_sum[xy[1]]
            return q_xy, sorted(rank[v] for v in xy)

        x, y = min(((x, y) for x in A for y in B), key=node_key)  # first of ties

        chain_a = A if A[-1] == x else A[::-1]
        chain_b = B if B[0] == y else B[::-1]
        chain = chain_a + chain_b

        # Every time the chain still exceeds two nodes, contract its leading
        # three linked nodes into two synthetic ones.
        other_nodes = np.concatenate([o_first, o_last[o_two]])
        while len(chain) > 2:
            cx, cy, cz = chain[0], chain[1], chain[2]
            u, v = next_id, next_id + 1
            next_id += 2
            active = np.concatenate([other_nodes, np.array(chain[3:], dtype=np.intp)])
            D[active, u] = D[u, active] = (2.0 * D[active, cx] + D[active, cy]) / 3.0
            D[active, v] = D[v, active] = (D[active, cy] + 2.0 * D[active, cz]) / 3.0
            D[u, v] = D[v, u] = (D[cx, cy] + D[cx, cz] + D[cy, cz]) / 3.0
            rank[u], rank[v] = min(rank[cx], rank[cy]), min(rank[cy], rank[cz])
            reductions.append((u, v, cx, cy, cz))
            chain = [u, v] + chain[3:]

        # The new component, appended last, is a chain of two nodes f, l. Its
        # distance to component t (the row) sums D[f_t, f], D[f_t, l],
        # D[l_t, f] and D[l_t, l] left to right, the last two only when t has
        # two nodes, and divides by the count of member pairs.
        f, l = chain
        new = D[o_first, f] + D[o_first, l]
        new = new + np.where(o_two, D[o_last, f], 0.0)
        new = new + np.where(o_two, D[o_last, l], 0.0)
        new = new / (o_size * 2.0)
        grown = np.empty((m - 1, m - 1))
        grown[:-1, :-1] = cd[keep][:, keep]
        grown[:-1, -1] = grown[-1, :-1] = new
        grown[-1, -1] = 0.0
        cd = grown
        comps = np.column_stack([comps[:, keep], (f, l, min(rank[f], rank[l]))])

    order = comps[:2, 0].tolist()
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
        self._grid = np.empty((n + 2, n + 2))
        self._out = np.empty((n, n))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A·x, the circular metric of arc weights x: arc [s, e) separates
        p<q when s <= p < e <= q or p < s <= q < e."""
        return self._prefix_read(x, 2)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Aᵀ·y: an arc's entry sums y over the pairs with one end in it."""
        return self._prefix_read(y, 1)

    def _prefix_read(self, values: np.ndarray, offset: int) -> np.ndarray:
        n, grid, out = self.n, self._grid, self._out
        grid.fill(0.0)
        grid[offset : offset + n, offset : offset + n][self._upper] = values
        np.cumsum(grid, axis=0, out=grid)
        np.cumsum(grid, axis=1, out=grid)
        diag, last = grid.diagonal()[1 : n + 1], grid[1 : n + 1, n + 1]
        np.multiply(grid[1 : n + 1, 1 : n + 1], 2.0, out=out)
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
    splits = tuple(
        Split(s, length, float(weight))
        for s, length, weight in zip(ops.starts.tolist(), ops.lengths.tolist(), w)
        if weight >= PRUNE
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
    for i, t in enumerate(dist.tickers):
        row = " ".join(f"{dist.d[i, j]:.6f}" for j in range(n))
        out.append(f"'{t}' {row}")
    taxon_no = {t: i + 1 for i, t in enumerate(dist.tickers)}
    cycle = " ".join(str(taxon_no[t]) for t in system.ordering)
    out += [";", "END; [Distances]", "", "BEGIN Splits;",
            f"DIMENSIONS ntax={n} nsplits={len(system.splits)};",
            "FORMAT labels=no weights=yes confidences=no intervals=no;",
            f"[fit: ordinary least squares with non-negativity; residual {system.residual:.6g}]",
            f"CYCLE {cycle};", "MATRIX"]
    for idx, split in enumerate(system.splits, start=1):
        members = " ".join(str(taxon_no[t]) for t in system.arc_members(split))
        out.append(f"[{idx}] {split.weight:.8f} {members},")
    out += [";", "END; [Splits]"]
    return "\n".join(out) + "\n"
