"""Neighbor-Net circular orderings, circular split weights, and Nexus export.

The ordering is built agglomeratively: active components (chains of linked
nodes) are merged by a neighbor-joining-style criterion, chains of three
linked nodes are reduced to two synthetic nodes, and expanding the
reductions of the final chain yields the circular ordering. Split weights
are then fitted by non-negative least squares over all contiguous-arc
splits of the ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterAssignment, ClusterError, ClusterPairing, best_matching, renumber
from .correlation import DistanceMatrix
from .nnls import nnls_gram


class NeighborNetError(ValueError):
    pass


@dataclass(frozen=True)
class Split:
    start: int  # arc start position in the ordering, 1..n-1
    length: int  # arc length, 1..n-start (the arc never wraps position 0)
    weight: float


@dataclass(frozen=True)
class CircularSplitSystem:
    ordering: tuple[str, ...]
    splits: tuple[Split, ...]
    residual: float

    @property
    def n(self) -> int:
        return len(self.ordering)

    def arc_members(self, split: Split) -> tuple[str, ...]:
        return self.ordering[split.start : split.start + split.length]


def neighbornet_ordering(dist: DistanceMatrix) -> tuple[str, ...]:
    """Circular ordering of the tickers by neighbor-Net agglomeration."""
    n = dist.n
    if n < 3:
        raise NeighborNetError("neighbor-Net needs at least 3 tickers")

    # A reduction turns three linked nodes into two, and the last chain has
    # two nodes: n - 2 reductions make 2(n - 2) synthetic nodes.
    D = np.zeros((3 * n - 4, 3 * n - 4))
    D[:n, :n] = dist.d
    labels: list[str] = list(dist.tickers)
    components: list[list[int]] = [[i] for i in range(n)]
    reductions: list[tuple[int, int, int, int, int]] = []  # (u, v, x, y, z)
    next_id = n

    # Each value below comes from the same floating-point operations, in the
    # same order, as np.mean over the member distances (a left-to-right sum
    # divided by the count) and a left-to-right sum over the other components,
    # so every tie-break, and with it the ordering, is exact. The sums over
    # components are cumsums: they add in order on every Python, where the
    # builtin sum compensates its float additions from 3.12 on.
    while len(components) > 1:
        m = len(components)
        first, last = np.array([(c[0], c[-1]) for c in components]).T
        two = first != last
        size = two + 1.0
        # Component distances of the upper triangle (row component first), mirrored.
        cd = D[np.ix_(first, first)] + np.where(two, D[np.ix_(first, last)], 0.0)
        cd = cd + np.where(two[:, None], D[np.ix_(last, first)], 0.0)
        cd = cd + np.where(two[:, None] & two, D[np.ix_(last, last)], 0.0)
        cd = np.triu(cd / np.outer(size, size), 1)
        cd = cd + cd.T
        row = np.cumsum(cd, axis=1)[:, -1]
        q = (m - 2) * cd - row[:, None] - row
        iu = np.triu_indices(m, 1)
        tied = np.flatnonzero(q[iu] == q[iu].min())
        comp_labels = [min(labels[a] for a in comp) for comp in components]
        i, j = min(
            ((int(iu[0][t]), int(iu[1][t])) for t in tied),
            key=lambda ij: sorted((comp_labels[ij[0]], comp_labels[ij[1]])),
        )
        A, B = components[i], components[j]

        # Secondary selection: endpoints of A against endpoints of B, with the
        # nodes of A and B treated as singleton units beside the other components.
        others = [t for t in range(m) if t not in (i, j)]
        m_hat = len(others) + len(A) + len(B)
        o_first, o_last, o_two, o_size = first[others], last[others], two[others], size[others]

        def unit_sum(x: int) -> float:
            units = (D[x, o_first] + np.where(o_two, D[x, o_last], 0.0)) / o_size
            return np.cumsum(np.append(units, D[x, [u for u in A + B if u != x]]))[-1]

        def node_key(xy: tuple[int, int]) -> tuple:
            q_xy = (m_hat - 2) * D[xy] - unit_sum(xy[0]) - unit_sum(xy[1])
            return q_xy, sorted(labels[v] for v in xy)

        ends_a, ends_b = (A[0], A[-1])[: len(A)], (B[0], B[-1])[: len(B)]
        x, y = min(((x, y) for x in ends_a for y in ends_b), key=node_key)  # first of ties

        chain_a = A if A[-1] == x else A[::-1]
        chain_b = B if B[0] == y else B[::-1]
        chain = chain_a + chain_b

        # Every time the chain still exceeds two nodes, contract its leading
        # three linked nodes into two synthetic ones.
        while len(chain) > 2:
            cx, cy, cz = chain[0], chain[1], chain[2]
            u, v = next_id, next_id + 1
            next_id += 2
            active = [node for comp in components for node in comp if comp not in (A, B)]
            active += [node for node in chain if node not in (cx, cy, cz)]
            D[active, u] = D[u, active] = (2.0 * D[active, cx] + D[active, cy]) / 3.0
            D[active, v] = D[v, active] = (D[active, cy] + 2.0 * D[active, cz]) / 3.0
            D[u, v] = D[v, u] = (D[cx, cy] + D[cx, cz] + D[cy, cz]) / 3.0
            labels.append(min(labels[cx], labels[cy]))
            labels.append(min(labels[cy], labels[cz]))
            reductions.append((u, v, cx, cy, cz))
            chain = [u, v] + chain[3:]

        components = [c for t, c in enumerate(components) if t not in (i, j)]
        components.append(chain)

    order = list(components[0])
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


def all_arc_splits(n: int) -> list[tuple[int, int]]:
    """All n(n-1)/2 contiguous arcs not containing position 0."""
    return [(s, length) for s in range(1, n) for length in range(1, n - s + 1)]


class SplitOperators:
    """Products with the circular split matrix A of n positions in O(n²),
    without A (Bryant & Huson 2023).

    Rows of A are the position pairs p<q and columns the arcs [s, e) in
    ``all_arc_splits`` order; both orders are the row-major strict upper
    triangle of an n x n grid. A product writes its input onto an
    (n + 2) x (n + 2) grid, takes 2-D prefix sums P[a, c] (the sum of the
    cells (i, j) with i <= a and j <= c) and reads
    2P[i, j] - P[i, i] - P[j, j] + P[j, n + 1] - P[i, n + 1] for every i < j
    of the triangle. For A·x the grid holds arc [s, e) at (s + 1, e + 1), and
    i, j are p + 1, q + 1; for Aᵀ·y it holds pair p<q at (p + 1, q + 1), and
    i, j are s, e.
    """

    def __init__(self, n: int):
        self.n = n
        self.starts, self.lengths = np.array(all_arc_splits(n)).T
        self.ends = self.starts + self.lengths
        self.p, self.q = np.triu_indices(n, 1)
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


def fit_split_weights(
    dist: DistanceMatrix,
    ordering: tuple[str, ...],
    *,
    prune: float = 1e-9,
) -> CircularSplitSystem:
    """Non-negative least squares fit of all contiguous-arc split weights."""
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
        if weight >= prune
    )
    return CircularSplitSystem(tuple(ordering), splits, residual)


def adjacent_gaps(dist: DistanceMatrix, ordering: tuple[str, ...]) -> list[float]:
    """Distance between each consecutive ordering pair; gap[i] sits between
    positions i-1 and i (circularly)."""
    n = len(ordering)
    return [dist.between(ordering[i - 1], ordering[i]) for i in range(n)]


def nn_clusters(
    system: CircularSplitSystem,
    dist: DistanceMatrix,
    k: int,
    manual_breaks: list[int] | None = None,
) -> ClusterAssignment:
    """Cut the circular ordering into k contiguous arcs.

    Automatic mode cuts at the k largest adjacent-pair distances; manual mode
    uses the supplied cut positions (a cut at position p starts a cluster at
    ordering[p]).
    """
    n = system.n
    if not 1 <= k <= n:
        raise ClusterError(f"k must be in [1, {n}]")
    if manual_breaks is not None:
        cuts = sorted(manual_breaks)
        if len(cuts) != k or len(set(cuts)) != k or any(not 0 <= c < n for c in cuts):
            raise ClusterError(f"manual breaks must be {k} distinct positions in [0, {n})")
    elif k == 1:
        cuts = [0]
    else:
        gaps = adjacent_gaps(dist, system.ordering)
        cuts = sorted(sorted(range(n), key=lambda i: (-gaps[i], i))[:k])
    arcs: list[tuple[str, ...]] = []
    for a, b in zip(cuts, cuts[1:] + [cuts[0] + n]):
        arcs.append(tuple(system.ordering[p % n] for p in range(a, b)))
    return renumber(arcs, "NN")


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


def write_nexus(dist: DistanceMatrix, system: CircularSplitSystem | None = None) -> str:
    """SplitsTree-compatible Nexus: TAXA + DISTANCES, plus SPLITS when fitted."""
    n = dist.n
    out = ["#NEXUS", "", "BEGIN Taxa;", f"DIMENSIONS ntax={n};", "TAXLABELS"]
    for i, t in enumerate(dist.tickers, start=1):
        out.append(f"[{i}] '{t}'")
    out += [";", "END; [Taxa]", "", "BEGIN Distances;", f"DIMENSIONS ntax={n};",
            "FORMAT labels=left diagonal triangle=both;", "MATRIX"]
    for i, t in enumerate(dist.tickers):
        row = " ".join(f"{dist.d[i, j]:.6f}" for j in range(n))
        out.append(f"'{t}' {row}")
    out += [";", "END; [Distances]"]
    if system is not None:
        taxon_no = {t: i + 1 for i, t in enumerate(dist.tickers)}
        cycle = " ".join(str(taxon_no[t]) for t in system.ordering)
        out += ["", "BEGIN Splits;",
                f"DIMENSIONS ntax={n} nsplits={len(system.splits)};",
                "FORMAT labels=no weights=yes confidences=no intervals=no;",
                f"[fit: ordinary least squares with non-negativity; residual {system.residual:.6g}]",
                f"CYCLE {cycle};", "MATRIX"]
        for idx, split in enumerate(system.splits, start=1):
            members = " ".join(str(taxon_no[t]) for t in system.arc_members(split))
            out.append(f"[{idx}] {split.weight:.8f} {members},")
        out += [";", "END; [Splits]"]
    return "\n".join(out) + "\n"
