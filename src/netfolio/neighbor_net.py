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
from itertools import combinations

import numpy as np

from .clusters import ClusterAssignment, ClusterError, ClusterPairing, best_matching, renumber
from .correlation import DistanceMatrix
from .nnls import nnls


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
    fit_note: str = "ordinary least squares with non-negativity"

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

    cap = 6 * n + 8
    D = np.zeros((cap, cap))
    D[:n, :n] = dist.d
    labels: list[str] = list(dist.tickers)
    components: list[list[int]] = [[i] for i in range(n)]
    reductions: list[tuple[int, int, int, int, int]] = []  # (u, v, x, y, z)
    next_id = n

    def unit_dist(x: int, unit: list[int]) -> float:
        return float(np.mean([D[x, u] for u in unit]))

    def comp_dist(A: list[int], B: list[int]) -> float:
        return float(np.mean([[D[a, b] for b in B] for a in A]))

    def comp_label(A: list[int]) -> str:
        return min(labels[a] for a in A)

    while len(components) > 1:
        m = len(components)
        cd = {}
        for i, j in combinations(range(m), 2):
            cd[(i, j)] = cd[(j, i)] = comp_dist(components[i], components[j])
        row = [sum(cd[(i, j)] for j in range(m) if j != i) for i in range(m)]

        best_pair: tuple[int, int] | None = None
        best_key: tuple = ()
        for i, j in combinations(range(m), 2):
            q = (m - 2) * cd[(i, j)] - row[i] - row[j]
            key = (q, tuple(sorted((comp_label(components[i]), comp_label(components[j])))))
            if best_pair is None or key < best_key:
                best_pair, best_key = (i, j), key
        i, j = best_pair
        A, B = components[i], components[j]

        # Secondary selection: endpoints of A against endpoints of B, with the
        # nodes of A and B treated as singleton units beside the other components.
        units = [components[t] for t in range(m) if t not in (i, j)]
        units += [[a] for a in A] + [[b] for b in B]
        m_hat = len(units)
        ends_a = [A[0]] if len(A) == 1 else [A[0], A[-1]]
        ends_b = [B[0]] if len(B) == 1 else [B[0], B[-1]]
        best_nodes: tuple[int, int] | None = None
        best_nkey: tuple = ()
        for x in ends_a:
            for y in ends_b:
                q = (m_hat - 2) * D[x, y]
                q -= sum(unit_dist(x, u) for u in units if u != [x])
                q -= sum(unit_dist(y, u) for u in units if u != [y])
                key = (q, tuple(sorted((labels[x], labels[y]))))
                if best_nodes is None or key < best_nkey:
                    best_nodes, best_nkey = (x, y), key
        x, y = best_nodes

        chain_a = A if A[-1] == x else A[::-1]
        chain_b = B if B[0] == y else B[::-1]
        chain = chain_a + chain_b

        # Every time the chain still exceeds two nodes, contract its leading
        # three linked nodes into two synthetic ones.
        while len(chain) > 2:
            cx, cy, cz = chain[0], chain[1], chain[2]
            u, v = next_id, next_id + 1
            next_id += 2
            if next_id > cap:
                raise NeighborNetError("node capacity exceeded")
            active = [node for comp in components for node in comp if comp not in (A, B)]
            active += [node for node in chain if node not in (cx, cy, cz)]
            for a in active:
                D[a, u] = D[u, a] = (2.0 * D[a, cx] + D[a, cy]) / 3.0
                D[a, v] = D[v, a] = (D[a, cy] + 2.0 * D[a, cz]) / 3.0
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


def split_design_matrix(n: int) -> np.ndarray:
    """Indicator matrix: rows = position pairs (p<q), cols = arc splits."""
    arcs = all_arc_splits(n)
    pairs = list(combinations(range(n), 2))
    mat = np.zeros((len(pairs), len(arcs)))
    for col, (s, length) in enumerate(arcs):
        for rowi, (p, q) in enumerate(pairs):
            inside_p = s <= p < s + length
            inside_q = s <= q < s + length
            if inside_p != inside_q:
                mat[rowi, col] = 1.0
    return mat


def circular_metric_matrix(n: int, splits: list[tuple[int, int, float]]) -> np.ndarray:
    """Raw position-indexed distance matrix induced by weighted arc splits."""
    d = np.zeros((n, n))
    for s, length, w in splits:
        arc = set(range(s, s + length))
        for p in range(n):
            for q in range(p + 1, n):
                if (p in arc) != (q in arc):
                    d[p, q] += w
                    d[q, p] += w
    return d


def circular_metric(
    ordering: tuple[str, ...], splits: list[tuple[int, int, float]]
) -> DistanceMatrix:
    """Distance matrix induced by weighted arc splits of an ordering."""
    d = circular_metric_matrix(len(ordering), splits)
    idx = np.argsort(np.array(ordering))
    tickers = tuple(sorted(ordering))
    return DistanceMatrix(tickers, d[np.ix_(idx, idx)])


def fit_split_weights(
    dist: DistanceMatrix,
    ordering: tuple[str, ...],
    *,
    prune: float = 1e-9,
    max_iter: int | None = None,
) -> CircularSplitSystem:
    """Non-negative least squares fit of all contiguous-arc split weights."""
    n = dist.n
    if sorted(ordering) != sorted(dist.tickers):
        raise NeighborNetError("ordering must be a permutation of the distance tickers")
    arcs = all_arc_splits(n)
    A = split_design_matrix(n)
    idx = [dist.ticker_index(t) for t in ordering]
    b = np.array([dist.d[idx[p], idx[q]] for p, q in combinations(range(n), 2)])
    if max_iter is None:
        max_iter = 10 * n * n
    w, residual = nnls(A, b, max_iter=max_iter)
    splits = tuple(
        Split(s, length, float(weight))
        for (s, length), weight in zip(arcs, w)
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
                f"[fit: {system.fit_note}; residual {system.residual:.6g}]",
                f"CYCLE {cycle};", "MATRIX"]
        for idx, split in enumerate(system.splits, start=1):
            members = " ".join(str(taxon_no[t]) for t in system.arc_members(split))
            out.append(f"[{idx}] {split.weight:.8f} {members},")
        out += [";", "END; [Splits]"]
    return "\n".join(out) + "\n"
