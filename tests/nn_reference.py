"""Loop-form references for Neighbor-Net: the ordering, the arc list and the
split design matrix as first written, one Python-level distance or entry at
a time. The package's vectorized ordering and arc order, and the vectorized
design matrix kept here as the oracle of the fit's matrix-free products, must
agree with them exactly."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from netfolio.correlation import DistanceMatrix


def loop_ordering(dist: DistanceMatrix) -> tuple[str, ...]:
    """``neighbornet_ordering`` with every component distance as an np.mean."""
    n = dist.n
    if n < 3:
        raise ValueError("neighbor-Net needs at least 3 tickers")

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
                raise ValueError("node capacity exceeded")
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
    """All n(n-1)/2 contiguous arcs (start, length) not containing position
    0, in the column order of ``SplitOperators``."""
    return [(s, length) for s in range(1, n) for length in range(1, n - s + 1)]


def split_design_matrix(n: int) -> np.ndarray:
    """Indicator matrix: rows = position pairs (p<q), cols = arc splits. The
    fit never builds it; ``SplitOperators`` gives its products."""
    starts, lengths = np.array(all_arc_splits(n)).T
    return _separates(n, starts, lengths).astype(float)


def _separates(n: int, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Bool (pairs x arcs): does arc [start, start+length) separate pair p<q?"""
    p, q = (v[:, None] for v in np.triu_indices(n, 1))
    ends = starts + lengths
    return ((starts <= p) & (p < ends)) != ((starts <= q) & (q < ends))


def loop_design_matrix(n: int) -> np.ndarray:
    """``split_design_matrix`` entry by entry."""
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
