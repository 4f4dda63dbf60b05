"""Average-linkage clustering trees and minimum spanning trees.

Both structures are built from the ultrametric distance matrix. Cluster
extraction supports cutting the dendrogram, deleting the heaviest MST edges,
and the hub-branch procedure used when a single pivot stock dominates the
tree: branches hanging off the hub's neighbors seed the clusters and every
remaining stock joins the cluster of its nearest already-assigned neighbor.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .clusters import ClusterAssignment, ClusterError, renumber
from .correlation import DistanceMatrix
from .record import Record


class Merge(Record):
    left: int  # node id: 0..n-1 leaves, n+i for merge i
    right: int
    height: float


class Dendrogram(Record):
    tickers: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self) -> None:
        n = len(self.tickers)
        if len(self.merges) != n - 1:
            raise ClusterError("a dendrogram on n leaves needs n-1 merges")
        heights = [m.height for m in self.merges]
        if any(b < a - 1e-12 for a, b in zip(heights, heights[1:])):
            raise ClusterError("average-linkage merge heights must be non-decreasing")
        seen: set[int] = set()
        for k, m in enumerate(self.merges):
            for node in (m.left, m.right):
                if not 0 <= node < n + k:
                    raise ClusterError(f"merge {k} uses node {node} before it exists")
                if node in seen:
                    raise ClusterError(f"node {node} used twice in merges")
                seen.add(node)

    @property
    def n(self) -> int:
        return len(self.tickers)


class SpanningTree(Record):
    tickers: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]  # (a, b, weight) with a < b

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.tickers) - 1:
            raise ClusterError("a spanning tree on n vertices needs n-1 edges")


def average_linkage_hct(dist: DistanceMatrix) -> Dendrogram:
    """UPGMA-style agglomeration on the distance matrix.

    Cluster distances are arithmetic means over all cross pairs, maintained
    by the weighted Lance-Williams update. Ties break on the pair of
    lexicographically smallest members.
    """
    n = dist.n
    if n < 2:
        raise ClusterError("need at least 2 tickers")
    # Rows in ticker order, so a cluster lives in the row of its smallest
    # member and the first minimum in row-major order has the smallest
    # (label, label) pair.
    order = sorted(range(n), key=dist.tickers.__getitem__)
    d = np.asarray(dist.d, dtype=float)[np.ix_(order, order)]
    np.fill_diagonal(d, np.inf)
    node, size = order, [1] * n
    merges: list[Merge] = []
    for step in range(n - 1):
        a, b = divmod(int(np.argmin(d)), n)
        merges.append(Merge(node[a], node[b], float(d[a, b])))
        merged = size[a] + size[b]
        row = (size[a] * d[a] + size[b] * d[b]) / merged
        row[a] = np.inf
        d[a], d[:, a] = row, row
        d[b], d[:, b] = np.inf, np.inf
        node[a], size[a] = n + step, merged
    return Dendrogram(dist.tickers, tuple(merges))


def cut_dendrogram(tree: Dendrogram, k: int) -> ClusterAssignment:
    """Undo the last k-1 merges: the clusters are the components that the
    first n-k merges join."""
    n = tree.n
    if not 1 <= k <= n:
        raise ClusterError(f"k must be in [1, {n}]")
    # A leaf under each node, carried forward in merge order: no recursion,
    # for a chained dendrogram is as deep as it has leaves.
    merged, leaf = tree.merges[: n - k], list(tree.tickers)
    for m in merged:
        leaf.append(leaf[m.left])
    return renumber(_components(tree.tickers, [(leaf[m.left], leaf[m.right]) for m in merged]))


def _find(root: dict[str, str], x: str) -> str:
    """Union-find root of x, halving the path on the way up."""
    while root[x] != x:
        root[x] = root[root[x]]
        x = root[x]
    return x


def minimum_spanning_tree(dist: DistanceMatrix) -> SpanningTree:
    """Kruskal's algorithm; ties processed in lexicographic ticker-pair order."""
    n = dist.n
    if n < 2:
        raise ClusterError("need at least 2 tickers")
    candidates = sorted(
        (float(dist.d[i, j]), dist.tickers[i], dist.tickers[j])
        for i in range(n)
        for j in range(i + 1, n)
    )
    root = {t: t for t in dist.tickers}
    edges: list[tuple[str, str, float]] = []
    for w, a, b in candidates:
        ra, rb = _find(root, a), _find(root, b)
        if ra != rb:
            root[ra] = rb
            edges.append((min(a, b), max(a, b), w))
            if len(edges) == n - 1:
                break
    return SpanningTree(dist.tickers, tuple(edges))


def _components(tickers: tuple[str, ...], edges: list[tuple[str, str]]) -> list[tuple[str, ...]]:
    root = {t: t for t in tickers}
    for a, b in edges:
        root[_find(root, a)] = _find(root, b)
    comps: dict[str, list[str]] = {}
    for t in tickers:
        comps.setdefault(_find(root, t), []).append(t)
    return [tuple(sorted(c)) for c in comps.values()]


def _assign_by_nearest(seeds: list[tuple[str, ...]], dist: DistanceMatrix) -> list[tuple[str, ...]]:
    """Iteratively attach each stock that no seed holds to the cluster holding
    its nearest already-assigned neighbor, always taking the globally smallest
    (distance, stock, neighbor) candidate first."""
    cluster_of = {t: ci for ci, s in enumerate(seeds) for t in s}
    # Rows and columns in ticker order: the first minimum of the (pending x
    # assigned) block in row-major order is the smallest candidate.
    order = sorted(range(dist.n), key=dist.tickers.__getitem__)
    names = [dist.tickers[i] for i in order]
    d = dist.d[np.ix_(order, order)]
    label = np.array([cluster_of.get(t, -1) for t in names])
    for _ in range(np.count_nonzero(label < 0)):
        pending, assigned = np.flatnonzero(label < 0), np.flatnonzero(label >= 0)
        r, c = divmod(int(np.argmin(d[np.ix_(pending, assigned)])), assigned.size)
        label[pending[r]] = label[assigned[c]]
    return [tuple(t for t, ci in zip(names, label) if ci == k) for k in range(len(seeds))]


def mst_clusters(
    tree: SpanningTree,
    dist: DistanceMatrix,
    k: int,
    *,
    mode: str,
    min_branch: int,
    hub: str | None = None,
) -> ClusterAssignment:
    """Extract k clusters from a spanning tree.

    mode="gap" deletes the k-1 largest-weight edges and takes the resulting
    components. mode="hub" removes the hub stock (highest degree unless
    given), keeps the k largest branches with at least min_branch members as
    seed clusters, and attaches everything else by nearest assigned neighbor.
    """
    n = len(tree.tickers)
    if not 1 <= k <= n:
        raise ClusterError(f"k must be in [1, {n}]")
    if k == 1:
        return renumber([tuple(sorted(tree.tickers))])
    if mode == "gap":
        ranked = sorted(tree.edges, key=lambda e: (-e[2], e[0], e[1]))
        return renumber(_components(tree.tickers, [(a, b) for a, b, _ in ranked[k - 1 :]]))
    if mode != "hub":
        raise ClusterError(f"unknown MST cluster mode {mode!r}")

    if hub is None:
        degree = Counter(t for a, b, _ in tree.edges for t in (a, b))
        hub = min(tree.tickers, key=lambda t: (-degree[t], t))
    elif hub not in tree.tickers:
        raise ClusterError(f"unknown hub ticker {hub!r}")
    kept = [(a, b) for a, b, _ in tree.edges if hub not in (a, b)]
    branches = [c for c in _components(tree.tickers, kept) if hub not in c]
    qualifying = sorted(
        (b for b in branches if len(b) >= min_branch), key=lambda b: (-len(b), min(b))
    )
    if len(qualifying) < k:
        raise ClusterError(
            f"hub mode found {len(qualifying)} branches with >= {min_branch} members "
            f"but k={k}; retry with a smaller min_branch"
        )
    return renumber(_assign_by_nearest(qualifying[:k], dist))


def to_newick(tree: Dendrogram) -> str:
    """Newick text with ultrametric branch lengths (leaf depth = height / 2)."""

    def height(node: int) -> float:
        return 0.0 if node < tree.n else tree.merges[node - tree.n].height

    # Merge order is a post-order (a merge only joins earlier nodes), so no
    # recursion: a chained dendrogram is as deep as it has leaves.
    text = list(tree.tickers)
    for m in tree.merges:
        parts = [f"{text[c]}:{(m.height - height(c)) / 2.0:.6f}" for c in (m.left, m.right)]
        text[m.left] = text[m.right] = ""  # each node joins one merge; free its text
        text.append("(" + ",".join(parts) + ")")
    return text[-1] + ";"


def to_dot(tree: SpanningTree) -> str:
    """Undirected DOT graph ``mst`` with edge weight attributes."""
    lines = ["graph mst {"]
    for t in tree.tickers:
        lines.append(f'  "{t}";')
    for a, b, w in tree.edges:
        lines.append(f'  "{a}" -- "{b}" [weight={w:.6f}, label="{w:.3f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def edge_list_csv(tree: SpanningTree) -> str:
    lines = ["from,to,weight"]
    for a, b, w in tree.edges:
        lines.append(f"{a},{b},{w:.6f}")
    return "\n".join(lines) + "\n"
