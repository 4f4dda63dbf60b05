"""Average-linkage clustering trees and minimum spanning trees.

Both structures are built from the ultrametric distance matrix. Cluster
extraction supports cutting the dendrogram, deleting the heaviest MST edges,
and the hub-branch procedure used when a single pivot stock dominates the
tree: branches hanging off the hub's neighbors seed the clusters and every
remaining stock joins the cluster of its nearest already-assigned neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterAssignment, ClusterError, renumber
from .correlation import DistanceMatrix


@dataclass(frozen=True)
class Merge:
    left: int  # node id: 0..n-1 leaves, n+i for merge i
    right: int
    height: float


@dataclass(frozen=True)
class Dendrogram:
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
        for m in self.merges:
            for node in (m.left, m.right):
                if node < n and node in seen:
                    raise ClusterError("leaf used twice in merges")
                seen.add(node)

    @property
    def n(self) -> int:
        return len(self.tickers)

    def leaves_under(self, node: int) -> tuple[str, ...]:
        # Iterative: a chained dendrogram is as deep as it has leaves.
        n, stack, leaves = self.n, [node], []
        while stack:
            x = stack.pop()
            if x < n:
                leaves.append(self.tickers[x])
            else:
                stack += (self.merges[x - n].left, self.merges[x - n].right)
        return tuple(sorted(leaves))


@dataclass(frozen=True)
class SpanningTree:
    tickers: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]  # (a, b, weight) with a < b

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.tickers) - 1:
            raise ClusterError("a spanning tree on n vertices needs n-1 edges")

    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {t: [] for t in self.tickers}
        for a, b, _ in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


def average_linkage_hct(dist: DistanceMatrix) -> Dendrogram:
    """UPGMA-style agglomeration on the distance matrix.

    Cluster distances are arithmetic means over all cross pairs, maintained
    by the weighted Lance-Williams update. Ties break on the pair of
    lexicographically smallest members.
    """
    n = dist.n
    if n < 2:
        raise ClusterError("need at least 2 tickers")
    # active cluster id -> (size, smallest member ticker)
    size = {i: 1 for i in range(n)}
    label = {i: dist.tickers[i] for i in range(n)}
    d: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            d[(i, j)] = float(dist.d[i, j])
    active = set(range(n))
    merges: list[Merge] = []
    next_id = n
    while len(active) > 1:
        best: tuple[float, tuple[str, str], int, int] | None = None
        for i in sorted(active):
            for j in sorted(active):
                if j <= i:
                    continue
                key = (d[(i, j)], tuple(sorted((label[i], label[j]))), i, j)
                if best is None or key < best:
                    best = key
        _, _, a, b = best
        if label[a] > label[b]:
            a, b = b, a
        merged_size = size[a] + size[b]
        for c in sorted(active - {a, b}):
            da = d[tuple(sorted((a, c)))]
            db = d[tuple(sorted((b, c)))]
            d[tuple(sorted((next_id, c)))] = (size[a] * da + size[b] * db) / merged_size
        merges.append(Merge(a, b, d[tuple(sorted((a, b)))]))
        active -= {a, b}
        active.add(next_id)
        size[next_id] = merged_size
        label[next_id] = min(label[a], label[b])
        next_id += 1
    return Dendrogram(dist.tickers, tuple(merges))


def cut_dendrogram(tree: Dendrogram, k: int) -> ClusterAssignment:
    """Undo the last k-1 merges; each remaining subtree is one cluster."""
    n = tree.n
    if not 1 <= k <= n:
        raise ClusterError(f"k must be in [1, {n}]")
    merged = n - k
    children = {c for m in tree.merges[:merged] for c in (m.left, m.right)}
    roots = [r for r in range(n + merged) if r not in children]
    return renumber([tree.leaves_under(r) for r in roots], "HCT")


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


def _assign_by_nearest(
    seeds: list[tuple[str, ...]], unassigned: list[str], dist: DistanceMatrix
) -> list[tuple[str, ...]]:
    """Iteratively attach each unassigned stock to the cluster holding its
    nearest already-assigned neighbor, always taking the globally smallest
    (distance, stock, neighbor) candidate first."""
    clusters = [list(s) for s in seeds]
    pending = sorted(unassigned)
    while pending:
        best: tuple[float, str, str, int] | None = None
        for u in pending:
            for ci, members in enumerate(clusters):
                for a in members:
                    key = (dist.between(u, a), u, a, ci)
                    if best is None or key < best:
                        best = key
        _, u, _, ci = best
        clusters[ci].append(u)
        pending.remove(u)
    return [tuple(sorted(c)) for c in clusters]


def mst_clusters(
    tree: SpanningTree,
    dist: DistanceMatrix,
    k: int,
    *,
    mode: str = "gap",
    min_branch: int = 5,
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
        return renumber([tuple(sorted(tree.tickers))], "MST")
    if mode == "gap":
        ranked = sorted(tree.edges, key=lambda e: (-e[2], e[0], e[1]))
        removed = {(a, b) for a, b, _ in ranked[: k - 1]}
        kept = [(a, b) for a, b, _ in tree.edges if (a, b) not in removed]
        return renumber(_components(tree.tickers, kept), "MST")
    if mode != "hub":
        raise ClusterError(f"unknown MST cluster mode {mode!r}")

    adj = tree.adjacency()
    if hub is None:
        hub = min(adj, key=lambda t: (-len(adj[t]), t))
    elif hub not in adj:
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
    seeds = qualifying[:k]
    seeded = {t for s in seeds for t in s}
    unassigned = [t for t in tree.tickers if t not in seeded]
    return renumber(_assign_by_nearest(seeds, unassigned, dist), "MST")


def to_newick(tree: Dendrogram) -> str:
    """Newick text with ultrametric branch lengths (leaf depth = height / 2)."""

    def height(node: int) -> float:
        return 0.0 if node < tree.n else tree.merges[node - tree.n].height

    def render(node: int) -> str:
        if node < tree.n:
            return tree.tickers[node]
        m = tree.merges[node - tree.n]
        parts = []
        for child in (m.left, m.right):
            bl = (m.height - height(child)) / 2.0
            parts.append(f"{render(child)}:{bl:.6f}")
        return "(" + ",".join(parts) + ")"

    return render(tree.n + len(tree.merges) - 1) + ";"


def to_dot(tree: SpanningTree, name: str = "mst") -> str:
    """Undirected DOT graph with edge weight attributes."""
    lines = [f"graph {name} {{"]
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
