"""Immutable simple-graph core: neighborhoods, twins, join, and the
additive-coloring verifier that certifies everything else in the package.

Vertices are 0-based contiguous integers. Adjacency is kept both as sorted
neighbor tuples and as bitmask rows; the bitmasks make twin detection and
small-n set algebra cheap. Graphs at the intended scale are small (a few
thousand vertices at most), so O(n^2) memory is fine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    `neighbors[v]` is the sorted tuple of neighbors of v and `masks[v]` the
    same set as a bitmask. No self-loops, no parallel edges; adjacency is
    symmetric by construction.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]
    edge_count: int

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        neighbors = tuple(tuple(iter_bits(m)) for m in masks)
        m = sum(len(nb) for nb in neighbors) // 2
        return Graph(n, neighbors, tuple(masks), m)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.neighbors)

    def max_degree(self) -> int:
        return max((len(nb) for nb in self.neighbors), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.masks[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs (u, v) with u < v, lexicographic."""
        for u in range(self.n):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

    def closed_mask(self, v: int) -> int:
        return self.masks[v] | (1 << v)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Labeling:
    """Vertex labeling with positive integer labels; `k` is the largest
    label actually used (0 only for the empty labeling)."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        for v, lab in enumerate(self.labels):
            if lab < 1:
                raise ValueError(f"label of vertex {v} must be >= 1, got {lab}")

    @property
    def k(self) -> int:
        return max(self.labels, default=0)

    def __len__(self) -> int:
        return len(self.labels)


SINGLETON = "singleton"
FALSE_TWINS = "false_twins"
TRUE_TWINS = "true_twins"


@dataclass(frozen=True)
class TwinClass:
    kind: str
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class TwinPartition:
    """Partition of V into true-twin classes, false-twin classes and
    singletons, as produced by `twin_refined_partition`."""

    classes: tuple[TwinClass, ...]

    def multi_classes(self) -> list[TwinClass]:
        return [c for c in self.classes if len(c.vertices) >= 2]


def neighborhood_sum(g: Graph, f: Labeling, v: int) -> int:
    """Sum of labels over the open neighborhood of v (0 if isolated)."""
    g._check_vertex(v)
    _check_cover(g, f)
    labels = f.labels
    return sum(labels[u] for u in g.neighbors[v])


def verify_additive_coloring(g: Graph, f: Labeling) -> bool:
    """True iff neighborhood sums differ across every edge.

    Edgeless graphs are vacuously additively colored.
    """
    _check_cover(g, f)
    labels = f.labels
    sums = [sum(labels[u] for u in g.neighbors[v]) for v in range(g.n)]
    return all(sums[u] != sums[v] for u, v in g.edges())


def _check_cover(g: Graph, f: Labeling) -> None:
    if len(f.labels) != g.n:
        raise ValueError(f"labeling covers {len(f.labels)} vertices, graph has {g.n}")


def true_twin_classes(g: Graph) -> list[list[int]]:
    """Maximal classes of the equivalence N[u] = N[v]; singletons included."""
    return _group_by_key(g, closed=True)


def false_twin_classes(g: Graph) -> list[list[int]]:
    """Maximal classes of the equivalence N(u) = N(v); singletons included."""
    return _group_by_key(g, closed=False)


def _group_by_key(g: Graph, closed: bool) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        key = g.closed_mask(v) if closed else g.masks[v]
        groups.setdefault(key, []).append(v)
    return sorted(groups.values(), key=lambda c: c[0])


def twin_refined_partition(g: Graph) -> TwinPartition:
    """Two-phase twin partition: maximal true-twin classes first, then the
    leftover singletons re-grouped into maximal false-twin classes."""
    classes: list[TwinClass] = []
    leftovers: list[int] = []
    for cls in true_twin_classes(g):
        if len(cls) >= 2:
            classes.append(TwinClass(TRUE_TWINS, tuple(cls)))
        else:
            leftovers.append(cls[0])
    leftover_set = set(leftovers)
    groups: dict[int, list[int]] = {}
    for v in sorted(leftover_set):
        groups.setdefault(g.masks[v], []).append(v)
    for cls in sorted(groups.values(), key=lambda c: c[0]):
        kind = FALSE_TWINS if len(cls) >= 2 else SINGLETON
        classes.append(TwinClass(kind, tuple(cls)))
    classes.sort(key=lambda c: c.vertices[0])
    return TwinPartition(tuple(classes))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges; g1 keeps its ids, g2 is shifted."""
    n1 = g1.n
    edges = list(g1.edges())
    edges += [(u + n1, v + n1) for u, v in g2.edges()]
    edges += [(u, v + n1) for u in range(n1) for v in range(g2.n)]
    return Graph.from_edges(n1 + g2.n, edges)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, ordered by
    smallest member."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on `vertices`, relabeled 0..len-1 in the given order."""
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return Graph.from_edges(len(vertices), edges)
