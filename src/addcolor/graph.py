"""Immutable simple-graph core: neighborhoods, twins, components, and the
additive-coloring verifier that certifies everything else in the package.

Vertices are 0-based contiguous integers. Adjacency is kept both as sorted
neighbor tuples and as bitmask rows; the bitmasks make twin detection and
small-n set algebra cheap. Each row is an int as long as its highest
neighbor id, so memory grows as n^2: under tracemalloc, cycle:5000, 10000
and 20000 hold 2.5, 8.0 and 28.6 MiB once built. The 258 047-vertex cap of
the graph6 writer does not bound this (a cycle at the cap would need about
4 GiB), so `Graph.from_edges` sums the row lengths from the edges first and
raises ValueError when they exceed `MASK_BITS_LIMIT` bits (256 MiB); the CLI
reports that as exit 1 with one `error:` line. `parse_graph6` needs no such
check, as its input already holds a bit per vertex pair. Dense graphs hit a
third limit first: building one costs about 250 bytes per edge at peak
(edge list, neighbor sets and tuples): `acp family complete:1000`, 1414
and 2000 peaked at 105, 308 and 497 MB RSS on CPython 3.11.7. So a family
spec whose closed-form edge count exceeds `EDGE_LIMIT` (2^21, the edges
of about K_2048) is refused before its edge list is built; without that,
`complete:258047`, inside the vertex cap, would list 3.3e10 edges.

A graph also caches the data that bounds, the eta search and the chi solve
all derive from it: the degree tuple, the search order (descending degree,
then id), the true-twin classes and the greedy cliques. Each is computed on
first use and kept in the instance `__dict__` (`_cached`), so every layer
reads the same values instead of rebuilding them. This is safe because the
graph is immutable and every cached value is a tuple of ints or of int
tuples: no caller can change it, and equality and hashing still look only
at the four fields.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# Bits of adjacency bitmask that `Graph.from_edges` allocates at most
# (256 MiB); a larger graph is refused before any mask is built.
MASK_BITS_LIMIT = 1 << 31

# Edges a family spec may have (about 0.5 GB at peak to build); a larger
# spec is refused before its edge list exists.
EDGE_LIMIT = 1 << 21


class _cached:
    """Method turned attribute, computed on first access and stored in the
    instance `__dict__`, which shadows this non-data descriptor from then
    on. Unlike `functools.cached_property` on Python 3.11 it takes no lock:
    a graph is immutable, so two threads filling it store equal values."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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
        adjacent: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adjacent[u].add(v)
            adjacent[v].add(u)
        neighbors = tuple(tuple(sorted(nb)) for nb in adjacent)
        # a mask is an int of (highest neighbor id + 1) bits
        bits = sum(nb[-1] + 1 for nb in neighbors if nb)
        if bits > MASK_BITS_LIMIT:
            raise ValueError(
                f"graph on {n} vertices needs {bits >> 23} MiB of adjacency bitmasks, "
                f"over the {MASK_BITS_LIMIT >> 23} MiB limit"
            )
        masks = tuple(sum(map((1).__lshift__, nb)) for nb in neighbors)
        m = sum(map(len, neighbors)) // 2
        return Graph(n, neighbors, masks, m)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    @_cached
    def _degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.neighbors))

    def max_degree(self) -> int:
        return max(self._degrees, default=0)

    @_cached
    def search_order(self) -> tuple[int, ...]:
        """Vertices by descending degree, then ascending id (a stable sort
        keeps equal degrees in id order, reverse=True included)."""
        return tuple(sorted(range(self.n), key=self._degrees.__getitem__, reverse=True))

    @_cached
    def true_twins(self) -> tuple[tuple[int, ...], ...]:
        """Maximal classes of the equivalence N[u] = N[v], singletons
        included, each ascending, ordered by smallest member."""
        groups: dict[int, list[int]] = {}
        for v, mask in enumerate(self.masks):
            groups.setdefault(mask | 1 << v, []).append(v)
        return tuple(map(tuple, groups.values()))

    @_cached
    def greedy_cliques(self) -> tuple[tuple[int, ...], ...]:
        """One clique per start vertex, in growth order: the clique
        repeatedly takes the common neighbor that keeps the most common
        neighbors, ties going to the smallest id. Every prefix is a clique
        too.

        No candidate keeps more than the |cand| - 1 others, so the ascending
        scan for the best one stops at the first candidate that keeps them
        all: a later one could only tie it.
        """
        masks = self.masks
        cliques = []
        for v in range(self.n):
            clique = [v]
            cand = masks[v]
            while cand:
                full = cand.bit_count() - 1
                best_count = -1
                rest = cand
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    u = bit.bit_length() - 1
                    count = (cand & masks[u]).bit_count()
                    if count > best_count:
                        best, best_count = u, count
                        if count == full:
                            break
                clique.append(best)
                cand &= masks[best]
            cliques.append(tuple(clique))
        return tuple(cliques)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs (u, v) with u < v, lexicographic."""
        for u in range(self.n):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

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
        if min(self.labels, default=1) < 1:
            v, lab = next((v, lab) for v, lab in enumerate(self.labels) if lab < 1)
            raise ValueError(f"label of vertex {v} must be >= 1, got {lab}")

    @property
    def k(self) -> int:
        return max(self.labels, default=0)


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
    label = f.labels.__getitem__
    sums = [sum(map(label, nbrs)) for nbrs in g.neighbors]
    for s, nbrs in zip(sums, g.neighbors):
        for v in nbrs:
            if sums[v] == s:
                return False
    return True


def proves_eta(g: Graph, f: Labeling | None, eta: int) -> bool:
    """True iff `f` exists, its largest label is exactly `eta` and it is an
    additive coloring of `g`: the one rule by which a labeling backs a
    printed eta. No `assert`, so `python -O` keeps it."""
    return f is not None and f.k == eta and verify_additive_coloring(g, f)


def proves_lower(g: Graph, witnesses: Iterable[tuple[str, object]], lb: int) -> bool:
    """True iff one of `witnesses` (as in `BoundsReport.witnesses`) shows
    eta(g) >= lb, re-checked from `g` alone: the rule by which the lower
    bound of a printed eta (a pinch, or where its search starts) stands.
    lb <= min(n, 1) needs no witness. The kinds:

    - `equal_degree_edge`: some edge joins two vertices of equal degree, so
      the all-ones labeling fails and eta >= 2;
    - `true_twins`: vertices with one closed neighborhood, whose sums differ
      only by their own labels, so eta >= their number;
    - `clique`: pairwise adjacent vertices Q with least and largest degree
      d1 and d2, so eta >= ceil((d1 + 1) / (d2 - |Q| + 2)).

    Other kinds (the upper side's) show nothing, and a malformed witness
    shows nothing rather than raising. No `assert`, so `python -O` keeps it.
    """
    if lb <= min(g.n, 1):
        return True
    masks, deg = g.masks, g.degrees()
    for witness in witnesses:
        if not (isinstance(witness, tuple) and len(witness) == 2):
            continue
        kind, members = witness
        if kind == "equal_degree_edge":
            if lb <= 2 and any(deg[u] == deg[v] for u, nb in enumerate(g.neighbors) for v in nb):
                return True
            continue
        if kind not in ("true_twins", "clique"):
            continue
        together = _vertex_set(g, members)
        if not together:
            continue
        if kind == "true_twins":
            closed = masks[members[0]] | 1 << members[0]
            if len(members) >= lb and all(masks[v] | 1 << v == closed for v in members):
                return True
        elif all((masks[v] | 1 << v) & together == together for v in members):
            d = [deg[v] for v in members]
            if -(-(min(d) + 1) // (max(d) - len(d) + 2)) >= lb:
                return True
    return False


def _vertex_set(g: Graph, members: object) -> int:
    """Bitmask of `members` when it is a non-empty tuple of distinct vertices
    of `g`, else 0."""
    if not isinstance(members, tuple):
        return 0
    mask = 0
    for v in members:
        if type(v) is not int or not 0 <= v < g.n or mask >> v & 1:
            return 0
        mask |= 1 << v
    return mask


def _check_cover(g: Graph, f: Labeling) -> None:
    if len(f.labels) != g.n:
        raise ValueError(f"labeling covers {len(f.labels)} vertices, graph has {g.n}")


def twin_refined_partition(g: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Two-phase twin classes as (gap, members) pairs: the maximal true-twin
    classes (gap 1), then the leftover vertices grouped into maximal
    false-twin classes (gap 0). Only classes of two or more vertices are
    listed, each ascending, ordered by smallest member.

    Symmetry breaking chains each class: a member's label is at least the
    previous member's label plus `gap`.
    """
    classes = []
    # the leftover vertices arrive in ascending order, so each group does too
    groups: dict[int, list[int]] = {}
    for cls in g.true_twins:
        if len(cls) >= 2:
            classes.append((1, cls))
        else:
            groups.setdefault(g.masks[cls[0]], []).append(cls[0])
    classes += [(0, tuple(cls)) for cls in groups.values() if len(cls) >= 2]
    classes.sort(key=lambda c: c[1][0])
    return tuple(classes)


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
    """Subgraph induced on `vertices`, relabeled 0..len-1 in the given order.
    It reads only the neighborhoods of `vertices`, so splitting a graph into
    its components costs O(n + m) in all."""
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (i, index[w])
        for i, v in enumerate(vertices)
        for w in g.neighbors[v]
        if index.get(w, -1) > i
    ]
    return Graph.from_edges(len(vertices), edges)
