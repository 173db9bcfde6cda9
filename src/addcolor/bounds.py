"""Lower and upper bounds for the additive chromatic number.

Lower bounds: the degree-distinct-edges characterization of eta = 1, the
true-twin bound (any set of pairwise true twins needs pairwise distinct
labels), and the clique bound ceil((d1+1)/(d2-|Q|+2)) evaluated over the
graph's greedy cliques (`Graph.greedy_cliques`, one grown from each vertex)
and their prefixes. Upper bounds: Delta^2 - Delta + 1 for any graph, and
|Q|-|T|+1 for split graphs, where T picks one clique vertex per distinct
degree value. Two upper bounds carry a construction, a labeling with that
many labels: the all-ones labeling of an eta <= 1 graph, and the split
labeling whenever the split bound is at most the degree bound. Degrees, the
search order, the twin classes and the cliques are read from the graph's
cache, which the eta and chi solvers share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Graph, Labeling


@dataclass(frozen=True)
class BoundsReport:
    eta_lower: int
    eta_upper: int
    witnesses: tuple[tuple[str, object], ...]
    # the construction behind eta_upper, when it has one: eta_upper labels
    labeling: Optional[Labeling] = None


def is_eta_one(g: Graph) -> bool:
    """Exact characterization: eta = 1 iff every edge joins vertices of
    different degree (vacuously true for edgeless graphs)."""
    deg = g.degrees()
    for d, nbrs in zip(deg, g.neighbors):
        for v in nbrs:
            if deg[v] == d:
                return False
    return True


def largest_true_twin_class(g: Graph) -> tuple[int, ...]:
    return max(g.true_twins, key=len, default=())


def best_clique_lower_bound(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Maximum clique bound over the prefixes of the greedy cliques.

    The bound is valid for any clique, so a partial collection can only
    weaken the result; (0, ()) for the empty graph.
    """
    deg = g.degrees()
    best_value, best_clique, best_q = 0, (), 0
    for clique in g.greedy_cliques:
        d1 = d2 = deg[clique[0]]
        for q, v in enumerate(clique, 1):
            d = deg[v]
            if d < d1:
                d1 = d
            elif d > d2:
                d2 = d
            # ceil((d1 + 1) / (d2 - q + 2))
            value = -(-(d1 + 1) // (d2 - q + 2))
            if value > best_value:
                best_value, best_clique, best_q = value, clique, q
    return best_value, best_clique[:best_q]


def degree_upper_bound(g: Graph) -> int:
    """Delta^2 - Delta + 1 for Delta >= 2; 1 for edgeless graphs.

    At Delta = 1 the quadratic evaluates to 1, yet a lone edge needs two
    labels (its endpoints have equal neighborhood sums under any constant
    labeling), so the sound value there is 2: label the endpoints of each
    edge 1 and 2.
    """
    d = g.max_degree()
    if d == 1:
        return 2
    return d * d - d + 1


def split_recognize(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Split partition (Q, S) with Q a maximal clique, or None.

    Degree-sequence recognition (Hammer and Simeone, 1981): with degrees
    sorted non-increasing and h = max{i : d_i >= i-1}, the graph is split iff
    sum_{i<=h} d_i = h(h-1) + sum_{i>h} d_i, and then the top-h vertices
    form Q. Deterministic: Q is the top h of the graph's search order, so
    degree ties break as there, by the least vertex of the closed
    neighborhood, then by vertex id.
    """
    n = g.n
    if n == 0:
        return (), ()
    order = g.search_order
    d = sorted(g.degrees(), reverse=True)  # the degrees along `order`
    h = 1  # d_i - (i - 1) strictly falls, so d_i >= i - 1 holds on a prefix
    while h < n and d[h] >= h:
        h += 1
    if sum(d[:h]) != h * (h - 1) + sum(d[h:]):
        return None
    # the equality is the whole proof: sum_Q d = 2e(Q) + e(Q,S) <= h(h-1) +
    # e(Q,S) and sum_S d = 2e(S) + e(Q,S), so it forces e(Q) = h(h-1)/2 and
    # e(S) = 0; and Q is maximal, as every vertex of S has degree
    # <= d_{h+1} < h and so cannot see all of Q
    return tuple(sorted(order[:h])), tuple(sorted(order[h:]))


def split_upper_bound(g: Graph, clique: Sequence[int]) -> int:
    """|Q| - |T| + 1 for the maximal clique Q of a split partition (as
    `split_recognize` returns it), |T| being the number of distinct degrees
    in Q; always <= |Q|."""
    deg = g.degrees()
    return len(clique) - len({deg[v] for v in clique}) + 1


def split_labeling(g: Graph, clique: Sequence[int]) -> Labeling:
    """Constructive additive (|Q|-|T|+1)-coloring of a split graph.

    Q must be maximal; T picks the least clique vertex of each distinct
    degree. The other clique vertices get labels 1..|Q|-|T| in vertex order
    and everything else gets |Q|-|T|+1.
    """
    deg = g.degrees()
    seen: set[int] = set()
    rest = []
    for v in sorted(clique):
        if deg[v] in seen:
            rest.append(v)
        seen.add(deg[v])
    labels = [len(rest) + 1] * g.n
    for label, v in enumerate(rest, 1):
        labels[v] = label
    return Labeling(tuple(labels))


def multipartite_eta(part_sizes: Sequence[int]) -> int:
    """Additive chromatic number of the complete multipartite graph with the
    given non-increasing part sizes, via the backward recursion
    s_r = |V_r|, s_i = max(1 + s_{i+1}, |V_i|)."""
    parts = list(part_sizes)
    if not parts:
        raise ValueError("need at least one part")
    if any(p < 1 for p in parts):
        raise ValueError("part sizes must be >= 1")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("part sizes must be sorted non-increasing")
    s = multipartite_chain(parts)
    value = max(math.ceil(s_i / p) for s_i, p in zip(s, parts))
    assert value <= len(parts)
    return value


def multipartite_chain(part_sizes: Sequence[int]) -> list[int]:
    """The s_i sequence of the backward recursion in `multipartite_eta`."""
    parts = list(part_sizes)
    r = len(parts)
    s = [0] * r
    s[r - 1] = parts[r - 1]
    for i in range(r - 2, -1, -1):
        s[i] = max(1 + s[i + 1], parts[i])
    return s


def eta_upper_bound(g: Graph) -> int:
    """Upper bound on eta: 1 when every edge joins vertices of different
    degree (0 for the empty graph), else the best of the degree and split
    bounds. `combined_bounds` reports the same value."""
    return _upper_bound(g)[0]


def _upper_bound(g: Graph) -> tuple[int, list[tuple[str, object]], Optional[Labeling]]:
    """`eta_upper_bound` with its witnesses and its construction, if any."""
    if is_eta_one(g):
        # the empty graph needs no label at all: eta(K_0) = 0 = chi(K_0)
        return min(g.n, 1), [("degree_distinct_edges", None)], Labeling((1,) * g.n)
    upper = degree_upper_bound(g)
    witnesses: list[tuple[str, object]] = [("max_degree", g.max_degree())]
    labeling = None
    split = split_recognize(g)
    if split is not None:
        bound = split_upper_bound(g, split[0])
        if bound <= upper:
            labeling = split_labeling(g, split[0])
        if bound < upper:
            upper = bound
            witnesses.append(("split", split))
    return upper, witnesses, labeling


def combined_bounds(g: Graph) -> BoundsReport:
    """Aggregate bounds: eta_lower <= eta(g) <= eta_upper.

    The eta = 1 characterization short-circuits both bounds to 1 (to 0 for
    the empty graph); otherwise the lower bound is the best of the twin and
    clique bounds (at least 2, since some edge joins equal-degree vertices),
    and the upper bound is `eta_upper_bound`, with its construction as the
    report's labeling. Sound bounds never cross; the report is returned as
    computed, so a caller sees a faulty bound as eta_lower > eta_upper
    instead of an exception.
    """
    upper, upper_witnesses, labeling = _upper_bound(g)
    # only the eta = 1 short-circuit gives upper <= 1: otherwise the upper
    # bound is sound and some edge joins vertices of equal degree, so eta >= 2
    if upper <= 1:
        return BoundsReport(upper, upper, tuple(upper_witnesses), labeling)
    lower = 2
    witnesses: list[tuple[str, object]] = [("equal_degree_edge", None)]
    twin_class = largest_true_twin_class(g)
    if len(twin_class) > lower:
        lower = len(twin_class)
        witnesses.append(("true_twins", twin_class))
    clique_value, clique = best_clique_lower_bound(g)
    if clique_value > lower:
        lower = clique_value
        witnesses.append(("clique", clique))
    return BoundsReport(lower, upper, tuple(witnesses + upper_witnesses), labeling)
