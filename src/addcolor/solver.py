"""Exact solvers.

`eta_exact` computes the additive chromatic number by iterative deepening on
the number of labels k: for each k it runs a depth-first assignment of labels
1..k over the vertices in the graph's cached search order (descending
degree, then id), renumbered to positions 0..n-1, as an explicit index that
moves forward and back. Common neighbors of u and v add the same label
to both neighborhood sums, so only N(u) ^ N(v) decides edge (u, v): the edge
is checked as soon as the last vertex of that symmetric difference is
labeled, while the common neighbors may still be unlabeled. Twin symmetry
breaking (non-decreasing labels inside a false-twin class, strictly
increasing inside a true-twin class) mirrors the chain inequalities of the
integer-programming model; both read the chains from
`twin_refined_partition`.

The search also prunes on cliques. The members of a clique Q need pairwise
distinct neighborhood sums. Member v's sum is the labels of Q except f(v),
plus its outside neighbors. Each outside neighbor w enters with the sign
that touches fewer members. If w sees at most half of Q, it adds +f(w) at
the members it sees. Otherwise it adds f(w) to every member, a shift all of
Q shares, and -f(w) at the members it misses. Dropping the shared parts
leaves -f(v) plus v's signed outside terms. On the labeled positions these
terms differ from the search's partial sum sums[v] only by labels every
member shares: the labeled members of Q and the labeled dense neighbors. So
sums[v] plus v's unlabeled terms is v's sum up to a shared shift. With a
plus and b minus unlabeled terms, each label in 1..k, it lies in
[sums[v] + a - k*b, sums[v] + k*a - b]. The members' values must be
distinct integers in their intervals. This bounds-consistency all-different
condition (Puget, AAAI 1998; Lopez-Ortiz, Quimper, Tromp and van Beek,
IJCAI 2003) is decided by sorting the intervals by upper end and giving
each the least unused value at or above its lower end. The paper's clique
bound and its thick-spider argument are windows of the same condition.

Only a clique with more than k members can fail the check. An interval
that is not a single point has a + b >= 1 unlabeled terms, so it spans
(k - 1)(a + b) + 1 >= k values: room for every member when |Q| <= k. Two
single-point members have every term labeled, and their symmetric
difference lies in those terms, so the edge check has already compared
them.

Each k >= 3 first checks every distinct greedy clique with more than k
members at the root, where nothing is labeled; one failure rules k out
with no nodes. Inside the search, after the edge checks at position i
pass, the check re-runs on the tight cliques: those that fail the root
check with k - 1 labels and have i as a member or an outside neighbor. It
only cuts subtrees without an additive labeling, so the first labeling
found is the same and the node count can only fall. The check starts at
k = 3 (`HALL_MIN_K`): 9 380 of the 10 493 searched connected 8-vertex
graphs end at k = 2 after about 21 nodes, and starting at k = 2 made
`eta_exact` on them 2.5 times slower (213 vs 84 us per graph).

`chromatic_exact` computes the chromatic number with a DSATUR upper bound, a
greedy clique lower bound (the largest of the graph's cached greedy
cliques), and backtracking k-colorability in between. DSATUR keeps each
vertex's neighbor colors as a bitmask: the saturation is its popcount and
the least free color its lowest zero bit. It scans the uncolored vertices
in ascending id order and keeps the first maximum of (saturation, uncolored
degree), so ties go to the smallest id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import bounds as _bounds
from .graph import Graph, Labeling, iter_bits, twin_refined_partition, verify_additive_coloring

OPTIMAL = "optimal"
UB_EXCEEDED = "ub_exceeded"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_NODE_BUDGET = 10_000_000

# the clique-sum check starts at k = 3: most searched graphs end at k = 2
# after a few dozen nodes, and building the clique terms for them costs
# more than the search (measured in the module docstring)
HALL_MIN_K = 3


class ResourceLimitError(RuntimeError):
    """Exact chromatic solve refused; use dsatur for an upper bound instead."""


@dataclass
class SolveStats:
    nodes: int
    elapsed: float


@dataclass
class SolveResult:
    status: str
    value: int | None
    certificate: Labeling | tuple[int, ...] | None
    stats: SolveStats

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def eta_exact(
    g: Graph,
    lb: int | None = None,
    ub: int | None = None,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Least k in [lb, ub] admitting an additive k-coloring, with certificate.

    Defaults: lb from the combined bounds, ub from the degree bound. Status
    is "ub_exceeded" when no k in range works (raise ub and retry: every
    graph has a finite additive chromatic number) and "budget_exceeded" when
    the node budget ran out. The empty graph has eta = 0 whatever the range,
    matching its chromatic number.
    """
    if g.n == 0:
        return SolveResult(OPTIMAL, 0, Labeling(()), SolveStats(0, 0.0))
    if lb is None:
        lb = _bounds.combined_bounds(g).eta_lower
    if ub is None:
        ub = _bounds.degree_upper_bound(g)
    if not 1 <= lb <= ub:
        raise ValueError(f"need 1 <= lb <= ub, got lb={lb}, ub={ub}")
    start = time.perf_counter()
    n = g.n
    # work on positions in search order: pos[v] is the position of vertex v
    order = g.search_order
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    neighbors = [sorted(pos[w] for w in g.neighbors[v]) for v in order]
    masks = [0] * n
    for i, nb in enumerate(neighbors):
        for w in nb:
            masks[i] |= 1 << w
    # common neighbors add the same label to both sums, so edge (u, v) is
    # decided once N(u) ^ N(v) is labeled: check it at that set's last position
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, nb in enumerate(neighbors):
        for v in nb:
            if u < v:
                checks[(masks[u] ^ masks[v]).bit_length() - 1].append((u, v))
    # symmetry breaking: chain each twin class in id order; twins share a
    # degree, so the id order is the position order and the predecessor is
    # always labeled first
    pred: list[int | None] = [None] * n
    step = [0] * n
    for gap, cls in twin_refined_partition(g):
        for a, b in zip(cls, cls[1:]):
            pred[pos[b]] = pos[a]
            step[pos[b]] = gap
    cliques = None
    nodes = 0
    for k in range(lb, ub + 1):
        labels = [0] * n
        sums = [0] * n
        # hall[i]: the clique terms to re-check once position i is labeled
        hall: list = [()] * n
        if k >= HALL_MIN_K:
            if cliques is None:
                cliques = _clique_terms(
                    [c for c in g.greedy_cliques if len(c) > HALL_MIN_K], pos, masks
                )
            # the search re-checks only the cliques that are tight at the
            # root, failing it with one label fewer; intervals widen with k,
            # so only a tight clique can fail the root check at k
            tight = [
                (touch, terms) for touch, terms in cliques
                if len(terms) > k and not _hall_ok(terms, sums, 0, k - 1)
            ]
            if not all(_hall_ok(terms, sums, 0, k) for _, terms in tight):
                continue
            if tight:
                hall = [[terms for touch, terms in tight if touch >> p & 1] for p in range(n)]
        i = 0
        while 0 <= i < n:
            # next label of position i: one past its current label, else the
            # least label its twin chain allows
            nb, edges, lab = neighbors[i], checks[i], labels[i]
            if lab:
                for w in nb:
                    sums[w] -= lab
                lab += 1
            elif pred[i] is not None:
                lab = labels[pred[i]] + step[i]
            else:
                lab = 1
            while lab <= k:
                nodes += 1
                if nodes > node_budget:
                    stats = SolveStats(nodes, time.perf_counter() - start)
                    return SolveResult(BUDGET_EXCEEDED, None, None, stats)
                for w in nb:
                    sums[w] += lab
                for a, b in edges:
                    if sums[a] == sums[b]:
                        break
                else:
                    # the edges hold; the label stands if the cliques do too
                    for terms in hall[i]:
                        if not _hall_ok(terms, sums, i + 1, k):
                            break
                    else:
                        break
                for w in nb:
                    sums[w] -= lab
                lab += 1
            if lab <= k:
                labels[i] = lab
                i += 1
            else:
                labels[i] = 0
                i -= 1
        if i == n:
            cert = Labeling(tuple(labels[p] for p in pos))
            assert verify_additive_coloring(g, cert) and cert.k <= k
            stats = SolveStats(nodes, time.perf_counter() - start)
            return SolveResult(OPTIMAL, k, cert, stats)
    stats = SolveStats(nodes, time.perf_counter() - start)
    return SolveResult(UB_EXCEEDED, None, None, stats)


def _clique_terms(
    cliques: list[tuple[int, ...]], pos: list[int], masks: list[int]
) -> list[tuple[int, tuple[tuple[int, int, int], ...]]]:
    """Signed terms of the member sums of each distinct clique, in
    positions: one (touch, terms) pair per clique, where terms holds a
    (v, plus, minus) triple per member v and touch is the clique with its
    outside neighbors, the positions whose label can change the check.
    """
    out = []
    seen = set()
    for clique in cliques:
        qmask = 0
        for v in clique:
            qmask |= 1 << pos[v]
        if qmask in seen:
            continue
        seen.add(qmask)
        outside = 0
        for v in iter_bits(qmask):
            outside |= masks[v]
        outside &= ~qmask
        # an outside neighbor that sees more than half of Q enters with a
        # minus sign at the members it misses
        dense = 0
        for w in iter_bits(outside):
            if 2 * (masks[w] & qmask).bit_count() > len(clique):
                dense |= 1 << w
        terms = tuple(
            (v, masks[v] & outside & ~dense, dense & ~masks[v] | 1 << v)
            for v in iter_bits(qmask)
        )
        out.append((qmask | outside, terms))
    return out


def _hall_ok(terms: tuple[tuple[int, int, int], ...], sums: list[int], free: int, k: int) -> bool:
    """Can the members' sums still be pairwise distinct? Positions >= free
    are unlabeled; each member's sum lies in [sums[v] + a - k*b,
    sums[v] + k*a - b] up to a shift all members share, with a and b its
    unlabeled plus and minus terms. Sorted by upper end, each interval takes
    the least value at or above its lower end that no earlier one took; the
    sums can be distinct iff every interval gets a value."""
    spans = []
    for v, plus, minus in terms:
        s = sums[v]
        a = (plus >> free).bit_count()
        b = (minus >> free).bit_count()
        spans.append((s + k * a - b, s + a - k * b))
    spans.sort()
    taken = set()
    for hi, lo in spans:
        while lo in taken:
            lo += 1
        if lo > hi:
            return False
        taken.add(lo)
    return True


def dsatur(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Greedy proper coloring by maximum saturation degree.

    Returns (color count, colors); colors are 1-based. The count is an upper
    bound on the chromatic number.
    """
    n = g.n
    colors = [0] * n
    # bit c - 1 of neighbor_colors[v] is set when a neighbor of v has color c
    neighbor_colors = [0] * n
    uncolored_deg = list(g.degrees())
    uncolored = (1 << n) - 1
    while uncolored:
        best_sat = best_deg = -1
        rest = uncolored
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            sat = neighbor_colors[u].bit_count()
            if sat > best_sat or (sat == best_sat and uncolored_deg[u] > best_deg):
                v, best_sat, best_deg = u, sat, uncolored_deg[u]
        uncolored ^= 1 << v
        seen = neighbor_colors[v]
        # the lowest zero bit of `seen` is the least free color
        c = (~seen & (seen + 1)).bit_length()
        colors[v] = c
        for w in g.neighbors[v]:
            neighbor_colors[w] |= 1 << (c - 1)
            uncolored_deg[w] -= 1
    return max(colors, default=0), tuple(colors)


def greedy_clique_lower_bound(g: Graph) -> int:
    """Size of the largest greedily grown clique; valid lower bound on chi."""
    return max(map(len, g.greedy_cliques), default=0)


def _k_colorable(g: Graph, k: int) -> tuple[int, ...] | None:
    """Backtracking k-colorability; colors restricted to 1 + max used so far."""
    n = g.n
    order = g.search_order
    colors = [0] * n

    def dfs(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        taken = {colors[w] for w in g.neighbors[v] if colors[w]}
        limit = min(k, used + 1)
        for c in range(1, limit + 1):
            if c in taken:
                continue
            colors[v] = c
            if dfs(i + 1, max(used, c)):
                return True
        colors[v] = 0
        return False

    return tuple(colors) if dfs(0, 0) else None


def verify_proper_coloring(g: Graph, colors: tuple[int, ...]) -> bool:
    if len(colors) != g.n:
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def chromatic_exact(g: Graph, limit: int = 16) -> SolveResult:
    """Exact chromatic number with a verifying proper coloring (n <= limit)."""
    if g.n > limit:
        raise ResourceLimitError(
            f"exact chromatic solve limited to n <= {limit} (got n={g.n}); use dsatur"
        )
    start = time.perf_counter()
    if g.n == 0:
        return SolveResult(OPTIMAL, 0, (), SolveStats(0, 0.0))
    lb = greedy_clique_lower_bound(g)
    ub, coloring = dsatur(g)
    value, cert = ub, coloring
    for k in range(lb, ub):
        attempt = _k_colorable(g, k)
        if attempt is not None:
            value, cert = k, attempt
            break
    assert verify_proper_coloring(g, cert) and max(cert) == value
    stats = SolveStats(0, time.perf_counter() - start)
    return SolveResult(OPTIMAL, value, cert, stats)
