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

The check is armed on demand. A call builds the clique terms only once it
has spent `HALL_AFTER` search nodes. It then checks the current k at the
root, where nothing is labeled, over every distinct greedy clique with more
than k members, and abandons k at once if one fails. Every later k gets the
same root check before its search, so a k the check rules out costs no
nodes: on thick-spider:q it refutes k = 2, whose search tree alone has
2^(q+4) - 2 nodes. From k = 3 on (`HALL_MIN_K`) the search also re-runs the
check after the edge checks at position i pass, on the tight cliques: those
that fail the root check with k - 1 labels and have i as a member or an
outside neighbor. At k = 2 nearly every clique is tight (with one label
every interval is a single point), and re-checking them there cut 12 % of
the panel nodes below but made it 2.6 times slower (at HALL_AFTER = 64).
The check only cuts subtrees without an additive labeling, so the value
and the first labeling found are those of the plain search. The node count
can rise a little over an eager check: by the nodes spent before arming
that it would have cut (at most 145 on every graph of data/ and the tested
families).

Times below are CPython 3.11.7 on a 2-vCPU virtual machine. Building the
terms and the root check cost about 33 search nodes on connected 8-vertex
graphs (23-29 us at 0.71-0.83 us per node, two runs) and about 80-90 on
G(16, 1/2) (77-110 us). Yet the check cuts only 3 % of the nodes of the
8-vertex searches that reach k = 3, so arming there rarely pays back: of
the 10 493 searched 8-vertex graphs, 926 reach 64 nodes, 347 reach 128
and 108 reach 256; 9 380 end at k = 2 after about 21 nodes. HALL_AFTER
against the eager check it replaced (from k = 3, at the root and inside),
each instance timed under every setting in turn, the sum of per-instance
minima over 7 (panel) or 5 (n = 8) passes. Panel: the 11 solve-panel
family instances and 32 seeded G(16, 1/2) under a 300 000-node budget;
n = 8: the 10 493 graphs of graphs_conn_n8.g6 whose bounds do not meet;
lb and ub from the bounds:

    HALL_AFTER       panel nodes  panel s  n = 8 nodes  n = 8 eta s
    eager, k >= 3        125 872    0.100      297 574     0.537
    32                    95 486    0.079      298 031     0.577
    64                    95 736    0.079      299 170     0.534
    128                   96 251    0.079      300 049     0.507
    256                   97 276    0.079      300 493     0.493

The panel does not tell 32 to 256 apart. At 64 the 8-vertex searches cost
what the eager check cost them; 128 takes back most of that (a search
that never arms ran 0.457 s against the eager 0.494 s in a separate run
of the same kind) while keeping the rise in any call's node count near
HALL_AFTER.

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

# the clique-sum check is armed once a call has spent this many nodes: most
# searches end sooner, and on small graphs building the clique terms costs
# more than the check saves (measured in the module docstring)
HALL_AFTER = 128

# the search re-checks tight cliques from k = 3 on; at k = 2 nearly every
# clique is tight, and re-checking them costs more than it cuts (measured in
# the module docstring); the root check runs at every k once armed
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
    # the next node count that needs a look: arming, then the budget
    limit = min(HALL_AFTER, node_budget)
    for k in range(lb, ub + 1):
        labels = [0] * n
        sums = [0] * n
        # hall[i]: the clique terms to re-check once position i is labeled
        hall: list = [()] * n
        if cliques is not None:
            hall = _hall_root(cliques, k, n)
            if hall is None:
                continue
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
                if nodes > limit:
                    if nodes > node_budget:
                        stats = SolveStats(nodes, time.perf_counter() - start)
                        return SolveResult(BUDGET_EXCEEDED, None, None, stats)
                    # the search is not cheap after all: arm the check
                    limit = node_budget
                    cliques = _clique_terms(
                        [c for c in g.greedy_cliques if len(c) > k], pos, masks
                    )
                    hall = _hall_root(cliques, k, n)
                    if hall is None:
                        # k fails at the root: end its search as if
                        # position 0 had run out of labels
                        i, lab = 0, k + 1
                        break
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


def _hall_root(
    cliques: list[tuple[int, tuple[tuple[int, int, int], ...]]], k: int, n: int
) -> list | None:
    """The clique-sum check at the root for k labels: None when a clique
    with more than k members fails it, else hall[i] for each position i,
    the clique terms the search re-checks once i is labeled."""
    zeros = [0] * n
    # the tight cliques fail the root check with one label fewer; intervals
    # widen with k, so only a tight clique can fail it at k, and only the
    # tight ones are worth re-checking in the search
    tight = [
        (touch, terms) for touch, terms in cliques
        if len(terms) > k and not _hall_ok(terms, zeros, 0, k - 1)
    ]
    if not all(_hall_ok(terms, zeros, 0, k) for _, terms in tight):
        return None
    if k < HALL_MIN_K:
        return [()] * n
    return [[terms for touch, terms in tight if touch >> p & 1] for p in range(n)]


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
