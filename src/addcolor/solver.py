"""Exact solvers.

`eta_exact` computes the additive chromatic number by iterative deepening on
the number of labels k: for each k it runs a depth-first assignment of labels
1..k over the vertices in the graph's cached search order (descending
degree, then id), renumbered to positions 0..n-1, as an explicit index that
moves forward and back. Common neighbors of u and v add the same label
to both neighborhood sums, so only N(u) ^ N(v) decides edge (u, v): the edge
is checked as soon as the last vertex of that symmetric difference is
labeled, while the common neighbors may still be unlabeled. That last
position i lies in exactly one of N(u) and N(v), say N(a) for the edge
(a, b), so a label at i fails the edge only when its change to a's partial
sum equals the gap sums[b] - sums[a]. Each label tried at i is compared,
by its change from the label the sums already hold, with these gaps before
any sum moves; only a label that passes them moves the neighbor sums, by
that change, and a position takes its label back once, when it runs out
of labels. Twin symmetry breaking (non-decreasing labels inside a
false-twin class, strictly increasing inside a true-twin class) mirrors the
chain inequalities of the integer-programming model; both read the chains
from `twin_refined_partition`. The search returns its labeling unchecked:
each caller that prints it or relies on it verifies it once (`acp solve`,
the sweep).

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

Once positions 0..p are labeled, each member's a and b depend on p alone,
so the check reads them from per-position tables that the root builds once
per k. For each clique that position p touches, p's table holds the
points, the members with no unlabeled term, whose value is sums[v] itself,
and (v, k*a - b, a - k*b) for each other member: its interval's offsets
from sums[v]. `_fits` takes the points' values first and fails if two
coincide; it then sorts the other intervals by upper end and gives each the
least value at or above its lower end that nothing took. A clique whose
members are all points at p is left out of p's table: by the argument
above, the edge checks have already told every pair of them apart.
`_hall_ok` splits a clique's terms at any position and calls `_fits`, so the
root check and the search's checks share one implementation.

The check is armed on demand. A call builds the clique terms only once it
has spent `HALL_AFTER` search nodes. It then checks the current k at the
root, where nothing is labeled, over every distinct greedy clique with more
than k members, and abandons k at once if one fails. Every later k gets the
same root check before its search, so a k the check rules out costs no
nodes: on thick-spider:q it refutes k = 2, whose search tree alone has
2^(q+4) - 2 nodes. Intervals widen with k, so a clique that passes the root
check at k passes it at every larger k: each later k re-checks only the
cliques that failed at the k before, and none once a k has passed. From
k = 3 on (`HALL_MIN_K`) the search also re-runs the check after the edge
checks at position i pass, on the tight cliques: those that fail the root
check with k - 1 labels and have i as a member or an outside neighbor. At
k = 2 nearly every clique is tight (with one label every interval is a
single point), and re-checking them there cut 12 % of the panel nodes
below but made it 2.6 times slower (at HALL_AFTER = 64). The check only
cuts subtrees without an additive labeling, so the value and the first
labeling found are those of the plain search. The node count can rise a
little over an eager check: by the nodes spent before arming that it would
have cut (at most 145 on every graph of data/ and the tested families).

Times below are CPython 3.11.7 on a 2-vCPU virtual machine. Building the
terms and the root check at the node that arms them, tables included, cost
about 55 search nodes on connected 8-vertex graphs (36 us at a median
0.64 us per node) and about 125 on G(16, 1/2) (94 us at 0.76 us); the
nogood tables add 12 and 30 us. These are medians over the 347 8-vertex
and 24 of 32 seeded G(16, 1/2) searches that arm, lb and ub from the
bounds, best of 5 each. Yet the check cuts only 3 % of the nodes of the
8-vertex searches that reach k = 3, so arming there rarely pays back: of
the 10 493 searched 8-vertex graphs, 926 reach 64 nodes, 347 reach 128
and 108 reach 256; 9 380 end at k = 2 after about 21 nodes. HALL_AFTER
against the eager check it replaced (from k = 3, at the root and inside),
each instance timed under every setting in turn, the sum of per-instance
minima over 7 (panel) or 5 (n = 8) passes. Panel: the 11 solve-panel
family instances and 32 seeded G(16, 1/2) under a 300 000-node budget;
n = 8: the 10 493 graphs of graphs_conn_n8.g6 whose bounds do not meet; lb
and ub from the bounds:

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

The tables make a check in the search a third cheaper than working out
every member's interval at each node: over the 4 045 checks of one
solve-panel pass (seed 1), 2.5 us against 3.8 us each (best of 9 passes,
the two versions in alternate rounds of one process). Building them costs
about one check per table, so a search that re-checks each table about
once pays more: thick-spider:7-10 take 20-28 % longer (0.1-0.4 ms each),
while complete-sun:10-12 take 23-26 % less (1.4-1.9 ms each), from the
bounds, best of 9 in the same way.

The search also records failed states (nogood recording; Dechter,
*Enhancement schemes for constraint processing*, Artificial Intelligence
41, 1990). Once positions 0..i-1 are labeled, whether the subtree at i
holds an additive labeling depends only on the key of i:

- for each edge (a, b) checked at i or later whose N(a) ^ N(b) has a
  labeled position, the difference sums[a] - sums[b]. What the unlabeled
  positions still add to it, with A plus and B minus terms of labels in
  1..k, lies in [A - kB, kA - B], the interval rule of `_hall_ok`. A
  difference outside [B - kA, kB - A] can never reach 0, so the edge holds
  whatever follows and the key holds None for it: states that differ only
  in such settled edges share a key. An edge with no labeled term has
  difference 0 in every state and adds nothing;
- the labels of the twin-chain predecessors before i whose successors lie
  at i or later, which bound the successors' least labels.

The clique-sum check adds nothing to the key: it only cuts subtrees without
an additive labeling, so it cannot make a subtree fail. Backtracking out of
position i stores the key computed on entry as failed, for the current k,
and a later entry to i with a stored key skips the subtree. Only failed
subtrees are cut, so the value and the first labeling found stay those of
the plain search.

The cache arms with the clique-sum check, at HALL_AFTER nodes, and only
when no position has more than NOGOOD_WIDTH * n key terms. A call that
arms it builds the key terms in O(n + m + the sum of the key widths); a
wider call builds none and searches exactly as before. Keys can still fail
to repeat on narrow graphs: 26-vertex graphs made of a random Hamiltonian
cycle and a random perfect matching have 1.3n to 1.5n terms, and about one
stored key in a thousand is hit, while on the cycles and wheels below
about one in four is hit, the first within the first 13 stored. So the
cache gives up once it has stored more than n + NOGOOD_MISSES * (hits + 1)
keys. Nodes and time (best of 9, of 3 above
100 000 nodes) from the default bounds under a 300 000-node budget, the
cache never armed against the cache as armed here and against a cache that
never gives up:

    instance                  never armed      armed           never gives up
    cycle:25                  47 803  25.3 ms   1 401   3.0 ms   1 401   2.6 ms
    cycle:33                  over budget       1 923   3.5 ms   1 923   3.4 ms
    cycle:41                  over budget       2 453   6.9 ms   2 453   4.3 ms
    wheel:15                   3 779   3.1 ms     757   2.3 ms     757   2.4 ms
    wheel:25                  95 576  89.4 ms   1 420   7.5 ms   1 420   6.9 ms
    path:150, lb = ub = 2        196   0.5 ms     196   1.3 ms     196   1.0 ms
    complete-sun:10 (wide)     4 082   9.2 ms   4 082   9.5 ms   4 082   9.2 ms
    4 cycle + matching, n = 26 48 264  39.7 ms  48 258  43.7 ms  48 152 193.6 ms

Of the 10 493 searched 8-vertex graphs (as in the HALL_AFTER table), 347
arm the clique-sum check. The width gate decides how many of them arm the
cache too, and what the sweep pays for it, as the sum of per-graph minima
over 5 passes, two runs:

    NOGOOD_WIDTH   cache armed   n = 8 nodes   n = 8 eta s
    never                    0       300 049   0.751  0.780
    1.5                     11       300 043   0.748  0.782
    2                      127       299 684   0.767  0.804
    any width              347       299 142   0.809  0.847

The panel admits cycle:25 (6 terms) and wheel:15 (21) at both 1.5 and 2
and rejects G(16, 1/2) (57-68), complete-sun:10-12 (65-90) and the
spiders (36 and up) at both; a wheel on n vertices has n + 5 terms, within
1.5n from n = 10 on. So 1.5 keeps the wheels and costs the 8-vertex
searches nothing measurable.

`chromatic_exact` computes the chromatic number with a greedy clique lower
bound (the largest of the graph's cached greedy cliques), a greedy coloring
upper bound, and backtracking k-colorability from the lower bound up, which
counts one node per color placed over all k against the node budget, as
`eta_exact` counts labels; when the bounds meet it searches nothing, at any
n. The upper bound comes from one sequential greedy pass over the search
order (Welsh and Powell, 1967), which gives each vertex the least color its
colored neighbors leave free. Only when that count is above the clique
bound does DSATUR (Brelaz, 1979) run, and its coloring replaces the greedy
one only if it uses fewer colors. Of the 11 117 connected graphs on 8
vertices, the greedy pass meets the clique bound on 10 255 and DSATUR on
10 603; the greedy pass costs about a third of a DSATUR run. DSATUR
keeps each vertex's neighbor colors as a bitmask: the saturation is its
popcount and the least free color its lowest zero bit, which the greedy
pass finds the same way. It scans the uncolored vertices in ascending id
order and keeps the first maximum of (saturation, uncolored degree), so
ties go to the smallest id. The coloring comes back unchecked, as the
search's labeling does: the sweep verifies it before it prints chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from . import bounds as _bounds
from .graph import Graph, Labeling, iter_bits, twin_refined_partition

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

# the nogood cache arms with the clique-sum check, but only when no position
# has more than NOGOOD_WIDTH * n key terms: wide keys rarely repeat, and
# building them costs more than the hits save (measured in the module
# docstring)
NOGOOD_WIDTH = 1.5

# the cache gives up once it has stored more than n + NOGOOD_MISSES * (hits
# + 1) keys: on searches where it pays, about one stored key in four is hit
# later; where keys rarely repeat, it would cost the search several times
# over (measured in the module docstring)
NOGOOD_MISSES = 16


@dataclass
class SolveStats:
    nodes: int


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
    matching its chromatic number. The certificate comes back unchecked:
    a caller that relies on it runs `verify_additive_coloring` itself.
    """
    if g.n == 0:
        return SolveResult(OPTIMAL, 0, Labeling(()), SolveStats(0))
    if lb is None:
        lb = _bounds.combined_bounds(g).eta_lower
    if ub is None:
        ub = _bounds.degree_upper_bound(g)
    if not 1 <= lb <= ub:
        raise ValueError(f"need 1 <= lb <= ub, got lb={lb}, ub={ub}")
    n = g.n
    pos, neighbors, masks, checks, pred, step = _positions(g)
    # once armed, cliques holds the clique terms that can still fail the
    # root check
    cliques = cuts = None
    nodes = 0
    # the next node count that needs a look: arming, then the budget
    limit = min(HALL_AFTER, node_budget)
    for k in range(lb, ub + 1):
        labels = [0] * n
        sums = [0] * n
        # hall[i]: the (points, spans) tables of the cliques to re-check once
        # position i is labeled
        hall: list = [()] * n
        if cliques is not None:
            cliques, hall = _hall_root(cliques, k, n)
            if hall is None:
                continue
        # nogood cache: cut[i] the key terms at position i, failed[i] the
        # keys whose subtree failed, keys[i] the key of the current entry
        cut = None
        if cuts is not None:
            cut, failed, keys = _nogoods(cuts, k, n)
        i = 0
        while 0 <= i < n:
            # next label of position i: one past the label the sums hold,
            # else the least label its twin chain allows
            nb, edges, held = neighbors[i], checks[i], labels[i]
            if held:
                lab = held + 1
            else:
                if cut is not None:
                    key = _nogood_key(*cut[i], sums, labels)
                    if key in failed[i]:
                        credit += NOGOOD_MISSES
                        i -= 1
                        continue
                    keys[i] = key
                lab = 1 if pred[i] is None else labels[pred[i]] + step[i]
            while lab <= k:
                nodes += 1
                if nodes > limit:
                    if nodes > node_budget:
                        return SolveResult(BUDGET_EXCEEDED, None, None, SolveStats(nodes))
                    # the search is not cheap after all: arm the check and,
                    # if every cut is narrow, the cache
                    limit = node_budget
                    cliques = _clique_terms(
                        [c for c in g.greedy_cliques if len(c) > k], pos, masks
                    )
                    if k >= HALL_MIN_K:
                        # keep the tight cliques, those that fail the root
                        # check with one label fewer: intervals widen with
                        # k, so only they can fail it at k, and only they
                        # are worth re-checking in the search
                        zeros = [0] * n
                        cliques = [
                            (touch, terms) for touch, terms in cliques
                            if not _hall_ok(terms, zeros, 0, k - 1)
                        ]
                    cuts = _cut_terms(masks, checks, pred, NOGOOD_WIDTH * n)
                    if cuts is not None:
                        cut, failed, keys = _nogoods(cuts, k, n)
                        credit = n + NOGOOD_MISSES
                    cliques, hall = _hall_root(cliques, k, n)
                    if hall is None:
                        # k fails at the root: end its search as if
                        # position 0 had run out of labels
                        i, lab = 0, k + 1
                        break
                # i is in N(a) and not in N(b): the label fails edge (a, b)
                # iff its change to sums[a] closes the gap to sums[b]
                d = lab - held
                for a, b in edges:
                    if sums[b] - sums[a] == d:
                        break
                else:
                    # the edges hold: move the sums to the label, which
                    # stands if the cliques hold too
                    for w in nb:
                        sums[w] += d
                    held = lab
                    for points, spans in hall[i]:
                        if not _fits(points, spans, sums):
                            break
                    else:
                        break
                lab += 1
            if lab <= k:
                labels[i] = lab
                i += 1
            else:
                if held:
                    for w in nb:
                        sums[w] -= held
                labels[i] = 0
                if cut is not None and keys[i] is not None:
                    failed[i].add(keys[i])
                    credit -= 1
                    if credit < 0:
                        # the keys do not repeat: give the cache up
                        cut = cuts = None
                i -= 1
        if i == n:
            return SolveResult(OPTIMAL, k, Labeling(tuple(map(labels.__getitem__, pos))),
                               SolveStats(nodes))
    return SolveResult(UB_EXCEEDED, None, None, SolveStats(nodes))


def _positions(g: Graph) -> tuple:
    """The search's view of g, with vertices renumbered to their positions
    in its search order: pos[v] for each vertex v, then for each position
    its sorted neighbors, their mask, the edges (a, b) checked there, with
    the position in N(a), and its twin-chain predecessor and step."""
    n = g.n
    order = g.search_order
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # the positions j arrive in order, so each neighbor list comes out sorted
    neighbors: list[list[int]] = [[] for _ in range(n)]
    masks = [0] * n
    for j, v in enumerate(order):
        for w in g.neighbors[v]:
            neighbors[pos[w]].append(j)
            masks[pos[w]] |= 1 << j
    # common neighbors add the same label to both sums, so edge (u, v) is
    # decided once N(u) ^ N(v) is labeled: check it at that set's last
    # position i, as (a, b) with i in N(a), so that only sums[a] moves there
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, nb in enumerate(neighbors):
        for v in nb:
            if u < v:
                i = (masks[u] ^ masks[v]).bit_length() - 1
                checks[i].append((u, v) if masks[u] >> i & 1 else (v, u))
    # symmetry breaking: chain each twin class in id order; twins share a
    # degree, so the id order is the position order and the predecessor is
    # always labeled first
    pred: list[int | None] = [None] * n
    step = [0] * n
    for gap, cls in twin_refined_partition(g):
        for a, b in zip(cls, cls[1:]):
            pred[pos[b]] = pos[a]
            step[pos[b]] = gap
    return pos, neighbors, masks, checks, pred, step


def _cut_terms(
    masks: list[int], checks: list[list[tuple[int, int]]], pred: list[int | None], most: float
) -> list[tuple[list[tuple[int, int, int, int]], list[int]]] | None:
    """The terms of the nogood key at each position i, or None when some
    position has more than `most` of them. The edge terms are (a, b, A, B)
    for each edge (a, b) checked at or after i with a labeled term, where A
    and B count the unlabeled positions of N(a) - N(b) and N(b) - N(a); the
    link terms are the twin-chain predecessors before i of positions at or
    after i."""
    n = len(masks)
    spans = []
    for hi, edges in enumerate(checks):
        for a, b in edges:
            d = masks[a] ^ masks[b]
            lo = (d & -d).bit_length() - 1
            if lo < hi:
                spans.append((lo, hi, a, b))
    chains = [(p, s) for s, p in enumerate(pred) if p is not None]
    # a term spans positions lo + 1 .. hi: count the terms at each position
    count = [0] * (n + 1)
    for lo, hi, *_ in spans + chains:
        count[lo + 1] += 1
        count[hi + 1] -= 1
    if max(accumulate(count)) > most:
        return None
    cuts: list = [([], []) for _ in range(n)]
    for lo, hi, a, b in spans:
        plus, minus = masks[a] & ~masks[b], masks[b] & ~masks[a]
        for i in range(lo + 1, hi + 1):
            cuts[i][0].append((a, b, (plus >> i).bit_count(), (minus >> i).bit_count()))
    for p, s in chains:
        for i in range(p + 1, s + 1):
            cuts[i][1].append(p)
    return cuts


def _nogoods(cuts: list, k: int, n: int) -> tuple[list, list[set], list]:
    """Fresh nogood tables for k labels: the key terms of each position
    with the range in which each edge difference can still reach 0, an
    empty set of failed keys per position, and no entry keys."""
    # the later change of sums[a] - sums[b] lies in [A - kB, kA - B], so the
    # difference can still reach 0 only inside [B - kA, kB - A]
    cut = [
        ([(a, b, bb - k * aa, k * bb - aa) for a, b, aa, bb in edges], links)
        for edges, links in cuts
    ]
    return cut, [set() for _ in range(n)], [None] * n


def _nogood_key(
    edges: list[tuple[int, int, int, int]], links: list[int], sums: list[int], labels: list[int]
) -> tuple:
    """The state that decides the subtree at a position: each edge
    difference still to check, None once it can no longer reach 0, and the
    labels of the twin-chain predecessors already placed."""
    key = [d if lo <= (d := sums[a] - sums[b]) <= hi else None for a, b, lo, hi in edges]
    key += [labels[p] for p in links]
    return tuple(key)


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
) -> tuple[list, list | None]:
    """The clique-sum check at the root for k labels, over the (touch,
    terms) pairs of `cliques`, each tight from k = HALL_MIN_K on: it fails
    the check with k - 1 labels. Returns the cliques that fail it, the only
    ones that can fail it at k + 1 and so tight there, and hall: None when
    some clique fails, else hall[p] for each position p, the (points, spans)
    tables, split at free = p + 1 by `_split`, that the search re-checks
    once p is labeled."""
    zeros = [0] * n
    cliques = [(touch, terms) for touch, terms in cliques if len(terms) > k]
    failed = [(touch, terms) for touch, terms in cliques if not _hall_ok(terms, zeros, 0, k)]
    if failed:
        return failed, None
    if k < HALL_MIN_K or not cliques:
        return [], [()] * n
    hall: list = [[] for _ in range(n)]
    for touch, terms in cliques:
        for p in iter_bits(touch):
            points, spans = _split(terms, p + 1, k)
            # the neighborhoods of two points differ only on labeled terms,
            # so the edge checks have told them apart: a clique of points
            # passes
            if spans:
                hall[p].append((points, spans))
    return [], hall


def _split(
    terms: tuple[tuple[int, int, int], ...], free: int, k: int
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The members once positions >= free are unlabeled: the points, whose
    terms are all labeled, and (v, k*a - b, a - k*b) for each other member
    v, with a and b its unlabeled plus and minus terms."""
    points, spans = [], []
    for v, plus, minus in terms:
        a = (plus >> free).bit_count()
        b = (minus >> free).bit_count()
        if a or b:
            spans.append((v, k * a - b, a - k * b))
        else:
            points.append(v)
    return points, spans


def _hall_ok(terms: tuple[tuple[int, int, int], ...], sums: list[int], free: int, k: int) -> bool:
    """Can the members' sums still be pairwise distinct, with positions >=
    free unlabeled and labels in 1..k? See `_fits`."""
    points, spans = _split(terms, free, k)
    return _fits(points, spans, sums)


def _fits(points: list[int], spans: list[tuple[int, int, int]], sums: list[int]) -> bool:
    """Can the members' sums be pairwise distinct? Up to a shift all
    members share, a point v's sum is sums[v], and a span (v, hi, lo) lies
    in [sums[v] + lo, sums[v] + hi]. The points take their values first;
    then, sorted by upper end, each span takes the least value at or above
    its lower end that nothing took before. The sums can be distinct iff the
    points differ and every span gets a value."""
    taken = set()
    for v in points:
        if sums[v] in taken:
            return False
        taken.add(sums[v])
    for hi, lo in sorted([(sums[v] + hi, sums[v] + lo) for v, hi, lo in spans]):
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
    uncolored = list(range(n))
    while uncolored:
        # (saturation, uncolored degree) as one int: the degree is below n
        best = -1
        for u in uncolored:
            key = neighbor_colors[u].bit_count() * n + uncolored_deg[u]
            if key > best:
                v, best = u, key
        uncolored.remove(v)
        seen = neighbor_colors[v]
        # the lowest zero bit of `seen` is the least free color
        c = (~seen & (seen + 1)).bit_length()
        colors[v] = c
        for w in g.neighbors[v]:
            neighbor_colors[w] |= 1 << (c - 1)
            uncolored_deg[w] -= 1
    return max(colors, default=0), tuple(colors)


def _greedy_coloring(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Sequential greedy coloring over the search order: each vertex takes
    the least color its colored neighbors leave free.

    Returns (color count, colors) as `dsatur` does; colors are 1-based.
    """
    colors = [0] * g.n
    for v in g.search_order:
        # bit c of `seen` is set when a neighbor has color c; bit 0, which
        # the uncolored ones set, is set anyway, so the lowest zero bit is
        # the least free color
        seen = 1
        for w in g.neighbors[v]:
            seen |= 1 << colors[w]
        colors[v] = (~seen & (seen + 1)).bit_length() - 1
    return max(colors, default=0), tuple(colors)


def greedy_clique_lower_bound(g: Graph) -> int:
    """Size of the largest greedily grown clique; valid lower bound on chi."""
    return max(map(len, g.greedy_cliques), default=0)


def _k_colorable(g: Graph, k: int, node_budget: int) -> tuple[tuple[int, ...] | None, int]:
    """Backtracking k-colorability; colors restricted to 1 + max used so far.

    Returns (coloring or None, colors placed), and gives up with None past
    `node_budget` of them. An index over the search order moves forward and
    back, as in `eta_exact`. Bit c of taken[i] is set when a neighbor earlier
    in the order has color c, and used[i] is the largest color before i.
    """
    n = g.n
    order = g.search_order
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    earlier = [[pos[w] for w in g.neighbors[v] if pos[w] < i] for i, v in enumerate(order)]
    colors = [0] * n
    taken = [0] * n
    used = [0] * (n + 1)
    nodes = 0
    i = 0
    while 0 <= i < n:
        c = colors[i]
        if not c:
            mask = 0
            for w in earlier[i]:
                mask |= 1 << colors[w]
            taken[i] = mask
        # the least color above c that no earlier neighbor has
        free = ~taken[i] & (-1 << (c + 1))
        c = (free & -free).bit_length() - 1
        if c <= min(k, used[i] + 1):
            nodes += 1
            if nodes > node_budget:
                return None, nodes
            colors[i] = c
            used[i + 1] = max(used[i], c)
            i += 1
        else:
            colors[i] = 0
            i -= 1
    return (tuple(colors[p] for p in pos) if i == n else None), nodes


def verify_proper_coloring(g: Graph, colors: tuple[int, ...]) -> bool:
    if len(colors) != g.n:
        return False
    for c, nbrs in zip(colors, g.neighbors):
        for v in nbrs:
            if colors[v] == c:
                return False
    return True


def chromatic_exact(g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact chromatic number with a proper coloring in colors 1..value;
    status "budget_exceeded" once the search has placed over `node_budget`
    colors. The upper bound is the greedy coloring over the search order,
    or DSATUR's where that misses the clique bound and DSATUR uses fewer
    colors; the coloring returned is that upper bound's unless the search
    finds one with fewer. It comes back unchecked: a caller that relies on
    it runs `verify_proper_coloring` itself."""
    if g.n == 0:
        return SolveResult(OPTIMAL, 0, (), SolveStats(0))
    lb = greedy_clique_lower_bound(g)
    ub, coloring = _greedy_coloring(g)
    if ub > lb:
        count, colors = dsatur(g)
        if count < ub:
            ub, coloring = count, colors
    value, cert = ub, coloring
    nodes = 0
    for k in range(lb, ub):
        attempt, spent = _k_colorable(g, k, node_budget - nodes)
        nodes += spent
        if nodes > node_budget:
            return SolveResult(BUDGET_EXCEEDED, None, None, SolveStats(nodes))
        if attempt is not None:
            value, cert = k, attempt
            break
    return SolveResult(OPTIMAL, value, cert, SolveStats(nodes))
