"""Exact solvers.

`eta_exact` computes the additive chromatic number by iterative deepening on
the number of labels k: for each k it runs a depth-first assignment of labels
1..k over the vertices (descending degree, then id). An edge is checked as
soon as both endpoints' neighborhood sums are fully determined; with labels
bounded in [1, k] the partial-sum intervals of an edge can only force an
equality once both neighborhoods are complete, so completeness is the check
trigger. Twin symmetry breaking (non-decreasing labels inside a false-twin
class, strictly increasing inside a true-twin class) mirrors the chain
inequalities of the integer-programming model and is optional.

`chromatic_exact` computes the chromatic number with a DSATUR upper bound, a
greedy clique lower bound, and backtracking k-colorability in between.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import bounds as _bounds
from .graph import (
    TRUE_TWINS,
    Graph,
    Labeling,
    twin_refined_partition,
    verify_additive_coloring,
)

OPTIMAL = "optimal"
UB_EXCEEDED = "ub_exceeded"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_NODE_BUDGET = 10_000_000


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


class _BudgetExceeded(Exception):
    pass


class _EtaSearch:
    """Fixed-graph search state reused across the deepening iterations."""

    def __init__(self, g: Graph, twin_breaking: bool, node_budget: int):
        self.g = g
        self.budget = node_budget
        self.nodes = 0
        n = g.n
        self.order = sorted(range(n), key=lambda v: (-g.degree(v), v))
        pos = [0] * n
        for i, v in enumerate(self.order):
            pos[v] = i
        # edge (u, v) becomes checkable once every vertex of N(u) | N(v)
        # carries a label; bucket it at the position of the last one
        self.check_at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v in g.edges():
            members = set(g.neighbors[u]) | set(g.neighbors[v])
            self.check_at[max(pos[w] for w in members)].append((u, v))
        # symmetry breaking: chain each twin class in id order; twins share a
        # degree, so the predecessor is always assigned first
        self.pred: list[int | None] = [None] * n
        self.delta = [0] * n
        if twin_breaking:
            for cls in twin_refined_partition(g).multi_classes():
                step = 1 if cls.kind == TRUE_TWINS else 0
                for a, b in zip(cls.vertices, cls.vertices[1:]):
                    self.pred[b] = a
                    self.delta[b] = step

    def search(self, k: int) -> list[int] | None:
        g = self.g
        n = g.n
        labels = [0] * n
        sums = [0] * n
        order, check_at, pred, delta = self.order, self.check_at, self.pred, self.delta
        neighbors = g.neighbors

        def dfs(i: int) -> bool:
            if i == n:
                return True
            v = order[i]
            p = pred[v]
            lo = 1 if p is None else labels[p] + delta[v]
            checks = check_at[i]
            for lab in range(lo, k + 1):
                self.nodes += 1
                if self.nodes > self.budget:
                    raise _BudgetExceeded
                labels[v] = lab
                for w in neighbors[v]:
                    sums[w] += lab
                if all(sums[a] != sums[b] for a, b in checks) and dfs(i + 1):
                    return True
                for w in neighbors[v]:
                    sums[w] -= lab
            labels[v] = 0
            return False

        return labels if dfs(0) else None


def eta_exact(
    g: Graph,
    lb: int | None = None,
    ub: int | None = None,
    *,
    twin_breaking: bool = True,
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
    state = _EtaSearch(g, twin_breaking, node_budget)
    try:
        for k in range(lb, ub + 1):
            found = state.search(k)
            if found is not None:
                cert = Labeling(tuple(found))
                assert verify_additive_coloring(g, cert) and cert.k <= k
                stats = SolveStats(state.nodes, time.perf_counter() - start)
                return SolveResult(OPTIMAL, k, cert, stats)
    except _BudgetExceeded:
        return SolveResult(
            BUDGET_EXCEEDED, None, None,
            SolveStats(state.nodes, time.perf_counter() - start),
        )
    stats = SolveStats(state.nodes, time.perf_counter() - start)
    return SolveResult(UB_EXCEEDED, None, None, stats)


def dsatur(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Greedy proper coloring by maximum saturation degree.

    Returns (color count, colors); colors are 1-based. The count is an upper
    bound on the chromatic number.
    """
    n = g.n
    colors = [0] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored_deg = [g.degree(v) for v in range(n)]
    for _ in range(n):
        v = max(
            (v for v in range(n) if colors[v] == 0),
            key=lambda v: (len(neighbor_colors[v]), uncolored_deg[v], -v),
        )
        c = 1
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for w in g.neighbors[v]:
            neighbor_colors[w].add(c)
            uncolored_deg[w] -= 1
    return max(colors, default=0), tuple(colors)


def greedy_clique_lower_bound(g: Graph) -> int:
    """Size of the largest greedily grown clique; valid lower bound on chi."""
    return max((len(c) for c in _bounds.greedy_cliques(g)), default=0)


def _k_colorable(g: Graph, k: int) -> tuple[int, ...] | None:
    """Backtracking k-colorability; colors restricted to 1 + max used so far."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
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
