"""Brute-force oracles, kept independent of the package's own solvers:
labelings, colorings and model points are enumerated directly, with
neighborhood sums recomputed locally. The package holds an LP model as its
row texts; the model oracles work on `LpModel`, the structured model that
`read_lp` reads back from the written file."""

from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple

from addcolor.graph import Graph, iter_bits
from addcolor.milp import MilpModel, write_lp

INTEGER = "integer"
BINARY = "binary"


class Variable(NamedTuple):
    name: str
    kind: str
    lower: int
    upper: int | None


class Constraint(NamedTuple):
    name: str
    terms: tuple[tuple[int, str], ...]
    relation: str  # "<=", "=" or ">="
    rhs: int


class LpModel(NamedTuple):
    variables: list[Variable]
    objective: tuple[tuple[int, str], ...]
    constraints: list[Constraint]


def neighborhood_sums(g: Graph, labels) -> list[int]:
    return [sum(labels[u] for u in g.neighbors[v]) for v in range(g.n)]


def is_additive(g: Graph, labels) -> bool:
    sums = neighborhood_sums(g, labels)
    return all(sums[u] != sums[v] for u, v in g.edges())


def partitions(total: int, largest: int | None = None):
    """Every partition of `total` into non-increasing parts of at most
    `largest` (default `total`), as tuples."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def eta_naive(g: Graph, kmax: int = 8) -> int:
    edges = list(g.edges())
    for k in range(1, kmax + 1):
        for f in itertools.product(range(1, k + 1), repeat=g.n):
            sums = [sum(f[u] for u in g.neighbors[v]) for v in range(g.n)]
            if all(sums[a] != sums[b] for a, b in edges):
                return k
    raise AssertionError(f"no additive coloring with k <= {kmax}")


def additive_labelings(g: Graph, k: int):
    """Every additive labeling with labels 1..k, as tuples in lexicographic
    order: vertices are labeled in id order, and each edge is tested once
    both of its endpoints' neighborhoods are labeled."""
    ready = [[] for _ in range(g.n)]
    for u, v in g.edges():
        ready[max(g.neighbors[u] + g.neighbors[v])].append((u, v))
    labels = [0] * g.n
    sums = [0] * g.n

    def extend(j):
        if j == g.n:
            yield tuple(labels)
            return
        for x in range(1, k + 1):
            labels[j] = x
            for w in g.neighbors[j]:
                sums[w] += x
            if all(sums[u] != sums[v] for u, v in ready[j]):
                yield from extend(j + 1)
            for w in g.neighbors[j]:
                sums[w] -= x

    yield from extend(0)


def chi_naive(g: Graph) -> int:
    if g.n == 0:
        return 0
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        for coloring in itertools.product(range(k), repeat=g.n):
            if all(coloring[u] != coloring[v] for u, v in edges):
                return k
    raise AssertionError("unreachable")


def is_split_naive(g: Graph) -> bool:
    """Some vertex subset is a clique whose complement is stable."""
    verts = range(g.n)
    for mask in range(1 << g.n):
        clique = [v for v in verts if mask >> v & 1]
        stable = [v for v in verts if not mask >> v & 1]
        if any(not g.masks[u] >> v & 1 for i, u in enumerate(clique) for v in clique[i + 1:]):
            continue
        if any(g.masks[u] >> v & 1 for i, u in enumerate(stable) for v in stable[i + 1:]):
            continue
        return True
    return g.n == 0


def clique_bound_naive(g: Graph) -> int:
    """Best clique bound ceil((d1+1)/(d2-|Q|+2)) over every vertex subset Q
    that is a clique, with d1/d2 the smallest/largest degree inside Q."""
    degree = [len(g.neighbors[v]) for v in range(g.n)]
    best = 0
    for size in range(1, g.n + 1):
        for q in itertools.combinations(range(g.n), size):
            if all(v in g.neighbors[u] for u, v in itertools.combinations(q, 2)):
                d1 = min(degree[v] for v in q)
                d2 = max(degree[v] for v in q)
                best = max(best, math.ceil((d1 + 1) / (d2 - size + 2)))
    return best


def greedy_cliques_naive(g: Graph):
    """One clique per start vertex, grown step by step: each step takes the
    candidate keeping the most candidates, ties going to the smallest id."""
    masks = g.masks
    for v in range(g.n):
        clique = [v]
        cand = masks[v]
        while cand:
            u = max(iter_bits(cand), key=lambda u: ((cand & masks[u]).bit_count(), -u))
            clique.append(u)
            cand &= masks[u]
        yield clique


def dsatur_naive(g: Graph) -> tuple[int, tuple[int, ...]]:
    """DSATUR with neighbor-color sets: color the uncolored vertex with the
    most distinct neighbor colors, then the most uncolored neighbors, then
    the smallest id, with the least color no neighbor has."""
    n = g.n
    colors = [0] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored_deg = [len(g.neighbors[v]) for v in range(n)]
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


def distinct_representatives_naive(intervals) -> bool:
    """Whether integer intervals (lo, hi) admit pairwise distinct integers,
    one inside each: a matching of every interval to an integer it holds,
    grown one interval at a time along augmenting paths."""
    owner: dict[int, int] = {}

    def augment(i, seen):
        lo, hi = intervals[i]
        for x in range(lo, hi + 1):
            if x not in seen:
                seen.add(x)
                if x not in owner or augment(owner[x], seen):
                    owner[x] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(intervals)))


def induced_assignment(model: LpModel, g: Graph, labels) -> dict[str, int]:
    """The only candidate completion of a labeling: z(u,v) = 1 iff the sum at
    u is smaller, k = max label."""
    sums = neighborhood_sums(g, labels)
    values = {"k": max(labels)}
    for v in range(g.n):
        values[f"f_v{v}"] = labels[v]
    for var in model.variables:
        if var.kind == BINARY:
            _, u, v = var.name.split("_")
            values[var.name] = 1 if sums[int(u)] < sums[int(v)] else 0
    return values


def assignment_feasible(model: LpModel, values: dict[str, int]) -> bool:
    for var in model.variables:
        val = values[var.name]
        if val < var.lower or (var.upper is not None and val > var.upper):
            return False
    for c in model.constraints:
        total = sum(coef * values[name] for coef, name in c.terms)
        if c.relation == "<=" and total > c.rhs:
            return False
        if c.relation == ">=" and total < c.rhs:
            return False
        if c.relation == "=" and total != c.rhs:
            return False
    return True


def point_feasible(model: LpModel, g: Graph, labels) -> bool:
    """Whether the labeling extends to a feasible (f, z, k) model point."""
    return assignment_feasible(model, induced_assignment(model, g, labels))


def model_optimum(model: LpModel, g: Graph, ub: int) -> int | None:
    """Exhaustive optimum of the model over f in [ub]^V with induced z; the
    pairing equalities make the induced z the only completion that can be
    feasible, so this enumeration is exact. The objective is k = max(f), so
    the slices "f in [k]^V using label k" are scanned for k = 1..ub and the
    first slice holding a feasible point gives the optimum."""
    for k in range(1, ub + 1):
        for f in itertools.product(range(1, k + 1), repeat=g.n):
            if k in f and point_feasible(model, g, f):
                return k
    return None


def highs_input(model: LpModel) -> dict:
    """Keyword arguments of `scipy.optimize.milp` for the model: one column
    per variable in model order, the constraints as sparse rows, the
    variable bounds, and every variable integral. scipy is imported here so
    that the other oracles do not need it."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.sparse import coo_array

    column = {var.name: j for j, var in enumerate(model.variables)}
    cost = np.zeros(len(column))
    for coef, name in model.objective:
        cost[column[name]] += coef
    data, rows, cols, low, high = [], [], [], [], []
    for i, c in enumerate(model.constraints):
        for coef, name in c.terms:
            data.append(coef)
            rows.append(i)
            cols.append(column[name])
        low.append(-np.inf if c.relation == "<=" else c.rhs)
        high.append(np.inf if c.relation == ">=" else c.rhs)
    matrix = coo_array((data, (rows, cols)), shape=(len(model.constraints), len(column)))
    bounds = Bounds(
        [var.lower for var in model.variables],
        [np.inf if var.upper is None else var.upper for var in model.variables],
    )
    return {
        "c": cost,
        "constraints": LinearConstraint(matrix, low, high),
        "integrality": np.ones(len(column)),
        "bounds": bounds,
    }


def twin_classes_naive(g: Graph):
    """Twin classes as (gap, members) pairs from pairwise comparison of
    neighborhoods: the classes of N[u] = N[v] with two or more vertices
    (gap 1), then the vertices without a true twin grouped by N(u) = N(v)
    (gap 0). Classes of one vertex are left out; the rest are ordered by
    smallest member."""
    nbr = [set(g.neighbors[v]) for v in range(g.n)]
    closed = [nbr[v] | {v} for v in range(g.n)]
    true = [tuple(u for u in range(g.n) if closed[u] == closed[v]) for v in range(g.n)]
    rest = [v for v in range(g.n) if len(true[v]) == 1]
    false = [tuple(u for u in rest if nbr[u] == nbr[v]) for v in rest]
    classes = {(1, c) for c in true if len(c) >= 2} | {(0, c) for c in false if len(c) >= 2}
    return tuple(sorted(classes, key=lambda c: c[1]))


def parse_graph6_naive(line: str) -> Graph:
    """Bit-by-bit graph6 decoder for valid lines: the size header, then the
    upper triangle column by column, bit b of the section in byte b // 6,
    MSB first, each bit tested on its own; the padding bits must be zero."""
    values = [ord(ch) - 63 for ch in line.strip()]
    if values[0] < 63:
        n, pos = values[0], 1
    elif values[1] < 63:
        n, pos = values[1] << 12 | values[2] << 6 | values[3], 4
    else:
        n, pos = 0, 8
        for v in values[2:8]:
            n = n << 6 | v
    chunk = values[pos:]
    nbits = n * (n - 1) // 2
    assert len(chunk) == (nbits + 5) // 6
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if chunk[bit // 6] >> (5 - bit % 6) & 1:
                edges.append((i, j))
            bit += 1
    assert not any(chunk[b // 6] >> (5 - b % 6) & 1 for b in range(nbits, len(chunk) * 6))
    return Graph.from_edges(n, edges)


def write_graph6_naive(g: Graph) -> str:
    """Bit-by-bit graph6 encoder: each bit of the upper triangle, column by
    column, set on its own in byte b // 6, MSB first."""
    n = g.n
    if n <= 62:
        header = chr(63 + n)
    else:
        header = chr(126) + "".join(chr(63 + (n >> shift & 0x3F)) for shift in (12, 6, 0))
    nbits = n * (n - 1) // 2
    chunk = [0] * ((nbits + 5) // 6)
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if g.masks[j] >> i & 1:
                chunk[bit // 6] |= 1 << (5 - bit % 6)
            bit += 1
    return header + "".join(chr(63 + v) for v in chunk)


def read_lp(text: str) -> LpModel:
    """The model an LP file written by `write_lp` describes, read back token
    by token: the objective, each row with its wrapped continuation lines
    joined, the bounds of the `Generals` and the `Binaries` (0..1). Variables
    come in file order, integers first."""
    sections: dict[str, list[str]] = {}
    lines = text.split("\n")
    assert lines[-2:] == ["End", ""], lines[-2:]
    for line in lines[:-2]:
        if line in ("Minimize", "Subject To", "Bounds", "Generals", "Binaries"):
            current = sections.setdefault(line, [])
        elif re.match(r" \w+: ", line) or not line.startswith("    "):
            current.append(line)
        else:
            current[-1] += line

    def row(line: str) -> tuple[str, list[tuple[int, str]], list[str]]:
        name, body = line.split(":", 1)
        terms, sign, coef = [], 1, None
        tokens = body.split()
        while tokens and tokens[0] not in ("<=", ">=", "="):
            token = tokens.pop(0)
            if token in ("+", "-"):
                sign = -1 if token == "-" else 1
            elif token.isdigit():
                coef = int(token)
            else:
                terms.append((sign * (1 if coef is None else coef), token))
                sign, coef = 1, None
        return name.strip(), terms, tokens

    (objective,) = sections["Minimize"]
    name, objective_terms, rest = row(objective)
    assert name == "obj" and not rest
    constraints = []
    for line in sections["Subject To"]:
        name, terms, (relation, rhs) = row(line)
        constraints.append(Constraint(name, tuple(terms), relation, int(rhs)))
    bounds = {}
    for line in sections["Bounds"]:
        parts = line.split()
        lower, var = int(parts[0]), parts[2]
        bounds[var] = (lower, int(parts[4]) if len(parts) == 5 else None)
    generals = " ".join(sections.get("Generals", [])).split()
    binaries = " ".join(sections.get("Binaries", [])).split()
    assert sorted(bounds) == sorted(generals)
    variables = [Variable(var, INTEGER, *bounds[var]) for var in generals]
    variables += [Variable(var, BINARY, 0, 1) for var in binaries]
    return LpModel(variables, tuple(objective_terms), constraints)


def read_back(model: MilpModel) -> LpModel:
    """The package model as its LP file describes it."""
    return read_lp(write_lp(model))
