"""Big-M integer-programming formulation of the additive coloring problem,
with optional valid inequalities and twin symmetry breaking, exported as
CPLEX-dialect LP text.

Variables: integer labels f_v{i} in [1, UB], one integer k (the objective),
and one binary z_{u}_{v} per ordered edge meaning "the neighborhood sum of u
is smaller than that of v". For every ordered edge,

    f(N(u)) - f(N(v)) + M_uv z(u,v) <= M_uv - 1,

with M_uv = 1 + |N(u)\\N(v)|*UB - |N(v)\\N(u)| the tightest constant that
keeps the row inactive at z = 0; the pairing z(u,v) + z(v,u) = 1 then forces
strictly ordered sums across each edge. The optimum equals the additive
chromatic number whenever UB is a valid upper bound for it.

The model is built in one pass. With twin symmetry breaking, the z
variables that the twin chains make redundant are decided first, and
neither they nor any row mentioning them is ever emitted; the model lists
them in `eliminated_variables` for reporting only. Row order: the z and
pairing rows per edge, the k links, the valid inequalities, the chains.
Each live edge lists N(u)\\N(v) and N(v)\\N(u) once, as sorted set
differences of per-model frozensets of the neighbor tuples, and builds both
z rows from them. Their f terms come from two per-model tables, one
(+1, f_v{w}) and one (-1, f_v{w}) per vertex, shared by every row; each live
z name is formatted once, in a table keyed by its ordered edge. `write_lp`
formats each distinct term once and writes the objective and every row in
one loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graph import Graph, iter_bits, twin_refined_partition

INTEGER = "integer"
BINARY = "binary"

_WRAP_TERMS = 20


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


@dataclass
class MilpModel:
    variables: list[Variable]
    objective: tuple[tuple[int, str], ...]
    constraints: list[Constraint]
    # z variables made redundant by the twin chains; none of them appears
    # in `variables` or in any constraint
    eliminated_variables: frozenset[str]


def f_name(v: int) -> str:
    return f"f_v{v}"


def z_name(u: int, v: int) -> str:
    return f"z_{u}_{v}"


def _twin_chains(g: Graph) -> tuple[list[Constraint], set[tuple[int, int]]]:
    """Chain rows per twin class, and the ordered edges (u, v) whose z
    variables they make redundant.

    A class (gap, v_1..v_t) gives f(v_i) - f(v_{i+1}) <= -gap. False twins
    (gap 0): z(u, v_i), z(v_i, u) are dropped for i >= 2 and u in N(v_1).
    True twins (gap 1): z(v_i, v_j) is dropped for i, j >= 2, i != j. The
    dropped set is symmetric (z(u, v) goes exactly when z(v, u) does) and
    the optimum is unchanged.
    """
    chains: list[Constraint] = []
    dropped: set[tuple[int, int]] = set()
    for gap, verts in twin_refined_partition(g):
        chains += [
            Constraint(f"c_chain_{a}_{b}", ((1, f_name(a)), (-1, f_name(b))), "<=", -gap)
            for a, b in zip(verts, verts[1:])
        ]
        if gap:
            dropped.update((vi, vj) for vi in verts[1:] for vj in verts[1:] if vi != vj)
        else:
            for vi in verts[1:]:
                for u in g.neighbors[verts[0]]:
                    dropped.add((u, vi))
                    dropped.add((vi, u))
    return chains, dropped


def build_model(
    g: Graph,
    ub: int,
    valid_inequalities: bool = False,
    twin_symmetry: bool = False,
) -> MilpModel:
    """Minimize-k model whose optimum is eta(g), given UB >= eta(g) >= 1."""
    if ub < 1:
        raise ValueError(f"UB must be >= 1, got {ub}")
    if g.edge_count == 0:
        raise ValueError("model needs a graph with at least one edge")
    chains, dropped = _twin_chains(g) if twin_symmetry else ([], set())
    # the dropped set is symmetric, so an edge keeps both z variables or none;
    # z[(a, b)] is the name of each live z, formatted once
    z: dict[tuple[int, int], str] = {}
    live_edges = []
    for u, v in g.edges():
        if (u, v) not in dropped:
            z[u, v], z[v, u] = z_name(u, v), z_name(v, u)
            live_edges.append((u, v))
    variables = [Variable("k", INTEGER, 1, None)]
    variables += [Variable(f_name(v), INTEGER, 1, ub) for v in range(g.n)]
    for u, v in live_edges:
        variables.append(Variable(z[u, v], BINARY, 0, 1))
        variables.append(Variable(z[v, u], BINARY, 0, 1))
    masks, neighbors = g.masks, g.neighbors
    nbr = [*map(frozenset, neighbors)]
    # one shared term per vertex and sign, reused by every row
    plus = [(1, f_name(w)) for w in range(g.n)].__getitem__
    minus = [(-1, f_name(w)) for w in range(g.n)].__getitem__
    constraints: list[Constraint] = []
    for u, v in live_edges:
        # f(N(a)) - f(N(b)) with the common neighbors cancelled
        nu, nv = nbr[u], nbr[v]
        only_u = sorted(nu - nv)
        only_v = sorted(nv - nu)
        for a, b, pos, neg in ((u, v, only_u, only_v), (v, u, only_v, only_u)):
            m = 1 + len(pos) * ub - len(neg)  # M_ab
            terms = (*map(plus, pos), *map(minus, neg), (m, z[a, b]))
            constraints.append(Constraint(f"c_z_{a}_{b}", terms, "<=", m - 1))
        constraints.append(
            Constraint(f"c_pair_{u}_{v}", ((1, z[u, v]), (1, z[v, u])), "=", 1)
        )
    for v in range(g.n):
        constraints.append(
            Constraint(f"c_link_v{v}", ((1, f_name(v)), (-1, "k")), "<=", 0)
        )
    if valid_inequalities:
        # z(v,w) + z(w,u) <= 1 for every triple with u,v non-adjacent,
        # w in N(u) and N(u) properly contained in N(v). Containment is read
        # as proper: with N(u) = N(v) the vertices are false twins and the
        # pair of opposite inequalities could clash with the twin chains.
        # The v with N(u) inside N(v) are the common neighbors of N(u); an
        # isolated u has no w and gives no row.
        for u in range(g.n):
            if not neighbors[u]:
                continue
            sup = -1
            for w in neighbors[u]:
                sup &= masks[w]
            for v in iter_bits(sup & ~(masks[u] | 1 << u)):
                if masks[v] == masks[u]:
                    continue
                for w in neighbors[u]:
                    # (v, w) and (w, u) are edges; a dropped z has no name
                    zvw, zwu = z.get((v, w)), z.get((w, u))
                    if zvw is None or zwu is None:
                        continue
                    constraints.append(
                        Constraint(f"c_vi_{u}_{v}_{w}", ((1, zvw), (1, zwu)), "<=", 1)
                    )
    constraints += chains
    eliminated = frozenset(z_name(u, v) for u, v in dropped)
    return MilpModel(variables, ((1, "k"),), constraints, eliminated)


# ---------------------------------------------------------------------------
# LP text output


class _TermText(dict):
    """Each distinct (coef, var) term as "+ var", "- var", "+ 3 var" or
    "- 3 var", formatted on first use."""

    def __missing__(self, term: tuple[int, str]) -> str:
        coef, var = term
        sign = "- " if coef < 0 else "+ "
        text = self[term] = sign + var if abs(coef) == 1 else f"{sign}{abs(coef)} {var}"
        return text


def _wrap(items: Sequence[str], head: str, indent: str) -> list[str]:
    """Lines of _WRAP_TERMS items each, the first after `head` and the rest
    after `indent`."""
    return [
        (indent if i else head) + " ".join(items[i:i + _WRAP_TERMS])
        for i in range(0, len(items), _WRAP_TERMS)
    ]


def write_lp(model: MilpModel) -> str:
    """Serialize to CPLEX LP format (Minimize / Subject To / Bounds /
    Generals / Binaries / End); deterministic, one model per file."""
    term = _TermText().__getitem__
    lines = []
    objective = Constraint("obj", model.objective, "", 0)
    for header, rows in (("Minimize", (objective,)), ("Subject To", model.constraints)):
        lines.append(header)
        for name, terms, relation, rhs in rows:
            # the objective has no relation; the first term drops a leading "+ "
            parts = [*map(term, terms)]
            if relation:
                parts.append(f"{relation} {rhs}")
            if len(parts) <= _WRAP_TERMS:
                lines.append(f" {name}: " + " ".join(parts).removeprefix("+ "))
            else:
                parts[0] = parts[0].removeprefix("+ ")
                lines += _wrap(parts, f" {name}: ", "    ")
    lines.append("Bounds")
    for var in model.variables:
        if var.kind != INTEGER:
            continue
        if var.upper is None:
            lines.append(f" {var.lower} <= {var.name}")
        else:
            lines.append(f" {var.lower} <= {var.name} <= {var.upper}")
    for header, kind in (("Generals", INTEGER), ("Binaries", BINARY)):
        names = [v.name for v in model.variables if v.kind == kind]
        if names:
            lines.append(header)
            lines += _wrap(names, " ", " ")
    lines.append("End\n")
    return "\n".join(lines)


def model_counts(model: MilpModel) -> dict[str, int]:
    return {
        "integer_variables": sum(1 for v in model.variables if v.kind == INTEGER),
        "binary_variables": sum(1 for v in model.variables if v.kind == BINARY),
        "constraints": len(model.constraints),
        "eliminated_variables": len(model.eliminated_variables),
    }
