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

The model is built in one pass and held as its rendered rows: each row is
LP text, formatted once from the graph, and `write_lp` only joins the
sections. A row has no use here but to be written, and a structured row
(one object per term) cost more memory and time than the text it became;
`tests/oracles.py::read_lp` reads the text back when a test needs terms.
With twin symmetry breaking, the z variables that the twin chains make
redundant are decided first, and neither they nor any row mentioning them
is ever emitted; the model lists them in `eliminated_variables` for
reporting only. Row order: the z and pairing rows per edge, the k links,
the valid inequalities, the chains. Each live edge lists N(u)\\N(v) and
N(v)\\N(u) once, as sorted set differences of per-model frozensets of the
neighbor tuples, and builds both z rows from them, with their f terms taken
from two per-model tables, "+ f_v{w}" and "- f_v{w}" per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, iter_bits, twin_refined_partition

_WRAP_TERMS = 20


@dataclass
class MilpModel:
    n: int  # the integers are k >= 1 and f_v0 .. f_v{n-1} in [1, ub]
    ub: int
    constraints: list[str]  # one LP text per row, wrapped rows included
    binaries: list[str]  # the live z names in column order
    # z variables made redundant by the twin chains; none of them appears
    # in `binaries` or in any row
    eliminated_variables: frozenset[str]


def _wrap(parts: list[str], indent: str) -> str:
    """`parts` joined by spaces, with a line break and then `indent` in
    place of every _WRAP_TERMS-th space; the list is consumed."""
    for i in range(_WRAP_TERMS - 1, len(parts) - 1, _WRAP_TERMS):
        parts[i] += "\n" + indent[1:]  # the join adds the indent's last space
    return " ".join(parts)


def _twin_chains(g: Graph) -> tuple[list[str], set[tuple[int, int]]]:
    """Chain rows per twin class, and the ordered edges (u, v) whose z
    variables they make redundant.

    A class (gap, v_1..v_t) gives f(v_i) - f(v_{i+1}) <= -gap. False twins
    (gap 0): z(u, v_i), z(v_i, u) are dropped for i >= 2 and u in N(v_1).
    True twins (gap 1): z(v_i, v_j) is dropped for i, j >= 2, i != j. The
    dropped set is symmetric (z(u, v) goes exactly when z(v, u) does) and
    the optimum is unchanged.
    """
    chains: list[str] = []
    dropped: set[tuple[int, int]] = set()
    for gap, verts in twin_refined_partition(g):
        chains += [
            f" c_chain_{a}_{b}: f_v{a} - f_v{b} <= {-gap}" for a, b in zip(verts, verts[1:])
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
    masks, neighbors = g.masks, g.neighbors
    nbr = [*map(frozenset, neighbors)]
    # one text per vertex and sign, shared by every row
    plus = [f"+ f_v{w}" for w in range(g.n)].__getitem__
    minus = [f"- f_v{w}" for w in range(g.n)].__getitem__
    rows: list[str] = []
    binaries: list[str] = []
    for u, v in g.edges():
        # the dropped set is symmetric, so an edge keeps both z or neither
        if (u, v) in dropped:
            continue
        zuv, zvu = f"z_{u}_{v}", f"z_{v}_{u}"
        binaries += (zuv, zvu)
        # f(N(a)) - f(N(b)) with the common neighbors cancelled
        nu, nv = nbr[u], nbr[v]
        only_u = sorted(nu - nv)
        only_v = sorted(nv - nu)
        for a, b, zab, pos, neg in ((u, v, zuv, only_u, only_v), (v, u, zvu, only_v, only_u)):
            m = 1 + len(pos) * ub - len(neg)  # M_ab
            sign, size = ("- ", -m) if m < 0 else ("+ ", m)
            zterm = sign + zab if size == 1 else f"{sign}{size} {zab}"
            parts = [*map(plus, pos), *map(minus, neg), zterm, f"<= {m - 1}"]
            # pos holds b, so the row opens with "+ f_v..."
            parts[0] = parts[0][2:]
            rows.append(f" c_z_{a}_{b}: " + _wrap(parts, "    "))
        rows.append(f" c_pair_{u}_{v}: {zuv} + {zvu} = 1")
    rows += [f" c_link_v{v}: f_v{v} - k <= 0" for v in range(g.n)]
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
                    # (v, w) and (w, u) are edges; a dropped z has no row
                    if (v, w) not in dropped and (w, u) not in dropped:
                        rows.append(f" c_vi_{u}_{v}_{w}: z_{v}_{w} + z_{w}_{u} <= 1")
    rows += chains
    eliminated = frozenset(f"z_{u}_{v}" for u, v in dropped)
    return MilpModel(g.n, ub, rows, binaries, eliminated)


def write_lp(model: MilpModel) -> str:
    """Serialize to CPLEX LP format (Minimize / Subject To / Bounds /
    Generals / Binaries / End); deterministic, one model per file."""
    labels = [f"f_v{v}" for v in range(model.n)]
    lines = ["Minimize", " obj: k", "Subject To", *model.constraints, "Bounds", " 1 <= k"]
    lines += [f" 1 <= {f} <= {model.ub}" for f in labels]
    lines += ["Generals", " " + _wrap(["k", *labels], " ")]
    if model.binaries:
        lines += ["Binaries", " " + _wrap([*model.binaries], " ")]
    lines.append("End\n")
    return "\n".join(lines)


def model_counts(model: MilpModel) -> dict[str, int]:
    return {
        "integer_variables": model.n + 1,
        "binary_variables": len(model.binaries),
        "constraints": len(model.constraints),
        "eliminated_variables": len(model.eliminated_variables),
    }
