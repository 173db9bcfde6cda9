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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .graph import (
    FALSE_TWINS,
    TRUE_TWINS,
    Graph,
    TwinPartition,
    iter_bits,
)

INTEGER = "integer"
BINARY = "binary"

_WRAP_TERMS = 20


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lower: int
    upper: int | None


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, str], ...]
    relation: str  # "<=", "=" or ">="
    rhs: int


@dataclass
class MilpModel:
    variables: list[Variable]
    objective: tuple[tuple[int, str], ...]
    constraints: list[Constraint]
    eliminated_variables: set[str] = field(default_factory=set)

    def active_variables(self) -> list[Variable]:
        return [v for v in self.variables if v.name not in self.eliminated_variables]

    def is_active(self, name: str) -> bool:
        return name not in self.eliminated_variables

    def remove_variables(self, names: Iterable[str]) -> int:
        """Eliminate variables and drop every constraint mentioning them;
        returns the number of constraints dropped."""
        doomed = set(names)
        self.eliminated_variables |= doomed
        before = len(self.constraints)
        self.constraints = [
            c for c in self.constraints
            if not any(var in doomed for _, var in c.terms)
        ]
        return before - len(self.constraints)


def f_name(v: int) -> str:
    return f"f_v{v}"


def z_name(u: int, v: int) -> str:
    return f"z_{u}_{v}"


def big_m(g: Graph, u: int, v: int, ub: int) -> int:
    """M_uv = 1 + |N(u)\\N(v)|*UB - |N(v)\\N(u)| for an ordered edge (u,v)."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    if ub < 1:
        raise ValueError(f"UB must be >= 1, got {ub}")
    only_u = (g.masks[u] & ~g.masks[v]).bit_count()
    only_v = (g.masks[v] & ~g.masks[u]).bit_count()
    return 1 + only_u * ub - only_v


def _sum_difference_terms(g: Graph, u: int, v: int) -> list[tuple[int, str]]:
    # f(N(u)) - f(N(v)) with the common neighbors cancelled
    only_u = g.masks[u] & ~g.masks[v]
    only_v = g.masks[v] & ~g.masks[u]
    terms = [(1, f_name(w)) for w in iter_bits(only_u)]
    terms += [(-1, f_name(w)) for w in iter_bits(only_v)]
    return terms


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
    variables = [Variable("k", INTEGER, 1, None)]
    variables += [Variable(f_name(v), INTEGER, 1, ub) for v in range(g.n)]
    for u, v in g.edges():
        variables.append(Variable(z_name(u, v), BINARY, 0, 1))
        variables.append(Variable(z_name(v, u), BINARY, 0, 1))
    constraints: list[Constraint] = []
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            m = big_m(g, a, b, ub)
            terms = _sum_difference_terms(g, a, b) + [(m, z_name(a, b))]
            constraints.append(Constraint(f"c_z_{a}_{b}", tuple(terms), "<=", m - 1))
        constraints.append(
            Constraint(
                f"c_pair_{u}_{v}",
                ((1, z_name(u, v)), (1, z_name(v, u))),
                "=",
                1,
            )
        )
    for v in range(g.n):
        constraints.append(
            Constraint(f"c_link_v{v}", ((1, f_name(v)), (-1, "k")), "<=", 0)
        )
    model = MilpModel(variables, ((1, "k"),), constraints)
    if valid_inequalities:
        add_valid_inequalities(model, g)
    if twin_symmetry:
        from .graph import twin_refined_partition

        add_twin_symmetry_breaking(model, g, twin_refined_partition(g))
    return model


def add_valid_inequalities(model: MilpModel, g: Graph) -> int:
    """z(v,w) + z(w,u) <= 1 for every triple with u,v non-adjacent,
    w in N(u) and N(u) properly contained in N(v).

    Containment is read as proper: with N(u) = N(v) the vertices are false
    twins and the pair of opposite inequalities could clash with the
    symmetry-breaking chains. Triples touching eliminated variables are
    skipped. Returns the number of inequalities added.
    """
    added = 0
    for u in range(g.n):
        for v in range(g.n):
            if u == v or g.masks[u] >> v & 1:
                continue
            if g.masks[u] & ~g.masks[v]:
                continue
            if g.masks[u] == g.masks[v]:
                continue
            for w in g.neighbors[u]:
                zvw, zwu = z_name(v, w), z_name(w, u)
                if not (model.is_active(zvw) and model.is_active(zwu)):
                    continue
                model.constraints.append(
                    Constraint(
                        f"c_vi_{u}_{v}_{w}",
                        ((1, zvw), (1, zwu)),
                        "<=",
                        1,
                    )
                )
                added += 1
    return added


@dataclass(frozen=True)
class TwinSymmetrySummary:
    chains_added: int
    variables_removed: int
    constraints_removed: int


def add_twin_symmetry_breaking(
    model: MilpModel, g: Graph, partition: TwinPartition
) -> TwinSymmetrySummary:
    """Chain inequalities per twin class plus z-variable elimination.

    False twins v_1..v_t: f(v_i) <= f(v_{i+1}), and z(u, v_i), z(v_i, u)
    disappear for i >= 2 and u in N(v_1). True twins: f(v_i) <= f(v_{i+1})-1,
    and z(v_i, v_j) disappears for i, j >= 2, i != j. Every constraint
    mentioning a removed variable is dropped; the optimum is unchanged.
    """
    _check_partition(g, partition)
    chains = 0
    doomed: set[str] = set()
    for cls in partition.multi_classes():
        verts = cls.vertices
        step = -1 if cls.kind == TRUE_TWINS else 0
        for a, b in zip(verts, verts[1:]):
            model.constraints.append(
                Constraint(
                    f"c_chain_{a}_{b}",
                    ((1, f_name(a)), (-1, f_name(b))),
                    "<=",
                    step,
                )
            )
            chains += 1
        if cls.kind == FALSE_TWINS:
            for vi in verts[1:]:
                for u in g.neighbors[verts[0]]:
                    doomed.add(z_name(u, vi))
                    doomed.add(z_name(vi, u))
        else:
            for vi in verts[1:]:
                for vj in verts[1:]:
                    if vi != vj:
                        doomed.add(z_name(vi, vj))
    removed_rows = model.remove_variables(doomed)
    return TwinSymmetrySummary(chains, len(doomed), removed_rows)


def _check_partition(g: Graph, partition: TwinPartition) -> None:
    seen: set[int] = set()
    for cls in partition.classes:
        for v in cls.vertices:
            if v in seen or not 0 <= v < g.n:
                raise ValueError("partition does not partition the vertex set")
            seen.add(v)
        if len(cls.vertices) >= 2:
            first = cls.vertices[0]
            for v in cls.vertices[1:]:
                if cls.kind == TRUE_TWINS and g.closed_mask(v) != g.closed_mask(first):
                    raise ValueError(f"vertices {first},{v} are not true twins")
                if cls.kind == FALSE_TWINS and g.masks[v] != g.masks[first]:
                    raise ValueError(f"vertices {first},{v} are not false twins")
    if len(seen) != g.n:
        raise ValueError("partition does not cover the vertex set")


# ---------------------------------------------------------------------------
# LP text output


def _format_terms(terms: Sequence[tuple[int, str]]) -> list[str]:
    parts: list[str] = []
    for idx, (coef, var) in enumerate(terms):
        if idx == 0:
            if coef == 1:
                parts.append(var)
            elif coef == -1:
                parts.append(f"- {var}")
            else:
                parts.append(f"{coef} {var}" if coef >= 0 else f"- {-coef} {var}")
            continue
        sign = "+" if coef >= 0 else "-"
        mag = abs(coef)
        parts.append(f"{sign} {var}" if mag == 1 else f"{sign} {mag} {var}")
    return parts


def write_lp(model: MilpModel) -> str:
    """Serialize to CPLEX LP format (Minimize / Subject To / Bounds /
    Generals / Binaries / End); deterministic, one model per file."""
    lines = ["Minimize"]
    lines.append(" obj: " + " ".join(_format_terms(model.objective)))
    lines.append("Subject To")
    for c in model.constraints:
        parts = _format_terms(c.terms)
        rel = "<=" if c.relation == "<=" else (">=" if c.relation == ">=" else "=")
        body = f" {c.name}:"
        chunks = [body]
        count = 0
        for p in parts:
            chunks.append(p)
            count += 1
            if count % _WRAP_TERMS == 0:
                lines.append(" ".join(chunks))
                chunks = ["   "]
        chunks.append(f"{rel} {c.rhs}")
        lines.append(" ".join(chunks))
    lines.append("Bounds")
    for var in model.active_variables():
        if var.kind != INTEGER:
            continue
        if var.upper is None:
            lines.append(f" {var.lower} <= {var.name}")
        else:
            lines.append(f" {var.lower} <= {var.name} <= {var.upper}")
    generals = [v.name for v in model.active_variables() if v.kind == INTEGER]
    if generals:
        lines.append("Generals")
        for chunk in _wrap_names(generals):
            lines.append(" " + chunk)
    binaries = [v.name for v in model.active_variables() if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for chunk in _wrap_names(binaries):
            lines.append(" " + chunk)
    lines.append("End")
    return "\n".join(lines) + "\n"


def _wrap_names(names: Sequence[str]) -> list[str]:
    return [
        " ".join(names[i:i + _WRAP_TERMS]) for i in range(0, len(names), _WRAP_TERMS)
    ]


def model_counts(model: MilpModel) -> dict[str, int]:
    active = model.active_variables()
    return {
        "integer_variables": sum(1 for v in active if v.kind == INTEGER),
        "binary_variables": sum(1 for v in active if v.kind == BINARY),
        "constraints": len(model.constraints),
        "eliminated_variables": len(model.eliminated_variables),
    }
