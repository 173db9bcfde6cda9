"""The one proof rule behind every eta that `acp solve`, `acp sweep` and
`acp family` print. `prove` applies it to one graph, in this order, and
stops at the first fault, whose kind it names:

1. the bounds' lower bound lb stands on one of their witnesses, which
   `proves_lower` re-checks from the graph alone (lb <= min(n, 1) needs
   none), else `lower`;
2. lb <= ub, else `crossed`;
3. eta and its labeling come from the first of: the caller's construction
   (`acp family`), whose eta must lie in [lb, ub], else `upper`; the
   bounds' construction on a pinch (lb = ub); `solver.eta_exact` over
   [lb, ub], which ends in `budget` when the node budget runs out, or in
   `upper` when it refutes every k up to ub;
4. `proves_eta` accepts that labeling for eta, else `labeling`.

The refutations in [lb, eta) rest on the search, or on the closed form.
Step 4 is the searches' one check; every check is a plain `if`, which
`python -O` keeps. The other layers are called through their modules, so a
wrapper set on a module attribute sees every call.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import bounds as _bounds
from . import graph as _graph
from . import solver as _solver
from .graph import Graph, Labeling


class Proof(NamedTuple):
    """What `prove` found: a proof if `fault` is None, else its kind and the fields so far."""

    eta: Optional[int]  # proven, or claimed (None until a layer names it)
    layer: str  # what decides eta: "construction", "formula" (a pinch) or "solver"
    labeling: Optional[Labeling]
    witness: Optional[tuple[str, object]]  # the first report witness showing lb
    report: _bounds.BoundsReport
    nodes: int  # of the search, 0 without one
    fault: Optional[str]


def prove(g: Graph, budget: int, construction: Optional[tuple[int, Labeling]] = None) -> Proof:
    """eta(g) by the module's rule, with `budget` search nodes at most;
    `construction` is a claimed (eta, labeling) that replaces the search."""
    report = _bounds.combined_bounds(g)
    lb, ub = report.eta_lower, report.eta_upper
    if construction is not None:
        layer, (eta, labeling) = "construction", construction
    elif lb == ub:
        layer, eta, labeling = "formula", lb, report.labeling
    else:
        layer, eta, labeling = "solver", None, None
    witness, nodes = None, 0

    def found(fault: Optional[str]) -> Proof:
        return Proof(eta, layer, labeling, witness, report, nodes, fault)

    if lb > min(g.n, 1):
        witness = next((w for w in report.witnesses if proves_lower(g, (w,), lb)), None)
        if witness is None:
            return found("lower")
    if lb > ub:
        return found("crossed")
    if construction is not None:
        if not lb <= eta <= ub:
            return found("upper")
    elif labeling is None:
        result = _solver.eta_exact(g, lb, ub, node_budget=budget)
        nodes = result.stats.nodes
        if result.status == _solver.BUDGET_EXCEEDED:
            return found("budget")
        eta, labeling = result.value, result.certificate
        if result.status == _solver.UB_EXCEEDED:
            return found("upper")
    return found(None if proves_eta(g, labeling, eta) else "labeling")


def resolve(g: Graph, budget: int) -> Optional[int]:
    """eta by a search from 1 to the degree bound, which trusts no other bound; None past budget."""
    result = _solver.eta_exact(g, 1, node_budget=budget)
    return result.value if result.ok else None


def proves_eta(g: Graph, f: Labeling | None, eta: int) -> bool:
    """True iff `f` exists, has largest label exactly `eta` and is an additive
    coloring of `g`: the one rule by which a labeling backs a printed eta."""
    return f is not None and f.k == eta and _graph.verify_additive_coloring(g, f)


def proves_lower(g: Graph, witnesses: Iterable[tuple[str, object]], lb: int) -> bool:
    """True iff one of `witnesses` (as in `BoundsReport.witnesses`) shows
    eta(g) >= lb, re-checked from `g` alone; lb <= min(n, 1) needs none.
    `equal_degree_edge` shows 2 (all ones fails on it), `true_twins` their
    number (their sums differ only by their own labels), and `clique` Q
    ceil((d1 + 1) / (d2 - |Q| + 2)) for its least and largest degrees d1,
    d2. Other kinds and malformed witnesses show nothing, without raising."""
    if lb <= min(g.n, 1):
        return True
    masks, deg = g.masks, g.degrees()
    for witness in witnesses:
        kind, members = witness if isinstance(witness, tuple) and len(witness) == 2 else ("", ())
        if kind == "equal_degree_edge":
            if lb <= 2 and any(deg[u] == deg[v] for u, nb in enumerate(g.neighbors) for v in nb):
                return True
        # the other two kinds name a non-empty tuple of distinct vertices
        elif (kind in ("true_twins", "clique") and isinstance(members, tuple) and members
              and all(type(v) is int and 0 <= v < g.n for v in members)
              and len(set(members)) == len(members)):
            together = sum(1 << v for v in members)
            closed = [masks[v] | 1 << v for v in members]
            if kind == "true_twins":
                if len(members) >= lb and len(set(closed)) == 1:
                    return True
            elif all(c & together == together for c in closed):
                d = [deg[v] for v in members]
                if -(-(min(d) + 1) // (max(d) - len(d) + 2)) >= lb:
                    return True
    return False

