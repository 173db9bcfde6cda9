"""Graph family generators, closed-form additive chromatic numbers, and the
constructive certificate labelings that witness them.

Vertex ordering is fixed per family so the constructions map positionally:

* path/cycle: 0..n-1 along the path/ring;
* complete split: clique 0..q-1, then stable set q..q+s-1;
* fan/wheel/windmill: the joined part keeps its ids, the hub comes last;
* spiders: clique u_1..u_q -> 0..q-1, stable v_1..v_q -> q..2q-1;
* suns: base u_1..u_m -> 0..m-1, rim v_1..v_m -> m..2m-1, wheel hub last;
* complete multipartite: parts in the given (non-increasing) order;
* biregular bipartite: left side 0..n_u-1, right side n_u..n_u+n_v-1.

Where no closed-form labeling is known (paths, complete multipartite), the
certificate falls back to the exact solver; provenance records which route
produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import bounds as _bounds
from . import solver as _solver
from .graph import Graph, Labeling, join, verify_additive_coloring

PROVENANCE_CONSTRUCTION = "construction"
PROVENANCE_SOLVER = "solver"
PROVENANCE_HYBRID = "construction+solver"

KINDS = (
    "path",
    "cycle",
    "complete",
    "complete-split",
    "fan",
    "wheel",
    "windmill",
    "thin-spider",
    "thick-spider",
    "cycle-sun",
    "wheel-sun",
    "complete-sun",
    "multipartite",
    "regular-bipartite",
    "biregular-bipartite",
    "join-complete",
)


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of a parametrized family instance.

    Canonical text form is "kind:p1,p2,..." (e.g. "cycle:7", "windmill:4,3",
    "multipartite:3,2,2"); joins nest the inner spec after the clique size,
    "join-complete:2:cycle:5".
    """

    kind: str
    params: tuple[int, ...] = ()
    inner: Optional["FamilySpec"] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        _validate(self)

    def text(self) -> str:
        if self.kind == "join-complete":
            return f"join-complete:{self.params[0]}:{self.inner.text()}"
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def parse_spec(text: str) -> FamilySpec:
    """Parse the canonical text form of a FamilySpec."""
    kind, _, rest = text.strip().partition(":")
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r} (known: {', '.join(KINDS)})")
    if kind == "join-complete":
        q_text, _, inner_text = rest.partition(":")
        if not q_text or not inner_text:
            raise ValueError("join-complete takes 'join-complete:q:inner-spec'")
        return FamilySpec(kind, (int(q_text),), parse_spec(inner_text))
    try:
        params = tuple(int(p) for p in rest.split(",") if p != "")
    except ValueError as exc:
        raise ValueError(f"bad parameters in family spec {text!r}") from exc
    return FamilySpec(kind, params)


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _validate(spec: FamilySpec) -> None:
    kind, p = spec.kind, spec.params
    _need(kind in KINDS, f"unknown family kind {kind!r}")
    if kind == "join-complete":
        _need(len(p) == 1, "join-complete takes one parameter q")
        _need(spec.inner is not None, "join-complete needs an inner spec")
        q = p[0]
        inner_g = generate(spec.inner)
        limit = inner_g.n - inner_g.max_degree() - 1
        _need(1 <= q <= limit,
              f"join with K_q needs 1 <= q <= n - max_degree - 1 = {limit}, got q={q}")
        return
    _need(spec.inner is None, f"{kind} takes no inner spec")
    if kind == "multipartite":
        _need(len(p) >= 1, "multipartite needs at least one part")
        _need(all(x >= 1 for x in p), "part sizes must be >= 1")
        _need(all(p[i] >= p[i + 1] for i in range(len(p) - 1)),
              "part sizes must be non-increasing")
        return
    if kind == "regular-bipartite":
        _need(len(p) == 2, "regular-bipartite takes (side size, degree)")
        n, d = p
        _need(n >= 1 and 1 <= d <= n, f"need 1 <= degree <= side size, got {p}")
        return
    if kind == "biregular-bipartite":
        _need(len(p) == 3, "biregular-bipartite takes (n_u, n_v, d_u)")
        nu, nv, du = p
        _need(nu >= 1 and nv >= 1, "side sizes must be >= 1")
        _need(1 <= du <= nv, f"need 1 <= d_u <= n_v, got {p}")
        _need(nu * du % nv == 0,
              f"right-side degree n_u*d_u/n_v must be an integer, got {p}")
        # some orientation satisfies d(2-side) < 2*d(1-side); with two
        # positive degrees at least one direction always does
        dv = nu * du // nv
        _need(du < 2 * dv or dv < 2 * du, f"no side qualifies for the 2/1 labeling, got {p}")
        return
    if kind == "complete-split":
        _need(len(p) == 2, "complete-split takes (clique size, stable size)")
        q, s = p
        _need(q >= 1, "clique size must be >= 1")
        _need(s >= 2, "stable size must be >= 2")
        return
    if kind == "windmill":
        _need(len(p) == 2, "windmill takes (n, m)")
        n, m = p
        _need(n >= 3 and m >= 2, f"windmill needs n >= 3 and m >= 2, got {p}")
        return
    _need(len(p) == 1, f"{kind} takes one parameter")
    v = p[0]
    minima = {
        "path": 1, "cycle": 3, "complete": 1, "fan": 3, "wheel": 4,
        "thin-spider": 2, "thick-spider": 2,
        "cycle-sun": 4, "wheel-sun": 4, "complete-sun": 3,
    }
    _need(v >= minima[kind], f"{kind} needs parameter >= {minima[kind]}, got {v}")


# ---------------------------------------------------------------------------
# generators


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _empty(n: int) -> Graph:
    return Graph.from_edges(n, [])


def _disjoint_cliques(size: int, copies: int) -> Graph:
    edges = []
    for c in range(copies):
        base = c * size
        edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
    return Graph.from_edges(size * copies, edges)


def _spider(q: int, thin: bool) -> Graph:
    edges = [(i, j) for i in range(q) for j in range(i + 1, q)]
    for i in range(q):
        if thin:
            edges.append((i, q + i))
        else:
            edges += [(i, q + j) for j in range(q) if j != i]
    return Graph.from_edges(2 * q, edges)


def _sun_edges(m: int) -> list[tuple[int, int]]:
    # v_i (index m+i) hangs on u_i and u_{i+1}; equivalently each u_i is
    # adjacent to v_{i-1} and v_i, indices mod m
    edges = []
    for i in range(m):
        edges.append((i, m + i))
        edges.append(((i + 1) % m, m + i))
    return edges


def _cycle_sun(m: int) -> Graph:
    edges = [(i, (i + 1) % m) for i in range(m)] + _sun_edges(m)
    return Graph.from_edges(2 * m, edges)


def _wheel_sun(m: int) -> Graph:
    hub = 2 * m
    edges = [(i, (i + 1) % m) for i in range(m)] + _sun_edges(m)
    edges += [(i, hub) for i in range(m)]
    return Graph.from_edges(2 * m + 1, edges)


def _complete_sun(m: int) -> Graph:
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)] + _sun_edges(m)
    return Graph.from_edges(2 * m, edges)


def _multipartite(parts: tuple[int, ...]) -> Graph:
    starts = [0]
    for p in parts:
        starts.append(starts[-1] + p)
    n = starts[-1]
    edges = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            edges += [
                (u, v)
                for u in range(starts[a], starts[a + 1])
                for v in range(starts[b], starts[b + 1])
            ]
    return Graph.from_edges(n, edges)


def _biregular(nu: int, nv: int, du: int) -> Graph:
    # consecutive wrap-around intervals of length d_u tile Z_nv evenly, so
    # every right vertex ends up with degree n_u*d_u/n_v
    edges = []
    for i in range(nu):
        for j in range(du):
            edges.append((i, nu + (i * du + j) % nv))
    return Graph.from_edges(nu + nv, edges)


def generate(spec: FamilySpec) -> Graph:
    """Build the family instance with its documented vertex ordering."""
    kind, p = spec.kind, spec.params
    if kind == "path":
        return _path(p[0])
    if kind == "cycle":
        return _cycle(p[0])
    if kind == "complete":
        return _complete(p[0])
    if kind == "complete-split":
        return join(_complete(p[0]), _empty(p[1]))
    if kind == "fan":
        return join(_path(p[0] + 1), _complete(1))
    if kind == "wheel":
        return join(_cycle(p[0]), _complete(1))
    if kind == "windmill":
        n, m = p
        return join(_disjoint_cliques(n - 1, m), _complete(1))
    if kind == "thin-spider":
        return _spider(p[0], thin=True)
    if kind == "thick-spider":
        return _spider(p[0], thin=False)
    if kind == "cycle-sun":
        return _cycle_sun(p[0])
    if kind == "wheel-sun":
        return _wheel_sun(p[0])
    if kind == "complete-sun":
        return _complete_sun(p[0])
    if kind == "multipartite":
        return _multipartite(p)
    if kind == "regular-bipartite":
        return _biregular(p[0], p[0], p[1])
    if kind == "biregular-bipartite":
        return _biregular(*p)
    if kind == "join-complete":
        return join(generate(spec.inner), _complete(p[0]))
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# closed-form values


def eta_of_join_with_complete(
    inner_eta: int, inner_n: int, inner_max_degree: int, q: int
) -> int:
    """eta(G v K_q) = max(eta(G), q), valid only for q <= n - Delta - 1.

    Outside that range the formula genuinely fails (there is a counterexample
    already at q = n - Delta), so this raises instead of extrapolating.
    """
    limit = inner_n - inner_max_degree - 1
    if not 1 <= q <= limit:
        raise ValueError(
            f"join formula needs 1 <= q <= n - max_degree - 1 = {limit}, got q={q}"
        )
    return max(inner_eta, q)


def eta_formula(spec: FamilySpec) -> int:
    """Closed-form additive chromatic number of the family instance."""
    kind, p = spec.kind, spec.params
    if kind == "path":
        n = p[0]
        return 1 if n in (1, 3) else 2
    if kind == "cycle":
        return 2 if p[0] % 2 == 0 else 3
    if kind == "complete":
        return p[0]
    if kind == "complete-split":
        return p[0]
    if kind == "fan":
        return 2
    if kind == "wheel":
        return 2 if p[0] % 2 == 0 else 3
    if kind == "windmill":
        return p[0] - 1
    if kind in ("thin-spider", "thick-spider"):
        return math.ceil((p[0] + 1) / 2)
    if kind in ("cycle-sun", "wheel-sun"):
        return 2
    if kind == "complete-sun":
        return math.ceil((p[0] + 2) / 3)
    if kind == "multipartite":
        return _bounds.multipartite_eta(p)
    if kind in ("regular-bipartite", "biregular-bipartite"):
        du, dv = _side_degrees(spec)
        return 1 if du != dv else 2
    if kind == "join-complete":
        inner_g = generate(spec.inner)
        return eta_of_join_with_complete(
            eta_formula(spec.inner), inner_g.n, inner_g.max_degree(), p[0]
        )
    raise AssertionError(kind)


def _side_degrees(spec: FamilySpec) -> tuple[int, int]:
    if spec.kind == "regular-bipartite":
        n, d = spec.params
        return d, d
    nu, nv, du = spec.params
    return du, nu * du // nv


# ---------------------------------------------------------------------------
# certificate labelings


def _odd_cycle_labeling(n: int) -> Labeling:
    if n == 3:
        return Labeling((1, 2, 3))
    labs = [0] * n
    labs[0], labs[1], labs[2], labs[3], labs[4] = 2, 1, 3, 1, 1
    for i in range(6, n + 1):  # 1-based positions 6..n
        labs[i - 1] = 1 if i % 2 == 0 else 3
    return Labeling(tuple(labs))


def _cycle_labeling(n: int) -> Labeling:
    if n % 2 == 0:
        return Labeling(tuple(2 if i % 2 == 0 else 1 for i in range(n)))
    return _odd_cycle_labeling(n)


def split_labeling(g: Graph, clique: tuple[int, ...], stable: tuple[int, ...]) -> Labeling:
    """Constructive additive (|Q|-|T|+1)-coloring of a split graph.

    Q must be maximal; T picks one clique vertex per distinct degree. The
    non-T clique vertices get labels 1..|Q|-|T| and everything else gets
    |Q|-|T|+1.
    """
    t = set(_bounds.max_degree_distinct_subset(g, clique))
    top = len(clique) - len(t) + 1
    labels = [top] * g.n
    nxt = 1
    for v in sorted(clique):
        if v not in t:
            labels[v] = nxt
            nxt += 1
    return Labeling(tuple(labels))


def _complete_split_labeling(q: int, s: int) -> Labeling:
    # re-partition with the first stable vertex moved into the clique, then
    # apply the split construction with T = {last clique vertex, moved vertex}
    labels = [q] * (q + s)
    for i in range(q - 1):
        labels[i] = i + 1
    return Labeling(tuple(labels))


def _thin_spider_labeling(q: int) -> Labeling:
    if q == 2:
        return Labeling((1, 1, 1, 2))
    r = math.ceil((q + 1) / 2)
    fu = [0] * (q + 1)
    fv = [0] * (q + 1)
    for i in range(1, r + 1):
        fu[i] = r - i + 1
        fv[i] = 1
    for i in range(r + 1, q + 1):
        fu[i] = q - i + 1
        fv[i] = (q + 1) // 2
    return Labeling(tuple(fu[1:] + fv[1:]))


def _thick_spider_labeling(q: int) -> Labeling:
    if q == 2:
        # thick order 2 is the thin order 2 with the stable vertices swapped
        return Labeling((1, 1, 2, 1))
    r = math.ceil((q + 1) / 2)
    fu = [0] * (q + 1)
    fv = [0] * (q + 1)
    for i in range(1, r + 1):
        fu[i] = i
        fv[i] = 1
    for i in range(r + 1, q + 1):
        fu[i] = r
        fv[i] = i - r + 1
    return Labeling(tuple(fu[1:] + fv[1:]))


def _cycle_sun_labeling(m: int) -> tuple[list[int], list[int]]:
    fu = [2 if i % 2 == 1 else 1 for i in range(1, m + 1)]
    fv = [1] * m
    if m % 2 == 1:
        fv[0] = 2
    return fu, fv


def _wheel_sun_labeling(m: int) -> Labeling:
    if m == 5:
        fu = [1, 1, 2, 1, 2]
        fv = [2, 2, 2, 1, 1]
        return Labeling(tuple(fu + fv + [2]))
    fu, fv = _cycle_sun_labeling(m)
    return Labeling(tuple(fu + fv + [1]))


def _complete_sun_labeling(m: int) -> Labeling:
    r = math.ceil((m + 2) / 3)
    # permutation p on [m] and its inverse q: p(1)=1, p(j)=j/2+1 for even j,
    # p(j)=m-(j-3)/2 for odd j >= 3
    p = [0] * (m + 1)
    p[1] = 1
    for j in range(2, m + 1, 2):
        p[j] = j // 2 + 1
    for j in range(3, m + 1, 2):
        p[j] = m - (j - 3) // 2
    q = [0] * (m + 1)
    q[1] = 1
    for i in range(2, m // 2 + 2):
        q[i] = 2 * (i - 1)
    for i in range(m // 2 + 2, m + 1):
        q[i] = 3 + 2 * (m - i)
    assert all(p[q[i]] == i for i in range(1, m + 1))
    fu = [0] * (m + 1)
    fv = [0] * (m + 1)
    for i in range(1, m + 1):
        if m % 3 == 2 and i == p[m]:
            fu[i] = r
        else:
            fu[i] = q[i] // 3 + 1
    for i in range(1, m + 1):
        if i == 1 or i >= m // 2 + 2:
            fv[i] = r + 1 - math.ceil(q[i] / 3)
        elif m % 6 == 2 and i == p[m]:
            fv[i] = 2
        else:
            fv[i] = r + 1 - math.ceil((q[i] + 2) / 3)
    return Labeling(tuple(fu[1:] + fv[1:]))


def _biregular_labeling(spec: FamilySpec) -> Labeling:
    du, dv = _side_degrees(spec)
    if spec.kind == "regular-bipartite":
        nu = nv = spec.params[0]
    else:
        nu, nv, _ = spec.params
    if du != dv:
        return Labeling((1,) * (nu + nv))
    # the doubled side must satisfy d(u) < 2 d(v) for neighbors v; with equal
    # degrees either side works
    return Labeling((2,) * nu + (1,) * nv)


def _join_labeling(inner: Labeling, q: int) -> Labeling:
    return Labeling(inner.labels + tuple(range(1, q + 1)))


def labeling_with_provenance(spec: FamilySpec) -> tuple[Labeling, str]:
    """Certificate labeling plus how it was obtained.

    Provenance is "construction" for a pure closed-form labeling, "solver"
    for a fallback exact solve (paths, complete multipartite), and
    "construction+solver" for a join construction over a solver-labeled
    inner graph.
    """
    kind, p = spec.kind, spec.params
    if kind in ("path", "multipartite"):
        return _solver_labeling(spec), PROVENANCE_SOLVER
    if kind == "cycle":
        return _cycle_labeling(p[0]), PROVENANCE_CONSTRUCTION
    if kind == "complete":
        return Labeling(tuple(range(1, p[0] + 1))), PROVENANCE_CONSTRUCTION
    if kind == "complete-split":
        return _complete_split_labeling(*p), PROVENANCE_CONSTRUCTION
    if kind == "fan":
        inner, _ = labeling_with_provenance(FamilySpec("path", (p[0] + 1,)))
        return _join_labeling(inner, 1), PROVENANCE_HYBRID
    if kind == "wheel":
        return _join_labeling(_cycle_labeling(p[0]), 1), PROVENANCE_CONSTRUCTION
    if kind == "windmill":
        n, m = p
        blades = tuple(range(1, n)) * m
        return _join_labeling(Labeling(blades), 1), PROVENANCE_CONSTRUCTION
    if kind == "thin-spider":
        return _thin_spider_labeling(p[0]), PROVENANCE_CONSTRUCTION
    if kind == "thick-spider":
        return _thick_spider_labeling(p[0]), PROVENANCE_CONSTRUCTION
    if kind == "cycle-sun":
        fu, fv = _cycle_sun_labeling(p[0])
        return Labeling(tuple(fu + fv)), PROVENANCE_CONSTRUCTION
    if kind == "wheel-sun":
        return _wheel_sun_labeling(p[0]), PROVENANCE_CONSTRUCTION
    if kind == "complete-sun":
        return _complete_sun_labeling(p[0]), PROVENANCE_CONSTRUCTION
    if kind in ("regular-bipartite", "biregular-bipartite"):
        return _biregular_labeling(spec), PROVENANCE_CONSTRUCTION
    if kind == "join-complete":
        inner, prov = labeling_with_provenance(spec.inner)
        out = PROVENANCE_CONSTRUCTION if prov == PROVENANCE_CONSTRUCTION else PROVENANCE_HYBRID
        return _join_labeling(inner, p[0]), out
    raise AssertionError(kind)


def _solver_labeling(spec: FamilySpec) -> Labeling:
    g = generate(spec)
    target = eta_formula(spec)
    result = _solver.eta_exact(g, lb=target, ub=target)
    if not result.ok:
        raise AssertionError(f"solver fallback failed for {spec.text()}")
    return result.certificate


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class EtaCertificate:
    spec: FamilySpec
    eta: int
    labeling: Optional[Labeling]
    provenance: str
    lower_bound_witness: str


def _witness(spec: FamilySpec, eta: int) -> str:
    kind, p = spec.kind, spec.params
    if eta == 1:
        return "every edge joins vertices of different degree (eta = 1)"
    if kind == "complete":
        return f"true-twin class of size {p[0]}"
    if kind == "complete-split":
        return f"true-twin class of size {p[0]} (the dominating clique)"
    if kind == "windmill":
        return f"true-twin class of size {p[0] - 1} (one blade minus the hub)"
    if kind == "thin-spider":
        return f"clique bound ceil((q+1)/2) on the clique of degree-{p[0]} vertices"
    if kind == "thick-spider":
        return "pigeonhole on the clique neighborhood sums"
    if kind == "complete-sun":
        return f"clique bound ceil((m+2)/3) on the base clique of degree-{p[0] + 1} vertices"
    if kind in ("cycle", "wheel") and p[0] % 2 == 1:
        return "odd cycles admit no additive 2-coloring"
    if kind == "multipartite":
        return "optimal monotone orientation of the multipartite digraph"
    if kind == "join-complete":
        q = p[0]
        if q >= eta:
            return f"true-twin class of size {q} (the joined clique)"
        return f"inner graph already needs {eta} labels"
    return "some edge joins vertices of equal degree (eta >= 2)"


def certify(spec: FamilySpec) -> EtaCertificate:
    """Formula value plus a verified certificate labeling and witness."""
    g = generate(spec)
    eta = eta_formula(spec)
    labeling, provenance = labeling_with_provenance(spec)
    if labeling.k != eta or not verify_additive_coloring(g, labeling):
        raise AssertionError(f"certificate failed verification for {spec.text()}")
    return EtaCertificate(spec, eta, labeling, provenance, _witness(spec, eta))
