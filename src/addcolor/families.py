"""Graph family generators, closed-form additive chromatic numbers, and the
constructive certificate labelings that witness them.

Each family is one row of the `_FAMILIES` table, keyed by its kind, and the
row is its whole contract: the parameter rule (`_rule` builds it from the
rule text for a wrong parameter count and predicates with their messages;
only the join, whose limit depends on its inner spec, has its own), the
vertex count, the closed-form edge count and maximum degree, the edge
list, the closed-form eta and the certificate labeling. `KINDS`,
`generate`, `eta_formula`, `certify` and spec validation each look the row
up; only `generate` builds a graph from the edges.
Validation reads only the row: a spec is rejected before any edge list is
built when it breaks the rule (the join's reads its inner spec's maximum
degree), when its vertex count exceeds the graph6 writer's limit, or when
its edge count exceeds `graph.EDGE_LIMIT`.

Vertex ordering is fixed per family so the constructions map positionally:

* path/cycle: 0..n-1 along the path/ring;
* complete split: clique 0..q-1, then stable set q..q+s-1;
* fan/wheel/windmill: the joined part keeps its ids, the hub comes last;
* spiders: clique u_1..u_q -> 0..q-1, stable v_1..v_q -> q..2q-1;
* suns: base u_1..u_m -> 0..m-1, rim v_1..v_m -> m..2m-1, wheel hub last;
* complete multipartite: parts in the given (non-increasing) order;
* biregular bipartite: left side 0..n_u-1, right side n_u..n_u+n_v-1.

Every row labels its instance in closed form, so a certificate runs no
search and `acp family` builds one graph, the one `construction` returns.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from math import comb
from typing import Callable, NamedTuple, Optional

from . import bounds as _bounds
from .graph import EDGE_LIMIT, Graph, Labeling
from .graph6 import WRITER_MAX_N
from .proof import proves_eta


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
        inner = f":{self.inner.text()}" if self.inner else ""
        return f"{self.kind}:{','.join(str(p) for p in self.params)}{inner}"


def parse_spec(text: str) -> FamilySpec:
    """Parse the canonical text form of a FamilySpec."""
    kind, _, rest = text.strip().partition(":")
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r} (known: {', '.join(KINDS)})")
    inner_text = None
    if kind == "join-complete":
        rest, _, inner_text = rest.partition(":")
        if not rest or not inner_text:
            raise ValueError("join-complete takes 'join-complete:q:inner-spec'")
    # plain ASCII digits only, so the text form stays canonical: int() would
    # also take "1_0", "+5", " 5" and non-ASCII digits
    fields = rest.split(",") if rest else []
    if not all(re.fullmatch(r"-?[0-9]+", f) for f in fields):
        raise ValueError(f"bad parameters in family spec {text!r}")
    params = tuple(map(int, fields))
    return FamilySpec(kind, params, parse_spec(inner_text) if inner_text else None)


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _validate(spec: FamilySpec) -> None:
    kind = spec.kind
    _need(kind in KINDS, f"unknown family kind {kind!r}")
    _need(spec.inner is None or kind == "join-complete", f"{kind} takes no inner spec")
    _FAMILIES[kind].rule(spec)
    n, m = _vertex_count(spec), _edge_count(spec)
    _need(n <= WRITER_MAX_N,
          f"{spec.text()} has {n} vertices; family specs allow n <= {WRITER_MAX_N}")
    _need(m <= EDGE_LIMIT, f"{spec.text()} has {m} edges; family specs allow m <= {EDGE_LIMIT}")


def _args(spec: FamilySpec) -> tuple:
    """What a row function takes: the parameters, then a join's inner spec."""
    return spec.params if spec.inner is None else (*spec.params, spec.inner)


def _vertex_count(spec: FamilySpec) -> int:
    return _FAMILIES[spec.kind].size(*_args(spec))


def _edge_count(spec: FamilySpec) -> int:
    return _FAMILIES[spec.kind].edge_count(*_args(spec))


def _max_degree(spec: FamilySpec) -> int:
    return _FAMILIES[spec.kind].max_degree(*_args(spec))


# ---------------------------------------------------------------------------
# parameter rules; none of them builds a graph


def _rule(takes: str, *tests: tuple[Callable[..., bool], str]) -> Callable[[FamilySpec], None]:
    """A row's parameter rule. Each test pairs a predicate over the
    parameters with the message its failure raises, formatted with the kind
    and the parameter tuple `p`; the tests run in order, so a predicate may
    rely on the ones before it. The predicates share one signature, and
    parameters it cannot take raise "<kind> <takes>"."""

    def rule(spec: FamilySpec) -> None:
        p = spec.params
        for test, message in tests:
            try:
                ok = test(*p)
            except TypeError:  # on ints, only a wrong parameter count raises it
                raise ValueError(f"{spec.kind} {takes}") from None
            _need(ok, message.format(kind=spec.kind, p=p))

    return rule


def _one(minimum: int) -> Callable[[FamilySpec], None]:
    """Rule of a one-parameter family whose parameter is >= minimum."""
    return _rule("takes one parameter",
                 (lambda v: v >= minimum, f"{{kind}} needs parameter >= {minimum}, got {{p[0]}}"))


def _join_rule(spec: FamilySpec) -> None:
    _need(len(spec.params) == 1, "join-complete takes one parameter q")
    _need(spec.inner is not None, "join-complete needs an inner spec")
    q = spec.params[0]
    # the inner spec is already checked, and its row gives Delta in closed form
    limit = _vertex_count(spec.inner) - _max_degree(spec.inner) - 1
    # eta(G v K_q) = max(eta(G), q) holds only up to this limit; from
    # q = n - Delta on the formula genuinely fails (there is a counterexample
    # already at q = n - Delta), so such specs are rejected
    _need(1 <= q <= limit,
          f"join with K_q needs 1 <= q <= n - max_degree - 1 = {limit}, got q={q}")


# ---------------------------------------------------------------------------
# edge lists


def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _complete(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _cone(edges: list[tuple[int, int]], n: int, q: int) -> list[tuple[int, int]]:
    # the join of an n-vertex graph with K_q on the ids n..n+q-1
    return edges + [(u, v) for v in range(n, n + q) for u in range(v)]


def _disjoint_cliques(size: int, copies: int) -> list[tuple[int, int]]:
    return [(base + i, base + j) for base in range(0, size * copies, size)
            for i in range(size) for j in range(i + 1, size)]


def _spider(q: int, thin: bool) -> list[tuple[int, int]]:
    edges = _complete(q)
    for i in range(q):
        if thin:
            edges.append((i, q + i))
        else:
            edges += [(i, q + j) for j in range(q) if j != i]
    return edges


def _sun_edges(m: int) -> list[tuple[int, int]]:
    # v_i (index m+i) hangs on u_i and u_{i+1}; equivalently each u_i is
    # adjacent to v_{i-1} and v_i, indices mod m
    return [e for i in range(m) for e in ((i, m + i), ((i + 1) % m, m + i))]


def _multipartite(*parts: int) -> list[tuple[int, int]]:
    # part[v] is the index of v's part; the parts take consecutive ids
    part = [i for i, p in enumerate(parts) for _ in range(p)]
    return [(u, v) for v in range(len(part)) for u in range(v) if part[u] != part[v]]


def _biregular(nu: int, nv: int, du: int) -> list[tuple[int, int]]:
    # consecutive wrap-around intervals of length d_u tile Z_nv evenly, so
    # every right vertex ends up with degree n_u*d_u/n_v
    return [(i, nu + (i * du + j) % nv) for i in range(nu) for j in range(du)]


def _edges(spec: FamilySpec) -> list[tuple[int, int]]:
    """The instance's edges, each listed once, in its vertex ordering."""
    return _FAMILIES[spec.kind].edges(*_args(spec))


def generate(spec: FamilySpec) -> Graph:
    """Build the family instance with its documented vertex ordering."""
    return Graph.from_edges(_vertex_count(spec), _edges(spec))


# ---------------------------------------------------------------------------
# closed-form values


def _join_eta(q: int, inner: FamilySpec) -> int:
    # eta(G v K_q) = max(eta(G), q); `_join_rule` keeps q in range
    return max(eta_formula(inner), q)


def _biregular_eta(nu: int, nv: int, du: int) -> int:
    return 1 if nu * du // nv != du else 2


def eta_formula(spec: FamilySpec) -> int:
    """Closed-form additive chromatic number of the family instance."""
    return _FAMILIES[spec.kind].eta(*_args(spec))


# ---------------------------------------------------------------------------
# certificate labelings


def _path_labeling(n: int) -> Labeling:
    if n in (1, 3):
        return Labeling((1,) * n)
    if n == 2:
        return Labeling((1, 2))
    # a 2 on every fourth vertex makes the interior sums alternate 2, 3, 2,
    # 3; without the shift, n = 2 (mod 4) would tie the last edge's sums
    shift = 1 if n % 4 == 2 else 0
    return Labeling(tuple(2 if (i + shift) % 4 == 0 else 1 for i in range(n)))


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


def _cycle_sun_labels(m: int) -> list[int]:
    fu = [2 if i % 2 == 1 else 1 for i in range(1, m + 1)]
    fv = [1] * m
    if m % 2 == 1:
        fv[0] = 2
    return fu + fv


def _wheel_sun_labeling(m: int) -> Labeling:
    if m == 5:
        fu = [1, 1, 2, 1, 2]
        fv = [2, 2, 2, 1, 1]
        return Labeling(tuple(fu + fv + [2]))
    return Labeling(tuple(_cycle_sun_labels(m) + [1]))


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


def _multipartite_labeling(*parts: int) -> Labeling:
    # part i's labels add up to s_i, so each of its vertices sums to
    # total - s_i, and the s_i strictly decrease; spreading s_i evenly makes
    # the largest label max ceil(s_i / p_i), the formula's value
    labels: list[int] = []
    for p, s in zip(parts, _bounds.multipartite_chain(parts)):
        q, r = divmod(s, p)
        labels += [q + 1] * r + [q] * (p - r)
    return Labeling(tuple(labels))


def _biregular_labeling(nu: int, nv: int, du: int) -> Labeling:
    if nu * du // nv != du:
        return Labeling((1,) * (nu + nv))
    # the doubled side must satisfy d(u) < 2 d(v) for neighbors v; with equal
    # degrees either side works
    return Labeling((2,) * nu + (1,) * nv)


def _join_labeling(inner: Labeling, q: int) -> Labeling:
    return Labeling(inner.labels + tuple(range(1, q + 1)))


def _labeling(spec: FamilySpec) -> Labeling:
    return _FAMILIES[spec.kind].labeling(*_args(spec))


# ---------------------------------------------------------------------------
# the table


def _cycle_eta(n: int) -> int:
    return 2 if n % 2 == 0 else 3


def _spider_eta(q: int) -> int:
    return math.ceil((q + 1) / 2)


class _Family(NamedTuple):
    """One family's whole contract. `rule` takes the spec and raises
    ValueError; the other functions take `_args(spec)`: the vertex count,
    the closed-form edge count and maximum degree, the edge list, the
    formula and the certificate labeling."""

    rule: Callable[[FamilySpec], None]
    size: Callable[..., int]
    edge_count: Callable[..., int]
    max_degree: Callable[..., int]
    edges: Callable[..., list[tuple[int, int]]]
    eta: Callable[..., int]
    labeling: Callable[..., Labeling]


_FAMILIES = {
    "path": _Family(
        _one(1), lambda n: n, lambda n: n - 1, lambda n: min(n - 1, 2), _path,
        lambda n: 1 if n in (1, 3) else 2, _path_labeling),
    "cycle": _Family(
        _one(3), lambda n: n, lambda n: n, lambda n: 2, _cycle, _cycle_eta, _cycle_labeling),
    "complete": _Family(
        _one(1), lambda n: n, lambda n: comb(n, 2), lambda n: n - 1, _complete, lambda n: n,
        lambda n: Labeling(tuple(range(1, n + 1)))),
    "complete-split": _Family(
        _rule("takes (clique size, stable size)",
              (lambda q, s: q >= 1, "clique size must be >= 1"),
              (lambda q, s: s >= 2, "stable size must be >= 2")),
        lambda q, s: q + s, lambda q, s: comb(q, 2) + q * s, lambda q, s: q + s - 1,
        lambda q, s: [(u, v) for v in range(q + s) for u in range(min(v, q))],
        lambda q, s: q, _complete_split_labeling),
    "fan": _Family(
        _one(3), lambda n: n + 2, lambda n: 2 * n + 1, lambda n: n + 1,
        lambda n: _cone(_path(n + 1), n + 1, 1), lambda n: 2,
        lambda n: _join_labeling(_path_labeling(n + 1), 1)),
    "wheel": _Family(
        _one(4), lambda n: n + 1, lambda n: 2 * n, lambda n: n, lambda n: _cone(_cycle(n), n, 1),
        _cycle_eta, lambda n: _join_labeling(_cycle_labeling(n), 1)),
    "windmill": _Family(
        _rule("takes (n, m)",
              (lambda n, m: n >= 3 and m >= 2, "{kind} needs n >= 3 and m >= 2, got {p}")),
        lambda n, m: (n - 1) * m + 1, lambda n, m: m * comb(n, 2), lambda n, m: (n - 1) * m,
        lambda n, m: _cone(_disjoint_cliques(n - 1, m), (n - 1) * m, 1), lambda n, m: n - 1,
        lambda n, m: _join_labeling(Labeling(tuple(range(1, n)) * m), 1)),
    "thin-spider": _Family(
        _one(2), lambda q: 2 * q, lambda q: comb(q, 2) + q, lambda q: q,
        lambda q: _spider(q, thin=True), _spider_eta, _thin_spider_labeling),
    "thick-spider": _Family(
        _one(2), lambda q: 2 * q, lambda q: 3 * comb(q, 2), lambda q: 2 * q - 2,
        lambda q: _spider(q, thin=False), _spider_eta, _thick_spider_labeling),
    "cycle-sun": _Family(
        _one(4), lambda m: 2 * m, lambda m: 3 * m, lambda m: 4,
        lambda m: _cycle(m) + _sun_edges(m), lambda m: 2,
        lambda m: Labeling(tuple(_cycle_sun_labels(m)))),
    "wheel-sun": _Family(
        _one(4), lambda m: 2 * m + 1, lambda m: 4 * m, lambda m: max(m, 5),
        lambda m: _cycle(m) + _sun_edges(m) + [(i, 2 * m) for i in range(m)], lambda m: 2,
        _wheel_sun_labeling),
    "complete-sun": _Family(
        _one(3), lambda m: 2 * m, lambda m: comb(m, 2) + 2 * m, lambda m: m + 1,
        lambda m: _complete(m) + _sun_edges(m), lambda m: math.ceil((m + 2) / 3),
        _complete_sun_labeling),
    "multipartite": _Family(
        _rule("needs at least one part",
              (lambda top, *rest: min((top, *rest)) >= 1, "part sizes must be >= 1"),
              (lambda *p: list(p) == sorted(p, reverse=True),
               "part sizes must be non-increasing")),
        lambda *p: sum(p), lambda *p: comb(sum(p), 2) - sum(comb(x, 2) for x in p),
        lambda *p: sum(p) - p[-1],
        _multipartite, lambda *p: _bounds.multipartite_eta(p), _multipartite_labeling),
    "regular-bipartite": _Family(
        _rule("takes (side size, degree)",
              (lambda n, d: n >= 1 and 1 <= d <= n, "need 1 <= degree <= side size, got {p}")),
        lambda n, d: 2 * n, lambda n, d: n * d, lambda n, d: d, lambda n, d: _biregular(n, n, d),
        lambda n, d: _biregular_eta(n, n, d),
        lambda n, d: _biregular_labeling(n, n, d)),
    "biregular-bipartite": _Family(
        _rule("takes (n_u, n_v, d_u)",
              (lambda nu, nv, du: nu >= 1 and nv >= 1, "side sizes must be >= 1"),
              (lambda nu, nv, du: 1 <= du <= nv, "need 1 <= d_u <= n_v, got {p}"),
              (lambda nu, nv, du: nu * du % nv == 0,
               "right-side degree n_u*d_u/n_v must be an integer, got {p}")),
        lambda nu, nv, du: nu + nv, lambda nu, nv, du: nu * du,
        lambda nu, nv, du: max(du, nu * du // nv), _biregular, _biregular_eta,
        _biregular_labeling),
    "join-complete": _Family(
        _join_rule, lambda q, inner: q + _vertex_count(inner),
        lambda q, inner: _edge_count(inner) + q * _vertex_count(inner) + comb(q, 2),
        lambda q, inner: _vertex_count(inner) + q - 1,
        lambda q, inner: _cone(_edges(inner), _vertex_count(inner), q), _join_eta,
        lambda q, inner: _join_labeling(_labeling(inner), q)),
}

KINDS = tuple(_FAMILIES)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class EtaCertificate:
    spec: FamilySpec
    eta: int
    labeling: Labeling


def construction(spec: FamilySpec) -> tuple[Graph, int, Labeling]:
    """The instance, its closed-form eta and its labeling, unchecked (`certify` checks them)."""
    return generate(spec), eta_formula(spec), _labeling(spec)


def certify(spec: FamilySpec) -> EtaCertificate:
    """Formula value plus a verified certificate labeling. A labeling that
    does not prove the formula (`proof.proves_eta`) is a fault of this
    module: AssertionError."""
    g, eta, labeling = construction(spec)
    if not proves_eta(g, labeling, eta):
        raise AssertionError(
            f"{spec.text()}: the construction's labeling does not verify with eta={eta} labels"
        )
    return EtaCertificate(spec, eta, labeling)
