import functools
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from addcolor.bounds import degree_upper_bound
from addcolor.graph import Graph, verify_additive_coloring
from addcolor.proof import proves_eta
from addcolor.families import eta_formula, generate, parse_spec
from addcolor.graph6 import parse_graph6
from addcolor import solver
from addcolor.solver import (
    BUDGET_EXCEEDED,
    HALL_AFTER,
    OPTIMAL,
    UB_EXCEEDED,
    chromatic_exact,
    dsatur,
    eta_exact,
    greedy_clique_lower_bound,
    verify_proper_coloring,
    _clique_terms,
    _greedy_coloring,
    _hall_ok,
)

from conftest import DATA
from oracles import (
    additive_labelings,
    chi_naive,
    distinct_representatives_naive,
    dsatur_naive,
    eta_naive,
    is_additive,
)
from test_families import small_specs


def g_of(text):
    return generate(parse_spec(text))


# sha256 over (status, value, certificate) of eta_exact(g) and of
# eta_exact(g, 1, degree bound) on every graph of graphs_all_n1-6.g6, then
# graphs_conn_n1-7.g6, then the small_specs() family instances; computed
# before the search pruned on clique sums, which must not change the
# labelling it finds first. Re-pinned when the search order broke degree
# ties by the closed neighborhood, which moves the labelling found first
# (GOLDEN_ETA_VALUES unchanged); the plain search, never armed, and the
# search armed from its first node both give the new digest.
GOLDEN_ETA = "7db07a130285189a909022067aa121ff0943668c7f866f2adb292c3e082aaf79"

# the same digest over searches that run past the node count at which the
# clique-sum check is armed: every graph of graphs_conn_n8.g6 (366 of them
# took more than 128 nodes, from one lb or the other, with the check started
# eagerly at k = 3), ARMING_SPECS and 40 seeded G(14, 1/2); computed with
# that eager check, so arming it mid-search must not change the labelling
# found first. Re-pinned when the search order broke degree ties by the
# closed neighborhood (GOLDEN_ETA_VALUES unchanged); the search armed from
# its first node gives the new digest.
GOLDEN_ARMING = "ef6f5bfb6810d9a60e70ab69fd689a2728c6c3f853ed5169a37482a201f92403"

# sha256 over (status, value) alone of the searches behind GOLDEN_ETA, then
# those behind GOLDEN_ARMING; computed before the search order broke degree
# ties by the closed neighborhood, so no change of order may move an eta.
GOLDEN_ETA_VALUES = "d55f888944410f5c5ed0e130c42e2e62d41653bfaf943beb9e5ac5270e0c2f18"
# sha256 over (value, certificate) of chromatic_exact on every graph of
# graphs_conn_n1-7.g6, then graphs_conn_n8.g6. The coloring pinned is the
# greedy one over the search order where it meets the clique bound,
# otherwise DSATUR's if that uses fewer colors, and the k-colorability
# search's where the search finds fewer still; re-pinned when the greedy
# coloring replaced DSATUR as the first upper bound, and again when the
# search order, which the greedy coloring and the k-colorability search
# follow, broke degree ties by the closed neighborhood; GOLDEN_CHI_VALUES
# unchanged both times.
GOLDEN_CHI = "51aa60c64d5481d01e32f8b3d51b891ef7bf0a327dcf9a33f514c5cf61b34ce1"

# sha256 over chromatic_exact(g).value alone on the same graphs; computed
# while DSATUR gave every upper bound, so no change to the upper bound may
# move a chi.
GOLDEN_CHI_VALUES = "1f5de15ad9862b7c14921905524c490c591c17b0609ced232c00ddf00401397a"


def planted_coloring(n, k, seed):
    """Seeded graph with chi = k: vertices 0..k-1 form a clique, one per
    class of a random k-coloring, and each other pair of differently
    colored vertices is an edge with probability 1/2."""
    rng = random.Random(seed)
    cls = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    edges = [
        (u, v) for v in range(n) for u in range(v)
        if cls[u] != cls[v] and (v < k or rng.random() < 0.5)
    ]
    return Graph.from_edges(n, edges)


def odd_prism(n):
    """The prism C_n x K_2: rims 0..n-1 and n..2n-1, rung (i, n + i)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph.from_edges(2 * n, edges)


# (id, graph builder, chi) on more than 16 vertices, chi known by
# construction: a complete multipartite graph, wheels with an odd and an
# even rim, and planted colorings
CHI_ABOVE_16 = [
    (text, functools.partial(g_of, text), chi)
    for text, chi in [("multipartite:6,5,4,3", 4), ("wheel:19", 4), ("wheel:20", 3)]
] + [
    (f"planted:{n},{k},{seed}", functools.partial(planted_coloring, n, k, seed), k)
    for n, k, seed in [(20, 3, 1), (22, 3, 5), (24, 4, 2), (26, 4, 6), (27, 5, 3), (30, 6, 4)]
]

ARMING_SPECS = (
    [f"thick-spider:{q}" for q in range(7, 13)]
    + [f"complete-sun:{q}" for q in range(10, 13)]
    + ["wheel:15"]
    + [f"cycle:{n}" for n in range(13, 18)]
)

# the family instances of the benchmark's solve-panel workload
PANEL_SPECS = (
    "windmill:5,3", "wheel:15", "cycle:25", "thin-spider:8",
    "complete-sun:10", "complete-sun:11", "complete-sun:12",
    "thick-spider:7", "thick-spider:8", "thick-spider:9", "thick-spider:10",
)

# sha256 over (status, value, node count) of eta_exact(g) and of
# eta_exact(g, 1, degree bound) on ARMING_SPECS, PANEL_SPECS and 8 seeded
# G(16, 1/2); computed before the clique-sum check read its members from
# per-position tables, which must prune exactly as the per-call check did.
# Re-pinned when the search order broke degree ties by the closed
# neighborhood, which moves the node counts.
GOLDEN_NODES = "8adcff791606417b82f47d5522dd54024ac03e5adc2b4ab7e47bdb63d0c78553"

# the same digest on every graph of graphs_conn_n1-7.g6, then
# graphs_conn_n8.g6; computed before the search tested a label on its edges
# before moving any neighbor sum, which must try and reject the same labels.
# Re-pinned when the search order broke degree ties by the closed
# neighborhood, which moves the node counts.
GOLDEN_CORPUS_NODES = "332ce46aab60d14490d7e3b4c1af701e03f9483da86462c97778c1522239cb61"


class TestEtaExact:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("cycle:5", 3),
            ("cycle:6", 2),
            ("complete:4", 4),
            ("thick-spider:4", 3),
            ("path:2", 2),
            ("path:3", 1),
        ],
    )
    def test_known_values(self, text, expected):
        result = eta_exact(g_of(text))
        assert result.status == OPTIMAL and result.value == expected

    @pytest.mark.parametrize("q", range(7, 17))
    def test_thick_spider_refutes_small_k_at_the_root(self, q):
        # without the root clique-sum check, k = 2 alone walks a binary tree
        # of 2^(q+4) - 2 nodes
        spec = parse_spec(f"thick-spider:{q}")
        result = eta_exact(generate(spec))
        assert result.status == OPTIMAL and result.value == eta_formula(spec)
        assert result.stats.nodes < 1000

    def test_clique_terms_built_once_past_hall_after(self, monkeypatch):
        calls = []
        build = solver._clique_terms
        monkeypatch.setattr(solver, "_clique_terms", lambda *args: calls.append(1) or build(*args))
        cheap = eta_exact(g_of("cycle:5"))
        assert cheap.value == 3 and cheap.stats.nodes <= HALL_AFTER and not calls
        hard = eta_exact(g_of("complete-sun:10"))
        assert hard.value == 4 and hard.stats.nodes > HALL_AFTER and len(calls) == 1

    @pytest.mark.parametrize("q, checks", [(7, 24), (8, 28), (9, 40), (10, 45)])
    def test_root_checks_each_carried_clique_once(self, monkeypatch, q, checks):
        # a clique carried to k failed the root check at k - 1, so it is
        # tight and is not tested with k - 1 labels again
        calls = []
        check = solver._hall_ok
        monkeypatch.setattr(solver, "_hall_ok", lambda *args: calls.append(1) or check(*args))
        spec = parse_spec(f"thick-spider:{q}")
        result = eta_exact(generate(spec))
        assert result.status == OPTIMAL and result.value == eta_formula(spec)
        assert len(calls) == checks

    @pytest.mark.parametrize(
        "text,most",
        [("cycle:25", 2000), ("cycle:33", 3000), ("cycle:41", 3000), ("wheel:25", 3000)],
    )
    def test_nogood_cache_keeps_narrow_searches_small(self, text, most):
        # without the cache, k = 2 walks every labeling that holds along the
        # search order: 47 803 nodes on cycle:25, 95 576 on wheel:25 and
        # more than 300 000 on cycle:33 and cycle:41
        spec = parse_spec(text)
        result = eta_exact(generate(spec), node_budget=300_000)
        assert result.status == OPTIMAL and result.value == eta_formula(spec)
        assert result.stats.nodes <= most

    def test_nogood_tables_built_only_for_narrow_calls(self, monkeypatch):
        built = []
        build = solver._cut_terms
        monkeypatch.setattr(
            solver, "_cut_terms", lambda *args: built.append(build(*args)) or built[-1]
        )
        assert eta_exact(g_of("cycle:5")).value == 3 and not built
        # wide calls arm the clique-sum check but build no cache tables, and
        # search exactly the nodes they searched before the cache existed
        rng = random.Random(16)
        # (node counts re-pinned when the search order broke degree ties by
        # the closed neighborhood: they were 4 082 and 18 867)
        wide = [(g_of("complete-sun:10"), 4, 2070)]
        edges = [(u, v) for v in range(16) for u in range(v) if rng.random() < 0.5]
        wide.append((Graph.from_edges(16, edges), 3, 18834))
        for g, eta, nodes in wide:
            result = eta_exact(g)
            assert (result.value, result.stats.nodes) == (eta, nodes)
        assert built == [None, None]
        assert eta_exact(g_of("cycle:25")).value == 3
        assert len(built) == 3 and built[-1] is not None

    def test_nogood_cache_gives_up_when_keys_do_not_repeat(self, monkeypatch):
        # a Hamiltonian cycle plus a perfect matching on 26 vertices is
        # narrow enough to arm the cache, but its keys rarely repeat: storing
        # must stop once it exceeds n + NOGOOD_MISSES * (hits + 1) keys (seed
        # 71 since the search order broke degree ties by the closed
        # neighborhood: seed 77's graph now solves before the cache arms)
        rng = random.Random(71)
        order = rng.sample(range(26), 26)
        cycle = {tuple(sorted((order[i], order[i - 1]))) for i in range(26)}
        while True:
            perm = rng.sample(range(26), 26)
            matching = {tuple(sorted(perm[i:i + 2])) for i in range(0, 26, 2)}
            if not cycle & matching:
                break
        g = Graph.from_edges(26, sorted(cycle | matching))
        monkeypatch.setattr(solver, "NOGOOD_WIDTH", 0)  # the cache never arms
        plain = eta_exact(g)
        monkeypatch.undo()
        counts = {"stored": 0, "hits": 0}

        class CountingSet(set):
            def __contains__(self, key):
                hit = super().__contains__(key)
                counts["hits"] += hit
                return hit

            def add(self, key):
                counts["stored"] += 1
                super().add(key)

        nogoods = solver._nogoods

        def counting_nogoods(*args):
            cut, failed, keys = nogoods(*args)
            return cut, [CountingSet() for _ in failed], keys

        monkeypatch.setattr(solver, "_nogoods", counting_nogoods)
        result = eta_exact(g)
        assert counts["hits"] == 1
        assert counts["stored"] == g.n + solver.NOGOOD_MISSES * (counts["hits"] + 1) + 1
        assert result.ok and (result.value, result.certificate) == (2, plain.certificate)

    def test_petersen_regression(self, petersen):
        # pinned after the first verified run (naive enumeration agrees)
        assert eta_exact(petersen).value == 2

    def test_empty_graph_is_zero(self):
        g = Graph.from_edges(0, [])
        result = eta_exact(g)
        assert (result.status, result.value, result.certificate.labels) == (OPTIMAL, 0, ())
        assert eta_exact(g, lb=1, ub=3).value == 0

    def test_certificate_verifies(self):
        g = g_of("wheel:7")
        result = eta_exact(g)
        assert verify_additive_coloring(g, result.certificate)
        assert result.certificate.k <= result.value

    def test_certificates_pass_the_oracle(self, all_n6, conn_small):
        # eta_exact returns its labeling unchecked; the independent oracle
        # checks every one from lower bound 1, and its label count
        for g in all_n6 + conn_small + [g_of(text) for text in small_specs()]:
            result = eta_exact(g, 1)
            assert result.status == OPTIMAL and result.certificate.k == result.value
            assert is_additive(g, result.certificate.labels)

    def test_minimality_via_ub(self):
        g = g_of("cycle:5")
        assert eta_exact(g, lb=1, ub=2).status == UB_EXCEEDED

    def test_budget_exceeded(self):
        g = g_of("complete-sun:6")
        result = eta_exact(g, node_budget=10)
        assert result.status == BUDGET_EXCEEDED
        assert result.value is None

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            eta_exact(g_of("cycle:5"), lb=3, ub=2)

    def test_edgeless(self):
        result = eta_exact(Graph.from_edges(3, []))
        assert result.value == 1

    def test_monotone_feasibility(self):
        # feasible at k stays feasible at k+1
        for text in ("cycle:5", "complete:4", "thin-spider:3"):
            g = g_of(text)
            eta = eta_exact(g).value
            for k in (eta, eta + 1, eta + 2):
                assert eta_exact(g, lb=k, ub=k).certificate is not None

    def test_matches_oracle_small(self, conn_small):
        for g in conn_small:
            if g.n > 5:
                break
            assert eta_exact(g).value == eta_naive(g)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_oracle_random_n6(self, seed):
        import random

        rng = random.Random(seed)
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.5]
        g = Graph.from_edges(6, edges)
        assert eta_exact(g).value == eta_naive(g)

    def test_matches_oracle_all_n6(self, conn_small):
        for g in conn_small:
            if g.n == 6:
                assert eta_exact(g).value == eta_naive(g)

    def test_results_match_golden_digest(self, all_n6, conn_small):
        graphs = all_n6 + conn_small + [g_of(text) for text in small_specs()]
        assert results_digest(graphs) == GOLDEN_ETA

    def test_results_match_arming_digest(self):
        corpus = (DATA / "graphs_conn_n8.g6").read_text()
        graphs = [parse_graph6(line) for line in corpus.split()]
        graphs += [g_of(text) for text in ARMING_SPECS]
        graphs += seeded_gnp(14, 40, seed=14)
        assert results_digest(graphs) == GOLDEN_ARMING

    def test_values_match_golden_digest(self, all_n6, conn_small, conn_n8):
        graphs = all_n6 + conn_small + [g_of(text) for text in small_specs()]
        graphs += conn_n8 + [g_of(text) for text in ARMING_SPECS] + seeded_gnp(14, 40, seed=14)
        assert values_digest(graphs) == GOLDEN_ETA_VALUES

    def test_node_counts_match_golden_digest(self):
        graphs = [g_of(text) for text in (*ARMING_SPECS, *PANEL_SPECS)]
        graphs += seeded_gnp(16, 8, seed=16)
        assert nodes_digest(graphs) == GOLDEN_NODES

    def test_corpus_node_counts_match_golden_digest(self, conn_small, conn_n8):
        assert nodes_digest(conn_small + conn_n8) == GOLDEN_CORPUS_NODES

    def test_twin_chain_predecessors_come_first(self, all_n6, conn_small):
        # each twin class is chained in id order, and the search order must
        # keep that order: a predecessor at a later position would drop the
        # symmetry breaking and point nogood link terms forward
        graphs = all_n6 + conn_small + [g_of(text) for text in small_specs()]
        for n in range(2, 17):
            graphs += seeded_gnp(n, 10, seed=n)
        for g in graphs:
            pred = solver._positions(g)[4]
            assert all(p is None or p < i for i, p in enumerate(pred)), g

    @pytest.mark.parametrize(
        "make,eta,most",
        [
            pytest.param(
                functools.partial(g_of, text), eta_formula(parse_spec(text)), 1000, id=text
            )
            for text in ("complete-sun:11", "complete-sun:12", "complete-sun:13")
        ]
        + [pytest.param(functools.partial(odd_prism, 13), 3, 100_000, id="prism:13")],
    )
    def test_search_order_closes_edges_early(self, make, eta, most):
        # the closed-neighborhood tie-break places a vertex next to the low
        # vertices it touches: complete-sun:11-13 took 2 738 to 2 874 nodes
        # and the odd prism C_13 x K_2 1 374 737 under descending degree,
        # then id
        g = make()
        result = eta_exact(g, node_budget=most)
        assert result.ok and result.value == eta
        assert proves_eta(g, result.certificate, eta)

    def test_each_edge_checked_once_where_its_sums_part(self, all_n6, conn_small):
        # edge (a, b) is checked at the last position i of N(a) ^ N(b), as
        # (a, b) with i in N(a) and not in N(b)
        graphs = all_n6 + conn_small + [g_of(text) for text in small_specs()]
        for g in graphs + seeded_gnp(16, 8, seed=16):
            pos, _, _, checks, *_ = solver._positions(g)
            nbrs = [{pos[w] for w in g.neighbors[v]} for v in g.search_order]
            seen = []
            for i, edges in enumerate(checks):
                for a, b in edges:
                    assert i == max(nbrs[a] ^ nbrs[b]), (g, i, a, b)
                    assert i in nbrs[a] and i not in nbrs[b], (g, i, a, b)
                    seen.append(frozenset((a, b)))
            edges = [frozenset((pos[u], pos[v])) for u, v in g.edges()]
            assert sorted(seen, key=sorted) == sorted(edges, key=sorted), g


def seeded_gnp(n, count, seed):
    """`count` seeded draws of G(n, 1/2)."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
        graphs.append(Graph.from_edges(n, edges))
    return graphs


def search_digest(graphs, line):
    """sha256 over line(r) for r the results of eta_exact(g) and of
    eta_exact(g, 1, degree bound), graph by graph."""
    digest = hashlib.sha256()
    for g in graphs:
        for r in (eta_exact(g), eta_exact(g, 1, degree_upper_bound(g))):
            digest.update(f"{line(r)}\n".encode())
    return digest.hexdigest()


# what each golden digest reads of a result
values_digest = functools.partial(search_digest, line=lambda r: f"{r.status} {r.value}")
nodes_digest = functools.partial(
    search_digest, line=lambda r: f"{r.status} {r.value} {r.stats.nodes}"
)
results_digest = functools.partial(
    search_digest, line=lambda r: f"{r.status} {r.value} {r.certificate.labels}"
)


def assert_hall_passes_every_labeling(g):
    """Every additive labeling with labels <= k, for k = eta and eta + 1,
    passes the clique-sum check at every prefix of the search order."""
    pos = [0] * g.n
    for i, v in enumerate(g.search_order):
        pos[v] = i
    masks = [sum(1 << pos[w] for w in g.neighbors[v]) for v in g.search_order]
    # every greedy clique of three or more vertices, not only the ones the
    # search checks (more than k >= 3 vertices): small graphs have few of
    # those, and the signs are the same for any clique
    cliques = [
        terms
        for _, terms in _clique_terms([c for c in g.greedy_cliques if len(c) >= 3], pos, masks)
    ]
    if not cliques:
        return
    eta = eta_naive(g)
    for k in (eta, eta + 1):
        for labels in additive_labelings(g, k):
            sums = [0] * g.n
            for free, v in enumerate((*g.search_order, None)):
                for terms in cliques:
                    assert _hall_ok(terms, sums, free, k), (g, labels, free)
                if v is not None:
                    for w in g.neighbors[v]:
                        sums[pos[w]] += labels[v]


class TestHallCheck:
    def test_sound_on_all_n6(self, all_n6):
        for g in all_n6:
            assert_hall_passes_every_labeling(g)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**9))
    def test_sound_on_random_n6(self, seed):
        rng = random.Random(seed)
        n = rng.randint(5, 6)
        density = rng.choice((0.5, 0.7, 0.9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        assert_hall_passes_every_labeling(Graph.from_edges(n, edges))

    def test_distinct_representatives_oracle(self):
        assert distinct_representatives_naive([])
        assert distinct_representatives_naive([(0, 1), (0, 1), (2, 2)])
        # taking 0 for the first interval forces a move along a path
        assert distinct_representatives_naive([(0, 2), (0, 0), (1, 1)])
        assert not distinct_representatives_naive([(3, 3), (3, 3)])
        assert not distinct_representatives_naive([(-2, -1)] * 3)
        assert not distinct_representatives_naive([(1, 0)])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_distinct_representatives(self, seed):
        # a member's terms stop at a random position, so it is a point from
        # there on; sums in a narrow range make points coincide, and in half
        # the draws the first two members are equal points throughout
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        members = rng.sample(range(n), rng.randint(1, min(n, 7)))
        sums = [rng.randint(-4, 4) for _ in range(n)]
        terms = []
        for v in members:
            below = (1 << rng.randint(0, n)) - 1
            terms.append((v, rng.getrandbits(n) & below, rng.getrandbits(n) & below))
        if len(members) > 1 and rng.random() < 0.5:
            terms[0] = (members[0], 0, 0)
            terms[1] = (members[1], 0, 0)
            sums[members[1]] = sums[members[0]]
        for k in range(2, 6):
            for free in range(n + 1):
                intervals = member_intervals(terms, sums, free, k)
                expected = distinct_representatives_naive(intervals)
                assert _hall_ok(tuple(terms), sums, free, k) == expected, (terms, sums, free, k)

    def test_root_tables_match_member_intervals(self):
        # every (points, spans) table the root builds for ARMING_SPECS holds
        # its clique's member intervals at that position, and `_fits`
        # decides them as the oracle does, on seeded sums
        checked = 0
        for text in ARMING_SPECS:
            g = g_of(text)
            pos, _, masks, *_ = solver._positions(g)
            cliques = _clique_terms([c for c in g.greedy_cliques if len(c) >= 3], pos, masks)
            clique_of = {frozenset(v for v, _, _ in terms): terms for _, terms in cliques}
            rng = random.Random(text)
            for k in range(solver.HALL_MIN_K, 7):
                _, hall = solver._hall_root(cliques, k, g.n)
                for p, tables in enumerate(hall or ()):
                    for points, spans in tables:
                        terms = clique_of[frozenset(points).union(v for v, _, _ in spans)]
                        for _ in range(4):
                            sums = [rng.randint(-2 * k, 2 * k) for _ in range(g.n)]
                            intervals = [(sums[v], sums[v]) for v in points]
                            intervals += [(sums[v] + lo, sums[v] + hi) for v, hi, lo in spans]
                            assert sorted(intervals) == member_intervals(terms, sums, p + 1, k)
                            expected = distinct_representatives_naive(intervals)
                            assert solver._fits(points, spans, sums) == expected
                        checked += 1
        assert checked > 100


def member_intervals(terms, sums, free, k):
    """The sorted intervals of the members (v, plus, minus) with the
    positions >= free unlabeled: [sums[v] + a - k*b, sums[v] + k*a - b] for
    a plus and b minus terms there."""
    out = []
    for v, plus, minus in terms:
        a = bin(plus >> free).count("1")
        b = bin(minus >> free).count("1")
        out.append((sums[v] + a - k * b, sums[v] + k * a - b))
    return sorted(out)


def assert_keys_decide_extension(g):
    """Prefix labelings that reach a position of the search order with the
    same nogood key are all extendable to an additive labeling that keeps
    the twin chains, or all dead; for k in eta - 1 .. eta + 1, by brute
    force. The prefixes are those that pass the edge checks and the twin
    chains so far, as in the search (without the clique-sum check, which
    only removes prefixes)."""
    n = g.n
    pos, _, masks, checks, pred, step = solver._positions(g)
    cuts = solver._cut_terms(masks, checks, pred, math.inf)
    nbrs = [[pos[w] for w in g.neighbors[v]] for v in g.search_order]
    # an edge is decided once N(u) ^ N(v) is labeled
    decided = [[] for _ in range(n)]
    for u, v in g.edges():
        a, b = pos[u], pos[v]
        decided[max(set(nbrs[a]) ^ set(nbrs[b]))].append((a, b))

    def chained(lab, i):
        return pred[i] is None or lab[i] >= lab[pred[i]] + step[i]

    eta = eta_naive(g)
    for k in range(max(1, eta - 1), eta + 2):
        cut = solver._nogoods(cuts, k, n)[0]
        full = [tuple(labels[v] for v in g.search_order) for labels in additive_labelings(g, k)]
        full = [lab for lab in full if all(chained(lab, i) for i in range(n))]
        # (prefix, neighborhood sums of its labels)
        states = [((), [0] * n)]
        for i in range(n):
            extendable = {lab[:i] for lab in full}
            verdict = {}
            for prefix, sums in states:
                key = solver._nogood_key(*cut[i], sums, prefix)
                alive = prefix in extendable
                assert verdict.setdefault(key, alive) == alive, (g, k, i, prefix)
            reached = []
            for prefix, sums in states:
                for x in range(1, k + 1):
                    longer = prefix + (x,)
                    more = list(sums)
                    for w in nbrs[i]:
                        more[w] += x
                    if chained(longer, i) and all(more[a] != more[b] for a, b in decided[i]):
                        reached.append((longer, more))
            states = reached


class TestNogoodCache:
    def test_keys_sound_on_all_n6(self, all_n6):
        for g in all_n6:
            assert_keys_decide_extension(g)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**9))
    def test_keys_sound_on_random_n7(self, seed):
        rng = random.Random(seed)
        density = rng.choice((0.3, 0.5, 0.7))
        edges = [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < density]
        assert_keys_decide_extension(Graph.from_edges(7, edges))

    def test_armed_from_the_first_node_matches_golden_digest(
        self, monkeypatch, all_n6, conn_small
    ):
        # every call arms the cache at its first node, whatever its width,
        # and never gives it up
        monkeypatch.setattr(solver, "HALL_AFTER", 0)
        monkeypatch.setattr(solver, "NOGOOD_WIDTH", math.inf)
        monkeypatch.setattr(solver, "NOGOOD_MISSES", math.inf)
        graphs = all_n6 + conn_small + [g_of(text) for text in small_specs()]
        assert results_digest(graphs) == GOLDEN_ETA


class TestDsatur:
    def test_complete(self):
        count, colors = dsatur(g_of("complete:5"))
        assert count == 5

    def test_even_cycle(self):
        assert dsatur(g_of("cycle:6"))[0] == 2

    def test_odd_cycle(self):
        assert dsatur(g_of("cycle:5"))[0] == 3

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_always_proper(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        count, colors = dsatur(g)
        assert verify_proper_coloring(g, colors)
        assert count == max(colors)

    def test_matches_set_based_rule(self, all_n6, conn_small):
        # a VIOLATION record prints the chi certificate, so the bitmask
        # DSATUR must give the same coloring, not only the same count
        for g in all_n6 + conn_small:
            assert dsatur(g) == dsatur_naive(g)

    @pytest.mark.parametrize("spec", [
        "complete:9", "wheel:12", "complete-sun:7", "thick-spider:6", "windmill:4,3",
        "multipartite:5,4,3,3,2",
    ])
    def test_matches_set_based_rule_on_families(self, spec):
        g = g_of(spec)
        assert dsatur(g) == dsatur_naive(g)

    def test_matches_set_based_rule_on_random_g16(self):
        import random

        rng = random.Random(16)
        for _ in range(50):
            edges = [(u, v) for v in range(16) for u in range(v) if rng.random() < 0.5]
            g = Graph.from_edges(16, edges)
            assert dsatur(g) == dsatur_naive(g)


class TestGreedyColoring:
    def test_proper_with_max_color_as_count(self, all_n6, conn_small, conn_n8):
        graphs = all_n6 + conn_small + conn_n8 + [g_of(text) for text in small_specs()]
        graphs += [make() for _, make, _ in CHI_ABOVE_16]
        for g in graphs:
            count, colors = _greedy_coloring(g)
            assert len(colors) == g.n
            assert all(colors[u] != colors[v] for u, v in g.edges())
            assert set(colors) <= set(range(1, count + 1))
            assert max(colors, default=0) == count

    def test_dsatur_runs_iff_greedy_misses_the_clique_bound(self, monkeypatch, conn_n8):
        calls = []
        monkeypatch.setattr(solver, "dsatur", lambda g: calls.append(g) or dsatur(g))
        nodes = 0
        for g in conn_n8:
            before = len(calls)
            nodes += chromatic_exact(g).stats.nodes
            missed = _greedy_coloring(g)[0] > greedy_clique_lower_bound(g)
            assert len(calls) - before == missed
        # 862 and 4 615 before the search order, which the greedy coloring
        # follows, broke degree ties by the closed neighborhood
        assert len(calls) == 831 and nodes == 3990


class TestChromatic:
    def test_petersen(self, petersen):
        assert chromatic_exact(petersen).value == 3

    def test_k33(self):
        assert chromatic_exact(g_of("multipartite:3,3")).value == 2

    def test_odd_wheel(self):
        assert chromatic_exact(g_of("wheel:5")).value == 4

    def test_budget_exceeded(self):
        # the greedy coloring and DSATUR both color G?bvbo with 3, the
        # clique bound is 2, and refuting k = 2 places 12 colors
        g = parse_graph6("G?bvbo")
        assert chromatic_exact(g).stats.nodes == 12
        for budget in (0, 11):
            result = chromatic_exact(g, node_budget=budget)
            assert result.status == BUDGET_EXCEEDED and result.value is None
            assert result.certificate is None and result.stats.nodes > budget
        assert chromatic_exact(g, node_budget=12).value == 3

    def test_bounds_that_meet_decide_without_search(self):
        result = chromatic_exact(Graph.from_edges(17, []), node_budget=0)
        assert result.ok and result.value == 1 and result.stats.nodes == 0

    @pytest.mark.parametrize(
        "make,chi", [pytest.param(make, chi, id=name) for name, make, chi in CHI_ABOVE_16]
    )
    def test_above_sixteen_vertices(self, make, chi):
        g = make()
        assert g.n > 16
        result = chromatic_exact(g)
        assert result.ok and result.value == chi
        assert verify_proper_coloring(g, result.certificate) and max(result.certificate) == chi
        # no search iff the better of the two colorings meets the clique bound
        better = min(_greedy_coloring(g)[0], dsatur(g)[0])
        assert (result.stats.nodes == 0) == (better == greedy_clique_lower_bound(g))

    def test_certificate(self):
        g = g_of("wheel:6")
        result = chromatic_exact(g)
        assert verify_proper_coloring(g, result.certificate)
        assert max(result.certificate) == result.value

    def test_certificates_are_proper_with_max_value(self, all_n6, conn_small, conn_n8):
        # chromatic_exact returns its coloring unchecked; check every one
        # here, independently of verify_proper_coloring
        for g in all_n6 + conn_small + conn_n8 + [g_of(text) for text in small_specs()]:
            result = chromatic_exact(g)
            colors = result.certificate
            assert result.ok and len(colors) == g.n
            assert all(colors[u] != colors[v] for u, v in g.edges())
            assert set(colors) <= set(range(1, result.value + 1))
            assert max(colors, default=0) == result.value

    def test_bad_coloring_rejected(self):
        g = g_of("path:3")
        assert verify_proper_coloring(g, (1, 2, 1))
        assert not verify_proper_coloring(g, (1, 2))  # wrong length
        assert not verify_proper_coloring(g, (1, 1, 2))  # 0 and 1 share a color

    def test_matches_oracle_small(self, conn_small):
        for g in conn_small:
            if g.n > 5:
                break
            assert chromatic_exact(g).value == chi_naive(g)

    def test_results_match_golden_digest(self, conn_small, conn_n8):
        digest = hashlib.sha256()
        for g in conn_small + conn_n8:
            result = chromatic_exact(g)
            digest.update(f"{result.value} {result.certificate}\n".encode())
        assert digest.hexdigest() == GOLDEN_CHI

    def test_values_match_golden_digest(self, conn_small, conn_n8):
        digest = hashlib.sha256()
        for g in conn_small + conn_n8:
            digest.update(f"{chromatic_exact(g).value}\n".encode())
        assert digest.hexdigest() == GOLDEN_CHI_VALUES

    def test_clique_bound_valid(self, conn_small):
        for g in conn_small:
            if g.n > 6:
                break
            assert greedy_clique_lower_bound(g) <= chromatic_exact(g).value
