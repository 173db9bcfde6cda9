import itertools
import random

import pytest
from hypothesis import given, strategies as st

import addcolor.graph as graph_module
from addcolor.graph import (
    Graph,
    Labeling,
    connected_components,
    induced_subgraph,
    neighborhood_sum,
    proves_eta,
    proves_lower,
    twin_refined_partition,
    verify_additive_coloring,
)
from addcolor.bounds import combined_bounds, is_eta_one
from addcolor.families import generate, parse_spec
from addcolor.graph6 import parse_graph6
from addcolor.solver import chromatic_exact, eta_exact

from oracles import additive_labelings, eta_naive, is_additive, twin_classes_naive
from test_families import small_specs


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [p for idx, p in enumerate(pairs) if mask >> idx & 1]
    return Graph.from_edges(n, edges)


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="vertex count must be >= 0"):
            Graph.from_edges(-1, [])

    def test_parallel_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_neighbors_are_the_mask_bits(self):
        # repeated and reversed edges collapse, isolated vertices stay empty
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randint(0, 40)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            distinct = rng.sample(pairs, rng.randint(0, len(pairs)))
            edges = [
                rng.choice([(u, v), (v, u)])
                for u, v in distinct for _ in range(rng.randint(1, 3))
            ]
            rng.shuffle(edges)
            g = Graph.from_edges(n, edges)
            assert g.edge_count == len({frozenset(e) for e in edges}) == len(distinct)
            for v in range(n):
                assert g.neighbors[v] == tuple(w for w in range(n) if g.masks[v] >> w & 1)
                assert set(g.neighbors[v]) == {w for e in edges if v in e for w in e if w != v}

    def test_mask_memory_limit(self, monkeypatch):
        # a mask holds (highest neighbor id + 1) bits; the limit is inclusive
        g = cycle(50)
        bits = sum(max(nb) + 1 for nb in g.neighbors)
        monkeypatch.setattr(graph_module, "MASK_BITS_LIMIT", bits)
        assert cycle(50) == g
        monkeypatch.setattr(graph_module, "MASK_BITS_LIMIT", bits - 1)
        with pytest.raises(ValueError, match="adjacency bitmasks"):
            cycle(50)

    def test_adjacency_symmetric(self):
        g = cycle(5)
        for v in range(5):
            for u in g.neighbors[v]:
                assert v in g.neighbors[u]

    def test_labeling_requires_positive(self):
        with pytest.raises(ValueError):
            Labeling((1, 0, 2))

    @pytest.mark.parametrize("labels,v,lab", [
        ((1, 0, 2), 1, 0), ((0, -1), 0, 0), ((3, 2, 1, -4, 0), 3, -4),
    ])
    def test_labeling_names_the_first_vertex_below_one(self, labels, v, lab):
        with pytest.raises(ValueError, match=rf"^label of vertex {v} must be >= 1, got {lab}$"):
            Labeling(labels)

    def test_labeling_k(self):
        assert Labeling((1, 3, 2)).k == 3
        assert Labeling(()).k == 0


class TestNeighborhoodSum:
    def test_path_unit_labels(self):
        assert neighborhood_sum(path(3), Labeling((1, 1, 1)), 1) == 2

    def test_cycle5_second_vertex(self):
        # second vertex of the 5-circuit under the odd-cycle certificate
        assert neighborhood_sum(cycle(5), Labeling((2, 1, 3, 1, 1)), 1) == 5

    def test_isolated_vertex(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert neighborhood_sum(g, Labeling((4, 4, 4)), 2) == 0

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            neighborhood_sum(path(3), Labeling((1, 1, 1)), 3)


class TestVerify:
    def test_k2_constant_fails(self):
        assert not verify_additive_coloring(complete(2), Labeling((1, 1)))

    def test_cycle5_certificate(self):
        assert verify_additive_coloring(cycle(5), Labeling((2, 1, 3, 1, 1)))

    def test_star_all_ones(self):
        assert verify_additive_coloring(star(3), Labeling((1, 1, 1, 1)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            verify_additive_coloring(path(3), Labeling((1, 1)))

    def test_edgeless_vacuous(self):
        assert verify_additive_coloring(Graph.from_edges(4, []), Labeling((1,) * 4))

    @given(graphs(max_n=7), st.integers(1, 4))
    def test_constant_labeling_iff_degree_distinct(self, g, c):
        # scaling all labels by c preserves every sum comparison
        assert verify_additive_coloring(g, Labeling((c,) * g.n)) == is_eta_one(g)

    @given(graphs(min_n=2, max_n=7), st.randoms(use_true_random=False))
    def test_isomorphism_invariance(self, g, rng):
        labels = tuple(rng.randint(1, 3) for _ in range(g.n))
        perm = list(range(g.n))
        rng.shuffle(perm)
        mapped = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        mapped_labels = [0] * g.n
        for v in range(g.n):
            mapped_labels[perm[v]] = labels[v]
        assert verify_additive_coloring(g, Labeling(labels)) == verify_additive_coloring(
            mapped, Labeling(tuple(mapped_labels))
        )

    @given(graphs(max_n=6))
    def test_agrees_with_oracle(self, g):
        for f in itertools.islice(itertools.product((1, 2), repeat=g.n), 64):
            assert verify_additive_coloring(g, Labeling(f)) == is_additive(g, f)


class TestProvesEta:
    # C_5 has eta 3; (2, 1, 3, 1, 1) verifies with 3 labels, (2, 1, 4, 1, 1)
    # with 4, and (1,) * 5 not at all
    @pytest.mark.parametrize("labels, eta, proves", [
        ((2, 1, 3, 1, 1), 3, True),
        ((2, 1, 3, 1, 1), 2, False),
        ((2, 1, 3, 1, 1), 4, False),
        ((2, 1, 4, 1, 1), 3, False),
        ((1, 1, 1, 1, 1), 1, False),
        (None, 3, False),
    ])
    def test_cycle5(self, labels, eta, proves):
        f = None if labels is None else Labeling(labels)
        assert proves_eta(cycle(5), f, eta) is proves

    def test_empty_graph(self):
        assert proves_eta(Graph.from_edges(0, []), Labeling(()), 0)


# EUuw: K_4 on {0, 3, 4, 5}, all of degree 4, plus 1 ~ 3, 4 and 2 ~ 0, 5; no
# two of its vertices are true twins, and eta(EUuw) = 3
CLIQUE_ONLY = "EUuw"


class TestProvesLower:
    @pytest.mark.parametrize("g, witness, lb", [
        (cycle(4), ("equal_degree_edge", None), 2),
        (complete(4), ("true_twins", (0, 1, 2, 3)), 4),
        # the clique bound ceil((4 + 1) / (4 - 4 + 2)) = 3
        (parse_graph6(CLIQUE_ONLY), ("clique", (0, 5, 3, 4)), 3),
    ])
    def test_accepts_each_kind_up_to_its_value(self, g, witness, lb):
        assert all(proves_lower(g, [witness], k) for k in range(lb + 1))
        assert not proves_lower(g, [witness], lb + 1)

    @pytest.mark.parametrize("g, witness, lb", [
        # 0 and 2 are not adjacent, though a triangle of degree-2 vertices
        # would show eta >= 3
        (cycle(4), ("clique", (0, 1, 2)), 3),
        # the leaves of a star are false twins, not true ones
        (star(3), ("true_twins", (1, 2, 3)), 2),
        (cycle(4), ("true_twins", (0, 1)), 2),
        # every edge of a star joins the center to a leaf
        (star(3), ("equal_degree_edge", None), 2),
        # a prefix of the clique shows ceil(5 / 3) = 2 only
        (parse_graph6(CLIQUE_ONLY), ("clique", (0, 5, 3)), 3),
    ])
    def test_rejects_a_false_witness(self, g, witness, lb):
        assert not proves_lower(g, [witness], lb)

    def test_no_witness_is_needed_up_to_one_label(self):
        assert proves_lower(Graph.from_edges(0, []), (), 0)
        assert not proves_lower(Graph.from_edges(0, []), (), 1)
        assert proves_lower(path(2), (), 1)
        assert not proves_lower(path(2), (), 2)

    def test_upper_side_witnesses_show_nothing(self):
        g = complete(4)
        witnesses = combined_bounds(g).witnesses
        assert proves_lower(g, witnesses, 4)
        upper = [w for w in witnesses if w[0] in ("max_degree", "split", "degree_distinct_edges")]
        assert upper and not proves_lower(g, upper, 2)

    @pytest.mark.parametrize("witness", [
        ("clique", None), ("clique", ()), ("clique", (0, 0)), ("clique", (0, 9)),
        ("clique", (-1, 0)), ("clique", [0, 1]), ("true_twins", "ab"),
        ("true_twins", (0.0, 1)), ("true_twins", (True, 0)), ("clique",), "clique", None,
        ("clique", (0, 1), 4),
    ])
    def test_malformed_witness_shows_nothing(self, witness):
        assert not proves_lower(complete(4), [witness], 2)

    def test_every_bound_of_the_corpora_is_proven_and_no_higher(self, all_n6, conn_small):
        # eta_naive enumerates every labeling, which costs about 5 s over the
        # densest n = 7 graphs; there the pruned enumeration shows instead
        # that no labeling with lb - 1 labels is additive
        for g in all_n6 + conn_small:
            report = combined_bounds(g)
            lb = report.eta_lower
            assert proves_lower(g, report.witnesses, lb)
            assert not proves_lower(g, report.witnesses, lb + 1)
            if g.n <= 6:
                assert lb <= eta_naive(g)
            else:
                assert next(additive_labelings(g, lb - 1), None) is None


class TestTwins:
    def test_complete_one_class(self):
        assert complete(4).true_twins == ((0, 1, 2, 3),)

    def test_cycle_all_singletons(self):
        assert cycle(5).true_twins == ((0,), (1,), (2,), (3,), (4,))

    def test_complete_split_clique_class(self):
        # 3-clique joined to 2 stable vertices: the clique is one true-twin class
        g = generate(parse_spec("complete-split:3,2"))
        assert g.true_twins == ((0, 1, 2), (3,), (4,))

    def test_star_false_twins(self):
        # the leaves are false twins; the center is in no class
        assert twin_refined_partition(star(3)) == ((0, (1, 2, 3)),)

    def test_complete_true_class(self):
        assert twin_refined_partition(complete(4)) == ((1, (0, 1, 2, 3)),)

    def test_path4_all_singletons(self):
        assert twin_refined_partition(path(4)) == ()

    def test_isolated_vertices_are_false_twins(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert twin_refined_partition(g) == ((1, (0, 1)), (0, (2, 3)))

    @given(graphs(max_n=8))
    def test_partition_covers_and_verifies(self, g):
        # the classes are disjoint, and every vertex outside them has no twin
        part = twin_refined_partition(g)
        members = [v for _, cls in part for v in cls]
        assert len(members) == len(set(members))
        assert [cls[0] for _, cls in part] == sorted(cls[0] for _, cls in part)
        for gap, cls in part:
            assert gap in (0, 1)
            assert len(cls) >= 2 and list(cls) == sorted(cls)
            first = cls[0]
            for v in cls[1:]:
                if gap:
                    assert g.masks[v] | 1 << v == g.masks[first] | 1 << first
                else:
                    assert g.masks[v] == g.masks[first]
        assert part == twin_classes_naive(g)

    @given(graphs(max_n=7))
    def test_false_classes_partition(self, g):
        # the vertices outside true-twin classes fall into maximal classes of
        # N(u) = N(v): distinct classes have distinct open neighborhoods
        singles = [c[0] for c in g.true_twins if len(c) == 1]
        false = [cls for gap, cls in twin_refined_partition(g) if not gap]
        covered = {v for c in false for v in c}
        rest = false + [(v,) for v in singles if v not in covered]
        assert sorted(v for c in rest for v in c) == singles
        firsts = [g.masks[c[0]] for c in rest]
        assert len(set(firsts)) == len(firsts)

    def test_matches_naive_on_corpora(self, all_n6, conn_small):
        for g in all_n6 + conn_small:
            assert twin_refined_partition(g) == twin_classes_naive(g)

    @pytest.mark.parametrize("spec", [
        "complete-split:4,3", "windmill:4,3", "thick-spider:5", "multipartite:3,2,2",
        "complete-sun:6", "join-complete:2:cycle:6", "biregular-bipartite:6,4,2",
    ])
    def test_matches_naive_on_families(self, spec):
        g = generate(parse_spec(spec))
        assert twin_refined_partition(g) == twin_classes_naive(g)


class TestJoin:
    # the family rows that join a graph with a clique, on the generated graph
    def test_fan_shape(self):
        g = generate(parse_spec("fan:3"))
        assert g == Graph.from_edges(5, list(path(4).edges()) + [(v, 4) for v in range(4)])
        assert g.degree(4) == 4

    def test_wheel_shape(self):
        g = generate(parse_spec("wheel:4"))
        assert g == Graph.from_edges(5, list(cycle(4).edges()) + [(v, 4) for v in range(4)])

    def test_complete_split_edge_count(self):
        g = generate(parse_spec("complete-split:2,3"))
        assert g.edge_count == 1 + 2 * 3
        assert g.degrees() == (4, 4, 2, 2, 2)

    def test_join_sizes_and_degrees(self):
        # join-complete:q over every small spec and every q its range allows
        for text in small_specs():
            g1 = generate(parse_spec(text))
            for q in range(1, g1.n - g1.max_degree()):
                g = generate(parse_spec(f"join-complete:{q}:{text}"))
                assert g.n == g1.n + q, text
                assert g.edge_count == g1.edge_count + q * (q - 1) // 2 + g1.n * q
                assert g.degrees() == (
                    tuple(d + q for d in g1.degrees()) + (g1.n + q - 1,) * q
                )
                assert induced_subgraph(g, range(g1.n)) == g1


class TestComponents:
    def test_two_components(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert connected_components(g) == [[0, 1, 2], [3, 4]]

    def test_induced_subgraph(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        sub = induced_subgraph(g, [3, 4])
        assert sub.n == 2 and sub.edge_count == 1

    @given(graphs(max_n=8), st.randoms(use_true_random=False))
    def test_induced_subgraph_matches_definition(self, g, rng):
        vertices = rng.sample(range(g.n), rng.randint(0, g.n))
        index = {v: i for i, v in enumerate(vertices)}
        edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
        assert induced_subgraph(g, vertices) == Graph.from_edges(len(vertices), edges)

    def test_connected_cycle(self):
        assert len(connected_components(cycle(6))) == 1


class TestCachedData:
    """The derived data a graph caches (degrees, search order, true-twin
    classes, greedy cliques) is shared by every layer, so nothing a public
    function hands out may reach into it."""

    SPECS = ["complete-split:4,3", "thick-spider:4", "windmill:3,3", "wheel:7", "fan:6"]

    @staticmethod
    def results(g):
        chi = chromatic_exact(g)
        eta = eta_exact(g)
        return (
            combined_bounds(g),
            (chi.status, chi.value, chi.certificate),
            (eta.status, eta.value, eta.certificate, eta.stats.nodes),
        )

    @pytest.mark.parametrize("spec", SPECS)
    def test_mutating_returned_values_changes_nothing(self, spec):
        g = generate(parse_spec(spec))
        self.results(g)  # fill the cache first
        classes = [list(cls) for cls in g.true_twins]
        for cls in classes:
            cls.reverse()
            cls.append(g.n)
        classes.append([0])
        cliques = list(g.greedy_cliques)
        cliques.reverse()
        cliques.append((0,))
        part = list(twin_refined_partition(g))
        part.reverse()
        part.clear()
        fresh = generate(parse_spec(spec))
        assert self.results(g) == self.results(fresh)
        assert g.true_twins == fresh.true_twins
        assert twin_refined_partition(g) == twin_refined_partition(fresh)
        assert g.greedy_cliques == fresh.greedy_cliques

    @pytest.mark.parametrize("spec", SPECS)
    def test_cached_values_are_tuples(self, spec):
        g = generate(parse_spec(spec))
        for value in (g.degrees(), g.search_order, g.true_twins, g.greedy_cliques):
            assert isinstance(value, tuple)
        for inner in g.true_twins + g.greedy_cliques:
            assert isinstance(inner, tuple)
        part = twin_refined_partition(g)
        assert isinstance(part, tuple)
        for gap, cls in part:
            assert isinstance(gap, int) and isinstance(cls, tuple)

    @pytest.mark.parametrize("n", range(31))
    def test_search_order_is_descending_degree_then_id(self, n):
        rng = random.Random(n)
        for p in (0.1, 0.5, 0.9):
            pairs = itertools.combinations(range(n), 2)
            g = Graph.from_edges(n, [e for e in pairs if rng.random() < p])
            deg = g.degrees()
            assert g.search_order == tuple(sorted(range(n), key=lambda v: (-deg[v], v)))

    def test_equal_graphs_stay_equal_when_one_cache_is_filled(self):
        warm = generate(parse_spec("thick-spider:4"))
        cold = generate(parse_spec("thick-spider:4"))
        combined_bounds(warm)
        chromatic_exact(warm)
        eta_exact(warm)
        assert warm == cold and cold == warm
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert warm != generate(parse_spec("thick-spider:5"))
