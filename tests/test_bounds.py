import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from addcolor.bounds import (
    best_clique_lower_bound,
    combined_bounds,
    degree_upper_bound,
    eta_upper_bound,
    is_eta_one,
    largest_true_twin_class,
    multipartite_chain,
    multipartite_eta,
    split_labeling,
    split_recognize,
    split_upper_bound,
)
from addcolor.families import generate, parse_spec
from addcolor.graph import Graph, verify_additive_coloring

from oracles import (
    clique_bound_naive, eta_naive, greedy_cliques_naive, is_split_naive, partitions,
)
from test_families import small_specs


def g_of(text):
    return generate(parse_spec(text))


# sha256 over "eta_lower eta_upper witnesses" of combined_bounds(g) on every
# graph of graphs_all_n1-6.g6, then graphs_conn_n1-7.g6, then
# graphs_conn_n8.g6, then the small_specs() family instances; computed while
# split recognition still re-checked its partition, grew Q to maximality and
# split_upper_bound re-validated it, which the bare degree-sequence test must
# match witness for witness.
GOLDEN_BOUNDS = "544715fb611216d7eeefa6fb7f324cb3b8027616a3ca0b67ab46cc0a3b568f49"


class TestEtaOne:
    def test_p3_true(self):
        assert is_eta_one(g_of("path:3"))

    def test_regular_false(self):
        assert not is_eta_one(g_of("cycle:6"))
        assert not is_eta_one(g_of("complete:4"))

    def test_star_true(self):
        assert is_eta_one(g_of("multipartite:3,1"))


class TestTwinBound:
    def test_complete(self):
        assert len(largest_true_twin_class(g_of("complete:5"))) == 5

    def test_complete_split(self):
        assert len(largest_true_twin_class(g_of("complete-split:4,2"))) == 4

    def test_cycle(self):
        assert len(largest_true_twin_class(g_of("cycle:6"))) == 1


class TestCliqueBound:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_complete_sun_base_clique(self, m):
        # the base clique of degree-(m+1) vertices gives the best bound
        g = g_of(f"complete-sun:{m}")
        assert best_clique_lower_bound(g)[0] == clique_bound_naive(g) == math.ceil((m + 2) / 3)

    @pytest.mark.parametrize("q", range(2, 7))
    def test_thin_spider_clique(self, q):
        g = g_of(f"thin-spider:{q}")
        assert best_clique_lower_bound(g)[0] == clique_bound_naive(g) == math.ceil((q + 1) / 2)

    def test_complete_graph(self):
        g = g_of("complete:6")
        assert best_clique_lower_bound(g) == (6, tuple(range(6)))
        assert clique_bound_naive(g) == 6

    def test_best_on_complete_sun(self):
        g = g_of("complete-sun:6")
        value, clique = best_clique_lower_bound(g)
        assert value == 3 == clique_bound_naive(g)
        assert all(g.masks[u] >> v & 1 for u in clique for v in clique if u != v)

    def test_best_on_c5(self):
        # any edge: d1 = d2 = 2, |Q| = 2 gives ceil(3/2) = 2
        value, clique = best_clique_lower_bound(g_of("cycle:5"))
        assert value == 2 and len(clique) == 2

    def test_best_on_k5(self):
        assert best_clique_lower_bound(g_of("complete:5"))[0] == 5

    def test_greedy_prefixes_match_all_cliques(self, conn_small):
        # the clique bound over greedy prefixes may be weaker than over all
        # cliques, but the combined lower bound stays the same on n <= 7
        for g in conn_small:
            if is_eta_one(g):
                continue
            naive = clique_bound_naive(g)
            assert best_clique_lower_bound(g)[0] <= naive
            expected = max(2, len(largest_true_twin_class(g)), naive)
            assert combined_bounds(g).eta_lower == expected

    def test_greedy_cliques_match_naive_rule(self, all_n6, conn_small):
        # stopping a scan at a candidate that keeps every other one keeps the
        # step-by-step order
        for g in all_n6 + conn_small:
            assert g.greedy_cliques == tuple(map(tuple, greedy_cliques_naive(g)))

    @pytest.mark.parametrize("spec", [
        "complete:12", "complete-split:6,9", "join-complete:3:cycle:9", "windmill:4,3",
        "complete-split:8,12", "thick-spider:10",
    ])
    def test_greedy_cliques_match_naive_rule_on_families(self, spec):
        # the scan for the best candidate stops before its last candidate in
        # 120 of 132 steps on complete:12, 75 of 90 and 140 of 160 on the
        # two complete-split graphs, 21 of 48 on the C_9 join, 19 of 30 on
        # the windmill and 80 of 180 on thick-spider:10
        g = g_of(spec)
        assert g.greedy_cliques == tuple(map(tuple, greedy_cliques_naive(g)))

    def test_dominates_relaxation(self, conn_small):
        # the clique bound implies the weaker ceil(|Q|/(n-|Q|+1))
        for g in conn_small:
            if g.n > 6:
                break
            value, clique = best_clique_lower_bound(g)
            q = len(clique)
            assert value >= math.ceil(q / (g.n - q + 1))


class TestDegreeBound:
    def test_cycle(self):
        assert degree_upper_bound(g_of("cycle:8")) == 3

    def test_k4(self):
        assert degree_upper_bound(g_of("complete:4")) == 7

    def test_star(self):
        assert degree_upper_bound(g_of("multipartite:5,1")) == 21

    def test_edgeless(self):
        assert degree_upper_bound(Graph.from_edges(3, [])) == 1

    def test_single_edge_needs_two(self):
        # the quadratic reads 1 at max degree 1, but a lone edge forces 2
        assert degree_upper_bound(g_of("complete:2")) == 2


class TestSplit:
    def test_thin_spider_partition(self):
        q, s = split_recognize(g_of("thin-spider:3"))
        assert len(q) == 3 and len(s) == 3

    def test_c5_not_split(self):
        assert split_recognize(g_of("cycle:5")) is None

    def test_complete_is_split(self):
        q, s = split_recognize(g_of("complete:4"))
        assert len(q) == 4 and s == ()

    def test_recognition_matches_bruteforce(self, all_n6):
        for g in all_n6:
            assert (split_recognize(g) is not None) == is_split_naive(g)

    def test_matches_the_max_definition_of_h(self):
        # h = max{i : d_i >= i-1}, as the docstring defines it, on seeded
        # G(n, p) and on seeded split graphs (a clique, a stable set and
        # random edges between them, under a random vertex order)
        rng = random.Random(86)
        for n in range(1, 31):
            for p in (0.2, 0.5, 0.8):
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
                perm = rng.sample(range(n), n)
                q = rng.randint(1, n)
                split = [(perm[u], perm[v]) for u, v in pairs
                         if v < q or u < q and rng.random() < p]
                for edges in ([e for e in pairs if rng.random() < p], split):
                    g = Graph.from_edges(n, edges)
                    order = g.search_order
                    d = [g.degrees()[v] for v in order]
                    h = max(i for i in range(1, n + 1) if d[i - 1] >= i - 1)
                    expected = None
                    if sum(d[:h]) == h * (h - 1) + sum(d[h:]):
                        expected = tuple(sorted(order[:h])), tuple(sorted(order[h:]))
                    assert split_recognize(g) == expected

    def test_partition_is_valid_and_maximal(self, conn_small, conn_n8):
        # split_recognize re-checks nothing: the degree-sequence equality is
        # its proof of the partition, so this test checks that proof's output
        family = [f"complete-split:{q},{s}" for q in range(1, 9) for s in range(2, 9)]
        family += [f"{kind}-spider:{q}" for kind in ("thin", "thick") for q in range(2, 13)]
        family += [f"complete:{n}" for n in range(1, 13)]
        for g in conn_small + conn_n8 + [g_of(text) for text in family]:
            part = split_recognize(g)
            if part is not None:
                assert_maximal_split_partition(g, *part)

    @pytest.mark.parametrize("q,s", [(1, 2), (2, 3), (3, 2), (4, 4)])
    def test_complete_split_bound_tight(self, q, s):
        g = g_of(f"complete-split:{q},{s}")
        cq, _ = split_recognize(g)
        assert split_upper_bound(g, cq) == q

    @pytest.mark.parametrize("q", range(2, 7))
    def test_thin_spider_bound_not_tight(self, q):
        g = g_of(f"thin-spider:{q}")
        cq, _ = split_recognize(g)
        # all clique degrees equal, so T has one vertex
        assert split_upper_bound(g, cq) == q

    def test_all_distinct_degrees_gives_one(self):
        g = g_of("path:3")  # split with clique {center, end}, degrees 2 and 1
        cq, _ = split_recognize(g)
        assert split_upper_bound(g, cq) == 1

    def test_split_construction_on_all_small_splits(self, all_n6, conn_n8):
        # the constructive (|Q|-|T|+1)-coloring works on every split graph
        for g in all_n6 + conn_n8:
            part = split_recognize(g)
            if part is None or g.n == 0:
                continue
            q, _ = part
            lab = split_labeling(g, q)
            assert verify_additive_coloring(g, lab)
            assert lab.k == split_upper_bound(g, q)


class TestMultipartite:
    def test_all_singletons(self):
        assert multipartite_eta((1,) * 7 ) == 7

    def test_star_parts(self):
        assert multipartite_eta((3, 1)) == 1

    def test_221(self):
        assert multipartite_eta((2, 2, 1)) == 2
        assert multipartite_chain((2, 2, 1)) == [3, 2, 1]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            multipartite_eta((1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multipartite_eta(())

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError, match="part sizes must be >= 1"):
            multipartite_eta((2, 0))

    def test_bounded_by_part_count(self):
        for total in range(1, 13):
            for parts in partitions(total):
                assert multipartite_eta(parts) <= len(parts)

    def test_chain_growth_cap(self):
        # each s_i stays within |V_i| * (r - i + 1), the bound that caps the
        # recursion at r labels
        for total in range(1, 13):
            for parts in partitions(total):
                r = len(parts)
                chain = multipartite_chain(parts)
                for i, s in enumerate(chain, 1):
                    assert s <= parts[i - 1] * (r - i + 1)


class TestCombined:
    def test_k4_pinch(self):
        report = combined_bounds(g_of("complete:4"))
        assert (report.eta_lower, report.eta_upper) == (4, 4)

    def test_c5(self):
        report = combined_bounds(g_of("cycle:5"))
        assert (report.eta_lower, report.eta_upper) == (2, 3)

    def test_p3_short_circuit(self):
        report = combined_bounds(g_of("path:3"))
        assert (report.eta_lower, report.eta_upper) == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_sound_against_oracle(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 5)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        report = combined_bounds(g)
        eta = eta_naive(g)
        assert report.eta_lower <= eta <= report.eta_upper

    def test_upper_bound_alone_matches(self, all_n6, conn_small):
        # every graph in data/ with n <= 7, and the small family instances
        for g in all_n6 + conn_small + [g_of(text) for text in small_specs()]:
            assert eta_upper_bound(g) == combined_bounds(g).eta_upper

    def test_labeling_proves_the_upper_bound(self, all_n6, conn_small, conn_n8):
        # every eta <= 1 graph carries all ones, and every split graph whose
        # split bound is at most the degree bound its split labeling; a
        # labeling verifies with exactly eta_upper labels
        for g in all_n6 + conn_small + conn_n8 + [g_of(text) for text in small_specs()]:
            report = combined_bounds(g)
            split = split_recognize(g)
            if is_eta_one(g) or (
                split is not None and split_upper_bound(g, split[0]) <= degree_upper_bound(g)
            ):
                assert report.labeling is not None
            if report.labeling is not None:
                assert report.labeling.k == report.eta_upper
                assert verify_additive_coloring(g, report.labeling)

    def test_results_match_golden_digest(self, all_n6, conn_small, conn_n8):
        digest = hashlib.sha256()
        for g in all_n6 + conn_small + conn_n8 + [g_of(text) for text in small_specs()]:
            r = combined_bounds(g)
            digest.update(f"{r.eta_lower} {r.eta_upper} {r.witnesses}\n".encode())
        assert digest.hexdigest() == GOLDEN_BOUNDS

    def test_witnesses_reverify(self, conn_small):
        for g in conn_small:
            if g.n > 6:
                break
            for name, data in combined_bounds(g).witnesses:
                if name == "true_twins":
                    assert tuple(data) in g.true_twins
                elif name == "clique":
                    assert data and all(
                        g.masks[u] >> v & 1 for u in data for v in data if u != v
                    )
                elif name == "split":
                    assert_maximal_split_partition(g, *data)
                elif name == "max_degree":
                    assert data == g.max_degree()


def assert_maximal_split_partition(g, q, s):
    """Q and S partition the vertices, Q is a clique that no vertex of S
    extends, and S is stable."""
    assert sorted(q + s) == list(range(g.n))
    q_mask = 0
    for v in q:
        q_mask |= 1 << v
    for v in q:
        assert g.masks[v] & q_mask == q_mask ^ (1 << v)
    for i, u in enumerate(s):
        for v in s[i + 1:]:
            assert not g.masks[u] >> v & 1
    assert not any(g.masks[v] & q_mask == q_mask for v in s)
