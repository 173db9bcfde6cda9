import math

import pytest

from addcolor.bounds import combined_bounds
from addcolor.families import (
    PROVENANCE_CONSTRUCTION,
    PROVENANCE_HYBRID,
    PROVENANCE_SOLVER,
    FamilySpec,
    certify,
    eta_formula,
    eta_of_join_with_complete,
    generate,
    parse_spec,
)
from addcolor.graph import neighborhood_sum, verify_additive_coloring
from addcolor.solver import chromatic_exact, eta_exact


def sums(spec_text):
    spec = parse_spec(spec_text)
    g = generate(spec)
    lab = certify(spec).labeling
    return [neighborhood_sum(g, lab, v) for v in range(g.n)], lab


class TestSpecParsing:
    @pytest.mark.parametrize(
        "text",
        [
            "cycle:7", "path:5", "complete:4", "complete-split:3,2", "fan:3",
            "wheel:6", "windmill:4,3", "thin-spider:4", "thick-spider:5",
            "cycle-sun:5", "wheel-sun:5", "complete-sun:6", "multipartite:3,2,2",
            "regular-bipartite:4,2", "biregular-bipartite:6,4,2",
            "join-complete:2:cycle:6",
        ],
    )
    def test_roundtrip(self, text):
        assert parse_spec(text).text() == text

    @pytest.mark.parametrize(
        "text",
        [
            "fan:2", "wheel:3", "windmill:2,2", "windmill:3,1", "thin-spider:1",
            "cycle-sun:3", "complete-sun:2", "cycle:2", "complete-split:2,1",
            "multipartite:1,2", "multipartite:0,0", "biregular-bipartite:3,2,1",
            "join-complete:3:multipartite:2,2", "unknown:3", "cycle:x",
        ],
    )
    def test_out_of_domain_rejected(self, text):
        with pytest.raises(ValueError):
            parse_spec(text)


class TestGenerate:
    def test_thin_spider_counts(self):
        g = generate(parse_spec("thin-spider:3"))
        assert g.n == 6 and g.edge_count == 3 + 3  # C(3,2) + matching

    def test_complete_sun_counts(self):
        g = generate(parse_spec("complete-sun:3"))
        assert g.n == 6 and g.edge_count == 3 + 6

    def test_windmill_shape(self):
        g = generate(parse_spec("windmill:3,2"))
        assert g.n == 5 and g.edge_count == 2 * 3
        hub = 4
        assert g.degree(hub) == 4

    def test_vertex_ordering_complete_split(self):
        g = generate(parse_spec("complete-split:3,2"))
        for i in range(3):
            assert g.degree(i) == 2 + 2  # clique first
        for i in range(3, 5):
            assert g.degree(i) == 3

    def test_sun_pendants_last(self):
        g = generate(parse_spec("cycle-sun:5"))
        assert all(g.degree(v) == 4 for v in range(5))
        assert all(g.degree(v) == 2 for v in range(5, 10))

    def test_biregular_degrees(self):
        g = generate(parse_spec("biregular-bipartite:6,4,2"))
        assert all(g.degree(v) == 2 for v in range(6))
        assert all(g.degree(v) == 3 for v in range(6, 10))


class TestFormula:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("cycle:6", 2), ("cycle:5", 3), ("cycle:3", 3),
            ("thin-spider:5", 3), ("thick-spider:4", 3),
            ("complete-sun:7", 3), ("complete-sun:3", 2),
            ("multipartite:1,1,1,1", 4), ("multipartite:2,2,1", 2),
            ("complete:6", 6), ("complete-split:3,2", 3),
            ("fan:5", 2), ("wheel:6", 2), ("wheel:7", 3),
            ("windmill:4,3", 3), ("path:2", 2), ("path:3", 1), ("path:7", 2),
            ("cycle-sun:6", 2), ("wheel-sun:5", 2),
            ("regular-bipartite:4,2", 2), ("biregular-bipartite:6,4,2", 1),
        ],
    )
    def test_values(self, text, expected):
        assert eta_formula(parse_spec(text)) == expected

    def test_join_formula(self):
        assert eta_of_join_with_complete(2, 6, 2, 1) == 2
        assert eta_of_join_with_complete(3, 12, 5, 5) == 5

    def test_join_formula_out_of_range(self):
        # the formula genuinely fails at q = n - max_degree
        with pytest.raises(ValueError):
            eta_of_join_with_complete(2, 6, 2, 4)
        with pytest.raises(ValueError):
            eta_of_join_with_complete(2, 6, 2, 0)


class TestConstructions:
    def test_odd_cycle_pinned_vector(self):
        spec = parse_spec("cycle:5")
        assert certify(spec).labeling.labels == (2, 1, 3, 1, 1)
        s, _ = sums("cycle:5")
        assert s == [2, 5, 2, 4, 3]

    def test_thick_spider_pinned_vector(self):
        lab = certify(parse_spec("thick-spider:3")).labeling
        assert lab.labels == (1, 2, 2, 1, 1, 2)

    def test_thin_spider_sums_increase(self):
        # the clique sums form an increasing run by construction
        s, _ = sums("thin-spider:5")
        clique_sums = s[:5]
        assert clique_sums == sorted(clique_sums)
        assert len(set(clique_sums)) == 5

    def test_wheel_sun5_bespoke(self):
        lab = certify(parse_spec("wheel-sun:5")).labeling
        assert lab.labels == (1, 1, 2, 1, 2, 2, 2, 2, 1, 1, 2)
        s, _ = sums("wheel-sun:5")
        assert s[5] == 2 and s[6] == 3          # first two pendants
        assert s[4] == 6 and s[10] == 7          # u_5 and the hub
        assert s[0] == s[2] == 8 and s[1] == s[3] == 9

    def test_complete_sun3_tables(self):
        lab = certify(parse_spec("complete-sun:3")).labeling
        assert lab.k == 2
        assert verify_additive_coloring(generate(parse_spec("complete-sun:3")), lab)

    def test_complete_sun_tables_wide_range(self):
        # every residue of m mod 6 several times over
        for m in range(3, 41):
            spec = FamilySpec("complete-sun", (m,))
            lab = certify(spec).labeling
            assert lab.k == math.ceil((m + 2) / 3)

    def test_even_cycle_bipartite_labeling(self):
        lab = certify(parse_spec("cycle:8")).labeling
        assert lab.labels == (2, 1, 2, 1, 2, 1, 2, 1)

    def test_complete_split_labeling(self):
        lab = certify(parse_spec("complete-split:3,2")).labeling
        assert lab.labels == (1, 2, 3, 3, 3)

    def test_star_is_eta_one(self):
        lab = certify(parse_spec("complete-split:1,4")).labeling
        assert lab.k == 1

    @pytest.mark.parametrize("m", range(4, 12))
    def test_cycle_sun_both_parities(self, m):
        assert certify(FamilySpec("cycle-sun", (m,))).labeling.k == 2

    @pytest.mark.parametrize("m", range(4, 12))
    def test_wheel_sun_both_parities(self, m):
        assert certify(FamilySpec("wheel-sun", (m,))).labeling.k == 2

    def test_provenances(self):
        assert certify(parse_spec("path:5")).provenance == PROVENANCE_SOLVER
        assert certify(parse_spec("multipartite:2,2")).provenance == PROVENANCE_SOLVER
        assert certify(parse_spec("fan:4")).provenance == PROVENANCE_HYBRID
        assert certify(parse_spec("wheel:5")).provenance == PROVENANCE_CONSTRUCTION
        assert certify(parse_spec("windmill:3,2")).provenance == PROVENANCE_CONSTRUCTION
        assert certify(parse_spec("complete-sun:5")).provenance == PROVENANCE_CONSTRUCTION


def small_specs():
    texts = []
    texts += [f"path:{n}" for n in range(1, 9)]
    texts += [f"cycle:{n}" for n in range(3, 12)]
    texts += [f"complete:{n}" for n in range(1, 7)]
    texts += [f"complete-split:{q},{s}" for q in range(1, 4) for s in range(2, 5)]
    texts += [f"fan:{n}" for n in range(3, 8)]
    texts += [f"wheel:{n}" for n in range(4, 10)]
    texts += ["windmill:3,2", "windmill:3,3", "windmill:4,2", "windmill:5,2"]
    texts += [f"thin-spider:{q}" for q in range(2, 7)]
    texts += [f"thick-spider:{q}" for q in range(2, 7)]
    texts += [f"cycle-sun:{m}" for m in range(4, 7)]
    texts += [f"wheel-sun:{m}" for m in range(4, 6)]
    texts += [f"complete-sun:{m}" for m in range(3, 7)]
    texts += ["multipartite:2,2,1", "multipartite:3,3", "multipartite:4,2,1",
              "multipartite:2,2,2,2", "multipartite:1,1,1,1,1"]
    texts += ["regular-bipartite:4,2", "regular-bipartite:5,3",
              "biregular-bipartite:6,4,2", "biregular-bipartite:6,3,2"]
    texts += ["join-complete:2:cycle:6", "join-complete:1:path:5",
              "join-complete:2:multipartite:3,3"]
    return texts


@pytest.mark.parametrize("text", small_specs())
def test_formula_certificate_solver_coherence(text):
    spec = parse_spec(text)
    g = generate(spec)
    cert = certify(spec)
    assert cert.labeling.k == cert.eta
    assert verify_additive_coloring(g, cert.labeling)
    assert cert.eta == eta_formula(spec)
    if g.n <= 12:
        assert eta_exact(g).value == cert.eta
    report = combined_bounds(g)
    assert cert.eta >= report.eta_lower
    assert cert.lower_bound_witness


@pytest.mark.parametrize("text", [t for t in small_specs() if True])
def test_conjecture_on_families(text):
    spec = parse_spec(text)
    g = generate(spec)
    if g.n > 14:
        pytest.skip("chromatic solve limited")
    assert eta_formula(spec) <= chromatic_exact(g).value
