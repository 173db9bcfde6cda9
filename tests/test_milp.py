import hashlib
import random
import re

import pytest

from addcolor.bounds import eta_upper_bound
from addcolor.families import generate, parse_spec
from addcolor.graph import Graph
from addcolor.milp import (
    build_model,
    model_counts,
    write_lp,
)
from addcolor.solver import chromatic_exact, eta_exact

from oracles import (
    BINARY,
    INTEGER,
    Variable,
    highs_input,
    model_optimum,
    point_feasible,
    read_back,
    read_lp,
)


def g_of(text):
    return generate(parse_spec(text))


def big_m(g, u, v, ub):
    """M_uv as build_model emits it: the rhs of the c_z_{u}_{v} row is M - 1."""
    rows = read_back(build_model(g, ub)).constraints
    row = next(c for c in rows if c.name == f"c_z_{u}_{v}")
    return row.rhs + 1


class TestBigM:
    def test_path_pair(self):
        g = g_of("path:3")
        # |N(0)\N(1)| = 1, |N(1)\N(0)| = 2
        assert big_m(g, 0, 1, 2) == 1 + 1 * 2 - 2

    def test_k2(self):
        assert big_m(g_of("complete:2"), 0, 1, 2) == 2

    def test_true_twin_pair(self):
        # open neighborhoods differ exactly by the endpoints, so M = UB
        g = g_of("complete:3")
        assert big_m(g, 0, 1, 3) == 3
        assert big_m(g, 0, 1, 7) == 7

    def test_bad_ub_rejected(self):
        with pytest.raises(ValueError):
            build_model(g_of("complete:2"), 0)

    def test_slack_at_zero_is_exact(self, all_n6):
        # M - 1 equals the worst case of f(N(u)) - f(N(v)) over [UB]^V
        import itertools

        for g in all_n6:
            if g.n > 4 or g.edge_count == 0:
                continue
            for ub in (1, 2, 3):
                for u, v in g.edges():
                    worst = max(
                        sum(f[w] for w in g.neighbors[u]) - sum(f[w] for w in g.neighbors[v])
                        for f in itertools.product(range(1, ub + 1), repeat=g.n)
                    )
                    assert big_m(g, u, v, ub) - 1 == worst


class TestBuildModel:
    def test_k2_structure(self):
        model = build_model(g_of("complete:2"), 2)
        counts = model_counts(model)
        assert counts["integer_variables"] == 3
        assert counts["binary_variables"] == 2
        assert counts["constraints"] == 2 + 1 + 2

    def test_k2_optimum(self):
        g = g_of("complete:2")
        assert model_optimum(read_back(build_model(g, 2)), g, 2) == 2

    def test_c5_optimum(self):
        g = g_of("cycle:5")
        assert model_optimum(read_back(build_model(g, 3)), g, 3) == 3

    def test_p3_optimum_is_one(self):
        g = g_of("path:3")
        assert model_optimum(read_back(build_model(g, 2)), g, 2) == 1

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            build_model(Graph.from_edges(3, []), 2)

    @pytest.mark.parametrize("valid", [False, True])
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_variants_agree(self, valid, symmetry):
        for text in ("path:4", "complete:3", "cycle:4", "multipartite:2,1"):
            g = g_of(text)
            ub = eta_exact(g).value + 1
            model = read_back(build_model(g, ub, valid, symmetry))
            assert model_optimum(model, g, ub) == eta_exact(g).value

    def test_equivalence_all_connected_n6(self, conn_small):
        # exhaustive counterpart of the sampled acceptance check (about half
        # a minute: enumeration is (eta+2-1)^6 points per graph and variant)
        variants = [(False, False), (True, False), (False, True), (True, True)]
        for g in conn_small:
            if g.n != 6:
                continue
            eta = eta_exact(g).value
            ub = eta + 1
            for valid, symmetry in variants:
                model = read_back(build_model(g, ub, valid, symmetry))
                assert model_optimum(model, g, ub) == eta


@pytest.mark.parametrize("valid", [False, True])
@pytest.mark.parametrize("symmetry", [False, True])
def test_highs_optimum_equals_eta(conn_small, conn_n8, valid, symmetry):
    # the paper's integer program solved by HiGHS, past the n <= 6 reach of
    # model_optimum: seeded n = 7 and n = 8 samples and small families, with
    # UB from the bounds and UB = chi (eta <= chi holds on all of them)
    pytest.importorskip("scipy")
    from scipy.optimize import milp

    rng = random.Random(19)
    graphs = rng.sample([g for g in conn_small if g.n == 7], 4) + rng.sample(conn_n8, 6)
    graphs += [g_of(t) for t in ("cycle:7", "wheel:6", "thick-spider:3", "multipartite:3,2,2")]
    for g in graphs:
        eta = eta_exact(g).value
        for ub in {eta_upper_bound(g), chromatic_exact(g).value}:
            model = read_back(build_model(g, ub, valid, symmetry))
            result = milp(**highs_input(model))
            assert result.status == 0 and round(result.fun) == eta


def seeded_gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])


class TestRowsByDefinition:
    def test_rows_match_definition(self, all_n6):
        # c_z rows: one per ordered edge whose z is live, +f_w for w in
        # N(a)\\N(b), -f_w for w in N(b)\\N(a), both ascending, then M z(a,b)
        # with M from the two set sizes; c_vi rows: the O(n^2) triple scan.
        # Past n = 6: dense families, where a row keeps few of its edge's
        # neighbors, and seeded G(14, 1/2)
        dense = ("thick-spider:12", "complete-split:6,9", "complete:9", "complete-sun:8")
        graphs = all_n6 + [g_of(t) for t in dense] + [seeded_gnp(14, 0.5, s) for s in range(20)]
        for g in graphs:
            if g.edge_count == 0:
                continue
            nbr = [set(g.neighbors[v]) for v in range(g.n)]
            for valid in (False, True):
                for symmetry in (False, True):
                    model = build_model(g, 3, valid, symmetry)
                    gone = model.eliminated_variables
                    rows = read_back(model).constraints
                    z_rows = [c for c in rows if c.name.startswith("c_z_")]
                    assert {c.name for c in z_rows} == {
                        f"c_z_{a}_{b}"
                        for u, v in g.edges() for a, b in ((u, v), (v, u))
                        if f"z_{a}_{b}" not in gone
                    }
                    for c in z_rows:
                        a, b = map(int, c.name.split("_")[2:])
                        expected = [(1, f"f_v{w}") for w in sorted(nbr[a] - nbr[b])]
                        expected += [(-1, f"f_v{w}") for w in sorted(nbr[b] - nbr[a])]
                        m = 1 + len(nbr[a] - nbr[b]) * 3 - len(nbr[b] - nbr[a])
                        expected.append((m, f"z_{a}_{b}"))
                        assert list(c.terms) == expected
                        assert c.rhs == m - 1
                    expected_vi = [
                        f"c_vi_{u}_{v}_{w}"
                        for u in range(g.n) for v in range(g.n)
                        if valid and u != v and v not in nbr[u] and nbr[u] < nbr[v]
                        for w in sorted(nbr[u])
                        if f"z_{v}_{w}" not in gone and f"z_{w}_{u}" not in gone
                    ]
                    assert [c.name for c in rows if c.name.startswith("c_vi_")] == expected_vi


def valid_rows(g, ub):
    model = read_back(build_model(g, ub, valid_inequalities=True))
    return [c.name for c in model.constraints if c.name.startswith("c_vi_")]


class TestValidInequalities:
    def test_star_none(self):
        # leaf neighborhoods are equal, never properly contained
        assert valid_rows(g_of("multipartite:3,1"), 2) == []

    def test_p4_two(self):
        assert sorted(valid_rows(g_of("path:4"), 2)) == ["c_vi_0_2_1", "c_vi_3_1_2"]

    def test_complete_none(self):
        assert valid_rows(g_of("complete:5"), 5) == []

    def test_valid_on_feasible_points(self, all_n6):
        # every feasible point of the base model satisfies the inequalities
        import itertools

        for g in all_n6:
            if g.n > 4 or g.edge_count == 0:
                continue
            ub = eta_exact(g).value + 1
            base = read_back(build_model(g, ub))
            extended = read_back(build_model(g, ub, valid_inequalities=True))
            for f in itertools.product(range(1, ub + 1), repeat=g.n):
                if point_feasible(base, g, f):
                    assert point_feasible(extended, g, f)


def symmetry_summary(g, ub):
    """(chains added, variables eliminated, rows dropped) of the twin
    symmetry breaking, read off the model against the plain one."""
    plain = read_back(build_model(g, ub))
    model = build_model(g, ub, twin_symmetry=True)
    rows = read_back(model).constraints
    chains = sum(c.name.startswith("c_chain_") for c in rows)
    dropped = len(plain.constraints) - (len(rows) - chains)
    return chains, len(model.eliminated_variables), dropped


class TestTwinSymmetry:
    def test_k3_class(self):
        g = g_of("complete:3")
        assert symmetry_summary(g, 3) == (2, 2, 3)
        assert model_optimum(read_back(build_model(g, 3, twin_symmetry=True)), g, 3) == 3

    def test_star_false_twins(self):
        g = g_of("multipartite:3,1")  # K_{1,3} with the center last
        assert symmetry_summary(g, 2) == (2, 4, 6)
        assert model_optimum(read_back(build_model(g, 2, twin_symmetry=True)), g, 2) == 1

    def test_twin_free_noop(self):
        assert symmetry_summary(g_of("path:4"), 2) == (0, 0, 0)

    def test_k4_eliminates_half(self):
        g = g_of("complete:4")
        model = build_model(g, 4, twin_symmetry=True)
        counts = model_counts(model)
        assert counts["eliminated_variables"] == 6
        assert counts["binary_variables"] == 12 - 6

    def test_preserves_optimum_small(self, all_n6):
        for g in all_n6:
            if g.n > 4 or g.edge_count == 0:
                continue
            ub = eta_exact(g).value + 1
            plain = model_optimum(read_back(build_model(g, ub)), g, ub)
            broken = model_optimum(read_back(build_model(g, ub, twin_symmetry=True)), g, ub)
            assert plain == broken == eta_exact(g).value

    def test_rows_are_plain_rows_minus_eliminated_plus_chains(self, all_n6):
        # one-pass build == the plain model with every row that mentions an
        # eliminated z removed, followed by the chain rows
        eliminating = 0
        for g in all_n6:
            if g.edge_count == 0:
                continue
            for valid in (False, True):
                plain = read_back(build_model(g, 3, valid))
                model = build_model(g, 3, valid, True)
                gone = model.eliminated_variables
                lp = read_back(model)
                kept = [c for c in plain.constraints
                        if not any(name in gone for _, name in c.terms)]
                chains = [c for c in lp.constraints if c.name.startswith("c_chain_")]
                assert lp.constraints == kept + chains
                assert [v for v in plain.variables if v.name not in gone] == lp.variables
                eliminating += bool(gone)
        assert eliminating > 100


class TestWriteLp:
    def test_k2_text(self):
        text = write_lp(build_model(g_of("complete:2"), 2))
        assert text.startswith("Minimize\n obj: k\n")
        assert "c_z_0_1: f_v1 - f_v0 + 2 z_0_1 <= 1" in text
        assert "c_z_1_0: f_v0 - f_v1 + 2 z_1_0 <= 1" in text
        assert "c_pair_0_1: z_0_1 + z_1_0 = 1" in text
        assert "1 <= f_v0 <= 2" in text
        assert "1 <= k" in text
        assert text.rstrip().endswith("End")

    def test_deterministic(self):
        g = g_of("cycle:5")
        assert write_lp(build_model(g, 3, True, True)) == write_lp(
            build_model(g, 3, True, True)
        )

    def test_sections_in_order(self):
        text = write_lp(build_model(g_of("wheel:4"), 3))
        positions = [text.index(s) for s in
                     ("Minimize", "Subject To", "Bounds", "Generals", "Binaries", "End")]
        assert positions == sorted(positions)

    def test_syntax_tokens(self):
        # every constraint row: name colon, signed unit/coefficient terms, relation, rhs
        text = write_lp(build_model(g_of("complete-sun:3"), 2, True, True))
        body = text.split("Subject To\n", 1)[1].split("Bounds\n", 1)[0]
        row = re.compile(
            r"^ \w+: (- )?\d* ?\w+( [+-] \d* ?\w+)* (<=|>=|=) -?\d+$"
        )
        for line in body.splitlines():
            if not line.startswith("   "):  # wrapped continuation lines
                assert row.match(line), line

    def test_eliminated_vars_absent(self):
        model = build_model(g_of("complete:4"), 4, twin_symmetry=True)
        text = write_lp(model)
        for name in model.eliminated_variables:
            assert not re.search(rf"\b{name}\b", text)

    def test_long_rows_wrap_without_losing_terms(self):
        # a 25-leaf star makes hub rows exceed the wrap width
        g = g_of("multipartite:25,1")
        text = write_lp(build_model(g, 2))
        body = text.split("Subject To\n", 1)[1].split("Bounds\n", 1)[0]
        rows: dict[str, str] = {}
        current = None
        for line in body.splitlines():
            if line.startswith("   "):
                rows[current] += line
            else:
                current = line.split(":", 1)[0].strip()
                rows[current] = line
        hub_row = rows["c_z_25_0"]
        assert hub_row.count("f_v") == 26  # 25 one-sided neighbors plus the hub
        assert "<=" in hub_row

# sha256 of `write_lp(model)` followed by `repr(model_counts(model))` over
# every model below, computed at the commit before the twin classes became
# (gap, members) pairs, and before any source change that came with it. The
# digest pins every row, its order, every bound and the eliminated count.
GOLDEN_LP = "afaafaba96f86ff98f822b2f05d934a7c770630aa3d44be90e32a6e4a43a488c"
GOLDEN_LP_SPECS = ("complete-split:4,3", "windmill:4,3", "thick-spider:5", "multipartite:3,2,2")


def test_lp_text_matches_golden_digest(all_n6):
    from addcolor.bounds import combined_bounds

    graphs = [g for g in all_n6 if g.edge_count] + [g_of(s) for s in GOLDEN_LP_SPECS]
    digest = hashlib.sha256()
    for g in graphs:
        ub = combined_bounds(g).eta_upper
        for valid in (False, True):
            for symmetry in (False, True):
                model = build_model(g, ub, valid_inequalities=valid, twin_symmetry=symmetry)
                digest.update(write_lp(model).encode())
                digest.update(repr(model_counts(model)).encode())
    assert digest.hexdigest() == GOLDEN_LP


# Stars whose hub rows have exactly 20, 21, 40 and 41 terms, so the row wrap
# is pinned at and just past one and two times its width. sha256 of the LP
# text, `model_counts` and the sorted eliminated names over UB in
# (eta_upper, 3) and valid/symmetry on/off; computed before `write_lp` took
# one signed-term rule and one wrapper.
GOLDEN_LP_WRAP = "c52c939375b8b49026f340dff52a7be8e930688cda5c7bfc82465a4f29f46b14"
GOLDEN_LP_WRAP_SPECS = (
    "multipartite:18,1", "multipartite:19,1", "multipartite:38,1", "multipartite:39,1",
)


def test_wrapped_rows_match_golden_digest():
    from addcolor.bounds import combined_bounds

    digest = hashlib.sha256()
    for text in GOLDEN_LP_WRAP_SPECS:
        g = g_of(text)
        for ub in (combined_bounds(g).eta_upper, 3):
            for valid in (False, True):
                for symmetry in (False, True):
                    model = build_model(g, ub, valid_inequalities=valid, twin_symmetry=symmetry)
                    digest.update(write_lp(model).encode())
                    digest.update(repr(model_counts(model)).encode())
                    digest.update(repr(sorted(model.eliminated_variables)).encode())
    assert digest.hexdigest() == GOLDEN_LP_WRAP


def test_lp_text_reads_back_as_the_model(all_n6):
    # an LP reader that shares no code with write_lp finds as many rows as
    # model_counts reports (wrapped rows included), the model's binaries in
    # order after k and the labels in [1, UB], and the objective k; the
    # eliminated z are the binaries that twin symmetry breaking removes
    from addcolor.bounds import combined_bounds

    graphs = [g for g in all_n6 if g.edge_count]
    graphs += [g_of(s) for s in GOLDEN_LP_SPECS + GOLDEN_LP_WRAP_SPECS]
    wrapped = eliminating = 0
    for g in graphs:
        ub = combined_bounds(g).eta_upper
        integers = [Variable("k", INTEGER, 1, None)]
        integers += [Variable(f"f_v{v}", INTEGER, 1, ub) for v in range(g.n)]
        for valid in (False, True):
            binaries = {}
            for symmetry in (False, True):
                model = build_model(g, ub, valid_inequalities=valid, twin_symmetry=symmetry)
                text = write_lp(model)
                lp = read_lp(text)
                counts = model_counts(model)
                assert len(lp.constraints) == counts["constraints"] == len(model.constraints)
                assert lp.variables == integers + [Variable(z, BINARY, 0, 1) for z in model.binaries]
                assert counts["integer_variables"] == len(integers)
                assert counts["binary_variables"] == len(model.binaries)
                assert lp.objective == ((1, "k"),)
                binaries[symmetry] = model.binaries
                wrapped += "\n    " in text
            assert model.eliminated_variables == set(binaries[False]) - set(binaries[True])
            eliminating += bool(model.eliminated_variables)
    assert wrapped and eliminating


def test_large_model_peak_memory():
    # the model holds each row as text, with no object per term: building
    # and writing thick-spider:40 (8 660 rows, 146 800 terms) peaked at
    # 8.4 MB while every term was a (coef, name) tuple
    import tracemalloc

    g = g_of("thick-spider:40")
    ub = eta_upper_bound(g)
    tracemalloc.start()
    try:
        write_lp(build_model(g, ub, valid_inequalities=True, twin_symmetry=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.2f} MB"


# Models far past the goldens above, as `acp export-lp --valid --symmetry`
# writes them (UB from eta_upper_bound): rows of up to 150 terms and
# thousands of rows. sha256 of `write_lp(model)` and `repr(model_counts)`
# per model, computed before the one-sided neighbour lists came from set
# differences and `write_lp` formatted its rows in one loop.
GOLDEN_LP_LARGE = "13daed9bcb70f3f75d0018ba76f155033ae0e2d91426ab3b9d8cecf2ba13b816"
GOLDEN_LP_LARGE_SPECS = (
    "thick-spider:40", "complete-sun:40", "join-complete:5:cycle:80", "wheel:150",
)


def test_large_lp_text_matches_golden_digest():
    digest = hashlib.sha256()
    for text in GOLDEN_LP_LARGE_SPECS:
        g = g_of(text)
        model = build_model(g, eta_upper_bound(g), valid_inequalities=True, twin_symmetry=True)
        digest.update(write_lp(model).encode())
        digest.update(repr(model_counts(model)).encode())
    assert digest.hexdigest() == GOLDEN_LP_LARGE
