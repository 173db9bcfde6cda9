import hashlib
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from addcolor import solver
from addcolor.bounds import combined_bounds
from addcolor.cli import main
from addcolor.families import (
    KINDS,
    FamilySpec,
    _edge_count,
    _edges,
    _max_degree,
    _vertex_count,
    certify,
    eta_formula,
    generate,
    parse_spec,
)
from addcolor.graph import (
    EDGE_LIMIT,
    Graph,
    neighborhood_sum,
    proves_lower,
    verify_additive_coloring,
)
from addcolor.graph6 import write_graph6
from addcolor.solver import chromatic_exact, eta_exact

from oracles import eta_naive, lower_witness_shows, partitions


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
        # max(eta(G), q) for 1 <= q <= n - max_degree - 1
        assert eta_formula(parse_spec("join-complete:1:cycle:6")) == 2
        assert eta_formula(parse_spec("join-complete:2:cycle:7")) == 3
        assert eta_formula(parse_spec("join-complete:5:cycle:12")) == 5
        assert eta_formula(parse_spec("join-complete:3:cycle:6")) == 3

    def test_join_formula_out_of_range(self):
        # the formula genuinely fails at q = n - max_degree, so the spec is
        # rejected when it is made
        with pytest.raises(ValueError, match="n - max_degree - 1 = 3, got q=4"):
            parse_spec("join-complete:4:cycle:6")
        with pytest.raises(ValueError, match="got q=0"):
            parse_spec("join-complete:0:cycle:6")
        with pytest.raises(ValueError):
            FamilySpec("join-complete", (4,), parse_spec("cycle:6"))


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

    def test_certificates_run_no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a certificate ran the eta search")

        monkeypatch.setattr(solver, "eta_exact", refuse)
        for text in DIGEST_ACCEPTED:
            certify(parse_spec(text))

    def test_path_labeling_wide_range(self):
        # certify checks k == eta_formula and the labeling; every n mod 4
        for n in range(1, 401):
            certify(FamilySpec("path", (n,)))

    def test_multipartite_labeling_every_partition(self):
        for total in range(1, 15):
            for parts in partitions(total):
                certify(FamilySpec("multipartite", parts))

    def test_path_and_multipartite_formulas_are_optimal(self):
        # brute force over all labelings, independent of the eta search
        specs = [FamilySpec("path", (n,)) for n in range(1, 9)]
        specs += [FamilySpec("multipartite", p) for t in range(1, 8) for p in partitions(t)]
        for spec in specs:
            assert eta_naive(generate(spec)) == eta_formula(spec), spec.text()


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
    assert proves_lower(g, report.witnesses, report.eta_lower)


@pytest.mark.parametrize("text", small_specs())
def test_join_range_from_edge_list_degrees(text):
    # each row lists each edge once, and the join's range limit n - Delta - 1
    # (from the inner row's closed-form max degree) is the built graph's
    spec = parse_spec(text)
    g = generate(spec)
    degree = Counter(v for edge in _edges(spec) for v in edge)
    assert tuple(degree[v] for v in range(g.n)) == g.degrees()
    limit = g.n - g.max_degree() - 1
    if limit >= 1:
        assert parse_spec(f"join-complete:{limit}:{text}").params == (limit,)
    with pytest.raises(ValueError, match=f"= {limit}, got q={limit + 1}"):
        parse_spec(f"join-complete:{limit + 1}:{text}")


@pytest.mark.parametrize("text", small_specs())
def test_conjecture_on_families(text):
    spec = parse_spec(text)
    assert eta_formula(spec) <= chromatic_exact(generate(spec)).value


# Every kind and each special-case branch: paths 1..3, cycle:3, spiders of
# order 2, wheel-sun:5, complete-sun:3..14 (all residues of m mod 6), and
# joins over every kind of inner labeling.
DIGEST_ACCEPTED = (
    [f"path:{n}" for n in range(1, 10)]
    + [f"cycle:{n}" for n in range(3, 17)]
    + [f"complete:{n}" for n in range(1, 9)]
    + ["complete-split:1,2", "complete-split:1,4", "complete-split:2,2",
       "complete-split:3,2", "complete-split:3,4", "complete-split:4,3"]
    + [f"fan:{n}" for n in range(3, 10)]
    + [f"wheel:{n}" for n in range(4, 13)]
    + ["windmill:3,2", "windmill:3,3", "windmill:3,4", "windmill:4,2", "windmill:4,3",
       "windmill:5,2", "windmill:6,2"]
    + [f"thin-spider:{q}" for q in range(2, 8)]
    + [f"thick-spider:{q}" for q in range(2, 8)]
    + [f"cycle-sun:{m}" for m in range(4, 9)]
    + [f"wheel-sun:{m}" for m in range(4, 9)]
    + [f"complete-sun:{m}" for m in range(3, 15)]
    + ["multipartite:1", "multipartite:3", "multipartite:2,1", "multipartite:3,1",
       "multipartite:2,2", "multipartite:2,2,1", "multipartite:3,2,2", "multipartite:3,3",
       "multipartite:4,2,1", "multipartite:2,2,2,2", "multipartite:1,1,1,1,1",
       "multipartite:5,1"]
    + ["regular-bipartite:1,1", "regular-bipartite:3,1", "regular-bipartite:4,2",
       "regular-bipartite:5,3", "regular-bipartite:4,4"]
    + ["biregular-bipartite:6,4,2", "biregular-bipartite:6,3,2", "biregular-bipartite:2,4,2",
       "biregular-bipartite:3,3,3", "biregular-bipartite:4,2,1", "biregular-bipartite:2,1,1"]
    + ["join-complete:2:cycle:6", "join-complete:1:cycle:5", "join-complete:3:cycle:8",
       "join-complete:1:cycle:8", "join-complete:1:path:5", "join-complete:2:multipartite:3,3",
       "join-complete:1:thin-spider:4", "join-complete:3:thin-spider:4",
       "join-complete:1:thick-spider:5", "join-complete:1:biregular-bipartite:6,4,2",
       "join-complete:2:biregular-bipartite:6,4,2"]
    + ["CYCLE:5", " wheel:6 "]
)
DIGEST_REJECTED = (
    "unknown:3", "", "cycle", "cycle:", "cycle:x", "cycle:5.0", "cycle:2", "cycle:-5",
    "cycle:5,6", "path:0", "complete:0", "fan:2", "wheel:3", "thin-spider:1",
    "thick-spider:1", "cycle-sun:3", "wheel-sun:3", "complete-sun:2",
    "windmill:2,2", "windmill:3,1", "windmill:3", "complete-split:0,2",
    "complete-split:2,1", "complete-split:2", "multipartite:", "multipartite:1,2",
    "multipartite:0,0", "multipartite:2,-1", "regular-bipartite:4,5",
    "regular-bipartite:0,0", "regular-bipartite:4", "biregular-bipartite:3,2,1",
    "biregular-bipartite:0,2,1", "biregular-bipartite:3,2,3", "biregular-bipartite:3,2",
    "join-complete:3:multipartite:2,2", "join-complete:0:cycle:6", "join-complete:2",
    "join-complete::cycle:5", "join-complete:1:unknown:2", "join-complete:1:cycle:2",
    "join-complete:1:fan:4", "join-complete:1:join-complete:2:cycle:6",
)
# sha256 over each spec above of its text, the exit code, stdout and stderr
# of `acp family`, and for an accepted spec the graph6 of `generate` and
# `eta_formula`. It pins spec text, error messages, vertex orders, labelings
# and witnesses. Re-pinned once when paths and complete multipartite graphs
# got closed-form labelings in place of the solver's: only the labeling line
# of path:1-9, fan:3-9, the 12 multipartite specs, join-complete:1:path:5
# and join-complete:2:multipartite:3,3 changed (for path:1 and path:3 only
# its word "solver" became "construction"); the other 143 outputs are
# byte-identical to those the previous digest pinned. Re-pinned again when
# the `lower-bound witness:` line became the bounds' re-checked witness in
# place of a prose column: only those lines changed, as GOLDEN_FAMILY_BODY,
# pinned before that change and unedited by it, shows.
GOLDEN_FAMILY = "64483962ee7091a8fa22092e0f16fceaab2b125acfd439a1ab10b21c3eee994a"
# GOLDEN_FAMILY's digest with every `lower-bound witness:` line left out of
# stdout: it pins all the rest of each output, whatever the witness line says.
GOLDEN_FAMILY_BODY = "d1cbbaf67104976168a4b200ed83b036791c471bfb112234530486b8019bceac"


def family_digest(capsys, keep=lambda line: True):
    """GOLDEN_FAMILY's sha256, over the stdout lines `keep` accepts."""
    digest = hashlib.sha256()
    for text in (*DIGEST_ACCEPTED, *DIGEST_REJECTED):
        code = main(["family", text])
        captured = capsys.readouterr()
        assert (code == 0) == (text in DIGEST_ACCEPTED), text
        out = "".join(line for line in captured.out.splitlines(True) if keep(line))
        digest.update(f"{text}\n{code}\n{out}{captured.err}".encode())
        if code == 0:
            spec = parse_spec(text)
            digest.update(f"{write_graph6(generate(spec))}\n{eta_formula(spec)}\n".encode())
    return digest.hexdigest()


def test_family_outputs_match_golden_digest(capsys):
    assert family_digest(capsys) == GOLDEN_FAMILY


def test_family_outputs_bar_the_witness_line_match_golden_digest(capsys):
    body = family_digest(capsys, lambda line: not line.startswith("lower-bound witness: "))
    assert body == GOLDEN_FAMILY_BODY


@pytest.mark.parametrize(
    "text",
    ["cycle:7,", "multipartite:3,,2", "cycle:,7", "join-complete:x:cycle:5",
     # int() takes these, but they are not the canonical text of any spec
     "cycle:1_0", "cycle:+5", "cycle: 5", "multipartite:3, 2"],
)
def test_empty_or_non_integer_field_rejected(capsys, text):
    assert main(["family", text]) == 1
    assert capsys.readouterr().err == f"error: bad parameters in family spec {text!r}\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (("nope",), "unknown family kind 'nope'"),
        (("cycle", (5,), FamilySpec("cycle", (5,))), "cycle takes no inner spec"),
        (("join-complete", (1,)), "join-complete needs an inner spec"),
        (("join-complete", (1, 2), FamilySpec("cycle", (6,))),
         "join-complete takes one parameter q"),
    ],
)
def test_direct_construction_messages(args, message):
    with pytest.raises(ValueError) as exc:
        FamilySpec(*args)
    assert str(exc.value) == message


def _refuse_graphs(monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(refuse))


@pytest.mark.parametrize(
    "text",
    ["cycle:100000000000", "windmill:3,100000000000", "multipartite:200000,200000",
     "join-complete:1:cycle:100000000000"],
)
def test_oversized_spec_rejected_before_any_graph(capsys, monkeypatch, text):
    _refuse_graphs(monkeypatch)
    start = time.perf_counter()
    assert main(["family", text]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "family specs allow n <= 258047" in err


def test_join_range_check_builds_no_graph(monkeypatch):
    _refuse_graphs(monkeypatch)
    assert parse_spec("join-complete:1:cycle:20000").text() == "join-complete:1:cycle:20000"


def test_size_limit_is_the_graph6_writer_limit(monkeypatch):
    _refuse_graphs(monkeypatch)
    assert parse_spec("cycle:258047").text() == "cycle:258047"
    assert parse_spec("wheel-sun:129023").text() == "wheel-sun:129023"
    for text in ("cycle:258048", "wheel-sun:129024", "multipartite:129024,129024"):
        with pytest.raises(ValueError, match="allow n <= 258047"):
            parse_spec(text)


def test_readme_lists_every_kind_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme.split("Family specs:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([a-z-]+):", paragraph)) == KINDS


# the benchmark's certify-export grid: spec -> (n, m) from its reference table
EXPORT_TABLE = Path(__file__).resolve().parent.parent / "perfbench" / "ref" / "export.tsv"
EXPORT_SIZES = {
    spec: (int(n), int(m))
    for spec, n, m, *_ in (line.split("\t") for line in EXPORT_TABLE.read_text().splitlines())
    if not spec.startswith("#")
}


@pytest.mark.parametrize("text", small_specs() + list(EXPORT_SIZES))
def test_edge_count_column_counts_the_edge_list(text):
    spec = parse_spec(text)
    assert _edge_count(spec) == len(_edges(spec)) == generate(spec).edge_count
    if text in EXPORT_SIZES:
        assert (_vertex_count(spec), _edge_count(spec)) == EXPORT_SIZES[text]


@pytest.mark.parametrize("text", small_specs() + list(EXPORT_SIZES))
def test_max_degree_column_is_the_built_graphs(text):
    spec = parse_spec(text)
    assert _max_degree(spec) == generate(spec).max_degree()


def _refuse_edge_lists(monkeypatch):
    import addcolor.families as families

    def refuse(*args):
        raise AssertionError("an edge list was built")

    monkeypatch.setattr(families, "_FAMILIES", {
        kind: row._replace(edges=refuse) for kind, row in families._FAMILIES.items()
    })


def test_join_rule_lists_no_edges(capsys, monkeypatch):
    # the join's limit reads the inner row's closed-form max degree, so
    # refusing a join over K_2048 lists none of its 2 096 128 edges
    _refuse_edge_lists(monkeypatch)
    assert main(["family", "join-complete:1:complete:2048"]) == 1
    assert capsys.readouterr().err == (
        "error: join with K_q needs 1 <= q <= n - max_degree - 1 = 0, got q=1\n"
    )
    assert parse_spec("join-complete:1:cycle:20000").params == (1,)


def test_edge_limit_refuses_specs_before_any_edge_list(monkeypatch):
    _refuse_edge_lists(monkeypatch)
    assert parse_spec("complete:2048").text() == "complete:2048"
    for text in ("complete:2049", "thick-spider:1184", "complete-split:1000,2000",
                 "multipartite:1449,1448", "join-complete:1997:path:2000"):
        with pytest.raises(ValueError, match=f"edges; family specs allow m <= {EDGE_LIMIT}$"):
            parse_spec(text)


@pytest.mark.parametrize(
    "text", ["complete:258047", "thick-spider:129023", "complete:2049", "windmill:2049,2"]
)
def test_oversized_spec_exits_1_under_an_address_space_limit(text):
    # the edge cap refuses these before their edge list exists: without it
    # complete:258047 ends in a MemoryError traceback under this limit
    code = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from addcolor.cli import main; sys.exit(main(['family', sys.argv[1]]))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, text], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {text} has ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(f" edges; family specs allow m <= {EDGE_LIMIT}\n")


# the specs whose closed form sits above the witnessed lower bound, so that
# `acp family` says its eta rests on the closed form: the odd cycles and odd
# wheels (parity), the thick spiders from order 4 (pigeonhole on the clique
# sums), K_{2,2,2,2} and three joins over such inner graphs
NOT_CHECKED = {
    "cycle:5", "CYCLE:5", "cycle:7", "cycle:9", "cycle:11", "cycle:13", "cycle:15",
    "cycle:201", "wheel:5", "wheel:7", "wheel:9", "wheel:11", "thick-spider:4",
    "thick-spider:5", "thick-spider:6", "thick-spider:7", "thick-spider:40",
    "multipartite:2,2,2,2", "join-complete:1:cycle:5", "join-complete:1:thin-spider:4",
    "join-complete:1:thick-spider:5",
}
WITNESS_LINE = re.compile(
    r"^lower-bound witness: (?:none needed \(eta = 1\)"
    r"|(\w+)(?: ([0-9,]+))? \(eta >= (\d+), re-checked\))"
    r"(?:; eta >= (\d+) rests on the closed form, not checked)?$",
    re.M,
)


@pytest.mark.parametrize("text", DIGEST_ACCEPTED + list(EXPORT_SIZES))
def test_printed_lower_bound_witness_is_rechecked(capsys, text):
    # the printed witness shows the printed lower bound by the oracle, which
    # reads the edges alone; eta is that bound, unless the line says not
    code = main(["family", text])
    out = capsys.readouterr().out
    assert code == 0
    eta = int(re.search(r"^eta = (\d+)$", out, re.M).group(1))
    lower = int(re.search(r"^bounds: (\d+) <= eta <= \d+$", out, re.M).group(1))
    kind, members, bound, rest = WITNESS_LINE.search(out).groups()
    if kind is None:
        assert eta == lower == 1
    else:
        members = tuple(int(v) - 1 for v in members.split(",")) if members else ()
        assert int(bound) == lower
        assert lower_witness_shows(generate(parse_spec(text)), kind, members, lower)
    assert (rest is not None) == (text in NOT_CHECKED)
    assert eta == (lower if rest is None else int(rest))


def test_unwitnessed_lower_bound_is_a_fault(capsys, monkeypatch):
    # bounds that start one above their witnessed lower bound on every graph
    # they do not pinch: no witness shows that bound, so `acp family` prints
    # nothing and exits 4, where it printed the closed form before
    from test_cli import lower_bound_one_too_high  # test_cli imports this module

    texts = DIGEST_ACCEPTED + list(EXPORT_SIZES)
    reports = {text: combined_bounds(generate(parse_spec(text))) for text in texts}
    lower_bound_one_too_high(monkeypatch)
    for text in texts:
        report = reports[text]
        code = main(["family", text])
        out, err = capsys.readouterr()
        if report.eta_lower == report.eta_upper:
            assert code == 0 and err == "", text
            continue
        assert code == 4 and out == "", text
        assert err == (f"error: {parse_spec(text).text()}: no bounds witness shows "
                       f"eta >= {report.eta_lower + 1} (internal fault)\n")


def test_formula_below_its_witnessed_lower_bound_is_a_fault(capsys, monkeypatch):
    # K_5 claimed at 4 against its true-twin class of 5; the construction
    # check is made to pass, so only the lower side can catch it
    import addcolor.families as families

    monkeypatch.setattr(families, "proves_eta", lambda *args: True)
    monkeypatch.setitem(
        families._FAMILIES, "complete", families._FAMILIES["complete"]._replace(eta=lambda n: n - 1)
    )
    code = main(["family", "complete:5"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err == "error: complete:5: eta=4 is below the witnessed lower bound 5 (internal fault)\n"
