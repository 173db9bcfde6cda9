"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured scope (run with -s or -rA to see them).

Scopes and tolerances are fixed here: family ranges as listed per criterion,
exact equality everywhere, family suite under 5 minutes, the n <= 7
conjecture sweep under 10 minutes single-threaded.
"""

import itertools
import random
import time

from addcolor.bounds import (
    combined_bounds,
    is_eta_one,
    split_labeling,
    split_recognize,
    split_upper_bound,
)
from addcolor.cli import main as cli_main
from addcolor.families import certify, eta_formula, generate, parse_spec
from addcolor.graph import verify_additive_coloring
from addcolor.graph6 import parse_graph6, write_graph6
from addcolor.milp import build_model
from addcolor.solver import eta_exact

from conftest import DATA
from oracles import model_optimum, partitions, point_feasible


def criterion1_specs():
    texts = []
    texts += [f"cycle:{n}" for n in range(4, 13)]
    texts += [f"fan:{n}" for n in range(3, 9)]
    texts += [f"wheel:{n}" for n in range(4, 11)]
    texts += [f"windmill:{n},{m}" for n in (3, 4, 5) for m in (2, 3)]
    texts += [f"thin-spider:{q}" for q in range(2, 7)]
    texts += [f"thick-spider:{q}" for q in range(2, 7)]
    texts += [f"cycle-sun:{m}" for m in range(4, 9)]
    texts += [f"wheel-sun:{m}" for m in range(4, 9)]
    texts += [f"complete-sun:{m}" for m in range(3, 9)]
    texts += [f"complete-split:{q},{s}" for q in range(1, 5) for s in range(2, 5)]
    for total in range(1, 11):
        for parts in partitions(total):
            texts.append("multipartite:" + ",".join(map(str, parts)))
    texts += [f"complete:{n}" for n in range(1, 9)]
    return texts


def test_criterion_1_family_formula_suite():
    anchors = {
        "cycle:5": 3,
        "cycle:6": 2,
        "thin-spider:4": 3,
        "complete-sun:7": 3,
        "windmill:4,3": 3,
        "complete:6": 6,
    }
    start = time.perf_counter()
    checked = 0
    for text in criterion1_specs():
        spec = parse_spec(text)
        g = generate(spec)
        value = eta_formula(spec)
        result = eta_exact(g)
        assert result.ok, (text, result.status)
        assert result.value == value, (text, result.value, value)
        if text in anchors:
            assert value == anchors[text], text
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"family suite took {elapsed:.0f}s"
    print(f"ACCEPTANCE 1 PASS: eta_formula == eta_exact on {checked} family "
          f"instances in {elapsed:.1f}s")


def constructive_specs():
    texts = []
    texts += [f"path:{n}" for n in range(1, 13)]               # a 2 on every fourth vertex
    texts += [f"cycle:{n}" for n in range(4, 13)]              # odd: 3-label ring pattern, even: 2/1 bipartition
    texts += [f"regular-bipartite:{n},{d}" for n, d in ((3, 2), (4, 2), (5, 3), (6, 4))]
    texts += ["biregular-bipartite:6,4,2", "biregular-bipartite:6,3,2"]
    texts += [f"fan:{n}" for n in range(3, 10)]                # join with K_1
    texts += [f"wheel:{n}" for n in range(4, 11)]
    texts += [f"windmill:{n},{m}" for n in (3, 4, 5) for m in (2, 3)]
    texts += ["join-complete:2:cycle:6", "join-complete:3:multipartite:4,4"]
    texts += [f"complete-split:{q},{s}" for q in range(1, 5) for s in range(2, 5)]
    texts += [f"thin-spider:{q}" for q in range(2, 7)]
    texts += [f"thick-spider:{q}" for q in range(2, 7)]
    texts += [f"cycle-sun:{m}" for m in range(4, 9)]
    texts += [f"wheel-sun:{m}" for m in range(4, 9)]           # includes the bespoke m=5
    texts += [f"complete-sun:{m}" for m in range(3, 9)]        # permutation tables
    for total in range(1, 9):                                  # part sums s_i spread evenly
        texts += ["multipartite:" + ",".join(map(str, p)) for p in partitions(total)]
    return texts


def test_criterion_2_certificate_suite():
    checked = 0
    for text in constructive_specs():
        spec = parse_spec(text)
        cert = certify(spec)
        g = generate(spec)
        assert cert.labeling.k == eta_formula(spec), text
        assert verify_additive_coloring(g, cert.labeling), text
        checked += 1
    # the general split-graph construction beyond the named families: every
    # split graph in the small corpus at its own split bound
    split_checked = 0
    with open(DATA / "graphs_all_n1-6.g6") as fh:
        for line in fh:
            g = parse_graph6(line.strip())
            part = split_recognize(g)
            if part is None or g.n == 0:
                continue
            q, _ = part
            lab = split_labeling(g, q)
            assert verify_additive_coloring(g, lab)
            assert lab.k == split_upper_bound(g, q)
            split_checked += 1
    print(f"ACCEPTANCE 2 PASS: {checked} constructive certificates verified "
          f"(+ split constructions on {split_checked} split graphs)")


def test_criterion_3_conjecture_sweep_n7(tmp_path):
    report = tmp_path / "sweep_n7.txt"
    start = time.perf_counter()
    code = cli_main(["sweep", str(DATA / "graphs_conn_n1-7.g6"), "-o", str(report)])
    elapsed = time.perf_counter() - start
    assert code == 0
    text = report.read_text()
    records = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(records) == 996
    assert "# holds: 996 violations: 0 budget_exceeded: 0 parse_errors: 0" in text
    assert elapsed < 600, f"sweep took {elapsed:.0f}s"
    print(f"ACCEPTANCE 3 PASS: 996 connected graphs (n <= 7), eta <= chi "
          f"everywhere, single-threaded in {elapsed:.1f}s")


def test_criterion_4_milp_equivalence():
    connected = []
    with open(DATA / "graphs_conn_n1-7.g6") as fh:
        for line in fh:
            g = parse_graph6(line.strip())
            if g.n <= 5:
                connected.append(g)
    assert len(connected) == 31
    sample6 = []
    with open(DATA / "graphs_conn_n1-7.g6") as fh:
        pool = [parse_graph6(ln.strip()) for ln in fh]
    pool6 = [g for g in pool if g.n == 6]
    sample6 = random.Random(20260808).sample(pool6, 20)

    variants = [(False, False), (True, False), (False, True), (True, True)]
    checked = 0
    for g in connected:
        if g.edge_count == 0:
            continue
        eta = eta_exact(g).value
        ub = 6  # valid for every connected graph on <= 5 vertices (max eta is 5)
        assert eta <= ub
        for valid, symmetry in variants:
            model = build_model(g, ub, valid_inequalities=valid, twin_symmetry=symmetry)
            assert model_optimum(model, g, ub) == eta, (write_graph6(g), valid, symmetry)
        checked += 1
    for g in sample6:
        eta = eta_exact(g).value
        ub = eta + 1
        for valid, symmetry in variants:
            model = build_model(g, ub, valid_inequalities=valid, twin_symmetry=symmetry)
            assert model_optimum(model, g, ub) == eta, (write_graph6(g), valid, symmetry)
        checked += 1
    # pinned single-model optima at their stated bounds
    for text, ub, expected in (("complete:2", 2, 2), ("cycle:5", 3, 3), ("path:3", 2, 1)):
        g = generate(parse_spec(text))
        assert model_optimum(build_model(g, ub), g, ub) == expected
    print(f"ACCEPTANCE 4 PASS: model optimum == eta_exact on {checked} graphs "
          f"x 4 variants (n <= 5 exhaustive, 20 sampled at n = 6)")


def test_criterion_5_bigm_validity():
    graphs = []
    with open(DATA / "graphs_all_n1-6.g6") as fh:
        for line in fh:
            g = parse_graph6(line.strip())
            if g.n <= 5 and g.edge_count >= 1:
                graphs.append(g)
    checked = 0
    for g in graphs:
        edges = list(g.edges())
        for ub in (1, 2, 3):
            model = build_model(g, ub)
            for f in itertools.product(range(1, ub + 1), repeat=g.n):
                sums = [sum(f[u] for u in g.neighbors[v]) for v in range(g.n)]
                orderable = all(sums[a] != sums[b] for a, b in edges)
                assert point_feasible(model, g, f) == orderable, (write_graph6(g), ub, f)
                checked += 1
    print(f"ACCEPTANCE 5 PASS: feasibility == strict-orderability for "
          f"{checked} (graph, UB, labeling) points")


def test_criterion_6_graph6_roundtrip():
    corpora = ["graphs_all_n1-6.g6", "graphs_conn_n1-7.g6", "graphs_conn_n8.g6"]
    lines_checked = 0
    for name in corpora:
        path = DATA / name
        if not path.exists():
            continue
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                g = parse_graph6(line)
                assert write_graph6(g) == line          # write . parse = id
                assert parse_graph6(write_graph6(g)) == g  # parse . write = id
                lines_checked += 1
    assert lines_checked >= 996
    print(f"ACCEPTANCE 6 PASS: graph6 round-trip exact on {lines_checked} corpus lines")


def test_criterion_7_bounds_sanity():
    checked = 0
    with open(DATA / "graphs_conn_n1-7.g6") as fh:
        for line in fh:
            g = parse_graph6(line.strip())
            report = combined_bounds(g)
            eta = eta_exact(g, lb=1, ub=report.eta_upper).value
            assert report.eta_lower <= eta <= report.eta_upper, line
            assert is_eta_one(g) == (eta == 1), line
            checked += 1
    assert checked == 996
    print(f"ACCEPTANCE 7 PASS: bounds sound and eta=1 characterization exact "
          f"on {checked} connected graphs (n <= 7)")
