import contextlib
import io
import os
import re
import subprocess
import sys
import time
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import addcolor.graph as graph_module
from addcolor.cli import AUDIT_RATE, main
from addcolor.families import eta_formula, generate, parse_spec
from addcolor.graph import Graph, Labeling, verify_additive_coloring
from addcolor.graph6 import write_graph6

from oracles import is_additive
from test_solver import CHI_ABOVE_16


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def outcome(capsys, argv):
    """`acp *argv` as (exit code, stdout, stderr), whether main returns or
    argparse exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_parsers(monkeypatch):
    """A list that gains one item per `_Parser` built from now on."""
    import addcolor.cli as cli

    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs))
    return built


COMMAND_LINES = [
    (), ("-h",), ("--help",), ("--bogus",), ("bogus",), ("--", "solve", "Bw"), ("-h", "solve"),
    ("family", "-h"), ("solve", "-h"), ("export-lp", "-h"), ("sweep", "-h"),
    ("family",), ("solve",), ("export-lp",), ("sweep",),
    ("solve", "--budget", "-1", "Bw"), ("sweep", "--workers", "0", "x"),
    ("export-lp", "A_", "--ub", "x"), ("solve", "Bw", "extra"), ("solve", "Bw", "--bogus"),
    ("solve", "Bw", "-h"), ("family", "cycle:5"), ("solve", "Bw"),
    ("export-lp", "Dhc", "--ub", "3", "--valid", "--symmetry", "-o", "{tmp}/m.lp"),
    ("sweep", "{tmp}/c.g6", "-o", "{tmp}/r.txt"),
]


@pytest.mark.parametrize("line", COMMAND_LINES, ids=" ".join)
def test_lazy_parser_reads_as_the_full_one(capsys, monkeypatch, tmp_path, line):
    # main builds only the sub-parser argv[0] names; every command line
    # must exit, print and write as under the parser with all four
    import addcolor.cli as cli

    (tmp_path / "c.g6").write_text("Bw\nDhc\n:bad\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in line]

    def run_and_collect():
        result = outcome(capsys, argv)
        files = {}
        for path in sorted(tmp_path.glob("[mr].*")):
            files[path.name] = [text for text in path.read_text().splitlines()
                                if not text.startswith("# elapsed_seconds")]
            path.unlink()
        return result, files

    lazy = run_and_collect()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert run_and_collect() == lazy


def test_usage_lines(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    top = "usage: acp [-h] {family,solve,export-lp,sweep} ...\n"
    assert outcome(capsys, [])[2].startswith(top)
    assert outcome(capsys, ["solve", "Bw", "extra"])[2].startswith(top)  # one sub-parser built
    assert outcome(capsys, ["solve"])[2].startswith(
        "usage: acp solve [-h] [--budget BUDGET] graph\n")


@pytest.mark.parametrize("line,parsers", [
    (("family", "cycle:5"), 2), (("solve", "Bw"), 2), (("export-lp", "Bw", "-h"), 2),
    (("sweep", "-h"), 2), ((), 5), (("-h",), 5), (("bogus",), 5),
])
def test_a_named_command_builds_one_sub_parser(capsys, monkeypatch, line, parsers):
    built = count_parsers(monkeypatch)
    outcome(capsys, list(line))
    assert len(built) == parsers


@pytest.mark.parametrize("argv,code,parsers", [(["acp", "solve", "Bw"], 0, 2), (["acp"], 1, 5)])
def test_main_reads_sys_argv(capsys, monkeypatch, argv, code, parsers):
    # the console script calls main() with no arguments
    built = count_parsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", argv)
    result = outcome(capsys, None)
    assert result[0] == code and len(built) == parsers
    assert ("eta = 3\n" in result[1]) == (code == 0)


def test_family_cycle5(capsys):
    code, out, _ = run(capsys, "family", "cycle:5")
    assert code == 0
    assert "eta = 3" in out
    assert "1:2 2:1 3:3 4:1 5:1" in out
    assert "OK" in out
    assert "bounds: 2 <= eta <= 3" in out


def test_family_complete_sun(capsys):
    code, out, _ = run(capsys, "family", "complete-sun:7")
    assert code == 0
    assert "eta = 3" in out


def test_family_multipartite_chain_labeling(capsys):
    # chain s = (3, 2, 1): part sums 3, 2, 1 give neighbourhood sums 3, 4, 5
    code, out, _ = run(capsys, "family", "multipartite:2,2,1")
    assert code == 0
    assert "eta = 2" in out
    line = "labeling (construction; vertex:label, 1-based): 1:2 2:1 3:1 4:1 5:1"
    assert line in out.splitlines()
    g = generate(parse_spec("multipartite:2,2,1"))
    labels = [2, 1, 1, 1, 1]
    assert verify_additive_coloring(g, Labeling(tuple(labels))) and is_additive(g, labels)


def count_builds(capsys, monkeypatch, *argv):
    """Run `acp *argv`; its exit code, stdout and the number of graphs it built."""
    built = []
    build = Graph.from_edges
    monkeypatch.setattr(
        Graph, "from_edges", staticmethod(lambda *args: built.append(1) or build(*args))
    )
    code, out, _ = run(capsys, *argv)
    return code, out, len(built)


# certify builds the graph and the report uses that one; every labeling is
# closed-form, so nothing else builds a graph
FAMILY_BUILDS = {
    "cycle:201": 1, "path:150": 1, "multipartite:5,4,3,3,2": 1, "wheel:150": 1,
    "windmill:6,20": 1, "complete-split:6,9": 1, "join-complete:5:cycle:80": 1,
    "join-complete:3:wheel-sun:20": 1, "fan:120": 1,
}


@pytest.mark.parametrize("text", FAMILY_BUILDS)
def test_family_builds_its_graph_once(capsys, monkeypatch, text):
    code, out, builds = count_builds(capsys, monkeypatch, "family", text)
    assert code == 0 and "verified: additive coloring" in out and "OK" in out
    assert builds == FAMILY_BUILDS[text]


# certify verifies its labeling once, and nothing else verifies one
FAMILY_VERIFIES = {
    "cycle:201": 1, "path:150": 1, "multipartite:5,4,3,3,2": 1, "wheel:150": 1,
    "windmill:6,20": 1, "complete-split:6,9": 1, "join-complete:5:cycle:80": 1,
    "join-complete:3:wheel-sun:20": 1, "fan:120": 1,
}


@pytest.mark.parametrize("text", FAMILY_VERIFIES)
def test_family_verifies_its_certificate_once(capsys, monkeypatch, text):
    calls = []
    for module in list(sys.modules.values()):
        verify = getattr(module, "verify_additive_coloring", None)
        if module.__name__.startswith("addcolor.") and verify is not None:
            monkeypatch.setattr(
                module, "verify_additive_coloring",
                lambda *args, verify=verify: calls.append(1) or verify(*args),
            )
    code, out, _ = run(capsys, "family", text)
    assert code == 0 and "verified: additive coloring with k=" in out
    assert len(calls) == FAMILY_VERIFIES[text]


def test_solve_builds_no_second_graph(tmp_path, capsys, monkeypatch):
    # a connected graph is solved as its own component, not as a copy: the
    # graph6 parser builds no graph through from_edges, the edge-list reader one
    g = generate(parse_spec("wheel:7"))
    path = tmp_path / "wheel7.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    for arg, expected in ((write_graph6(g), 0), (str(path), 1)):
        code, out, builds = count_builds(capsys, monkeypatch, "solve", arg)
        assert code == 0 and "components=1" in out and "eta = 3" in out
        assert builds == expected, arg


def test_family_bad_spec(capsys):
    code, _, err = run(capsys, "family", "fan:1")
    assert code == 1
    assert "error" in err


def test_family_reports_a_construction_that_does_not_prove_eta_as_a_fault(capsys, monkeypatch):
    # all ones on C_5 (eta 3) is no certificate: one `error:` line and exit 4,
    # as `acp solve` reports its own internal faults, not a traceback
    import addcolor.cli as cli

    rows = cli._families._FAMILIES
    monkeypatch.setitem(
        rows, "cycle", rows["cycle"]._replace(labeling=lambda n: Labeling((1,) * n))
    )
    code, out, err = run(capsys, "family", "cycle:5")
    assert code == cli.EXIT_AUDIT == 4
    assert out == ""
    assert err == ("error: cycle:5: the construction's labeling does not verify with "
                   "eta=3 labels (internal fault)\n")


def test_solve_k3(capsys):
    code, out, _ = run(capsys, "solve", "Bw")
    assert code == 0
    assert "eta = 3" in out


def test_solve_k2(capsys):
    code, out, _ = run(capsys, "solve", "A_")
    assert code == 0
    assert "eta = 2" in out


def test_solve_two_components_reports_max(capsys):
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    code, out, _ = run(capsys, "solve", write_graph6(g))
    assert code == 0
    assert "components=2" in out
    assert "eta = 3" in out


def test_solve_edge_list_file(tmp_path, capsys):
    path = tmp_path / "triangle.edges"
    path.write_text("# a triangle\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "eta = 3" in out


def test_solve_edge_list_with_header(tmp_path, capsys):
    path = tmp_path / "edge_plus_isolated.edges"
    path.write_text("4\n0 1\n")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "components=3" in out
    assert "eta = 2" in out


def test_solve_deep_path_edge_list(tmp_path, capsys):
    # 1500 search positions: the search must not recurse per vertex
    path = tmp_path / "path1500.edges"
    path.write_text("".join(f"{v} {v + 1}\n" for v in range(1499)))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "eta = 2" in out


@pytest.mark.parametrize("command", ["family", "solve", "export-lp"])
def test_graph_over_mask_limit_exits_1(tmp_path, capsys, monkeypatch, command):
    # C_50 needs 1371 bits of adjacency bitmasks
    monkeypatch.setattr(graph_module, "MASK_BITS_LIMIT", 1000)
    path = tmp_path / "c50.edges"
    path.write_text("".join(f"{v} {(v + 1) % 50}\n" for v in range(50)))
    argv = {
        "family": ["cycle:50"],
        "solve": [str(path)],
        "export-lp": [str(path), "-o", str(tmp_path / "c50.lp")],
    }[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "adjacency bitmasks" in err and out == ""


def test_cycle_at_writer_cap_exits_1_quickly(capsys):
    # C_258047 passes the spec's size check, but its bitmasks would need
    # about 4 GiB; it is refused before any mask is allocated
    start = time.perf_counter()
    code, out, err = run(capsys, "family", "cycle:258047")
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "MiB of adjacency bitmasks" in err


@pytest.mark.parametrize("text", ["1000000000000\n0 1\n", "0 1000000000000\n"])
def test_solve_huge_edge_list_rejected(tmp_path, capsys, text):
    # rejected from the numbers alone, before any per-vertex allocation
    path = tmp_path / "huge.edges"
    path.write_text(text)
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1
    assert err.startswith("error:") and "258047" in err
    assert out == ""


def test_solve_edge_list_bad_number_names_the_line(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n# comment\n0 x\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}:3: numbers are plain ASCII digits, got 'x'\n"


@pytest.mark.parametrize("field", ["1_0", "+1", "\u0663", "-1"])
def test_solve_edge_list_number_is_ascii_digits(tmp_path, capsys, field):
    # int() takes each of these (as 10, 1, 3 and -1)
    path = tmp_path / "odd.edges"
    path.write_text(f"0 2\n0 {field}\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}:2: numbers are plain ASCII digits, got {field!r}\n"


@pytest.mark.parametrize(
    "text,message",
    [("3\n0 1\n0 5\n", "3: edge (0,5) out of range for n=3"),
     ("3\n0 1\n# loop\n1 1\n", "4: self-loop at vertex 1"),
     ("0 1\n2 2\n", "2: self-loop at vertex 2"),
     ("0 1 2\n", "1: expected 'u v', got '0 1 2'")],
    ids=["out-of-range", "self-loop", "self-loop-undeclared-n", "three-fields"],
)
def test_solve_edge_list_bad_edge_names_the_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}:{message}\n"


# small vertex ids, the first id past the cap, numbers that int() takes but
# the reader must refuse, comments and odd whitespace
EDGE_TOKENS = st.sampled_from([
    "0", "1", "2", "3", "7", "00", "258048", "10000000000000", "-1", "+1", "1_0",
    "\u0663", "x", "#", "#0 1", "", " ", "\t", "\x0c", "\r", "\x1c", "\u2028",
])
EDGE_LISTS = st.lists(st.lists(EDGE_TOKENS, max_size=4).map(" ".join), max_size=6).map("\n".join)


@given(st.one_of(EDGE_LISTS.map(str.encode), st.text(max_size=30).map(str.encode),
                 st.binary(max_size=30)))
@settings(max_examples=300, deadline=None)
def test_solve_arbitrary_edge_list(tmp_path_factory, data):
    # exit 0 with an answer, or exit 1 with one error line: never a traceback
    path = tmp_path_factory.mktemp("fuzz") / "g.edges"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", str(path)])
    if code == 0:
        assert err.getvalue() == "" and "eta = " in out.getvalue()
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_solve_parse_failure(capsys):
    code, _, err = run(capsys, "solve", ":bad")
    assert code == 1 and "error" in err


def test_solve_budget_exhausted(capsys):
    code, out, _ = run(capsys, "solve", "Dhc", "--budget", "2")
    assert code == 3
    assert "budget exceeded" in out


@pytest.mark.parametrize("labels,value", [((3, 3, 3), 3), ((1, 2, 3), 4)])
def test_solve_refuses_a_labeling_that_does_not_verify(capsys, monkeypatch, labels, value):
    # the search returns its labeling unchecked, so acp solve checks it, in
    # an `if` that python -O keeps: on K_3, (3, 3, 3) gives every vertex the
    # sum 6, and (1, 2, 3) verifies but with 3 labels, not the claimed 4
    import dataclasses

    import addcolor.cli as cli

    eta_exact = cli._solver.eta_exact

    def wrong_labeling(g, *args, **kwargs):
        result = eta_exact(g, *args, **kwargs)
        return dataclasses.replace(result, value=value, certificate=Labeling(labels))

    monkeypatch.setattr(cli._solver, "eta_exact", wrong_labeling)
    code, out, err = run(capsys, "solve", "Bw")
    assert code == cli.EXIT_AUDIT == 4
    assert "labeling:" not in out and "eta =" not in out
    assert err == (f"error: component 1: the search's labeling does not verify with "
                   f"eta={value} labels (internal fault)\n")


def test_solve_reports_no_eta_up_to_the_degree_bound_as_a_fault(capsys, monkeypatch):
    # a sound search always finds eta by the degree bound, so running past it
    # is an internal fault (exit 4, as in the sweep), not a usage error
    import addcolor.cli as cli

    monkeypatch.setattr(cli._solver, "eta_exact", lambda g, *args, **kwargs: cli._solver.SolveResult(
        cli._solver.UB_EXCEEDED, None, None, cli._solver.SolveStats(0)))
    code, out, err = run(capsys, "solve", "Bw")
    assert code == cli.EXIT_AUDIT == 4
    assert "labeling:" not in out and "eta =" not in out
    assert err.startswith("error: ") and err.count("\n") == 1 and "(internal fault)" in err


@pytest.mark.parametrize(
    "text",
    ["thick-spider:7", "thick-spider:8", "thick-spider:9", "thick-spider:10",
     "thin-spider:8", "complete-sun:10", "complete-sun:11", "complete-sun:12",
     "thick-spider:16"],
)
def test_solve_hard_family_instances_within_budget(capsys, text):
    # the benchmark panel's family instances under its node budget, and a
    # spider whose 2-label tree alone would exceed that budget
    g = generate(parse_spec(text))
    code, out, _ = run(capsys, "solve", write_graph6(g), "--budget", "300000")
    assert code == 0
    eta = int(re.search(r"^eta = (\d+)$", out, re.M).group(1))
    assert eta == eta_formula(parse_spec(text))
    labels = [0] * g.n
    for token in re.search(r"^component 1: .* labeling: (.*)$", out, re.M).group(1).split():
        v, x = token.split(":")
        labels[int(v) - 1] = int(x)
    assert verify_additive_coloring(g, Labeling(tuple(labels))) and is_additive(g, labels)
    assert max(labels) == eta


def test_export_lp_k2(tmp_path, capsys):
    out_path = tmp_path / "k2.lp"
    code, out, _ = run(capsys, "export-lp", "A_", "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "c_z_0_1: f_v1 - f_v0 + 2 z_0_1 <= 1" in text
    assert "integer=3 binary=2" in out


def test_export_lp_c5_symmetry_noop(tmp_path, capsys):
    base = tmp_path / "c5.lp"
    sym = tmp_path / "c5s.lp"
    _, out_base, _ = run(capsys, "export-lp", "Dhc", "-o", str(base))
    _, out_sym, _ = run(capsys, "export-lp", "Dhc", "--symmetry", "-o", str(sym))
    assert base.read_text() == sym.read_text()  # C_5 is twin-free


def test_export_lp_k4_symmetry_eliminates(tmp_path, capsys):
    path = tmp_path / "k4.lp"
    code, out, _ = run(capsys, "export-lp", "C~", "--symmetry", "-o", str(path))
    assert code == 0
    assert "binary=6" in out and "eliminated=6" in out


def test_export_lp_components(tmp_path, capsys):
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    out_path = tmp_path / "two.lp"
    code, out, _ = run(capsys, "export-lp", write_graph6(g), "-o", str(out_path))
    assert code == 0
    assert (tmp_path / "two_c1.lp").exists()
    assert (tmp_path / "two_c2.lp").exists()


def test_export_lp_edgeless_component_skipped(tmp_path, capsys):
    g = Graph.from_edges(3, [(0, 1)])
    out_path = tmp_path / "mixed.lp"
    code, out, _ = run(capsys, "export-lp", write_graph6(g), "-o", str(out_path))
    assert code == 0
    assert "skipped" in out
    assert (tmp_path / "mixed_c1.lp").exists()
    assert not (tmp_path / "mixed_c2.lp").exists()


def test_export_lp_empty_graph_skipped(tmp_path, capsys):
    out_path = tmp_path / "empty.lp"
    code, out, err = run(capsys, "export-lp", "?", "-o", str(out_path))
    assert code == 0 and err == ""
    assert out == f"{out_path}: skipped (graph has no vertices, eta = 0)\n"
    assert list(tmp_path.iterdir()) == []


def test_export_lp_ub_below_lower_bound_refused(tmp_path, capsys):
    # K_3 has eta 3, so with UB = 2 its model would have no feasible point;
    # a K_2 component ahead of it is refused too, and no file is written
    k2_k3 = write_graph6(Graph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)]))
    for graph in ("Bw", k2_k3):
        argv = ("export-lp", graph, "--ub", "2", "-o", str(tmp_path / "m.lp"))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: --ub 2 is below the proven lower bound eta >= 3\n"
        assert list(tmp_path.iterdir()) == []
    out_path = tmp_path / "k3.lp"
    code, out, err = run(capsys, "export-lp", "Bw", "--ub", "3", "-o", str(out_path))
    assert code == 0 and err == "" and out.startswith(f"{out_path}: UB=3 ")
    assert out_path.exists()


def test_export_lp_refuses_to_overwrite_its_input(tmp_path, capsys, monkeypatch):
    # the output, by any name, or one of the component files is the input
    # edge list: exit 1 with one error line, and no file is written
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    link = tmp_path / "link.txt"
    link.symlink_to(path)
    two = tmp_path / "m_c1.lp"
    two.write_text("0 1\n2 3\n")
    monkeypatch.chdir(tmp_path)
    cases = [(path, out) for out in (str(path), "g.txt", str(link))]
    cases.append((two, str(tmp_path / "m.lp")))
    for graph, output in cases:
        code, out, err = run(capsys, "export-lp", str(graph), "-o", output)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "is the input" in err and err.count("\n") == 1
        assert path.read_text() == "0 1\n1 2\n" and two.read_text() == "0 1\n2 3\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "link.txt", "m_c1.lp"]
    code, out, err = run(capsys, "export-lp", "g.txt", "-o", "g.lp")
    assert code == 0 and err == "" and (tmp_path / "g.lp").is_file()


def test_export_lp_without_ub_computes_no_lower_bound(tmp_path, capsys, monkeypatch):
    import addcolor.cli as cli

    def refuse(g):
        raise AssertionError("export-lp computed the combined bounds")

    monkeypatch.setattr(cli._bounds, "combined_bounds", refuse)
    code, out, _ = run(capsys, "export-lp", "Dhc", "-o", str(tmp_path / "c5.lp"))
    assert code == 0 and "UB=3" in out


@pytest.mark.parametrize("argv", [
    ("export-lp", "A_", "--ub", "0", "-o", "{tmp}/k2.lp"),
    ("export-lp", "A_", "-o", "{tmp}/missing/k2.lp"),
    ("sweep", "{corpus}", "-o", "{tmp}/missing/report.txt"),
    ("export-lp", "B", "-o", "{tmp}/k3.lp"),
])
def test_bad_arguments_exit_usage(tmp_path, capsys, argv):
    corpus = tmp_path / "one.g6"
    corpus.write_text("Bw\n")
    argv = [a.format(tmp=tmp_path, corpus=corpus) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == [corpus]  # no output file


def test_sweep_single_graph(tmp_path, capsys):
    corpus = tmp_path / "one.g6"
    corpus.write_text("Bw\n")
    report = tmp_path / "report.txt"
    code, out, _ = run(capsys, "sweep", str(corpus), "-o", str(report))
    assert code == 0
    text = report.read_text()
    assert "Bw\t3\t3\t3\t3" in text
    assert "holds" in text
    assert "# holds: 1 violations: 0" in text


def test_sweep_empty_graph_holds(tmp_path, capsys):
    corpus = tmp_path / "empty.g6"
    corpus.write_text("?\n")
    code, out, _ = run(capsys, "sweep", str(corpus))
    assert code == 0
    assert "?\t0\t0\t0\t0\tformula\texact\tholds" in out
    assert "# holds: 1 violations: 0" in out


def test_sweep_corrupt_line_isolated(tmp_path, capsys):
    corpus = tmp_path / "mixed.g6"
    corpus.write_text("Bw\n:corrupt\nA_\n")
    report = tmp_path / "report.txt"
    code, _, _ = run(capsys, "sweep", str(corpus), "-o", str(report))
    assert code == 0
    text = report.read_text()
    assert "parse-error" in text
    assert "# holds: 2 violations: 0" in text
    assert "parse_errors: 1" in text


def test_sweep_budget_exit_code(tmp_path, capsys):
    corpus = tmp_path / "c5.g6"
    corpus.write_text("Dhc\n")
    code, out, _ = run(capsys, "sweep", str(corpus), "--budget", "2")
    assert code == 3
    assert "budget-exceeded" in out


def pinch_one_too_high(monkeypatch):
    # combined_bounds pinches one above eta: K_3 (chi 3) is claimed at 4
    import addcolor.cli as cli
    from addcolor.bounds import BoundsReport, combined_bounds

    def pinch_too_high(g):
        report = combined_bounds(g)
        if report.eta_lower != report.eta_upper:
            return report
        return BoundsReport(report.eta_lower + 1, report.eta_upper + 1, report.witnesses)

    monkeypatch.setattr(cli._bounds, "combined_bounds", pinch_too_high)


def test_sweep_audit_mismatch_is_a_record(tmp_path, capsys, monkeypatch):
    # a pinch one too high must survive as a record, not a traceback
    import addcolor.cli as cli

    pinch_one_too_high(monkeypatch)
    monkeypatch.setattr(cli, "AUDIT_RATE", 1)
    corpus = tmp_path / "k3.g6"
    corpus.write_text("Bw\n")
    code, out, err = run(capsys, "sweep", str(corpus))
    assert code == cli.EXIT_AUDIT == 4
    assert "Bw\t3\t3\t4\t3\tformula\texact\taudit-mismatch\teta_solver=3\n" in out
    assert ("# holds: 0 violations: 0 budget_exceeded: 0 parse_errors: 0 "
            "audit_mismatches: 1\n") in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv, exit_code, status", [
    ((), 4, "audit-mismatch\teta_solver=3"),
    (("--budget", "2"), 3, "budget-exceeded"),
])
def test_sweep_formula_above_chi_is_rechecked(
    tmp_path, capsys, monkeypatch, argv, exit_code, status
):
    # Bw is outside the default audit sample: only eta > chi re-solves it
    import addcolor.cli as cli

    assert zlib.crc32(b"Bw") % cli.AUDIT_RATE
    pinch_one_too_high(monkeypatch)
    corpus = tmp_path / "k3.g6"
    corpus.write_text("Bw\n")
    code, out, err = run(capsys, "sweep", str(corpus), *argv)
    assert code == exit_code
    assert f"Bw\t3\t3\t4\t3\tformula\texact\t{status}\n" in out
    assert "VIOLATION" not in out and "Traceback" not in out + err


@pytest.mark.parametrize("argv, exit_code, status", [
    ((), 4, "audit-mismatch\teta_solver=3"),
    # 60 nodes refute k <= 2 but do not reach k = 3 from lb = 1: the fault
    # stands, and only the re-solve's value is missing
    (("--budget", "60"), 4, "audit-mismatch\teta_solver="),
])
def test_sweep_refuted_upper_bound_is_rechecked(
    tmp_path, capsys, monkeypatch, argv, exit_code, status
):
    # an upper bound one below eta on C_5 (eta 3): the search refutes every
    # k it may try, which is a wrong bound, not a budget that ran out
    import addcolor.cli as cli
    from addcolor.bounds import BoundsReport

    monkeypatch.setattr(
        cli._bounds, "combined_bounds", lambda g: BoundsReport(1, 2, ())
    )
    corpus = tmp_path / "c5.g6"
    corpus.write_text("Dhc\n")
    code, out, err = run(capsys, "sweep", str(corpus), *argv)
    assert code == exit_code
    assert out.startswith(f"Dhc\t5\t5\t\t\tsolver\t\t{status}\n")
    assert "# eta_by_n: \n" in out and "# max_eta_minus_chi: n/a\n" in out
    assert err == ""


def lower_bound_one_too_high(monkeypatch):
    # combined_bounds starts the search one above its lower bound on every
    # graph it does not pinch, so the search can only return too high
    import addcolor.cli as cli
    from addcolor.bounds import BoundsReport, combined_bounds

    def lower_too_high(g):
        report = combined_bounds(g)
        if report.eta_lower == report.eta_upper:
            return report
        return BoundsReport(report.eta_lower + 1, report.eta_upper, report.witnesses)

    monkeypatch.setattr(cli._bounds, "combined_bounds", lower_too_high)


def test_sweep_searched_eta_above_chi_is_rechecked(tmp_path, capsys, monkeypatch):
    # ECZ_ (bipartite, 6 edges) has eta 2 = chi; a search started at 3 claims
    # eta 3 with a labeling of 3 labels, which proves no fault, and the
    # re-solve from 1 must turn that into an audit mismatch, not a VIOLATION
    import addcolor.cli as cli

    assert zlib.crc32(b"ECZ_") % cli.AUDIT_RATE
    lower_bound_one_too_high(monkeypatch)
    corpus = tmp_path / "one.g6"
    corpus.write_text("ECZ_\n")
    code, out, err = run(capsys, "sweep", str(corpus))
    assert code == cli.EXIT_AUDIT == 4
    assert out.startswith("ECZ_\t6\t6\t3\t2\tsolver\texact\taudit-mismatch\teta_solver=2\n")
    assert "VIOLATION" not in out and " violations: 0 " in out and err == ""


def test_sweep_audit_samples_searched_records(tmp_path, capsys, monkeypatch):
    # a search started one above eta is caught by its own certificate when
    # that uses fewer labels: DQw (eta 2, chi 3) is claimed at 3 with the
    # 2-label (1, 1, 2, 1, 1), outside the audit sample, a fault found before
    # chi is solved. DUw (eta 2, chi 3) is claimed at 3 with the 3-label
    # (1, 1, 1, 3, 1), so it still "holds"; only an audit sample that takes
    # searched records catches it
    import addcolor.cli as cli

    assert zlib.crc32(b"DQw") % cli.AUDIT_RATE and zlib.crc32(b"DUw") % cli.AUDIT_RATE
    lower_bound_one_too_high(monkeypatch)
    corpus = tmp_path / "dqw.g6"
    corpus.write_text("DQw\n")
    code, out, _ = run(capsys, "sweep", str(corpus))
    assert code == cli.EXIT_AUDIT
    assert out.startswith("DQw\t5\t5\t3\t\tsolver\t\taudit-mismatch\teta_solver=2\n")
    corpus = tmp_path / "duw.g6"
    corpus.write_text("DUw\n")
    assert run(capsys, "sweep", str(corpus))[1].startswith(
        "DUw\t5\t6\t3\t3\tsolver\texact\tholds\n"
    )
    monkeypatch.setattr(cli, "AUDIT_RATE", 1)
    code, out, _ = run(capsys, "sweep", str(corpus))
    assert code == cli.EXIT_AUDIT
    assert out.startswith("DUw\t5\t6\t3\t3\tsolver\texact\taudit-mismatch\teta_solver=2\n")


def drop_the_pinch_labeling(monkeypatch):
    # the bounds pinch as before but hand over no construction
    import dataclasses

    import addcolor.cli as cli
    from addcolor.bounds import combined_bounds

    monkeypatch.setattr(cli._bounds, "combined_bounds",
                        lambda g: dataclasses.replace(combined_bounds(g), labeling=None))


def audit_every_line(monkeypatch):
    import addcolor.cli as cli

    monkeypatch.setattr(cli, "AUDIT_RATE", 1)


@pytest.mark.parametrize("line, labels, forced, source", [
    # C_4 (eta 2) is searched; (1, 1, 1, 3) gives sums 4, 2, 4, 2
    ("Cl", (1, 1, 1, 3), audit_every_line, "solver"),
    # K_3 (eta 3) pinches; (1, 2, 4) gives sums 6, 5, 3
    ("Bw", (1, 2, 4), drop_the_pinch_labeling, "formula"),
])
def test_sweep_resolve_needs_exactly_eta_labels(
    tmp_path, capsys, monkeypatch, line, labels, forced, source
):
    # the re-solve from lower bound 1 returns the true eta with a labeling
    # that verifies but has one label more: it does not prove that eta
    import dataclasses

    import addcolor.cli as cli
    from addcolor.graph6 import parse_graph6

    eta_exact = cli._solver.eta_exact

    def resolve_one_label_over(g, lb=None, ub=None, **kwargs):
        result = eta_exact(g, lb, ub, **kwargs)
        if ub is None:
            result = dataclasses.replace(result, certificate=Labeling(labels))
        return result

    g = parse_graph6(line)
    eta = eta_exact(g).value
    assert max(labels) == eta + 1 and verify_additive_coloring(g, Labeling(labels))
    forced(monkeypatch)
    monkeypatch.setattr(cli._solver, "eta_exact", resolve_one_label_over)
    corpus = tmp_path / "one.g6"
    corpus.write_text(line + "\n")
    code, out, err = run(capsys, "sweep", str(corpus))
    assert code == cli.EXIT_AUDIT == 4 and err == ""
    assert out.startswith(
        f"{line}\t{g.n}\t{g.edge_count}\t{eta}\t{eta}\t{source}\texact"
        f"\taudit-mismatch\teta_solver={eta}\n"
    )


@pytest.mark.parametrize("budget", ["0", "5", "50"])
def test_sweep_sound_program_shows_no_fault_at_any_budget(capsys, conn_corpus_path, budget):
    # a fault is reported before chi and whatever the budget does, so a tight
    # budget must turn records into budget-exceeded, never into mismatches
    code, out, _ = run(capsys, "sweep", str(conn_corpus_path), "--budget", budget)
    assert code in (0, 3)
    assert " audit_mismatches: 0\n" in out


def test_sweep_checks_the_audit_labeling(tmp_path, capsys, monkeypatch):
    # the re-solve from lower bound 1 (the only eta_exact call without an
    # upper bound) returns its value with a labeling of as many labels that
    # gives every vertex the same sum; every record is re-solved at
    # AUDIT_RATE 1, and that labeling alone makes it an audit mismatch
    import dataclasses

    import addcolor.cli as cli
    from addcolor.graph6 import parse_graph6

    eta_exact = cli._solver.eta_exact

    def corrupt_resolve(g, lb=None, ub=None, **kwargs):
        result = eta_exact(g, lb, ub, **kwargs)
        if ub is None:
            labels = (result.certificate.k,) * g.n
            result = dataclasses.replace(result, certificate=Labeling(labels))
        return result

    # K_3 (a pinch), C_4, and DQw and DUw, which are searched
    lines = ["Bw", "Cl", "DQw", "DUw"]
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(line + "\n" for line in lines))
    report = tmp_path / "report.txt"
    monkeypatch.setattr(cli, "AUDIT_RATE", 1)
    assert main(["sweep", str(corpus), "-o", str(report)]) == 0
    truth = sweep_records(report)
    assert {fields[5] for fields in truth.values()} == {"holds"}
    monkeypatch.setattr(cli._solver, "eta_exact", corrupt_resolve)
    code, _, err = run(capsys, "sweep", str(corpus), "-o", str(report))
    assert code == cli.EXIT_AUDIT and err == ""
    for line, fields in sweep_records(report).items():
        eta = truth[line][2]
        assert fields == truth[line][:5] + ["audit-mismatch", f"eta_solver={eta}"], line
        g = parse_graph6(line)
        assert not verify_additive_coloring(g, Labeling((int(eta),) * g.n))
    assert " audit_mismatches: 4\n" in report.read_text()


def pinch_one_too_low(monkeypatch):
    # combined_bounds pinches one below eta wherever it pinches at eta >= 2
    import addcolor.cli as cli
    from addcolor.bounds import BoundsReport, combined_bounds

    def pinch_too_low(g):
        report = combined_bounds(g)
        if report.eta_lower != report.eta_upper or report.eta_lower < 2:
            return report
        return BoundsReport(report.eta_lower - 1, report.eta_upper - 1, report.witnesses)

    monkeypatch.setattr(cli._bounds, "combined_bounds", pinch_too_low)


def pinch_one_too_high_with_construction(monkeypatch):
    # as pinch_one_too_high, but the report keeps its labeling, which then
    # has one label fewer than the pinch claims
    import dataclasses

    import addcolor.cli as cli
    from addcolor.bounds import combined_bounds

    def pinch_too_high(g):
        report = combined_bounds(g)
        if report.eta_lower != report.eta_upper:
            return report
        return dataclasses.replace(
            report, eta_lower=report.eta_lower + 1, eta_upper=report.eta_upper + 1
        )

    monkeypatch.setattr(cli._bounds, "combined_bounds", pinch_too_high)


def pinch_one_too_low_with_construction(monkeypatch):
    # as pinch_one_too_low, but the report keeps its labeling, which then
    # has one label more than the pinch claims
    import dataclasses

    import addcolor.cli as cli
    from addcolor.bounds import combined_bounds

    def pinch_too_low(g):
        report = combined_bounds(g)
        if report.eta_lower != report.eta_upper or report.eta_lower < 2:
            return report
        return dataclasses.replace(
            report, eta_lower=report.eta_lower - 1, eta_upper=report.eta_upper - 1
        )

    monkeypatch.setattr(cli._bounds, "combined_bounds", pinch_too_low)


def split_bound_one_too_low(monkeypatch):
    # the bounds then cross, pinch one below eta, or cap a search below it
    import addcolor.bounds as bounds

    split_upper_bound = bounds.split_upper_bound
    monkeypatch.setattr(
        bounds, "split_upper_bound", lambda g, clique: split_upper_bound(g, clique) - 1
    )


def sweep_records(path):
    """Record line -> its fields after the line, bar eta_source: n, m, eta,
    chi, chi_source, status and any extra fields."""
    with open(path) as fh:
        records = [line.rstrip("\n").split("\t") for line in fh if not line.startswith("#")]
    return {line: fields[:4] + fields[5:] for line, *fields in records}


@pytest.mark.parametrize("mutant", [
    pinch_one_too_low, pinch_one_too_high, split_bound_one_too_low,
    pinch_one_too_low_with_construction, pinch_one_too_high_with_construction,
])
def test_sweep_wrong_bound_ends_as_audit_mismatch(
    tmp_path, capsys, monkeypatch, conn_corpus_path, mutant
):
    # whether a wrong bound pinches at a wrong value or crosses the other,
    # every record it changes is an audit-mismatch that names the true eta,
    # not a wrong `holds`, and the sweep ends with exit 4, not a traceback;
    # a wrong bound that still lands on eta may only change eta_source
    report = tmp_path / "report.txt"
    assert main(["sweep", str(conn_corpus_path), "-o", str(report)]) == 0
    truth = sweep_records(report)
    mutant(monkeypatch)
    code, _, err = run(capsys, "sweep", str(conn_corpus_path), "-o", str(report))
    assert code == 4 and err == ""
    changed = {line: fields for line, fields in sweep_records(report).items()
               if fields != truth[line]}
    assert changed
    for line, fields in changed.items():
        assert fields[5:] == ["audit-mismatch", f"eta_solver={truth[line][2]}"], line
    assert f" audit_mismatches: {len(changed)}\n" in report.read_text()


@pytest.mark.parametrize("line, mutant, budget", [
    # the bounds cross (lower 3 > upper 2): 10 nodes do not re-solve it
    ("G?ACN{", split_bound_one_too_low, 10),
    # the search claims eta 3 with a 2-label labeling in 5 nodes, which do
    # not re-solve it from 1
    ("DQw", lower_bound_one_too_high, 5),
])
def test_sweep_provable_fault_ignores_the_budget(
    tmp_path, capsys, monkeypatch, line, mutant, budget
):
    # a fault the record itself proves is an audit mismatch before chi is
    # solved, even where the budget then stops the re-solve, which leaves
    # eta_solver empty; the refuted upper bound is the --budget 60 case of
    # test_sweep_refuted_upper_bound_is_rechecked
    mutant(monkeypatch)
    corpus = tmp_path / "one.g6"
    corpus.write_text(line + "\n")
    code, out, err = run(capsys, "sweep", str(corpus), "--budget", str(budget))
    assert code == 4 and err == ""
    fields = out.splitlines()[0].split("\t")
    assert fields[4:] == ["", "solver", "", "audit-mismatch", "eta_solver="]
    assert " budget_exceeded: 0 " in out and " audit_mismatches: 1\n" in out


def test_sweep_over_pruning_search_ends_as_audit_mismatch(
    tmp_path, capsys, monkeypatch, conn_corpus_path
):
    # a clique check that fails every table of 3 or more spans refutes
    # feasible k, in the search and in its re-solve from 1 alike, so the
    # values agree; but where the labeling the search then finds has fewer
    # labels than the eta it backs, that labeling proves the search wrong
    import addcolor.solver as solver
    from addcolor.bounds import combined_bounds
    from addcolor.graph6 import parse_graph6

    report = tmp_path / "report.txt"
    assert main(["sweep", str(conn_corpus_path), "-o", str(report)]) == 0
    truth = sweep_records(report)
    fits = solver._fits
    monkeypatch.setattr(
        solver, "_fits", lambda points, spans, sums: len(spans) < 3 and fits(points, spans, sums)
    )
    code, _, err = run(capsys, "sweep", str(conn_corpus_path), "-o", str(report))
    assert code == 4 and err == ""
    changed = {line: fields for line, fields in sweep_records(report).items()
               if fields != truth[line]}
    short = []
    for line in changed:
        g = parse_graph6(line)
        bounds = combined_bounds(g)
        cert = solver.eta_exact(g, bounds.eta_lower, bounds.eta_upper).certificate
        if cert is not None and cert.k < int(changed[line][2]):
            short.append(line)
    assert short
    for line in short:
        assert changed[line][5] == "audit-mismatch", line


def test_sweep_non_ascii_line_is_a_parse_error(tmp_path, capsys):
    corpus = tmp_path / "mixed.g6"
    corpus.write_bytes(b"Bw\n\xc3\xa9\nA_\n:corrupt\n")
    report = tmp_path / "report.txt"
    code, _, err = run(capsys, "sweep", str(corpus), "-o", str(report))
    assert code == 0 and err == ""
    text = report.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0].startswith("Bw\t") and lines[2].startswith("A_\t")
    assert lines[1].startswith("\ufffd\ufffd\tparse-error\t")
    assert lines[3].startswith(":corrupt\tparse-error\t")
    assert "# graphs: 4\n" in text  # every non-blank line is one record
    assert "# holds: 2 violations: 0 budget_exceeded: 0 parse_errors: 2 " in text


def test_sweep_violation_end_to_end(tmp_path, capsys, monkeypatch):
    # chi reported one below the truth on K_3: eta = 3 > chi = 2 would be a
    # violation, but the 3-color coloring does not back chi = 2, so the
    # record is an audit mismatch that shows the coloring
    import dataclasses

    import addcolor.cli as cli

    chromatic_exact = cli._solver.chromatic_exact

    def chi_one_too_low(g, **kwargs):
        result = chromatic_exact(g, **kwargs)
        return dataclasses.replace(result, value=result.value - 1)

    monkeypatch.setattr(cli._solver, "chromatic_exact", chi_one_too_low)
    corpus = tmp_path / "k3.g6"
    corpus.write_text("Bw\n")
    code, out, err = run(capsys, "sweep", str(corpus))
    assert code == cli.EXIT_AUDIT == 4
    assert out.startswith("Bw\t3\t3\t3\t2\tformula\texact\taudit-mismatch\tchi_cert=1,2,3\n")
    assert "# eta_by_n: \n" in out
    assert " violations: 0 " in out and " audit_mismatches: 1\n" in out
    assert "# max_eta_minus_chi: n/a\n" in out
    assert err == ""


def test_sweep_refuses_a_chi_coloring_that_is_not_proper(tmp_path, capsys, monkeypatch):
    # (1, 1, 2) has largest color 2 = chi but gives two adjacent K_3
    # vertices one color
    import dataclasses

    import addcolor.cli as cli

    chromatic_exact = cli._solver.chromatic_exact
    monkeypatch.setattr(cli._solver, "chromatic_exact", lambda g, **kwargs: dataclasses.replace(
        chromatic_exact(g, **kwargs), value=2, certificate=(1, 1, 2)))
    corpus = tmp_path / "k3.g6"
    corpus.write_text("Bw\n")
    code, out, _ = run(capsys, "sweep", str(corpus))
    assert code == cli.EXIT_AUDIT == 4
    assert out.startswith("Bw\t3\t3\t3\t2\tformula\texact\taudit-mismatch\tchi_cert=1,1,2\n")


def test_sweep_violation_with_verifying_certificates(tmp_path, capsys, monkeypatch):
    # the search and its re-solve both claim eta(C_4) = 3 with (1, 1, 1, 3),
    # which verifies with 3 labels (sums 4, 2, 4, 2), and chi = 2 has its
    # proper 2-coloring: a violation both certificates back ends as exit 2
    import addcolor.cli as cli

    solver = cli._solver
    monkeypatch.setattr(solver, "eta_exact", lambda g, *args, **kwargs: solver.SolveResult(
        solver.OPTIMAL, 3, Labeling((1, 1, 1, 3)), solver.SolveStats(0)))
    corpus = tmp_path / "c4.g6"
    corpus.write_text("Cl\n")
    code, out, err = run(capsys, "sweep", str(corpus))
    assert code == cli.EXIT_VIOLATION == 2
    assert out.startswith(
        "Cl\t4\t4\t3\t2\tsolver\texact\tVIOLATION\teta_cert=1,1,1,3\tchi_cert=1,2,1,2\n"
    )
    assert "# eta_by_n: 4:3=1\n" in out
    assert " violations: 1 " in out and "# max_eta_minus_chi: 1\n" in out
    assert err == ""


def test_sweep_chi_budget_reports_dsatur_only(tmp_path, capsys):
    # the bounds decide eta = 1, the line is outside the audit sample, and
    # the chi search places 12 colors before it refutes k = 2
    corpus = tmp_path / "one.g6"
    corpus.write_text("G?bvbo\n")
    assert zlib.crc32(b"G?bvbo") % AUDIT_RATE
    code, out, _ = run(capsys, "sweep", str(corpus), "--budget", "11")
    assert code == 3
    assert out.startswith("G?bvbo\t8\t13\t1\t3\tformula\tdsatur-only\tbudget-exceeded\n")
    code, out, _ = run(capsys, "sweep", str(corpus), "--budget", "12")
    assert code == 0
    assert out.startswith("G?bvbo\t8\t13\t1\t3\tformula\texact\tholds\n")


def test_sweep_past_sixteen_vertices(tmp_path, capsys):
    corpus = tmp_path / "big.g6"
    corpus.write_text("".join(write_graph6(make()) + "\n" for _, make, _ in CHI_ABOVE_16))
    code, out, _ = run(capsys, "sweep", str(corpus))
    assert code == 0
    records = [line.split("\t") for line in out.splitlines() if not line.startswith("#")]
    assert [int(r[4]) for r in records] == [chi for _, _, chi in CHI_ABOVE_16]
    assert all(int(r[1]) > 16 and r[6:] == ["exact", "holds"] for r in records)


def test_sweep_empty_corpus_summary(tmp_path, capsys):
    corpus = tmp_path / "empty.g6"
    corpus.write_text("\n")
    code, out, _ = run(capsys, "sweep", str(corpus))
    assert code == 0
    assert out.startswith("# summary\n# graphs: 0\n# by_n: \n# eta_by_n: \n")


def test_sweep_refuses_to_overwrite_its_corpus(tmp_path, capsys, monkeypatch):
    from conftest import DATA

    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes((DATA / "graphs_conn_n1-7.g6").read_bytes())
    link = tmp_path / "link.g6"
    link.symlink_to(corpus)
    monkeypatch.chdir(tmp_path)
    for output in (str(corpus), "corpus.g6", str(link)):
        code, out, err = run(capsys, "sweep", str(corpus), "-o", output)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "is the corpus" in err
        assert corpus.read_bytes() == (DATA / "graphs_conn_n1-7.g6").read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_sweep_rejects_bad_worker_count(tmp_path, capsys, workers):
    corpus = tmp_path / "one.g6"
    corpus.write_text("Bw\n")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(corpus), f"--workers={workers}"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: argument --workers:" in err


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_budget_is_at_least_zero(tmp_path, capsys, command):
    corpus = tmp_path / "c5.g6"
    corpus.write_text("Dhc\n")
    graph = "Dhc" if command == "solve" else str(corpus)
    with pytest.raises(SystemExit) as exc:
        main([command, graph, "--budget", "-1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.endswith("error: argument --budget: must be at least 0, got -1\n")
    # 0 is a budget, and C_5 runs out of it
    code, out, _ = run(capsys, command, graph, "--budget", "0")
    assert code == 3 and "budget" in out


@pytest.mark.parametrize("workers, cpus, started", [
    ("100000", 3, [3]), ("2", 3, [2]), ("4", 1, []), ("4", None, []), ("1", 8, []),
])
def test_sweep_pool_is_capped_at_cpu_count(tmp_path, capsys, monkeypatch, workers, cpus, started):
    # a fake Pool records its size and runs the records in this process
    import addcolor.cli as cli

    asked = []

    class FakePool:
        def __init__(self, processes):
            asked.append(processes)

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

        def terminate(self):
            pass

    monkeypatch.setattr(cli, "Pool", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    corpus = tmp_path / "two.g6"
    corpus.write_text("Bw\nDhc\n")
    code, out, _ = run(capsys, "sweep", str(corpus), "--workers", workers)
    assert code == 0 and "# holds: 2 violations: 0 " in out
    assert asked == started


def test_sweep_error_terminates_the_pool(tmp_path, capsys, monkeypatch):
    # imap has queued every line, so a pool that is closed and joined after
    # an error first lets its workers finish the whole corpus
    import addcolor.cli as cli

    calls = []

    class FailingPool:
        def __init__(self, processes):
            pass

        def imap(self, fn, items, chunksize=1):
            yield fn(next(items))
            raise RuntimeError("a worker failed")

        def close(self):
            calls.append("close")

        def join(self):
            calls.append("join")

        def terminate(self):
            calls.append("terminate")

    monkeypatch.setattr(cli, "Pool", FailingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    corpus = tmp_path / "two.g6"
    corpus.write_text("Bw\nDhc\n")
    with pytest.raises(RuntimeError, match="a worker failed"):
        main(["sweep", str(corpus), "--workers", "2"])
    assert capsys.readouterr().out == "Bw\t3\t3\t3\t3\tformula\texact\tholds\n"
    assert calls == ["terminate"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_closed_stdout_ends_quietly(workers):
    # a reader that stops after one line, as `acp sweep ... | head -1` does;
    # the n = 8 report is far larger than a pipe buffer, so the sweep cannot
    # finish before the pipe closes
    from conftest import DATA, ROOT

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "addcolor", "sweep", str(DATA / "graphs_conn_n8.g6"),
         "--workers", workers],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().endswith(b"\tholds\n")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 1


@pytest.mark.parametrize("text, argv, exit_code", [
    pytest.param(None, (), 0, id="all_n6"),
    # holds, budget-exceeded in the eta search, a parse error, dsatur-only,
    # and holds again, around a blank line
    pytest.param("Bw\n\nDhc\n:corrupt\nG?bvbo\nEFz_\n", ("--budget", "11"), 3, id="mixed"),
])
def test_sweep_worker_determinism(tmp_path, capsys, all_n6_corpus_path, text, argv, exit_code):
    corpus = all_n6_corpus_path
    if text is not None:
        corpus = tmp_path / "mixed.g6"
        corpus.write_text(text)
    r1 = tmp_path / "w1.txt"
    r2 = tmp_path / "w2.txt"
    assert run(capsys, "sweep", str(corpus), *argv, "-o", str(r1))[0] == exit_code
    assert run(capsys, "sweep", str(corpus), *argv, "--workers", "4", "-o", str(r2))[0] == exit_code

    def stable(path):
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("# elapsed")]

    assert stable(r1) == stable(r2)


# sha256 of each `acp sweep` report with its `# elapsed_seconds` and
# `# eta_by_n:` lines dropped, computed at the commit before the derived graph
# data (degrees, search order, twin classes, greedy cliques) was cached on
# `Graph`, and before any source change that came with it. The digest pins
# every record line: eta, chi, eta_source, chi_source and status, plus the
# summary. Re-pinned once when `# graphs:` dropped its `skipped_over_max_n:`
# field, after a diff of both reports showed no other changed line.
GOLDEN_SWEEPS = {
    "graphs_all_n1-6.g6": "0541165f9bb8796954a506691a4c9bee32c1979cc6c3330479943bc3d29a811c",
    "graphs_conn_n1-7.g6": "1a1aa76790336aa3e9bf8258af2630a174d949ceb5c20a95356926775ffb1701",
}


@pytest.mark.parametrize("corpus", sorted(GOLDEN_SWEEPS))
def test_sweep_report_matches_golden_digest(tmp_path, capsys, corpus):
    import hashlib

    from conftest import DATA

    report = tmp_path / "report.txt"
    assert run(capsys, "sweep", str(DATA / corpus), "-o", str(report))[0] == 0
    lines = report.read_text().splitlines(keepends=True)
    kept = "".join(ln for ln in lines if not ln.startswith(("# elapsed_seconds", "# eta_by_n:")))
    assert hashlib.sha256(kept.encode()).hexdigest() == GOLDEN_SWEEPS[corpus]
    assert f"# eta_by_n: {ETA_BY_N[corpus]}\n" in lines


# `<n>:<eta>=<count>` per order, as tallied from the record lines of the
# reports that GOLDEN_SWEEPS pins, and of the n = 8 report
ETA_BY_N = {
    "graphs_all_n1-6.g6": (
        "1:1=1 2:1=1 2:2=1 3:1=2 3:2=1 3:3=1 4:1=3 4:2=6 4:3=1 4:4=1 5:1=7 5:2=20 5:3=5 "
        "5:4=1 5:5=1 6:1=21 6:2=106 6:3=23 6:4=4 6:5=1 6:6=1"
    ),
    "graphs_conn_n1-7.g6": (
        "1:1=1 2:2=1 3:1=1 3:3=1 4:1=1 4:2=4 4:4=1 5:1=4 5:2=13 5:3=3 5:5=1 6:1=13 6:2=80 "
        "6:3=16 6:4=2 6:6=1 7:1=64 7:2=670 7:3=108 7:4=8 7:5=2 7:7=1"
    ),
    "graphs_conn_n8.g6": "8:1=477 8:2=9499 8:3=1076 8:4=54 8:5=8 8:6=2 8:8=1",
}


def test_sweep_n8_eta_tally(capsys):
    from conftest import DATA

    code, out, _ = run(capsys, "sweep", str(DATA / "graphs_conn_n8.g6"), "--workers", "2")
    assert code == 0
    assert f"# eta_by_n: {ETA_BY_N['graphs_conn_n8.g6']}\n" in out
    assert "# holds: 11117 violations: 0 " in out
