"""`scripts/make_corpus.py` writes every corpus in `data/`: each level must
match both published counts, and no file may hold fewer orders than its
name says."""

import importlib.util
import subprocess
import sys

import pytest

from addcolor.graph import Graph, connected_components

from conftest import DATA, ROOT

SCRIPT = ROOT / "scripts" / "make_corpus.py"

# graphs / connected graphs on n = 1..6 vertices (OEIS A000088 / A001349)
PUBLISHED = [(1, 1), (2, 1), (4, 2), (11, 6), (34, 21), (156, 112)]


@pytest.fixture(scope="module")
def make_corpus():
    spec = importlib.util.spec_from_file_location("make_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(*argv):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=60
    )


def test_levels_match_published_counts(make_corpus):
    levels = make_corpus.enumerate_graphs(6)
    found = []
    for n in range(1, 7):
        edge_lists = [
            [(u, v) for v, m in enumerate(masks) for u in range(v) if m >> u & 1]
            for masks in levels[n]
        ]
        graphs = [Graph.from_edges(n, edges) for edges in edge_lists]
        found.append((len(graphs), sum(len(connected_components(g)) == 1 for g in graphs)))
    assert found == PUBLISHED


def test_wrong_connected_count_stops_the_run(make_corpus, monkeypatch):
    monkeypatch.setitem(make_corpus.COUNTS, 4, (11, 5))
    with pytest.raises(SystemExit, match="n=4"):
        make_corpus.enumerate_graphs(5)


def test_small_max_n_writes_no_truncated_corpus(tmp_path):
    proc = run_script("--max-n", "3", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("max_n", ["0", "9"])
def test_max_n_without_published_counts_rejected(tmp_path, max_n):
    proc = run_script("--max-n", max_n, "--out-dir", str(tmp_path))
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_max_n_6_regenerates_data(tmp_path):
    proc = run_script("--max-n", "6", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["graphs_all_n1-6.g6"]
    name = "graphs_all_n1-6.g6"
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()
