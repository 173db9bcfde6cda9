import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from addcolor.graph import Graph
from addcolor.graph6 import parse_graph6

DATA = ROOT / "data"


@pytest.fixture(scope="session")
def conn_corpus_path() -> Path:
    return DATA / "graphs_conn_n1-7.g6"


@pytest.fixture(scope="session")
def all_n6_corpus_path() -> Path:
    return DATA / "graphs_all_n1-6.g6"


@pytest.fixture(scope="session")
def conn_small(conn_corpus_path) -> list[Graph]:
    """All connected graphs on 1..7 vertices."""
    return [parse_graph6(line) for line in conn_corpus_path.read_text().split()]


@pytest.fixture(scope="session")
def all_n6(all_n6_corpus_path) -> list[Graph]:
    """All graphs (connected or not) on 1..6 vertices."""
    return [parse_graph6(line) for line in all_n6_corpus_path.read_text().split()]


@pytest.fixture(scope="session")
def conn_n8() -> list[Graph]:
    """All connected graphs on 8 vertices."""
    return [parse_graph6(line) for line in (DATA / "graphs_conn_n8.g6").read_text().split()]


@pytest.fixture(scope="session")
def petersen() -> Graph:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    )
    return Graph.from_edges(10, edges)
