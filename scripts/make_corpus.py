#!/usr/bin/env python3
"""Enumerate all non-isomorphic simple graphs up to a vertex count and write
graph6 corpus files.

Level-by-level construction: every graph on k vertices arises from some graph
on k-1 vertices by adding one vertex joined to a subset of the old vertices,
so extending every representative by every subset and deduplicating on a
canonical form is exhaustive. The canonical form is the maximum adjacency
bitstring over all vertex orders consistent with the stable 1-WL color
refinement (color-respecting orders suffice because refinement colors are
isomorphism-invariant).

Counts are checked against the published numbers of graphs per order, and
the canonical keys against the networkx atlas (n <= 7) whenever networkx is
importable.

Outputs (under --out-dir):
    graphs_all_n1-6.g6     every graph on 1..6 vertices (208 lines)
    graphs_conn_n1-7.g6    every connected graph on 1..7 vertices (996 lines)
    graphs_conn_n8.g6      every connected graph on 8 vertices (11117 lines,
                           only with --max-n 8)
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import permutations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from addcolor.graph import Graph, connected_components
from addcolor.graph6 import write_graph6

# graphs / connected graphs on n vertices (OEIS A000088 / A001349)
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def refine_colors(n: int, neighbors: list[tuple[int, ...]]) -> list[int]:
    colors = [len(neighbors[v]) for v in range(n)]
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in neighbors[v])))
            for v in range(n)
        ]
        ranking = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = [ranking[signatures[v]] for v in range(n)]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def canonical_key(n: int, masks: list[int], neighbors: list[tuple[int, ...]]) -> tuple[int, int]:
    colors = refine_colors(n, neighbors)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    ordered_cells = [cells[c] for c in sorted(cells)]
    best = -1
    for pieces in product(*(permutations(cell) for cell in ordered_cells)):
        perm = [v for piece in pieces for v in piece]
        key = 0
        for j in range(1, n):
            mj = masks[perm[j]]
            for i in range(j):
                key = key << 1 | (mj >> perm[i] & 1)
        if key > best:
            best = key
    return n, best


def _key_of(g: Graph) -> tuple[int, int]:
    return canonical_key(g.n, list(g.masks), list(g.neighbors))


def enumerate_graphs(max_n: int) -> dict[int, list[Graph]]:
    """Representatives of every isomorphism class per order 1..max_n."""
    levels: dict[int, list[Graph]] = {1: [Graph.from_edges(1, [])]}
    for n in range(2, max_n + 1):
        t0 = time.perf_counter()
        seen: dict[tuple[int, int], Graph] = {}
        for parent in levels[n - 1]:
            base_edges = list(parent.edges())
            for subset in range(1 << (n - 1)):
                edges = base_edges + [
                    (w, n - 1) for w in range(n - 1) if subset >> w & 1
                ]
                g = Graph.from_edges(n, edges)
                key = _key_of(g)
                if key not in seen:
                    seen[key] = g
        levels[n] = list(seen.values())
        count = len(levels[n])
        expected = ALL_COUNTS.get(n)
        status = "" if expected is None else (" OK" if count == expected else f" MISMATCH (expected {expected})")
        print(f"n={n}: {count} graphs{status} [{time.perf_counter() - t0:.1f}s]")
        if expected is not None and count != expected:
            raise SystemExit("enumeration does not match the published counts")
    return levels


def _sorted_lines(graphs: list[Graph]) -> list[str]:
    lines = [write_graph6(g) for g in graphs]
    return sorted(lines, key=lambda s: (len(s), s))


def check_against_atlas(levels: dict[int, list[Graph]]) -> None:
    try:
        from networkx.generators.atlas import graph_atlas_g
    except ImportError:
        print("networkx not available; skipping atlas cross-check")
        return
    atlas_keys: dict[int, set[tuple[int, int]]] = {}
    for nxg in graph_atlas_g():
        n = nxg.number_of_nodes()
        if n == 0:
            continue
        relabel = {v: i for i, v in enumerate(nxg.nodes())}
        g = Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in nxg.edges()])
        atlas_keys.setdefault(n, set()).add(_key_of(g))
    for n in sorted(levels):
        if n not in atlas_keys:
            continue
        mine = {_key_of(g) for g in levels[n]}
        if mine != atlas_keys[n]:
            raise SystemExit(f"canonical keys disagree with the atlas at n={n}")
        print(f"n={n}: canonical keys match the networkx atlas")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--out-dir", default=str(Path(__file__).resolve().parent.parent / "data"))
    args = parser.parse_args()

    levels = enumerate_graphs(args.max_n)
    check_against_atlas(levels)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    all_small = [g for n in range(1, min(6, args.max_n) + 1) for g in levels[n]]
    path = out_dir / "graphs_all_n1-6.g6"
    path.write_text("\n".join(_sorted_lines(all_small)) + "\n")
    print(f"wrote {path} ({len(all_small)} graphs)")

    if args.max_n >= 7:
        connected = [
            g
            for n in range(1, 8)
            for g in levels[n]
            if len(connected_components(g)) == 1
        ]
        path = out_dir / "graphs_conn_n1-7.g6"
        path.write_text("\n".join(_sorted_lines(connected)) + "\n")
        print(f"wrote {path} ({len(connected)} graphs)")

    if args.max_n >= 8:
        conn8 = [g for g in levels[8] if len(connected_components(g)) == 1]
        path = out_dir / "graphs_conn_n8.g6"
        path.write_text("\n".join(_sorted_lines(conn8)) + "\n")
        print(f"wrote {path} ({len(conn8)} graphs)")


if __name__ == "__main__":
    main()
