#!/usr/bin/env python3
"""Enumerate all non-isomorphic simple graphs up to a vertex count and write
graph6 corpus files.

Level-by-level construction: every graph on k vertices arises from some graph
on k-1 vertices by adding one vertex joined to a subset of the old vertices,
so extending every representative by every subset and deduplicating on a
canonical form is exhaustive. A graph is a tuple of adjacency bitmasks. The
canonical form is the maximum adjacency bitstring over all vertex orders
consistent with the stable 1-WL color refinement (color-respecting orders
suffice because refinement colors are isomorphism-invariant).

Every level is checked against both published counts, of all graphs and of
connected graphs, so --max-n takes only the orders 1..8 that have them. The
canonical keys are checked against the networkx atlas (n <= 7) whenever
networkx is importable. --max-n 8 takes about 35 s.

Outputs (under --out-dir), each written only if --max-n covers its orders:
    graphs_all_n1-6.g6     every graph on 1..6 vertices (208 lines)
    graphs_conn_n1-7.g6    every connected graph on 1..7 vertices (996 lines)
    graphs_conn_n8.g6      every connected graph on 8 vertices (11117 lines)
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import permutations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from addcolor.graph import Graph
from addcolor.graph6 import write_graph6

# n: (graphs, connected graphs) on n vertices (OEIS A000088 / A001349)
COUNTS = {1: (1, 1), 2: (2, 1), 3: (4, 2), 4: (11, 6), 5: (34, 21), 6: (156, 112),
          7: (1044, 853), 8: (12346, 11117)}

# (file name, orders, connected graphs only)
OUTPUTS = (
    ("graphs_all_n1-6.g6", range(1, 7), False),
    ("graphs_conn_n1-7.g6", range(1, 8), True),
    ("graphs_conn_n8.g6", range(8, 9), True),
)


def refine_colors(masks: tuple[int, ...]) -> list[int]:
    n = len(masks)
    neighbors = [[w for w in range(n) if m >> w & 1] for m in masks]
    colors = [len(nb) for nb in neighbors]
    while True:
        sigs = [(c, tuple(sorted(colors[w] for w in nb))) for c, nb in zip(colors, neighbors)]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [ranking[sig] for sig in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def canonical_key(masks: tuple[int, ...]) -> int:
    n = len(masks)
    colors = refine_colors(masks)
    cells = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
    best = -1
    for pieces in product(*map(permutations, cells)):
        perm = [v for piece in pieces for v in piece]
        key = 0
        for j in range(1, n):
            mj = masks[perm[j]]
            for i in range(j):
                key = key << 1 | (mj >> perm[i] & 1)
        if key > best:
            best = key
    return best


def is_connected(masks: tuple[int, ...]) -> bool:
    reached, todo = 1, [0]
    while todo:
        new = masks[todo.pop()] & ~reached
        reached |= new
        todo += [w for w in range(len(masks)) if new >> w & 1]
    return reached == (1 << len(masks)) - 1


def enumerate_graphs(max_n: int) -> dict[int, list[tuple[int, ...]]]:
    """Representatives of every isomorphism class per order 1..max_n, each
    the first candidate seen of its class: parents in level order, subsets
    ascending."""
    levels: dict[int, list[tuple[int, ...]]] = {0: [()]}
    for n in range(1, max_n + 1):
        t0 = time.perf_counter()
        new_bit = 1 << (n - 1)
        seen: dict[int, tuple[int, ...]] = {}
        for parent in levels[n - 1]:
            for subset in range(1 << (n - 1)):
                masks = (*(m | new_bit * (subset >> w & 1) for w, m in enumerate(parent)), subset)
                seen.setdefault(canonical_key(masks), masks)
        levels[n] = list(seen.values())
        graphs, connected = len(levels[n]), sum(map(is_connected, levels[n]))
        print(f"n={n}: {graphs} graphs, {connected} connected [{time.perf_counter() - t0:.1f}s]")
        if (graphs, connected) != COUNTS[n]:
            raise SystemExit(f"n={n}: the published counts are {COUNTS[n]} (graphs, connected)")
    del levels[0]
    return levels


def check_against_atlas(levels: dict[int, list[tuple[int, ...]]]) -> None:
    try:
        from networkx.generators.atlas import graph_atlas_g
    except ImportError:
        print("networkx not available; skipping atlas cross-check")
        return
    atlas_keys: dict[int, set[int]] = {}
    for nxg in graph_atlas_g():
        masks = [0] * nxg.number_of_nodes()  # atlas nodes are 0..n-1
        for u, v in nxg.edges():
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        atlas_keys.setdefault(len(masks), set()).add(canonical_key(tuple(masks)))
    for n in sorted(levels.keys() & atlas_keys.keys()):
        if set(map(canonical_key, levels[n])) != atlas_keys[n]:
            raise SystemExit(f"canonical keys disagree with the atlas at n={n}")
        print(f"n={n}: canonical keys match the networkx atlas")


def _graph6(masks: tuple[int, ...]) -> str:
    edges = [(u, v) for v, m in enumerate(masks) for u in range(v) if m >> u & 1]
    return write_graph6(Graph.from_edges(len(masks), edges))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7, choices=sorted(COUNTS))
    parser.add_argument("--out-dir", default=str(Path(__file__).resolve().parent.parent / "data"))
    args = parser.parse_args(argv)

    levels = enumerate_graphs(args.max_n)
    check_against_atlas(levels)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, orders, connected_only in OUTPUTS:
        if orders[-1] > args.max_n:
            print(f"skipped {name}: needs --max-n {orders[-1]}")
            continue
        graphs = [g for n in orders for g in levels[n] if is_connected(g) or not connected_only]
        lines = sorted(map(_graph6, graphs), key=lambda s: (len(s), s))
        (out_dir / name).write_text("".join(line + "\n" for line in lines))
        print(f"wrote {out_dir / name} ({len(lines)} graphs)")


if __name__ == "__main__":
    main()
