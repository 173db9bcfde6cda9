#!/usr/bin/env python3
"""Regenerate the reference tables in perfbench/ref/ from the program.

    python3 perfbench/make_refs.py

Run it only when the expected answers change on purpose, and review the
diff. It records what `acp` prints for each workload and cross-checks it
before writing anything:

- sweep_n8.tsv: g6, n, m, eta, chi and status of every n = 8 record, with
  a seeded sample recomputed by the brute-force oracles of tests/oracles.py.
  The eta_source and chi_source columns are left out on purpose: bounds
  work is expected to move them.
- panel.tsv: the closed-form eta of each panel family instance.
- export.tsv: n, m and eta of each grid instance and the variable and
  constraint counts of its exported model; eta must equal the closed form
  and its certificate must verify.
"""

from __future__ import annotations

import random
import re
import sys

import run

ORACLE_SAMPLE = 100  # n = 8 records recomputed by brute force


def sweep_rows(P, oracles, sample: int) -> list[str]:
    [(path, _)] = run.Sweep(chunks=1).make_inputs(P, 0, None)
    rc, text = run.run_cli(P.cli.main, ["sweep", str(path), "--workers", "2"])
    if rc != run.EXIT_OK or "violations: 0" not in text:
        sys.exit(f"sweep failed with exit code {rc}")
    found = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            f = line.split("\t")
            found[f[0]] = (f[1], f[2], f[3], f[4], f[7])
    corpus = [s for s in (raw.strip() for raw in run.CORPUS.read_text(encoding="ascii").splitlines()) if s]
    if set(found) != set(corpus):
        sys.exit("sweep records do not cover the corpus")
    for line in random.Random(2016).sample(corpus, sample):
        g = P.graph6.parse_graph6(line)
        want = (str(oracles.eta_naive(g)), str(oracles.chi_naive(g)))
        if found[line][2:4] != want:
            sys.exit(f"oracle disagrees on {line}: {found[line][2:4]} vs {want}")
    return ["\t".join((line,) + found[line]) for line in corpus]


def panel_rows(P) -> list[str]:
    return [f"{text}\t{P.families.eta_formula(P.families.parse_spec(text))}"
            for text in run.PANEL_FAMILIES]


def export_rows(P, oracles) -> list[str]:
    export = run.Export()
    specs = list(run.EXPORT_SPECS)
    _, outs = export.run(P, specs, P.cli.main, 1)
    rows = []
    for text, ((rc1, out1), g, g6, (rc2, out2), lp) in zip(specs, outs):
        lp.unlink(missing_ok=True)
        eta = int(re.search(r"^eta = (\d+)$", out1, re.M).group(1))
        counts = re.search(r"integer=(\d+) binary=(\d+) constraints=(\d+) eliminated=(\d+)$", out2)
        if rc1 or rc2 or counts is None or eta != P.families.eta_formula(P.families.parse_spec(text)):
            sys.exit(f"export failed for {text}")
        row = (str(g.n), str(g.edge_count), str(eta)) + counts.groups()
        if not export._certified(P, text, g, out1, row, oracles):
            sys.exit(f"certificate failed for {text}")
        rows.append("\t".join((text,) + row))
    return rows


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    P = run.import_program()
    oracles = run.load_oracles()
    tables = {
        "sweep_n8.tsv": ("g6\tn\tm\teta\tchi\tstatus", sweep_rows(P, oracles, ORACLE_SAMPLE)),
        "panel.tsv": ("spec\teta", panel_rows(P)),
        "export.tsv": ("spec\tn\tm\teta\tinteger\tbinary\tconstraints\teliminated", export_rows(P, oracles)),
    }
    for path in run.WORK.glob("*"):
        path.unlink()
    run.REF.mkdir(exist_ok=True)
    for name, (header, rows) in tables.items():
        (run.REF / name).write_text("# " + header + "\n" + "\n".join(rows) + "\n", encoding="ascii")
        print(f"{name}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
