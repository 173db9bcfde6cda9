"""Command-line surface: family certificates, single-graph solves, LP model
export, and streaming conjecture sweeps over graph6 corpora.

Exit codes: 0 success, 1 usage or input error, or a reader that closed stdout
early (the command then ends without a message), 2 conjecture violation found
(sweep), 3 a node budget ran out, 4 an internal fault: an eta or chi the
sweep cannot prove (an audit mismatch, checked before 2 and 3), a search
that found no eta up to the degree bound or a labeling that does not prove
its eta (solve), or a construction that does not prove its formula (family).

Every printed eta stands on a labeling that `graph.proves_eta` accepts: one
that verifies with exactly eta labels. In a sweep the layer that decided eta
hands it over: the bounds' construction for a pinch (eta_source `formula`:
all ones for eta <= 1, or the split labeling), the search's certificate
otherwise. A provable fault, that is no eta (the search refuted its upper
bound, or the bounds crossed) or a labeling that fails the predicate, makes
the record an audit mismatch at once, with no chi and whatever the budget.
An unproven eta (a pinch without a construction, eta above chi, or a line
in the audit sample) is re-solved from lower bound 1 and stands only on the
same eta with a labeling that passes the same predicate. A record keeps an
exact chi only when its coloring is proper and its largest color is chi;
any other is an audit mismatch that shows the coloring. The searches return
their labelings and colorings unchecked, so these checks are the only ones;
they are plain `if`s, which `python -O` keeps.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
import zlib
from collections import Counter
from multiprocessing import Pool

from . import bounds as _bounds
from . import families as _families
from . import milp as _milp
from . import solver as _solver
from .graph import (
    Graph,
    Labeling,
    connected_components,
    induced_subgraph,
    proves_eta,
)
from .graph6 import WRITER_MAX_N, Graph6FormatError, parse_graph6

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3
EXIT_AUDIT = 4

AUDIT_RATE = 100  # re-solve roughly 1 in 100 graphs, however eta was decided

# records per pool task at --workers > 1: the parent pickles every task and
# result, so small chunks make it the limit. Whole-command `acp sweep
# --workers 2`, medians of 5 (CPython 3.11.7, 2 vCPUs), at chunks of 16 / 64
# / 256 / 1024: the n = 8 corpus 2.13 / 1.68 / 1.63 / 1.63 s, three copies of
# it 5.41 / 4.56 / 4.41 / 4.44 s. 256 cut the parent's CPU on n = 8 from
# 0.68 s at 16 to 0.26 s; larger chunks gain nothing and delay the first
# report line.
SWEEP_CHUNKSIZE = 256


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_graph(arg: str) -> Graph:
    """Interpret `arg` as an edge-list file if it names one, else as a
    graph6 string."""
    if os.path.isfile(arg):
        return _read_edge_list(arg)
    return parse_graph6(arg)


def _read_edge_list(path: str) -> Graph:
    """Whitespace-separated 0-based integer pairs, one edge per line; lines
    starting with '#' are comments. An optional single-integer first line
    declares the vertex count (needed for trailing isolated vertices).
    Numbers are plain ASCII digits; int() would also take "1_0", "+1" and
    non-ASCII digits."""
    edges = []
    declared_n = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            for x in fields:
                if not re.fullmatch(r"[0-9]+", x):
                    raise ValueError(f"{path}:{lineno}: numbers are plain ASCII digits, got {x!r}")
            fields = [int(x) for x in fields]
            if len(fields) == 1 and declared_n is None and not edges:
                declared_n = fields[0]
                if declared_n > WRITER_MAX_N:
                    raise ValueError(
                        f"{path}:{lineno}: declared n={declared_n} exceeds {WRITER_MAX_N}"
                    )
                continue
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {raw.rstrip()!r}")
            u, v = fields
            # Graph.from_edges checks these too, but cannot name the line
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop at vertex {u}")
            if declared_n is not None and max(u, v) >= declared_n:
                raise ValueError(
                    f"{path}:{lineno}: edge ({u},{v}) out of range for n={declared_n}"
                )
            edges.append((u, v))
    n = declared_n
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
        if n > WRITER_MAX_N:
            raise ValueError(f"{path}: vertex {n - 1} exceeds n <= {WRITER_MAX_N}")
    return Graph.from_edges(n, edges)


def _components(g: Graph) -> list[tuple[list[int], Graph]]:
    """(vertices, induced subgraph) per connected component; a connected
    graph is its own component, not a copy."""
    comps = connected_components(g)
    if len(comps) == 1:
        return [(comps[0], g)]
    return [(comp, induced_subgraph(g, comp)) for comp in comps]


def _format_labeling(lab: Labeling) -> str:
    return " ".join(f"{v + 1}:{x}" for v, x in enumerate(lab.labels))


def cmd_family(args: argparse.Namespace) -> int:
    try:
        spec = _families.parse_spec(args.spec)
        cert = _families.certify(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:  # certify's construction does not prove eta
        print(f"error: {exc} (internal fault)", file=sys.stderr)
        return EXIT_AUDIT
    g = cert.graph
    report = _bounds.combined_bounds(g)
    print(f"family: {spec.text()}")
    print(f"n={g.n} m={g.edge_count}")
    print(f"eta = {cert.eta}")
    print(f"labeling (construction; vertex:label, 1-based): {_format_labeling(cert.labeling)}")
    # certify raises unless the labeling verifies
    print(f"verified: additive coloring with k={cert.labeling.k}: OK")
    print(f"lower-bound witness: {cert.lower_bound_witness}")
    print(f"bounds: {report.eta_lower} <= eta <= {report.eta_upper}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        g = _load_graph(args.graph)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    comps = _components(g)
    print(f"graph: n={g.n} m={g.edge_count} components={len(comps)}")
    best = 0
    for idx, (comp, sub) in enumerate(comps, 1):
        result = _solver.eta_exact(sub, node_budget=args.budget)
        if result.status == _solver.BUDGET_EXCEEDED:
            print(f"component {idx}: budget exceeded after {result.stats.nodes} nodes")
            return EXIT_BUDGET
        if result.status == _solver.UB_EXCEEDED:
            print(f"error: component {idx}: the search found no eta up to the degree bound "
                  f"(internal fault)", file=sys.stderr)
            return EXIT_AUDIT
        cert = result.certificate
        if not proves_eta(sub, cert, result.value):
            print(f"error: component {idx}: the search's labeling does not verify with "
                  f"eta={result.value} labels (internal fault)", file=sys.stderr)
            return EXIT_AUDIT
        mapped = " ".join(f"{comp[i] + 1}:{x}" for i, x in enumerate(cert.labels))
        print(f"component {idx}: n={sub.n} eta={result.value} labeling: {mapped}")
        best = max(best, result.value)
    print(f"eta = {best}")
    return EXIT_OK


def cmd_export_lp(args: argparse.Namespace) -> int:
    try:
        g = _load_graph(args.graph)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if g.n == 0:
        print(f"{args.output}: skipped (graph has no vertices, eta = 0)")
        return EXIT_OK
    comps = _components(g)
    if len(comps) == 1:
        outputs = [(args.output, comps[0][1])]
    else:
        root, ext = os.path.splitext(args.output)
        outputs = [
            (f"{root}_c{idx}{ext or '.lp'}", sub) for idx, (_, sub) in enumerate(comps, 1)
        ]
    # opening an output truncates it, so none may be the input edge list
    if os.path.isfile(args.graph):
        for path, _ in outputs:
            if os.path.exists(path) and os.path.samefile(args.graph, path):
                print(f"error: output {path} is the input {args.graph}", file=sys.stderr)
                return EXIT_USAGE
    if args.ub is not None:
        # a UB below a component's proven lower bound leaves its model no
        # feasible point: refuse it before any file is written
        lower = max(
            (_bounds.combined_bounds(sub).eta_lower for _, sub in outputs if sub.edge_count),
            default=0,
        )
        if args.ub < lower:
            print(f"error: --ub {args.ub} is below the proven lower bound eta >= {lower}",
                  file=sys.stderr)
            return EXIT_USAGE
    for path, sub in outputs:
        if sub.edge_count == 0:
            print(f"{path}: skipped (component has no edges, eta = 1)")
            continue
        ub = args.ub if args.ub is not None else _bounds.eta_upper_bound(sub)
        try:
            model = _milp.build_model(
                sub, ub, valid_inequalities=args.valid, twin_symmetry=args.symmetry
            )
            with open(path, "w", encoding="ascii") as fh:
                fh.write(_milp.write_lp(model))
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        counts = _milp.model_counts(model)
        print(
            f"{path}: UB={ub} "
            f"integer={counts['integer_variables']} "
            f"binary={counts['binary_variables']} "
            f"constraints={counts['constraints']} "
            f"eliminated={counts['eliminated_variables']}"
        )
    return EXIT_OK


def _solve_record(item: tuple[int, str], budget: int) -> tuple:
    """Solve one corpus line into (report line, status, n, eta, chi) for the
    parent to write and tally: n is None for a parse error, and eta and chi
    are None unless both are exact. A pure function of the line, so worker
    count cannot change any record."""
    _, line = item
    try:
        g = parse_graph6(line)
    except Graph6FormatError as exc:
        return f"{line}\tparse-error\t{exc}", "parse-error", None, None, None
    eta = chi = None
    eta_source, chi_source = "solver", ""

    def record(status: str, *extra: str) -> tuple:
        # formats the fields as they stand when a branch below settles
        text = "\t".join((line, str(g.n), str(g.edge_count), "" if eta is None else str(eta),
                          "" if chi is None else str(chi), eta_source, chi_source, status, *extra))
        if status in ("holds", "VIOLATION"):
            return text, status, g.n, eta, chi
        return text, status, g.n, None, None

    report = _bounds.combined_bounds(g)
    labeling = None  # the deciding layer's proof of eta(g) <= eta
    if report.eta_lower == report.eta_upper:
        eta, eta_source, labeling = report.eta_lower, "formula", report.labeling
    elif report.eta_lower < report.eta_upper:
        result = _solver.eta_exact(
            g, report.eta_lower, report.eta_upper, node_budget=budget
        )
        if result.status == _solver.BUDGET_EXCEEDED:
            return record("budget-exceeded")
        eta, labeling = result.value, result.certificate
    # a provable fault, which no budget or chi can clear: no eta (the search
    # refuted its upper bound, or the bounds crossed), or a deciding labeling
    # that does not prove it. The re-solve from lb = 1 only shows the true eta
    if eta is None or labeling is not None and not proves_eta(g, labeling, eta):
        recheck = _solver.eta_exact(g, 1, node_budget=budget)
        return record("audit-mismatch", f"eta_solver={recheck.value if recheck.ok else ''}")
    chi_result = _solver.chromatic_exact(g, node_budget=budget)
    if not chi_result.ok:
        chi, chi_source = _solver.dsatur(g)[0], "dsatur-only"
        return record("budget-exceeded")
    chi, chi_source = chi_result.value, "exact"
    # chi stands only on a proper coloring whose largest color is chi; the
    # solver returns it unchecked
    chi_cert = chi_result.certificate
    if not (_solver.verify_proper_coloring(g, chi_cert) and max(chi_cert, default=0) == chi):
        return record("audit-mismatch", "chi_cert=" + ",".join(map(str, chi_cert)))
    # an unproven eta (a pinch without a construction, eta above chi, or the
    # ~1% CRC audit sample) stands only if the re-solve from lb = 1 returns it
    # with a labeling that proves it: a violation owes nothing to the bounds
    if labeling is None or eta > chi or zlib.crc32(line.encode()) % AUDIT_RATE == 0:
        recheck = _solver.eta_exact(g, 1, node_budget=budget)
        if not recheck.ok:
            return record("budget-exceeded")
        if recheck.value != eta or not proves_eta(g, recheck.certificate, eta):
            return record("audit-mismatch", f"eta_solver={recheck.value}")
    if eta <= chi:
        return record("holds")
    return record(
        "VIOLATION",
        "eta_cert=" + ",".join(str(x) for x in recheck.certificate.labels),
        "chi_cert=" + ",".join(map(str, chi_cert)),
    )


def _iter_corpus(fh):
    """Yield (index, line) work items for the non-blank lines."""
    for idx, raw in enumerate(fh):
        line = raw.strip()
        if line:
            yield (idx, line)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Stream the corpus through the workers and write records as they
    arrive, merged in input order; only the aggregates stay in memory."""
    started = time.perf_counter()
    try:
        # opening the report truncates it, so it must not be the corpus
        if args.output and os.path.exists(args.output) and os.path.samefile(
            args.corpus, args.output
        ):
            raise OSError(f"report {args.output} is the corpus {args.corpus}")
        # a non-ASCII byte decodes to U+FFFD, which the parser rejects, so
        # the line becomes a parse-error record the UTF-8 report can hold
        fh = open(args.corpus, "r", encoding="ascii", errors="replace")
        try:
            out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
        except OSError:
            fh.close()
            raise
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    worker = functools.partial(_solve_record, budget=args.budget)
    counts: Counter = Counter()  # records per status
    by_n: Counter = Counter()
    eta_by_n: Counter = Counter()  # (n, eta) of the records with exact eta and chi
    max_gap = None
    processes = min(args.workers, os.cpu_count() or 1)
    pool = Pool(processes) if processes > 1 else None
    try:
        items = _iter_corpus(fh)
        results = map(worker, items) if pool is None else pool.imap(
            worker, items, chunksize=SWEEP_CHUNKSIZE
        )
        for text, status, n, eta, chi in results:
            out.write(text + "\n")
            counts[status] += 1
            if n is not None:
                by_n[n] += 1
            if eta is not None:
                eta_by_n[n, eta] += 1
                max_gap = eta - chi if max_gap is None else max(max_gap, eta - chi)
        elapsed = time.perf_counter() - started
        out.write("# summary\n")
        out.write(f"# graphs: {counts.total()}\n")
        out.write("# by_n: " + " ".join(f"{n}:{c}" for n, c in sorted(by_n.items())) + "\n")
        tally = " ".join(f"{n}:{eta}={c}" for (n, eta), c in sorted(eta_by_n.items()))
        out.write(f"# eta_by_n: {tally}\n")
        out.write(
            f"# holds: {counts['holds']} violations: {counts['VIOLATION']} "
            f"budget_exceeded: {counts['budget-exceeded']} "
            f"parse_errors: {counts['parse-error']} "
            f"audit_mismatches: {counts['audit-mismatch']}\n"
        )
        out.write(f"# max_eta_minus_chi: {max_gap if max_gap is not None else 'n/a'}\n")
        out.write(f"# elapsed_seconds: {elapsed:.2f}\n")
    finally:
        # every result is in, or an error ends the sweep: either way the
        # workers must not go on through the lines imap has queued
        if pool is not None:
            pool.terminate()
        fh.close()
        if out is not sys.stdout:
            out.close()
    if counts["audit-mismatch"]:
        return EXIT_AUDIT
    if counts["VIOLATION"]:
        return EXIT_VIOLATION
    if counts["budget-exceeded"]:
        return EXIT_BUDGET
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type for an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _arg(*flags: str, **kwargs) -> tuple:
    """The positional and keyword arguments of one `add_argument` call."""
    return flags, kwargs


# name -> (help, handler, arguments) of each sub-command, in usage order
_COMMANDS = {
    "family": ("certificate for a family instance", cmd_family, (
        _arg("spec", help="family spec, e.g. cycle:7 or multipartite:3,2,2"),
    )),
    "solve": ("exact additive chromatic number", cmd_solve, (
        _arg("graph", help="graph6 string, or path to an edge-list file"),
        _arg("--budget", type=_int_at_least(0), default=_solver.DEFAULT_NODE_BUDGET,
             help="search node budget"),
    )),
    "export-lp": ("write the big-M model as an LP file", cmd_export_lp, (
        _arg("graph", help="graph6 string, or path to an edge-list file"),
        _arg("--ub", type=int, default=None,
             help="upper bound for eta (default: combined bounds)"),
        _arg("--valid", action="store_true",
             help="add the neighborhood-containment valid inequalities"),
        _arg("--symmetry", action="store_true",
             help="add twin symmetry breaking with variable elimination"),
        _arg("-o", "--output", default="model.lp", help="output path"),
    )),
    "sweep": ("check eta <= chi over a graph6 corpus", cmd_sweep, (
        _arg("corpus", help="graph6 file, one graph per line"),
        _arg("--workers", type=_int_at_least(1), default=1,
             help="worker processes, at most the CPU count (default 1)"),
        _arg("--budget", type=_int_at_least(0), default=_solver.DEFAULT_NODE_BUDGET,
             help="node budget of each eta, audit and chi search"),
        _arg("-o", "--output", default=None, help="report path (default stdout)"),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `acp` parser, with one sub-parser per named command: `command`'s
    alone when it names one (the four cost as much as a small search), else
    all of them. A lone sub-parser's metavar lists every command, so the
    usage line reads, and wraps, as with all four; with all four it stays
    unset, as it would rename `command` in the missing-command error."""
    names = (command,) if command in _COMMANDS else tuple(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    parser = _Parser(prog="acp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout (`acp sweep ... | head -1`): end quietly,
        # with stdout on devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
