"""Command-line surface: family certificates, single-graph solves, LP model
export, and streaming conjecture sweeps over graph6 corpora.

Exit codes: 0 success, 1 usage or input error, or a reader that closed stdout
early (the command then ends without a message), 2 conjecture violation found
(sweep), 3 a node budget ran out, 4 an internal fault: an eta `proof.prove`
cannot prove, or a chi whose coloring is not proper with largest color chi
(in a sweep an audit mismatch, checked before 2 and 3).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
from collections import Counter
from multiprocessing import Pool

from . import bounds as _bounds
from . import families as _families
from . import milp as _milp
from . import proof as _proof
from . import solver as _solver
from .graph import Graph, connected_components, induced_subgraph
from .graph6 import WRITER_MAX_N, Graph6FormatError, parse_graph6

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3
EXIT_AUDIT = 4

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


def _fault(where: str, proof: _proof.Proof) -> int:
    """Write the one `error:` line of a fault that `proof.prove` found."""
    lb, ub, eta = proof.report.eta_lower, proof.report.eta_upper, proof.eta
    if proof.fault == "lower":
        text = f"no bounds witness shows eta >= {lb}"
    elif proof.fault == "crossed":
        text = f"the bounds cross, {lb} > {ub}"
    elif proof.fault == "upper":
        text = ("the search found no eta up to the bounds' upper bound" if eta is None
                else f"eta={eta} is below the witnessed lower bound {lb}" if eta < lb
                else f"eta={eta} is above the bounds' upper bound {ub}")
    else:
        source = {"construction": "construction", "formula": "pinch"}.get(proof.layer, "search")
        text = f"the {source}'s labeling does not verify with eta={eta} labels"
    print(f"error: {where}: {text} (internal fault)", file=sys.stderr)
    return EXIT_AUDIT


def cmd_family(args: argparse.Namespace) -> int:
    try:
        spec = _families.parse_spec(args.spec)
        g, eta, labeling = _families.construction(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    proof = _proof.prove(g, 0, (eta, labeling))  # the construction replaces the search
    if proof.fault:
        return _fault(spec.text(), proof)
    lb = proof.report.eta_lower
    witness = f"none needed (eta = {lb})"
    if proof.witness is not None:
        kind, members = proof.witness
        if members is not None:
            kind += " " + ",".join(str(v + 1) for v in members)
        witness = f"{kind} (eta >= {lb}, re-checked)"
    if eta > lb:
        witness += f"; eta >= {eta} rests on the closed form, not checked"
    print(f"family: {spec.text()}")
    print(f"n={g.n} m={g.edge_count}")
    print(f"eta = {eta}")
    mapped = " ".join(f"{v + 1}:{x}" for v, x in enumerate(labeling.labels))
    print(f"labeling (construction; vertex:label, 1-based): {mapped}")
    print(f"verified: additive coloring with k={labeling.k}: OK")
    print(f"lower-bound witness: {witness}")
    print(f"bounds: {lb} <= eta <= {proof.report.eta_upper}")
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
        proof = _proof.prove(sub, args.budget)
        if proof.fault == "budget":
            print(f"component {idx}: budget exceeded after {proof.nodes} nodes")
            return EXIT_BUDGET
        if proof.fault:
            return _fault(f"component {idx}", proof)
        mapped = " ".join(f"{comp[i] + 1}:{x}" for i, x in enumerate(proof.labeling.labels))
        print(f"component {idx}: n={sub.n} eta={proof.eta} labeling: {mapped}")
        best = max(best, proof.eta)
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
    proof = _proof.prove(g, budget)
    eta, chi, chi_source = proof.eta, None, ""

    def record(status: str, *extra: str) -> tuple:
        # formats the fields as they stand when a branch below settles
        text = "\t".join((line, str(g.n), str(g.edge_count), "" if eta is None else str(eta),
                          "" if chi is None else str(chi), proof.layer, chi_source, status, *extra))
        if status in ("holds", "VIOLATION"):
            return text, status, g.n, eta, chi
        return text, status, g.n, None, None

    if proof.fault == "budget":
        return record("budget-exceeded")
    # a provable fault, which no budget or chi can clear; the re-solve names the true eta
    if proof.fault:
        true_eta = _proof.resolve(g, budget)
        return record("audit-mismatch", f"eta_solver={'' if true_eta is None else true_eta}")
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
    if eta <= chi:
        return record("holds")
    return record(
        "VIOLATION",
        "eta_cert=" + ",".join(map(str, proof.labeling.labels)),
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
