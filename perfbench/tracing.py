"""Spans around the calls into each addcolor module's public functions.

`Tracer.installed()` replaces each function listed in TRACED by a wrapper,
in every addcolor module that holds a reference to it, so the calls the
program makes between its own modules are recorded too. Each span keeps
its name, start, end, parent span and record id; spans stay in memory until
`layer_metrics` reduces them. Nothing in the program is edited: the
wrappers are removed again when the `with` block ends.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager

# (module, function, span name); a span's layer is the part of its name
# before the dot
TRACED = (
    ("graph6", "parse_graph6", "graph6.parse"),
    ("graph6", "write_graph6", "graph6.write"),
    ("graph", "verify_additive_coloring", "graph.verify"),
    ("graph", "twin_refined_partition", "graph.twin_partition"),
    ("bounds", "combined_bounds", "bounds.combined"),
    ("bounds", "is_eta_one", "bounds.eta_one"),
    ("bounds", "largest_true_twin_class", "bounds.twin"),
    ("bounds", "best_clique_lower_bound", "bounds.clique"),
    ("bounds", "split_recognize", "bounds.split"),
    ("bounds", "split_upper_bound", "bounds.split_upper"),
    ("solver", "eta_exact", "solver.eta"),
    ("solver", "chromatic_exact", "solver.chi"),
    ("solver", "dsatur", "solver.dsatur"),
    ("solver", "greedy_clique_lower_bound", "solver.chi_clique_lb"),
    ("families", "generate", "families.generate"),
    ("families", "certify", "families.certify"),
    ("milp", "build_model", "milp.build"),
    ("milp", "write_lp", "milp.write"),
    ("cli", "_solve_record", "cli.record"),
)

LAYERS = ("graph6", "graph", "bounds", "solver", "families", "milp", "cli")

# per-call means reported as "<span>_us"
MEAN_US = (
    "graph6.parse", "graph6.write", "graph.verify", "graph.twin_partition",
    "bounds.combined", "bounds.eta_one", "bounds.twin", "bounds.clique",
    "solver.eta", "solver.chi", "solver.dsatur", "solver.chi_clique_lb",
    "families.generate", "families.certify", "milp.build", "milp.write",
)

# span fields
NAME, START, END, PARENT, RECORD, OUTER = range(6)


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.record = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        # counts observed at the same boundaries as the spans
        self.bounds_calls = self.pinched = self.clique_raised = 0
        self.eta_nodes = 0
        self.eta_calls: list[tuple] = []
        self.chi_calls = self.chi_bb = 0
        self._chi_lb = None
        self.lp_bytes = self.constraints = 0

    def span(self, name: str, fn, record_of=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        observe = getattr(self, "_seen_" + fn.__name__, None)

        def traced(*args, **kwargs):
            saved = self.record
            if record_of is not None:
                self.record = record_of(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.record, not depth.get(name)])
            stack.append(idx)
            depth[name] = depth.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[name] -= 1
                stack.pop()
                span = spans[idx]
                span[START], span[END] = start, end
                self.record = saved
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper in all modules."""
        undo = []
        for mod_name, fn_name, span_name in TRACED:
            fn = getattr(self.modules[mod_name], fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            # a sweep record is keyed by its graph6 line, unique in a corpus
            record_of = (lambda args: args[0][1]) if fn_name == "_solve_record" else None
            wrapper = self.span(span_name, fn, record_of)
            for mod in self.modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in undo:
                setattr(mod, attr, fn)
        if self.missing:
            print("not traced (absent): " + ", ".join(self.missing), file=sys.stderr)

    # -- counts, taken from the values the traced calls return

    def _seen_combined_bounds(self, report, args, kwargs):
        self.bounds_calls += 1
        self.pinched += report.eta_lower == report.eta_upper
        self.clique_raised += any(w[0] == "clique" for w in report.witnesses)

    def _seen_eta_exact(self, result, args, kwargs):
        self.eta_nodes += result.stats.nodes
        lb = args[1] if len(args) > 1 else kwargs.get("lb")
        self.eta_calls.append((args[0], lb or 1))

    def _seen_greedy_clique_lower_bound(self, value, args, kwargs):
        self._chi_lb = value

    def _seen_dsatur(self, result, args, kwargs):
        if self._chi_lb is not None:
            self.chi_calls += 1
            self.chi_bb += self._chi_lb < result[0]
            self._chi_lb = None

    def _seen_build_model(self, model, args, kwargs):
        self.constraints += len(model.constraints)

    def _seen_write_lp(self, text, args, kwargs):
        self.lp_bytes += len(text.encode("ascii"))

    def eta_setup_seconds(self, eta_exact) -> float:
        """Time `eta_exact(g, lb, lb, node_budget=0)` on every graph the
        pass solved: the search set-up plus one node. Run after the pass,
        untraced, so it adds nothing to the traced wall time."""
        total = 0.0
        for g, lb in self.eta_calls:
            start = time.perf_counter()
            eta_exact(g, lb, lb, node_budget=0)
            total += time.perf_counter() - start
        return total


def layer_metrics(tracer: Tracer, wall: float, setup_s: float) -> dict[str, float]:
    """Reduce one traced pass of `wall` seconds to the per-layer metrics."""
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    records: dict[object, float] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
        if s[OUTER]:
            total[name] = total.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
        rec, parent = s[RECORD], s[PARENT]
        if rec is not None and (parent < 0 or spans[parent][RECORD] != rec):
            records[rec] = records.get(rec, 0.0) + dur[i]

    def mean_us(name: str, extra: str | None = None) -> float:
        t = total.get(name, 0.0) + (total.get(extra, 0.0) if extra else 0.0)
        return 1e6 * t / calls[name] if calls.get(name) else 0.0

    out = {f"{name}_us": mean_us(name) for name in MEAN_US}
    out["bounds.split_us"] = mean_us("bounds.split", "bounds.split_upper")
    n_eta = calls.get("solver.eta", 0)
    eta_total = total.get("solver.eta", 0.0)
    dfs_total = max(eta_total - setup_s, 0.0)
    out["solver.eta_setup_us"] = 1e6 * setup_s / n_eta if n_eta else 0.0
    out["solver.eta_dfs_us"] = 1e6 * dfs_total / n_eta if n_eta else 0.0
    out["solver.eta_nodes"] = tracer.eta_nodes
    out["solver.nodes_per_s"] = tracer.eta_nodes / dfs_total if dfs_total > 0 else 0.0
    out["bounds.pinch_frac"] = _frac(tracer.pinched, tracer.bounds_calls)
    out["bounds.clique_raise_frac"] = _frac(tracer.clique_raised, tracer.bounds_calls)
    out["solver.chi_bb_frac"] = _frac(tracer.chi_bb, tracer.chi_calls)
    out["milp.lp_bytes"] = tracer.lp_bytes
    out["milp.constraints"] = tracer.constraints
    out["cli.overhead_frac"] = self_s["cli"] / wall
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    per_record = sorted(records.values())
    out["sweep.record_p50_us"] = 1e6 * _quantile(per_record, 0.5)
    out["sweep.record_p999_us"] = 1e6 * _quantile(per_record, 0.999)
    return out


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    if not sorted_values:
        return 0.0
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return sorted_values[rank - 1]
