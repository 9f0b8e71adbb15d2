"""Spans and counters recorded around the package's public functions.

The tracer patches module attributes at the names the package's callers
look up (for example ``kippenhahn.curve.eig_all``, which ``sample_curve``
reads from its own module globals), so nothing under ``src/`` changes.
Patches are in place only while a traced item runs; untraced runs call the
original functions with no wrapper at all.

Each span is a tuple ``(id, name, start, end, parent, item)`` kept in
memory; ``write`` saves them as JSON lines once the run is over.  A layer's
self time is its span durations minus the durations of its direct child
spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import kippenhahn  # noqa: F401  (loads every submodule into sys.modules)

ITEM_SPAN = "bench.item"


def _mod(name):
    # ``kippenhahn.classify`` is shadowed by the function of that name in the
    # package namespace, so modules are looked up in sys.modules
    return sys.modules["kippenhahn." + name]


KINDS = _mod("classify").KINDS


def _count_split(counts, args, out):
    counts["eigsolve.split"] += 0.0 in args[0].e


def _count_samples(counts, args, out):
    counts["curve.samples"] += len(out)


def _count_eval(counts, args, out):
    counts["rtables.monomials"] += len(args[0])


def _count_grad(counts, args, out):
    counts["rtables.monomials"] += 5 * len(args[0])


def _count_kind(counts, args, out):
    counts["classify.kind." + out.kind] += 1


def _count_solutions(counts, args, out):
    counts["manifold.solve_m6.solutions"] += len(out)


# (span name, [(module, attribute) patched to record it], counter hook)
WRAPPED = (
    ("trimat.ReciprocalParams", [("trimat", "ReciprocalParams")], None),
    ("trimat.params_to_matrix", [("trimat", "params_to_matrix")], None),
    ("trimat.realified_pencil", [("curve", "realified_pencil")], None),
    ("trimat.phase_diagonal", [("curve", "phase_diagonal")], None),
    ("eigsolve.eig_all", [("curve", "eig_all")], _count_split),
    ("curve.sample_curve", [("curve", "sample_curve")], _count_samples),
    ("curve.branch_points", [("curve", "branch_points")], None),
    ("curve.fit_ellipse_axis_aligned", [("curve", "fit_ellipse_axis_aligned")], None),
    ("curve.symmetry_residual", [("curve", "symmetry_residual")], None),
    # rtables' own functions call each other through the module globals, so
    # patching the module attributes also records the nested calls
    ("rtables.eval_table", [("rtables", "eval_table")], _count_eval),
    ("rtables.grad_table", [("rtables", "grad_table")], _count_grad),
    ("rtables.eval_resultants_at", [("rtables", "eval_resultants_at")], None),
    ("nrpoly.generating_poly", [("nrpoly", "generating_poly")], None),
    ("nrpoly.substitution_tau_coeffs", [("nrpoly", "substitution_tau_coeffs")], None),
    ("nrpoly.resultant_in_z", [("nrpoly", "resultant_in_z")], None),
    ("nrpoly.reduce_mod_cubic", [("nrpoly", "reduce_mod_cubic")], None),
    ("nrpoly.divide_by_linear", [("nrpoly", "divide_by_linear")], None),
    ("nrpoly.eval_residual", [("nrpoly", "eval_residual")], None),
    ("nrpoly.cubic_roots", [("nrpoly", "cubic_roots"), ("classify", "cubic_roots"),
                            ("manifold", "cubic_roots")], None),
    ("classify.classify", [("classify", "classify")], _count_kind),
    ("manifold.solve_m6", [("manifold", "solve_m6")], _count_solutions),
    ("manifold.solve_uv", [("manifold", "solve_uv")], None),
    ("cli.main", [("cli", "main")], None),
)

P50_SPANS = ("curve.sample_curve", "manifold.solve_m6", "manifold.solve_uv")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.items = 0
        self._stack = [0]  # span id 0 is "no parent"
        self._next_id = 1
        self._patches = []
        for name, sites, hook in WRAPPED:
            for modname, attr in sites:
                module = _mod(modname)
                original = getattr(module, attr)
                self._patches.append((module, attr, original,
                                      self._wrap(name, original, hook)))

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn, updated=())  # fn may be a class
        def traced(*args, **kwargs):
            # the span covers its own bookkeeping, so that overhead counts
            # against the layer rather than the caller's self time
            start = perf_counter()
            sid = self._next_id
            self._next_id = sid + 1
            parent = self._stack[-1]
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                end = perf_counter()
                self.spans.append((sid, name, start, end, parent, self.items))
            if hook is not None:
                hook(self.counts, args, out)
            return out
        return traced

    @contextmanager
    def item(self):
        """Patch the package, and record one root span around the body."""
        self.items += 1
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, ITEM_SPAN, start, end, 0, self.items))
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Per-layer metrics; ``.calls`` and ``.self_s`` are per traced item."""
        items = max(self.items, 1)
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        durations = defaultdict(list)
        item_s = 0.0
        for sid, name, start, end, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
            if name in P50_SPANS:
                durations[name].append(end - start)
            if name == ITEM_SPAN:
                item_s += end - start
        out = {}
        for name, _, _ in WRAPPED:
            out[name + ".calls"] = calls[name] / items
            out[name + ".self_s"] = self_s[name] / items
        for name in P50_SPANS:
            out[name + ".p50_ms"] = (1e3 * statistics.median(durations[name])
                                     if durations[name] else 0.0)
        eig_calls = calls["eigsolve.eig_all"]
        out["eigsolve.split_frac"] = self.counts["eigsolve.split"] / eig_calls if eig_calls else 0.0
        sc_calls = calls["curve.sample_curve"]
        out["curve.samples"] = self.counts["curve.samples"] / sc_calls if sc_calls else 0.0
        out["rtables.monomials"] = self.counts["rtables.monomials"] / items
        for kind in KINDS:
            out["classify.kind." + kind] = self.counts["classify.kind." + kind] / items
        m6_calls = calls["manifold.solve_m6"]
        m6_solutions = self.counts["manifold.solve_m6.solutions"]
        out["manifold.solve_m6.solutions"] = m6_solutions / m6_calls if m6_calls else 0.0
        m6_tables = self._table_calls_under("manifold.solve_m6")
        out["manifold.table_calls_per_solution"] = (m6_tables / m6_solutions
                                                    if m6_solutions else 0.0)
        out[ITEM_SPAN + ".self_s"] = self_s[ITEM_SPAN] / items
        out["trace.unattributed_frac"] = self_s[ITEM_SPAN] / item_s if item_s else 0.0
        out["trace.spans"] = len(self.spans) / items
        return out

    def _table_calls_under(self, ancestor):
        """rtables eval_table and grad_table spans nested inside `ancestor`."""
        names = [None] * self._next_id
        parents = [0] * self._next_id
        for sid, name, _, _, parent, _ in self.spans:
            names[sid] = name
            parents[sid] = parent
        inside = [False] * self._next_id
        total = 0
        for sid in range(1, self._next_id):  # parents get lower ids than children
            inside[sid] = names[sid] == ancestor or inside[parents[sid]]
            if inside[sid] and names[sid] in ("rtables.eval_table", "rtables.grad_table"):
                total += 1
        return total

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "item"]})
                     + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
