"""Outside-in tracer: wraps the public functions of each `wassoc` layer.

Nothing in the package is edited.  `Tracer.install` replaces every
attribute of a loaded `wassoc.*` module that *is* a traced function by a
wrapper; modules bind names with `from .linalg import rank`, so patching
only the defining module would miss most calls.  A few methods are patched
on their class.  Each wrapped call records one span `[name, start, end,
parent]` in memory; `uninstall` restores the originals and `metrics` turns
the spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

# Span of the tracer's own bookkeeping after a call returns; as a child of
# the caller it keeps that cost out of every layer's self time.
BOOKKEEPING = "trace.bookkeeping"

REPORT_SECTIONS = (
    "orbit", "operad", "freewa", "homology", "delta3", "cohomology", "polarization", "deform",
)

# (module, function names, span name).  A `None` list means every public
# function defined in the module.
FUNCTION_SPANS = [
    ("linalg", ["rref"], "linalg.rref"),
    ("freewa", ["as_truncated_algebra"], "freewa.truncation"),
    ("operads", ["consequences"], "operads.consequences"),
    ("operads", ["wass_dual_arity4"], "operads.dual4"),
    ("cohomology", ["build_delta3_system"], "cohomology.delta3_system"),
    ("cohomology", [
        "hochschild_delta", "wa_delta0", "wa_delta1", "wa_delta2", "wa_delta3",
        "leibniz_defect", "lichnerowicz_delta", "lichnerowicz_delta0",
    ], "cohomology.coboundary"),
    ("symgroup", None, "symgroup"),
    ("finalg", ["evaluate"], "finalg.evaluate"),
    ("finalg", [
        "is_commutative", "is_anticommutative", "is_associative", "is_weakly_associative",
        "is_flexible", "is_lie_admissible", "satisfies_jacobi", "is_lie",
        "satisfies_jordan_identity", "is_jordan", "is_derivation", "is_nonassociative_poisson",
    ], "finalg.predicate"),
    ("finalg", ["algebra_from_json", "multimap_from_json"], "finalg.from_json"),
    ("deform", ["gauge"], "deform.gauge"),
    ("deform", ["is_wa_deformation", "first_failing_order"], "deform.wa_check"),
    ("deform", ["quantization"], "deform.quantization"),
    ("cli", ["main"], "cli.main"),
] + [("report", [f"_{s}_checks"], f"report.{s}") for s in REPORT_SECTIONS]

# (module, class, method, span name)
METHOD_SPANS = [
    ("linalg", "Matrix", "__matmul__", "linalg.matmul"),
    ("homology", "ChainComplex", "boundary", "homology.boundary"),
    ("homology", "ChainComplex", "homology_dim", "homology.homology_dim"),
]

# Spans whose `.s` metric is wall time including children: they are the
# sections and commands a user waits for.  Every other `.s` is self time.
INCLUSIVE = {"cli.main"} | {f"report.{s}" for s in REPORT_SECTIONS}


def _current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _cells(matrix) -> int:
    return matrix.rows * matrix.cols


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name, fn, before=None, after=None):
        """Span wrapper.  `before(args)` runs ahead of the call and its value
        goes to `after(state, args, result)`, which runs once the span has
        ended, inside a bookkeeping span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            state = before(args) if before is not None else None
            record = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                book = [BOOKKEEPING, record[2], 0.0, parent]
                spans.append(book)
                after(state, args, result)
                book[2] = perf_counter()
            return result

        return wrapper

    def _count(self, fn, on_call):
        """Counter-only wrapper for calls too frequent to time one by one."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(counts, args)
            return result

        return wrapper

    # -- layer-specific counters ---------------------------------------------

    def _after_rref(self, _, args, result):
        m = args[0]
        self._add("rref.cells", _cells(m))
        self._add("rref.rows", m.rows)
        self._add("rref.rank", result[0])
        self.counts["rref.max_cells"] = max(self.counts.get("rref.max_cells", 0), _cells(m))

    def _after_truncation(self, rss_before, _, result):
        self._add("truncation.entries", result.algebra.dim ** 3)
        self._add("truncation.rss_growth_mb", _current_rss_mb() - rss_before)

    def _after_boundary(self, _, args, result):
        self._add("boundary.cells", _cells(result))
        self._add("boundary.nonzeros", sum(1 for row in result.entries for x in row if x))

    @staticmethod
    def _on_multimap(counts, args):
        _, arity, dim = args[:3]
        counts["multimap.allocs"] = counts.get("multimap.allocs", 0) + 1
        counts["multimap.cells"] = counts.get("multimap.cells", 0) + dim ** (arity + 1)

    @staticmethod
    def _on_call(key):
        def on_call(counts, args):
            counts[key] = counts.get(key, 0) + 1
        return on_call

    # -- install / uninstall --------------------------------------------------

    def _replace_everywhere(self, orig, wrapped):
        """Rebind every `wassoc.*` module attribute that is `orig`, including
        function tables held in module-level dicts."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "wassoc" or modname.startswith("wassoc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, orig))
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is orig:
                            value[key] = wrapped
                            self._restore.append((value, key, entry))
                        elif isinstance(entry, tuple) and any(e is orig for e in entry):
                            value[key] = tuple(wrapped if e is orig else e for e in entry)
                            self._restore.append((value, key, entry))

    def install(self):
        mods = {m: importlib.import_module(f"wassoc.{m}") for m in (
            "linalg", "symgroup", "identities", "finalg", "cohomology", "operads",
            "freewa", "homology", "deform", "corpus", "report", "cli",
        )}
        extra = {
            "linalg.rref": (None, self._after_rref),
            "freewa.truncation": (lambda args: _current_rss_mb(), self._after_truncation),
            "homology.boundary": (None, self._after_boundary),
        }
        for modname, names, span in FUNCTION_SPANS:
            mod = mods[modname]
            if names is None:
                names = [n for n, v in vars(mod).items() if not n.startswith("_")
                         and inspect.isfunction(v) and v.__module__ == mod.__name__]
            before, after = extra.get(span, (None, None))
            for fname in names:
                orig = getattr(mod, fname)
                self._replace_everywhere(orig, self._wrap(span, orig, before, after))
        for modname, clsname, meth, span in METHOD_SPANS:
            cls = getattr(mods[modname], clsname)
            wrapped = self._wrap(span, cls.__dict__[meth], *extra.get(span, (None, None)))
            self._patch_method(cls, meth, wrapped)
        multimap = mods["finalg"].MultiMap
        self._patch_method(multimap, "__init__", self._count(multimap.__init__, self._on_multimap))
        for modname, fname, key in (("linalg", "in_span", "in_span.calls"),
                                    ("identities", "apply_perm", "apply_perm.calls")):
            orig = getattr(mods[modname], fname)
            self._replace_everywhere(orig, self._count(orig, self._on_call(key)))

    def _patch_method(self, cls, name, wrapped):
        self._restore.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapped)

    def uninstall(self):
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, keyed like the `per_layer` list of the
        benchmark, without the tracer's own overhead figures."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for (name, start, end, _), cov in zip(self.spans, covered):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - cov)

        def seconds(span):
            return (total if span in INCLUSIVE else own).get(span, 0.0)

        c = self.counts.get
        out = {
            "linalg.rref.calls": calls.get("linalg.rref", 0),
            "linalg.rref.s": seconds("linalg.rref"),
            "linalg.rref.cells": c("rref.cells", 0),
            "linalg.rref.max_cells": c("rref.max_cells", 0),
            "linalg.rref.rank_ratio": c("rref.rank", 0) / c("rref.rows", 0) if c("rref.rows") else 0.0,
            "linalg.matmul.calls": calls.get("linalg.matmul", 0),
            "linalg.matmul.s": seconds("linalg.matmul"),
            "linalg.in_span.calls": c("in_span.calls", 0),
            "freewa.truncation.calls": calls.get("freewa.truncation", 0),
            "freewa.truncation.s": seconds("freewa.truncation"),
            "freewa.truncation.entries": c("truncation.entries", 0),
            "freewa.truncation.rss_growth_mb": c("truncation.rss_growth_mb", 0.0),
            "homology.boundary.calls": calls.get("homology.boundary", 0),
            "homology.boundary.s": seconds("homology.boundary"),
            "homology.boundary.cells": c("boundary.cells", 0),
            "homology.boundary.density":
                c("boundary.nonzeros", 0) / c("boundary.cells") if c("boundary.cells") else 0.0,
            "homology.homology_dim.s": seconds("homology.homology_dim"),
            "operads.consequences.calls": calls.get("operads.consequences", 0),
            "operads.consequences.s": seconds("operads.consequences"),
            "operads.dual4.s": seconds("operads.dual4"),
            "cohomology.delta3_system.s": seconds("cohomology.delta3_system"),
            "cohomology.coboundary.calls": calls.get("cohomology.coboundary", 0),
            "cohomology.coboundary.s": seconds("cohomology.coboundary"),
            "symgroup.s": seconds("symgroup"),
            "identities.apply_perm.calls": c("apply_perm.calls", 0),
            "finalg.evaluate.calls": calls.get("finalg.evaluate", 0),
            "finalg.evaluate.s": seconds("finalg.evaluate"),
            "finalg.predicate.calls": calls.get("finalg.predicate", 0),
            "finalg.predicate.s": seconds("finalg.predicate"),
            "finalg.multimap.allocs": c("multimap.allocs", 0),
            "finalg.multimap.cells": c("multimap.cells", 0),
            "finalg.from_json.s": seconds("finalg.from_json"),
            "deform.gauge.calls": calls.get("deform.gauge", 0),
            "deform.gauge.s": seconds("deform.gauge"),
            "deform.wa_check.calls": calls.get("deform.wa_check", 0),
            "deform.wa_check.s": seconds("deform.wa_check"),
            "deform.quantization.s": seconds("deform.quantization"),
            "cli.main.s": seconds("cli.main"),
        }
        out.update({f"report.{s}.s": seconds(f"report.{s}") for s in REPORT_SECTIONS})
        out["trace.spans"] = len(self.spans)
        out["trace.bookkeeping_s"] = total.get(BOOKKEEPING, 0.0)
        return out
