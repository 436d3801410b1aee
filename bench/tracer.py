"""Outside-in tracing of the ``incidences`` package for the benchmark.

The tracer replaces public functions of the package with timing wrappers at
every place a caller looks them up: ``pipeline`` and ``cli`` import names
directly, so ``incidences.pipeline.dualize`` and ``incidences.cli.count_triangles``
are patched next to ``incidences.arrangement.dualize`` and
``incidences.cliques.count_triangles``.  Wrappers never change an argument or
a return value and never skip a call, so every assert and certificate
revalidation inside the package still runs.  :meth:`Tracer.restore` puts every
original back.

Spans record name, start, end and parent.  They are kept in memory; the
caller writes them out once, at the end of the run.  Geometry predicates are
counted, not timed: they are called hundreds of thousands of times per pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

PACKAGE = "incidences"

# (module, function, counter).  The counter turns (args, result) into extra
# per-call counts named "<module>.<function>.<key>" or, for a key containing a
# dot, exactly "<key>".
TIMED = (
    ("cli", "cmd_generate", None),
    ("cli", "cmd_analyze", None),
    ("cli", "cmd_partition", None),
    ("cli", "cmd_theorem1", None),
    ("documents", "loads_document",
     lambda args, res: {"documents.bytes_read": len(args[0].encode("utf-8"))}),
    ("documents", "dumps_canonical",
     lambda args, res: {"documents.bytes_written": len(res.encode("utf-8"))}),
    ("documents", "arrangement_from_document", None),
    ("documents", "arrangement_to_document", None),
    ("arrangement", "spanned_lines", None),
    ("arrangement", "incidence_stats", None),
    ("arrangement", "measured_density", None),
    ("arrangement", "st_bound_report", None),
    ("arrangement", "dualize", None),
    ("arrangement", "generic_shear_value", None),
    ("partition", "partition", lambda args, res: {"cells": res.t}),
    ("partition", "crossing_profile", None),
    ("cliques", "multiplicity_filter",
     lambda args, res: {"points": args[0].n_points, "kept": len(res)}),
    ("cliques", "build_graph", lambda args, res: {"edges": len(res.edges)}),
    ("cliques", "enumerate_complete_tuples", lambda args, res: {"results": len(res)}),
    ("cliques", "count_triangles", None),
    ("cliques", "de_caen_szekely_monitor", None),
    ("pipeline", "find_complete_tuple", None),
    ("pipeline", "_attempt_cell",
     lambda args, res: {"pipeline.cells_attempted": 1,
                        "pipeline.cells_found": int(res[0] is not None)}),
    ("pipeline", "locality_counts", None),
    ("pipeline", "revalidate_certificate", None),
)

# collinear is left out: count_triangles calls it once per triangle, and even
# a counter would slow that loop by about a third.
COUNTED = ("incident", "concurrent", "strictly_between", "line_through")


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cells: list[tuple[str, list[int]]] = []

    # -- installing and removing ---------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module(PACKAGE + ".cli")
        for module, name, counter in TIMED:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
            self._replace_everywhere(original, self._timed(f"{module}.{name}", original, counter))
        geometry = sys.modules[PACKAGE + ".geometry"]
        for name in COUNTED:
            original = getattr(geometry, name)
            self._replace_everywhere(original, self._counted(f"geometry.{name}.calls", original))
        self._patch_arrangement_class()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every module global of the package that names ``original``."""
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_arrangement_class(self) -> None:
        cls = sys.modules[PACKAGE + ".arrangement"].Arrangement
        for attr in ("__init__", "_build_index"):
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._timed(f"arrangement.Arrangement.{attr}", original, None))

        prop = cls.__dict__["incidences"]
        timed_build = self._timed(
            "arrangement.incidences", prop.fget,
            lambda args, res: {"builds": 1, "pairs": len(res)})

        def incidences(arr):
            # Only the first, uncached build is work; later reads are a field load.
            if arr._incidences is not None:
                return prop.fget(arr)
            return timed_build(arr)

        self._patches.append((cls, "incidences", prop))
        cls.incidences = property(incidences, doc=prop.__doc__)

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = name + ".calls"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[calls_key] += 1
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key if "." in key else f"{name}.{key}"] += value
            return result

        return wrapper

    def _counted(self, key, fn):
        # Geometry predicates run up to millions of times a pass, so the
        # wrapper takes the arity of the predicate instead of *args and
        # counts into a list cell; take() folds the cells into the counts.
        cell = [0]
        self._cells.append((key, cell))
        arity = fn.__code__.co_argcount
        if arity == 2:
            def wrapper(a, b):
                cell[0] += 1
                return fn(a, b)
        elif arity == 3:
            def wrapper(a, b, c):
                cell[0] += 1
                return fn(a, b, c)
        else:
            raise TypeError(f"no counting wrapper for {key} with {arity} arguments")
        return functools.wraps(fn)(wrapper)

    def root(self, name, fn, *args):
        """Call ``fn(*args)`` as a root span, as the benchmark's own boundary."""
        return self._timed(name, fn, None)(*args)

    # -- reading ------------------------------------------------------------

    def take(self) -> tuple[list[list], Counter]:
        """Hand over and clear the spans and counts recorded so far."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        for key, cell in self._cells:
            if cell[0]:
                self.counts[key] += cell[0]
                cell[0] = 0
        spans, counts = self.spans[:], self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children.

    Spans of one thread nest strictly, so direct children never overlap and
    their summed durations are the part of the parent they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_table(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-function calls, total_s and self_s, per-module self_s, plus counts."""
    table: dict[str, float] = {}
    own = self_times(spans)
    for (name, start, end, _), self_s in zip(spans, own):
        module = name.split(".", 1)[0]
        table[f"{name}.total_s"] = table.get(f"{name}.total_s", 0.0) + (end - start)
        table[f"{name}.self_s"] = table.get(f"{name}.self_s", 0.0) + self_s
        table[f"{module}.self_s"] = table.get(f"{module}.self_s", 0.0) + self_s
    table.update((key, float(value)) for key, value in counts.items())
    return table
