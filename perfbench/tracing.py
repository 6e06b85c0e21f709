"""Spans around calls into roughgg, recorded from outside the package.

``Tracer.install`` rebinds public functions and methods of the package
modules to thin wrappers.  Every module of the package that holds the same
function object under the same name is rebound too, so calls made inside
the package (``trace_weak_convergence`` calling ``mollify_field``,
``verify_solution`` calling ``trace_measure``) are seen as nested spans.
Nothing under ``src/`` is edited.

A span is (name, start, end, parent span, job id, note); the note holds the
mollifier width in cells for ``mollify_field`` spans.  Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute or "Class.method", span name)
LAYER_FUNCTIONS = [
    ("roughgg.domain", "rasterize", "domain.rasterize"),
    ("roughgg.measure", "classify", "measure.classify"),
    ("roughgg.measure", "boundary_decomposition", "measure.boundary_decomposition"),
    ("roughgg.measure", "perimeter", "measure.perimeter"),
    ("roughgg.approx", "approximation_sweep", "approx.approximation_sweep"),
    ("roughgg.approx", "interior_approximation", "approx.interior_approximation"),
    ("roughgg.dmfield", "sample_field", "dmfield.sample_field"),
    ("roughgg.dmfield", "trace_measure", "dmfield.trace_measure"),
    ("roughgg.dmfield", "TraceMeasure.integrate", "dmfield.integrate"),
    ("roughgg.dmfield", "normal_trace_pairing", "dmfield.normal_trace_pairing"),
    ("roughgg.dmfield", "mollify_field", "dmfield.mollify_field"),
    ("roughgg.dmfield", "trace_weak_convergence", "dmfield.trace_weak_convergence"),
    ("roughgg.dmfield", "interior_normal_trace", "dmfield.interior_normal_trace"),
    ("roughgg.onesided", "smooth_facet_values", "onesided.smooth_facet_values"),
    ("roughgg.divsolve", "solve_direct", "divsolve.solve_direct"),
    ("roughgg.divsolve", "solve_decomposed", "divsolve.solve_decomposed"),
    ("roughgg.divsolve", "verify_solution", "divsolve.verify_solution"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, note]
        self.counts: dict[str, float] = {}
        self.job: str | None = None
        self.overhead = 0.0  # seconds spent in the wrappers themselves
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, note=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, note])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            note = None
            if name == "dmfield.mollify_field":
                note = round(args[1] / args[0].grid.spacing, 6)
            sid = self.begin(name, note)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            self._observe(name, args, result)
            _name, start, end, *_rest = self.spans[sid]
            self.overhead += time.perf_counter() - entered - (end - start)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        """Counts read off arguments and results at the layer boundary."""
        if name in ("divsolve.solve_direct", "divsolve.solve_decomposed"):
            self.count("divsolve.nodes", int(args[0].cells.sum()))
        elif name == "divsolve.verify_solution" and not result["pass"]:
            self.count("divsolve.verify_failed")
        elif (name == "dmfield.trace_weak_convergence"
              and result["verdict"] != "CONVERGENT"):
            self.count("dmfield.ladder_divergent")

    # -- rebinding -------------------------------------------------------

    def install(self) -> None:
        for module_name, _attr, _span in LAYER_FUNCTIONS:
            importlib.import_module(module_name)
        package = [m for k, m in sys.modules.items()
                   if k == "roughgg" or k.startswith("roughgg.")]
        for module_name, attr, span in LAYER_FUNCTIONS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(span, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(span, original)
            for module in package:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, traced)

    def wrap_attr(self, holder, attr: str, span: str) -> None:
        """Record calls to one attribute of a benchmark module as ``span``."""
        setattr(holder, attr, self.wrap(span, getattr(holder, attr)))

    # -- aggregation -----------------------------------------------------

    def busy(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _note in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, (name, start, end, _parent, _job, _note) in enumerate(self.spans):
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
            row["calls"] += 1
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [
                {"name": n, "start": s, "end": e, "parent": p, "job": j, "note": t}
                for n, s, e, p, j, t in self.spans
            ], "counts": self.counts}, handle)
