"""Spans around raagscan's module-level functions, kept in memory.

``Tracer.install`` rebinds each traced name in its defining module and in
every raagscan module that imported it, so calls made through any of those
names open a span.  Spans nest through a stack, which gives each layer its
self time: its duration minus the part its child spans cover.  Nothing in
the program is edited; ``uninstall`` restores the original functions.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, function) pairs wrapped in a traced run.
TRACED = (
    ("graphs", "canonical_form"),
    ("graphs", "enumerate_codes"),
    ("graphs", "erdos_renyi"),
    ("graphs", "graph6_decode"),
    ("raag_props", "is_transvection_free"),
    ("pso", "all_supports_forests"),
    ("pso", "theta_graph"),
    ("pso", "commute_in_out_oracle"),
    ("complexes", "flag_complex"),
    ("complexes", "link_of_simplex"),
    ("homology", "smith_normal_form"),
    ("homology", "reduced_homology"),
    ("cm", "is_cohen_macaulay"),
    ("words", "is_inner"),
    ("words", "commutator"),
    ("words", "partial_conjugation_automorphism"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "write_jsonl"),
)

# Per-layer metrics, by name: (unit, better).  Every traced run reports all
# of them; a layer the workload never enters reads 0.
PER_LAYER = {
    "graphs.canonical_form.calls": ("count", "lower"),
    "graphs.canonical_form.s": ("s", "lower"),
    "graphs.enumerate_codes.calls": ("count", "lower"),
    "graphs.enumerate_codes.self_s": ("s", "lower"),
    "graphs.enumerate.children_per_class": ("children/class", "lower"),
    "graphs.erdos_renyi.s": ("s", "lower"),
    "graphs.graph6_decode.s": ("s", "lower"),
    "raag_props.is_transvection_free.calls": ("count", "lower"),
    "raag_props.is_transvection_free.s": ("s", "lower"),
    "pso.all_supports_forests.calls": ("count", "lower"),
    "pso.all_supports_forests.s": ("s", "lower"),
    "pso.theta_graph.s": ("s", "lower"),
    "complexes.flag_complex.s": ("s", "lower"),
    "complexes.link_of_simplex.calls": ("count", "lower"),
    "complexes.link_of_simplex.s": ("s", "lower"),
    "homology.smith_normal_form.calls": ("count", "lower"),
    "homology.smith_normal_form.s": ("s", "lower"),
    "homology.smith_cells": ("cells", "lower"),
    "homology.reduced_homology.self_s": ("s", "lower"),
    "cm.is_cohen_macaulay.self_s": ("s", "lower"),
    "words.is_inner.calls": ("count", "lower"),
    "words.is_inner.s": ("s", "lower"),
    "words.commutator.s": ("s", "lower"),
    "words.partial_conjugation_automorphism.s": ("s", "lower"),
    "pso.commute_in_out_oracle.calls": ("count", "lower"),
    "pso.commute_in_out_oracle.self_s": ("s", "lower"),
    "pipeline.run_pipeline.calls": ("count", "lower"),
    "pipeline.run_pipeline.self_s": ("s", "lower"),
    "pipeline.write_jsonl.s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.names = [f"{module}.{name}" for module, name in TRACED]
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.smith_cells = 0
        self.classes_enumerated = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def _wrap_smith(self, traced):
        def counted(matrix, *args, **kwargs):
            self.smith_cells += len(matrix) * (len(matrix[0]) if matrix else 0)
            return traced(matrix, *args, **kwargs)

        return counted

    def _wrap_enumerate(self, traced):
        def counted(*args, **kwargs):
            codes = traced(*args, **kwargs)
            self.classes_enumerated += len(codes)
            return codes

        return counted

    def install(self) -> None:
        modules = [
            module for key, module in sys.modules.items()
            if key == "raagscan" or key.startswith("raagscan.")
        ]
        for name_id, (module_name, name) in enumerate(TRACED):
            original = getattr(sys.modules[f"raagscan.{module_name}"], name)
            wrapper = self._wrap(name_id, original)
            if name == "smith_normal_form":
                wrapper = self._wrap_smith(wrapper)
            elif name == "enumerate_codes":
                wrapper = self._wrap_enumerate(wrapper)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0.0] * count
        top_level = 0.0
        for i in range(count):
            p = self.parent[i]
            if p < 0:
                top_level += duration[i]
            else:
                covered[p] += duration[i]
        calls = {name: 0 for name in self.names}
        total = {name: 0.0 for name in self.names}
        own = {name: 0.0 for name in self.names}
        enumerate_id = self.names.index("graphs.enumerate_codes")
        canonical_id = self.names.index("graphs.canonical_form")
        children = 0
        for i in range(count):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            total[name] += duration[i]
            own[name] += duration[i] - covered[i]
            if self.name_of[i] == canonical_id:
                p = self.parent[i]
                while p >= 0 and self.name_of[p] != enumerate_id:
                    p = self.parent[p]
                children += p >= 0
        out = {}
        for metric in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[layer]
            elif kind == "s":
                out[metric] = total[layer]
            elif kind == "self_s":
                out[metric] = own[layer]
        out["graphs.enumerate.children_per_class"] = (
            children / self.classes_enumerated if self.classes_enumerated else 0.0
        )
        out["homology.smith_cells"] = self.smith_cells
        out["trace.unattributed_s"] = traced_wall - top_level
        out["trace.overhead_s"] = traced_wall - untraced_wall
        return {metric: out[metric] for metric in PER_LAYER}

    def write(self, path) -> None:
        """All spans as tab-separated rows: index, parent, name, start, end."""
        with open(path, "w") as handle:
            handle.write("index\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
