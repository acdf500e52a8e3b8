"""In-process tracing of matscale's layers, from wrappers the benchmark installs.

``Tracer.install()`` replaces every module binding of the traced functions
(for example ``correlation_matrix`` in ``cli``, ``regression`` and
``lattice``) with a wrapper; ``Tracer.uninstall()`` puts the originals back.
Span wrappers record (name, start, end, parent) into an in-memory list.
Functions called tens of thousands of times per run get a counting wrapper
instead, so the tracer does not dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import generate

# (module, attribute) -> span name. Classes are traced through __init__.
SPANNED = {
    ("cli", "cmd_curate"): "cli",
    ("cli", "cmd_similarity"): "cli",
    ("cli", "cmd_ce_fit"): "cli",
    ("io", "read_structures"): "io.read_structures",
    ("io", "write_split_csv"): "io.write_split_csv",
    ("io", "write_histogram_csv"): "io.write_histogram_csv",
    ("io", "read_spectra_dir"): "io.read_spectra_dir",
    ("io", "write_matrix"): "io.write_matrix",
    ("io", "read_ce_configs"): "io.read_ce_configs",
    ("io", "read_index_lists"): "io.read_index_lists",
    ("io", "write_trace_csv"): "io.write_trace_csv",
    ("io", "write_predictions_csv"): "io.write_predictions_csv",
    ("curation", "dataset_overlap"): "curation.dataset_overlap",
    ("curation", "grouped_split"): "curation.grouped_split",
    ("curation", "property_histogram"): "curation.property_histogram",
    ("spectra", "fingerprint_set"): "spectra.fingerprint_set",
    ("spectra", "similarity_matrix"): "spectra.similarity_matrix",
    ("spectra", "sort_by_settings"): "spectra.sort_by_settings",
    ("lattice", "SymmetryGroup"): "lattice.SymmetryGroup",
    ("lattice", "correlation_matrix"): "lattice.correlation_matrix",
    ("polyfeatures", "enumerate_monomials"): "polyfeatures.enumerate_monomials",
    ("polyfeatures", "feature_matrix"): "polyfeatures.feature_matrix",
    ("regression", "compare_feature_spaces"): "regression.compare_feature_spaces",
    ("regression", "omp_fit"): "regression.omp_fit",
}

COUNTED = {
    ("curation", "structure_id"): "curation.structure_id",
    ("spectra", "bin_heights"): "spectra.bin_heights",
    ("spectra", "tanimoto"): "spectra.tanimoto",
}

# name -> (unit, better); the per-layer metrics of a traced run
PER_LAYER = {
    "io.read_structures.s": ("s", "lower"),
    "io.read_structures.rows_per_s": ("1/s", "higher"),
    "io.write_split_csv.s": ("s", "lower"),
    "io.read_spectra_dir.s": ("s", "lower"),
    "io.write_matrix.s": ("s", "lower"),
    "io.write_matrix.bytes": ("bytes", "lower"),
    "io.read_ce_configs.s": ("s", "lower"),
    "io.read_index_lists.s": ("s", "lower"),
    "curation.dataset_overlap.s": ("s", "lower"),
    "curation.grouped_split.s": ("s", "lower"),
    "curation.property_histogram.s": ("s", "lower"),
    "curation.structure_id.calls_per_entry": ("ratio", "lower"),
    "spectra.fingerprint_set.s": ("s", "lower"),
    "spectra.fingerprint_set.peak_mb": ("MiB", "lower"),
    "spectra.bin_heights.calls_per_spectrum": ("ratio", "lower"),
    "spectra.similarity_matrix.s": ("s", "lower"),
    "spectra.similarity_matrix.pairs_per_s": ("1/s", "higher"),
    "spectra.tanimoto.calls": ("count", "lower"),
    "spectra.sort_by_settings.s": ("s", "lower"),
    "lattice.SymmetryGroup.s": ("s", "lower"),
    "lattice.SymmetryGroup.order": ("count", "higher"),
    "lattice.SymmetryGroup.sites": ("count", "higher"),
    "lattice.correlation_matrix.s": ("s", "lower"),
    "lattice.correlation_matrix.calls": ("count", "lower"),
    "lattice.correlation_matrix.terms_per_s": ("1/s", "higher"),
    "polyfeatures.feature_matrix.s": ("s", "lower"),
    "polyfeatures.feature_matrix.calls": ("count", "lower"),
    "regression.omp_fit.s": ("s", "lower"),
    "regression.omp_fit.steps": ("count", "lower"),
    "regression.omp_fit.s_per_step": ("s", "lower"),
    "regression.compare_feature_spaces.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    # name -> summed work items recorded by span wrappers (rows, pairs, ...)
    items: dict[str, float] = field(default_factory=dict)
    facts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # ------------------------------------------------------------ wrappers

    def _span(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, parent=stack[-1] if stack else -1))
            stack.append(idx)
            spans[idx].start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx].end = time.perf_counter()
                stack.pop()
            self._record_items(name, args, result)
            return result

        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_items(self, name, args, result) -> None:
        """Work counts of a finished call, taken outside its span's interval."""
        if name == "io.read_structures":
            n = len(result)
        elif name == "io.write_matrix":
            n = os.path.getsize(args[0])
        elif name == "spectra.similarity_matrix":
            n = len(args[0]) * (len(args[0]) - 1) // 2
        elif name == "lattice.correlation_matrix":
            configs, clusters, group = args[:3]
            orbits = [generate.orbit_indices(c.sites, group.permutations) for c in clusters]
            n = len(configs) * sum(len(o) for o in orbits)
        elif name == "regression.omp_fit":
            n = len(result.points) - 1
        elif name == "lattice.SymmetryGroup":
            self.facts["order"] = len(args[0].permutations)
            self.facts["sites"] = args[0].n_sites
            return
        else:
            return
        self.items[name] = self.items.get(name, 0) + n

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every binding of each traced function in every matscale module."""
        for mod, _ in (*SPANNED, *COUNTED):
            importlib.import_module(f"matscale.{mod}")
        modules = [m for k, m in sys.modules.items() if k == "matscale" or k.startswith("matscale.")]
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for (mod, attr), name in table.items():
                original = getattr(sys.modules[f"matscale.{mod}"], attr)
                if isinstance(original, type):
                    self._patch(original, "__init__", make(original.__init__, name))
                    continue
                wrapper = make(original, name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def reset(self) -> None:
        self.spans.clear()
        self.items.clear()
        self.facts.clear()
        for name in self.counts:
            self.counts[name] = 0

    # ------------------------------------------------------------ results

    def layer_metrics(self, wall: float, n_entries: int, n_spectra: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took ``wall`` seconds."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: dict[int, float] = {}
        for span in self.spans:
            d = span.end - span.start
            total[span.name] = total.get(span.name, 0.0) + d
            calls[span.name] = calls.get(span.name, 0) + 1
            if span.parent >= 0:
                child[span.parent] = child.get(span.parent, 0.0) + d
        self_time: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            d = span.end - span.start - child.get(i, 0.0)
            self_time[span.name] = self_time.get(span.name, 0.0) + d
        top = sum(s.end - s.start for s in self.spans if s.parent >= 0 and self.spans[s.parent].name == "cli")

        def rate(key: str) -> float:
            return self.items.get(key, 0) / total[key] if total.get(key) else 0.0

        steps = self.items.get("regression.omp_fit", 0)
        m = {f"{name}.s": total.get(name, 0.0) for name in (
            "io.read_structures", "io.write_split_csv", "io.read_spectra_dir", "io.write_matrix",
            "io.read_ce_configs", "io.read_index_lists", "curation.dataset_overlap",
            "curation.grouped_split", "curation.property_histogram", "spectra.fingerprint_set",
            "spectra.similarity_matrix", "spectra.sort_by_settings", "lattice.SymmetryGroup",
            "lattice.correlation_matrix", "polyfeatures.feature_matrix", "regression.omp_fit",
        )}
        m.update({
            "io.read_structures.rows_per_s": rate("io.read_structures"),
            "io.write_matrix.bytes": self.items.get("io.write_matrix", 0),
            "curation.structure_id.calls_per_entry": (
                self.counts["curation.structure_id"] / n_entries if n_entries else 0.0),
            "spectra.bin_heights.calls_per_spectrum": (
                self.counts["spectra.bin_heights"] / n_spectra if n_spectra else 0.0),
            "spectra.similarity_matrix.pairs_per_s": rate("spectra.similarity_matrix"),
            "spectra.tanimoto.calls": self.counts["spectra.tanimoto"],
            "lattice.SymmetryGroup.order": self.facts.get("order", 0),
            "lattice.SymmetryGroup.sites": self.facts.get("sites", 0),
            "lattice.correlation_matrix.calls": calls.get("lattice.correlation_matrix", 0),
            "lattice.correlation_matrix.terms_per_s": rate("lattice.correlation_matrix"),
            "polyfeatures.feature_matrix.calls": calls.get("polyfeatures.feature_matrix", 0),
            "regression.omp_fit.steps": steps,
            "regression.omp_fit.s_per_step": total.get("regression.omp_fit", 0.0) / steps if steps else 0.0,
            "regression.compare_feature_spaces.self_s": self_time.get("regression.compare_feature_spaces", 0.0),
            "cli.self_s": self_time.get("cli", 0.0),
            "trace.coverage": top / wall,
        })
        return m


def peak_mb(fn, *args, **kwargs) -> float:
    """Call fn under tracemalloc and return the peak MiB it allocated."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20
