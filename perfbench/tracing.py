"""Span tracing from outside the program: wrap the public functions of each layer.

``Tracer.installed()`` swaps every public function of the layer modules for
a timing wrapper, in the defining module and in every module that imported
it by name (``from .hull import convex_hull_volume`` binds a second name
that must be swapped too).  Each call records a span (name, start, end,
parent span).  On exit every original function is put back.

A span's self time is its duration minus the union of its children's
intervals.  A root span on a worker thread gets the main thread's innermost
open span as its parent, so that time the main thread spent waiting on a
pool is not counted as its own work.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
import types
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("nifti", "regions", "morphology", "surface", "hull", "shape", "qagen",
          "templates", "metrics", "moe", "training", "cli")

# Called in inner loops (per marching-cubes cell, per expert) of another layer
# function; a span each would cost more than the work it measures.
SKIP = {"surface.cell_triangles", "surface.triangle_areas", "moe.softmax", "moe.sigmoid"}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_conform(counts, fn, args, kwargs, result):
    counts["nifti.voxels_out"] += result.data.size


def _count_components(counts, fn, args, kwargs, result):
    counts["morphology.components"] += result.n_components
    counts["morphology.fg_voxels"] += result.total_voxels


def _count_triangles(counts, fn, args, kwargs, result):
    counts["surface.triangles"] += len(result.triangles)


def _count_hull_points(counts, fn, args, kwargs, result):
    counts["hull.points"] += len(_bound(fn, args, kwargs)["points"])


def _count_one(key):
    def count(counts, fn, args, kwargs, result):
        counts[key] += 1
    return count


def _count_records(counts, fn, args, kwargs, result):
    counts["qagen.records"] += len(result)


def _count_resamples(counts, fn, args, kwargs, result):
    counts["metrics.resamples"] += _bound(fn, args, kwargs)["resamples"]


def _count_write(counts, fn, args, kwargs, result):
    counts["cli.write_bytes"] += len(_bound(fn, args, kwargs)["text"].encode("utf-8"))


COUNTERS = {
    "nifti.conform_to_ras": _count_conform,
    "morphology.connected_components": _count_components,
    "surface.marching_cubes": _count_triangles,
    "surface.single_voxel_mesh": _count_triangles,
    "hull.quickhull": _count_hull_points,
    "shape.shape_metrics": _count_one("shape.components"),
    "qagen.generate_dataset": _count_records,
    "templates.render": _count_one("templates.renders"),
    "metrics.bootstrap_std": _count_resamples,
    "cli.atomic_write": _count_write,
}

# Peak traced allocation per call, kept as the maximum over calls.
PEAK_MB = {"nifti.conform_to_ras": "nifti.conform_peak_mb"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._tracemalloc_users = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span named ``name`` around the block."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent))

    def _peak_start(self) -> None:
        with self._lock:
            self._tracemalloc_users += 1
            if self._tracemalloc_users == 1:
                tracemalloc.start()
            else:
                tracemalloc.reset_peak()

    def _peak_stop(self, key: str) -> None:
        with self._lock:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            self.peaks[key] = max(self.peaks[key], peak)
            self._tracemalloc_users -= 1
            if self._tracemalloc_users == 0:
                tracemalloc.stop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        peak_key = PEAK_MB.get(name)

        def traced(*args, **kwargs):
            if peak_key:
                self._peak_start()
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                if peak_key:
                    self._peak_stop(peak_key)
            if counter is not None:
                with self._lock:
                    counter(self.counts, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every public layer function for its traced wrapper, then restore."""
        layers = [importlib.import_module(f"brainvqa.{layer}") for layer in LAYERS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "brainvqa" or n.startswith("brainvqa.")]
        patches = []
        for layer, mod in zip(LAYERS, layers):
            for attr, fn in sorted(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(name, fn)
                for target in modules:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            patches.append((target, key, fn))
                            setattr(target, key, wrapper)
        try:
            yield self
        finally:
            for target, key, fn in reversed(patches):
                setattr(target, key, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def has_ancestor(span: Span, names: set, by_id: dict) -> bool:
    parent = span.parent
    while parent is not None:
        p = by_id[parent]
        if p.name in names:
            return True
        parent = p.parent
    return False


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass

ROUTE = {"moe.moe_forward", "moe.high_route", "moe.low_route", "moe.embed_text"}

# metric -> the spans whose self time it sums
SELF_METRICS = {
    "nifti.parse_s": {"nifti.read_nifti_file", "nifti.parse_nifti"},
    "nifti.conform_s": {"nifti.conform_to_ras"},
    "regions.overlap_s": {"regions.region_overlap"},
    "regions.relative_volume_s": {"regions.relative_volume", "regions.volume_bin"},
    "morphology.components_s": {"morphology.connected_components",
                                "morphology.spread_classify"},
    "surface.marching_cubes_s": {"surface.marching_cubes", "surface.single_voxel_mesh"},
    "surface.mesh_area_s": {"surface.mesh_area"},
    "hull.corner_points_s": {"hull.voxel_corner_points"},
    "hull.quickhull_s": {"hull.quickhull", "hull.convex_hull_volume"},
    "shape.pca_s": {"shape.pca_axes"},
    "shape.self_s": {"shape.shape_metrics", "shape.component_shape_metrics",
                     "shape.aggregate_metrics", "shape.shape_classify",
                     "shape.describe_shape"},
    "qagen.descriptors_self_s": {"qagen.compute_descriptors"},
    "qagen.generate_s": {"qagen.generate_dataset", "qagen.sample_questions",
                         "qagen.split_dataset"},
    "qagen.json_s": {"qagen.record_to_json", "qagen.record_from_json",
                     "qagen.descriptor_to_json", "qagen.descriptor_from_json"},
    "qagen.stats_s": {"qagen.dataset_stats", "qagen.stats_to_csv"},
    "templates.render_s": {"templates.render", "templates.descriptor_values",
                           "regions.region_list_text"},
    "templates.bank_s": {"templates.default_bank", "templates.load_bank",
                         "templates.parse_bank", "templates.validate_bank",
                         "templates.validate_template"},
    "metrics.evaluate_s": {"metrics.evaluate_predictions"},
    "metrics.bootstrap_s": {"metrics.bootstrap_std"},
    "metrics.scoring_s": {"metrics.task_accuracy", "metrics.region_accuracy"},
    "metrics.kappa_s": {"metrics.cohen_kappa"},
    "metrics.heatmap_s": {"metrics.routing_heatmap", "metrics.heatmap_to_csv"},
    "moe.backward_s": {"moe.moe_backward_batch"},
    "moe.checkpoint_s": {"moe.save_checkpoint", "moe.load_checkpoint"},
    "training.loss_heads_s": {"training.model_loss_and_grads", "training.model_forward",
                              "training.heads_forward", "training.multitask_loss"},
    "training.update_s": {"training.train_toy"},
    "cli.write_s": {"cli.atomic_write"},
}
COUNT_METRICS = ("nifti.voxels_out", "morphology.components", "morphology.fg_voxels",
                 "surface.triangles", "hull.points", "shape.components", "qagen.records",
                 "templates.renders", "metrics.resamples", "cli.write_bytes")


def inclusive(tracer: Tracer, names: set) -> float:
    """Summed duration of the outermost spans named in ``names``."""
    by_id = {s.id: s for s in tracer.spans}
    return sum(s.end - s.start for s in tracer.spans
               if s.name in names and not has_ancestor(s, names, by_id))


def by_function(tracer: Tracer) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name."""
    selfs = self_times(tracer.spans)
    out: dict[str, tuple[int, float]] = {}
    for s in tracer.spans:
        calls, total = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, total + selfs[s.id])
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Self seconds, counts and peaks per layer for one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def self_sum(names, not_under=frozenset()):
        return sum(selfs[s.id] for s in spans if s.name in names
                   and not (not_under and has_ancestor(s, not_under, by_id)))

    out = {metric: (self_sum(names), "s") for metric, names in SELF_METRICS.items()}
    out["moe.forward_s"] = (self_sum({"moe.moe_forward_batch"}, not_under=ROUTE), "s")
    out["moe.route_s"] = (inclusive(tracer, ROUTE), "s")
    cli_self = {s.name for s in spans if s.name.startswith("cli.")} - {"cli.atomic_write"}
    out["cli.self_s"] = (self_sum(cli_self), "s")
    out["nifti.conform_peak_mb"] = (tracer.peaks.get("nifti.conform_peak_mb", 0.0), "MB")
    for name in COUNT_METRICS:
        out[name] = (tracer.counts.get(name, 0), "count")
    out["trace.spans"] = (len(spans), "count")
    return out
