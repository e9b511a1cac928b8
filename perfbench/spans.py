"""Outside-in tracing: spans and counters recorded around vesselxyz calls.

The program itself is not instrumented.  ``Tracer.install`` replaces a
function in the module (or class) namespace its caller looks it up in, so
``vesselxyz.renderer.build_bvh`` is wrapped for the renderer without
touching ``vesselxyz.bvh``.  Each wrapper records a span (name, start, end,
parent) in memory and may add counters derived from the call's arguments
and result.  A layer's self time is its span time minus its child spans.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter recorder; off until ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []
        self._undo = []

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.counters[name] += amount

    def install(self, owner, attr: str, name: str, on_call=None) -> None:
        """Wrap ``owner.attr`` in a span; ``on_call(tracer, args, kwargs, result)`` adds counters."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> dict:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        tr = self.tracer
        if tr.enabled:
            parent = tr._stack[-1] if tr._stack else -1
            self.index = len(tr.spans)
            tr.spans.append([self.name, time.perf_counter(), 0.0, parent])
            tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        if self.index >= 0:
            self.tracer.spans[self.index][2] = time.perf_counter()
            self.tracer._stack.pop()
        return False


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def install_all(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross, where its caller looks it up."""
    from vesselxyz import (
        cli, evaluation, formats, geometry, losses, manifest, metrics, renderer, report,
    )

    def scene_triangles(tr, args, kwargs, scene):
        tris = sum(m.num_triangles for m in (scene.vessel, scene.content, scene.opening))
        tr.count("procgen.triangles", tris + scene.ground_plane.to_mesh().num_triangles)

    def traversal(tr, args, kwargs, result):
        tri = result[1]
        tr.count("bvh.rays", len(tri))
        tr.count("bvh.hits", int((tri >= 0).sum()))

    def size_of(counter, validity_sibling=False):
        def on_call(tr, args, kwargs, result):
            size = _file_bytes(args[0])
            if validity_sibling:
                size += _file_bytes(formats.validity_path(args[0]))
            tr.count(counter, size)
        return on_call

    def diameter_points(tr, args, kwargs, result):
        tr.count("metrics.points", args[1].count)

    def loss_result(tr, args, kwargs, result):
        tr.count("losses.loss_calls")
        tr.count("losses.control_active", int(result.control_term_active))

    def pair_count(tr, args, kwargs, pairs):
        tr.count("geometry.pairs", len(pairs))

    def calls(counter):
        return lambda tr, args, kwargs, result: tr.count(counter)

    wraps = [
        # generate: procgen -> renderer -> bvh, then formats/manifest writes
        (manifest, "assemble_scene", "procgen.assemble", scene_triangles),
        (manifest, "render_scene", "renderer", None),
        (renderer, "build_bvh", "bvh.build",
         lambda tr, a, k, bvh: tr.count("bvh.nodes", len(bvh.left))),
        (renderer, "intersect_rays", "bvh.traverse", traversal),
        (renderer, "camera_rays", "renderer.camera_rays", calls("renderer.camera_rays_calls")),
        (renderer, "depth_to_xyz", "geometry.depth_to_xyz", None),
        (manifest, "write_pfm", "formats.write", size_of("formats.bytes_written", True)),
        (manifest, "write_pgm", "formats.write", size_of("formats.bytes_written")),
        (manifest, "write_obj", "formats.write", size_of("formats.bytes_written")),
        (manifest, "write_manifest", "manifest.write", None),
        # eval: evaluation -> formats reads, manifest load, metrics, report
        (cli, "run_eval", "evaluation", None),
        (evaluation, "load_manifest", "manifest.load", None),
        (evaluation, "read_xyz_pfm", "formats.read", size_of("formats.bytes_read", True)),
        (evaluation, "read_pgm", "formats.read", size_of("formats.bytes_read")),
        (evaluation, "similarity_from_region", "metrics.similarity", None),
        (metrics.SimilarityTransform, "apply", "metrics.align", None),
        (metrics, "build_pair_set", "geometry.pairs", pair_count),
        (metrics, "scale_factor", "losses.scale_factor", None),
        (metrics, "max_dst", "metrics.max_dst", diameter_points),
        (metrics, "chamfer", "metrics.chamfer", None),
        (metrics, "mae_points", "metrics.pointwise", None),
        (metrics, "mad", "metrics.pointwise", None),
        (metrics, "r_squared", "metrics.pointwise", None),
        (evaluation, "seg_eval", "metrics.seg_eval", None),
        (report.ReportDocument, "build", "report.build", None),
        (report.ReportDocument, "to_csv", "report.build", None),
        (report.ReportDocument, "to_text", "report.build", None),
        # train-loss: the step's calls, then the scale factor and pair
        # gathers inside loss and gradient
        (geometry, "build_pair_set", "geometry.pairs", pair_count),
        (losses, "scale_invariant_loss", "losses.loss", loss_result),
        (losses, "translation_invariant_loss", "losses.loss", loss_result),
        (losses, "loss_gradient", "losses.grad", None),
        (losses, "scale_factor", "losses.scale_factor", None),
        (losses, "pair_differences", "geometry.pair_differences",
         calls("geometry.pair_differences_calls")),
    ]
    for owner, attr, name, on_call in wraps:
        tracer.install(owner, attr, name, on_call)


# Per-layer metrics as (name, unit, better), each per op of the traced run.
# Times are self times: a span's duration minus its child spans.
PER_LAYER = (
    ("procgen.assemble_ms", "ms", "lower"),
    ("procgen.triangles", "count", "lower"),
    ("bvh.build_ms", "ms", "lower"),
    ("bvh.nodes", "count", "lower"),
    ("bvh.traverse_ms", "ms", "lower"),
    ("bvh.rays", "count", "lower"),
    ("bvh.hit_frac", "frac", "higher"),
    ("renderer.self_ms", "ms", "lower"),
    ("renderer.camera_rays_ms", "ms", "lower"),
    ("renderer.camera_rays_calls", "count", "lower"),
    ("geometry.depth_to_xyz_ms", "ms", "lower"),
    ("geometry.pairs_ms", "ms", "lower"),
    ("geometry.pairs", "count", "lower"),
    ("geometry.pair_differences_ms", "ms", "lower"),
    ("geometry.pair_differences_calls", "count", "lower"),
    ("losses.scale_factor_ms", "ms", "lower"),
    ("losses.loss_ms", "ms", "lower"),
    ("losses.grad_ms", "ms", "lower"),
    ("losses.control_active_frac", "frac", "lower"),
    ("metrics.max_dst_ms", "ms", "lower"),
    ("metrics.chamfer_ms", "ms", "lower"),
    ("metrics.similarity_ms", "ms", "lower"),
    ("metrics.align_ms", "ms", "lower"),
    ("metrics.pointwise_ms", "ms", "lower"),
    ("metrics.seg_eval_ms", "ms", "lower"),
    ("metrics.points", "count", "lower"),
    ("formats.write_ms", "ms", "lower"),
    ("formats.bytes_written", "B", "lower"),
    ("formats.read_ms", "ms", "lower"),
    ("formats.bytes_read", "B", "lower"),
    ("manifest.write_ms", "ms", "lower"),
    ("manifest.load_ms", "ms", "lower"),
    ("evaluation.self_ms", "ms", "lower"),
    ("report.build_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Every PER_LAYER metric, per op; a layer the workload does not run reads 0."""
    values = {}
    for span, seconds in tracer.self_times().items():
        values[f"{span}_ms" if "." in span else f"{span}.self_ms"] = 1e3 * seconds / ops
    c = tracer.counters
    for name, unit, _ in PER_LAYER:
        if unit in ("count", "B"):
            values[name] = c[name] / ops
    values["bvh.hit_frac"] = _ratio(c["bvh.hits"], c["bvh.rays"])
    values["losses.control_active_frac"] = _ratio(c["losses.control_active"], c["losses.loss_calls"])
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in PER_LAYER}
