"""The benchmark tracer's hook surface: every function it wraps still exists where it looks.

``perfbench/spans.py`` replaces functions in the namespace their callers
look them up in.  A renamed or deleted hook target makes ``install_all``
raise, and a caller that captured a function object before the hook runs
silently escapes it; both fail here instead of in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from vesselxyz import evaluation, formats
from vesselxyz.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gt(tmp_path_factory):
    out = tmp_path_factory.mktemp("gt")
    assert main(["generate", "--seeds", "1", "--resolution", "32", "--no-meshes",
                 "--out", str(out)]) == 0
    return out


def test_install_all_finds_every_hook(spans):
    tracer = spans.Tracer()
    try:
        spans.install_all(tracer)
        assert evaluation.read_xyz_pfm.__wrapped__ is formats.read_xyz_pfm
    finally:
        tracer.uninstall()
    assert evaluation.read_xyz_pfm is formats.read_xyz_pfm


@pytest.mark.parametrize("mode, span", [
    ("vessel-scale", "metrics.similarity"),
    ("content-scale", "metrics.similarity"),
    ("segmentation", "metrics.seg_eval"),
])
def test_traced_eval_reaches_hooked_calls(spans, gt, mode, span):
    tracer = spans.Tracer()
    try:
        spans.install_all(tracer)
        tracer.enabled = True
        assert main(["eval", "--gt", str(gt), "--pred", str(gt), "--mode", mode]) == 0
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"evaluation", "manifest.load", "formats.read", span} <= names
    if mode != "segmentation":
        # the alignment and the diameter must run under their hooked names,
        # or their per-layer times read 0
        assert {"metrics.align", "metrics.max_dst"} <= names
    assert tracer.counters["formats.bytes_read"] > 0


def test_traced_generate_reaches_hooked_calls(spans, tmp_path):
    # emit_scene must look its writers up when it runs: a writer table built
    # at import time would hold the unwrapped functions and escape the hooks
    tracer = spans.Tracer()
    try:
        spans.install_all(tracer)
        tracer.enabled = True
        assert main(["generate", "--seeds", "1", "--resolution", "32",
                     "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"procgen.assemble", "renderer", "renderer.camera_rays", "geometry.depth_to_xyz",
            "formats.write", "manifest.write"} <= names
    written = sum(p.stat().st_size for p in tmp_path.iterdir() if p.suffix != ".json")
    assert tracer.counters["formats.bytes_written"] == written > 0
