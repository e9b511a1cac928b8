"""The benchmark's view of the package: everything it calls or wraps still exists.

``perfbench/spans.py`` replaces functions in the namespace their callers
look them up in.  A renamed or deleted hook target makes ``install_all``
raise, and a caller that captured a function object before the hook runs
silently escapes it; both fail here instead of in a traced benchmark run.
``perfbench/workloads.py`` calls the package directly, by ``from`` imports
and by attributes of the modules it imports; a deleted or renamed name
fails here instead of in a benchmark run.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from vesselxyz import evaluation, formats
from vesselxyz.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def spans():
    return _load("spans")


def test_workloads_reach_only_names_the_package_has():
    workloads = _load("workloads")  # its from-imports fail here if a name is gone
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "vesselxyz"
        for alias in node.names
    }
    assert {"cli", "geometry", "losses"} <= modules
    read = {
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {module for module, _ in read} == modules
    missing = sorted(f"{m}.{a}" for m, a in read if not hasattr(getattr(workloads, m), a))
    assert not missing, missing


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
