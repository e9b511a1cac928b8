"""Software ray caster producing ground-truth depth/XYZ maps and masks.

Depth is geometric first-hit only (no refraction or transparency): each
pixel ray returns the optical-axis Z of the nearest surface.  Object masks
come from depth differencing: a pixel belongs to an object if removing that
object from the scene changes the first-hit depth by more than a small
epsilon or flips hit/miss.  Content maps are rendered with the vessel
removed, exposing the interior.

Each mesh is cast once by ``bvh.cast_camera_rays``: a triangle is tested
only against pixel centers inside its projected-corner box widened by 1e-3
px, or against every pixel if a corner has camera-frame ``z <= 1e-9`` or its
plane passes through the camera center.  The boxes hold every pixel the
brute-force kernel would hit, so depths and masks keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# build_bvh and intersect_rays are unused here: perfbench/spans.py hooks them by these names.
from .bvh import build_bvh, cast_camera_rays, intersect_rays  # noqa: F401
from .errors import EmptyMask, EmptyScene
from .geometry import (
    DepthMap, PinholeCamera, SegMask, TriMesh, XyzMap, depth_to_xyz, valid_region,
)
from .procgen import SceneRecord

MASK_DEPTH_EPS = 1e-6  # meters of depth change that counts as "object present"
CLEAN_MAX_OFFSET = 0.10  # meters from the object centroid


@dataclass(frozen=True)
class RenderOutput:
    """All ground-truth maps for one scene under one camera."""

    vessel_depth: DepthMap
    content_depth: DepthMap
    opening_depth: DepthMap
    vessel_xyz: XyzMap
    content_xyz: XyzMap
    opening_xyz: XyzMap
    vessel_mask: SegMask
    content_mask: SegMask


def camera_rays(camera: PinholeCamera):
    """World-space rays through every pixel center.

    Returns (origins, dirs, axial) where dirs are unit world directions and
    ``axial`` is the camera-frame Z component of each unit direction, so a
    hit at ray parameter t has optical-axis depth t * axial.
    """
    us = np.arange(camera.width, dtype=np.float64)
    vs = np.arange(camera.height, dtype=np.float64)
    uu, vv = np.meshgrid(us, vs)
    d_cam = np.stack(
        [
            (uu - camera.cx) / camera.fx,
            (vv - camera.cy) / camera.fy,
            np.ones_like(uu),
        ],
        axis=-1,
    ).reshape(-1, 3)
    norms = np.linalg.norm(d_cam, axis=1, keepdims=True)
    unit_cam = d_cam / norms
    dirs = unit_cam @ camera.rotation  # row-wise R^T @ d
    origins = np.broadcast_to(camera.center, dirs.shape).copy()
    return origins, dirs, unit_cam[:, 2].copy()


class _SceneHits:
    """Per-mesh first-hit results, combinable over any mesh subset."""

    def __init__(self, meshes: list, camera: PinholeCamera):
        self.meshes = [m for m in meshes if not m.is_empty]
        if not self.meshes:
            raise EmptyScene("no triangles to render")
        _, dirs, axial = camera_rays(camera)
        self.axial = axial
        self.camera = camera
        self.hits = []
        for mesh in self.meshes:
            t, tri, _, _ = cast_camera_rays(mesh, camera, dirs)
            self.hits.append((mesh.label, t, tri))
        self.label_index = {label: mi for mi, (label, _, _) in enumerate(self.hits)}

    def combine(self, labels):
        """Nearest hit ``(t, mesh index)`` per ray over the meshes named in ``labels``.

        Ties in t resolve to the earlier mesh, so splitting a scene into more
        meshes never changes the result.
        """
        n = len(self.axial)
        best_t = np.full(n, np.inf)
        best_mesh = np.full(n, -1, dtype=np.int64)
        for mi, (label, t, tri) in enumerate(self.hits):
            if label not in labels:
                continue
            better = (tri >= 0) & (
                (t < best_t) | ((t == best_t) & (mi < best_mesh))
            )
            best_t[better] = t[better]
            best_mesh[better] = mi
        return best_t, best_mesh

    def depth_of(self, t: np.ndarray, valid: np.ndarray) -> DepthMap:
        cam = self.camera
        depth = np.where(valid, t * self.axial, np.nan)
        return DepthMap(depth.reshape(cam.height, cam.width),
                        valid.reshape(cam.height, cam.width))


def render_depth(geometry, camera: PinholeCamera) -> DepthMap:
    """Depth map of arbitrary geometry (a TriMesh or a list of TriMeshes)."""
    meshes = [geometry] if isinstance(geometry, TriMesh) else list(geometry)
    hits = _SceneHits(meshes, camera)
    t, mesh_idx = hits.combine({m.label for m in hits.meshes})
    return hits.depth_of(t, mesh_idx >= 0)


def _difference_mask(
    t1: np.ndarray, ok1: np.ndarray, t2: np.ndarray, ok2: np.ndarray,
    axial: np.ndarray, shape,
) -> SegMask:
    """Pixels where two renders disagree: validity flips or depth moves."""
    flip = ok1 != ok2
    both = ok1 & ok2
    moved = np.zeros_like(flip)
    moved[both] = np.abs((t1[both] - t2[both]) * axial[both]) > MASK_DEPTH_EPS
    return SegMask((flip | moved).reshape(shape))


def render_scene(scene: SceneRecord) -> RenderOutput:
    """Render every ground-truth map of a scene from its camera.

    The full scene is vessel + content + ground; content maps come from the
    scene with the vessel removed; the opening disk is rendered alone (it is
    an annotation, not physical geometry, and must not occlude anything).
    Each mesh is intersected exactly once and every view is combined from
    those per-mesh hits.
    """
    if scene.opening.is_empty:
        raise EmptyScene("scene has no opening disk")
    camera = scene.camera
    ground = scene.ground_plane.to_mesh()
    hits = _SceneHits([scene.vessel, scene.content, ground, scene.opening], camera)
    shape = (camera.height, camera.width)

    t_full, mesh_full = hits.combine({"vessel", "content", "ground"})
    t_nov, mesh_nov = hits.combine({"content", "ground"})
    t_gnd, mesh_gnd = hits.combine({"ground"})
    t_open, mesh_open = hits.combine({"opening"})

    def first_hit_is(mesh_idx: np.ndarray, label: str) -> np.ndarray:
        if label not in hits.label_index:
            return np.zeros_like(mesh_idx, dtype=bool)
        return mesh_idx == hits.label_index[label]

    vessel_depth = hits.depth_of(t_full, first_hit_is(mesh_full, "vessel"))
    content_depth = hits.depth_of(t_nov, first_hit_is(mesh_nov, "content"))
    opening_depth = hits.depth_of(t_open, mesh_open >= 0)

    vessel_mask = _difference_mask(
        t_full, mesh_full >= 0, t_nov, mesh_nov >= 0, hits.axial, shape
    )
    content_mask = _difference_mask(
        t_nov, mesh_nov >= 0, t_gnd, mesh_gnd >= 0, hits.axial, shape
    )

    return RenderOutput(
        vessel_depth=vessel_depth,
        content_depth=content_depth,
        opening_depth=opening_depth,
        vessel_xyz=depth_to_xyz(vessel_depth, camera),
        content_xyz=depth_to_xyz(content_depth, camera),
        opening_xyz=depth_to_xyz(opening_depth, camera),
        vessel_mask=vessel_mask,
        content_mask=content_mask,
    )


def clean_depth(
    depth: DepthMap,
    camera: PinholeCamera,
    mask: SegMask,
    max_offset: float = CLEAN_MAX_OFFSET,
) -> DepthMap:
    """Invalidate masked pixels whose 3D point is far from the object center.

    Back-projects the masked (and valid) pixels, computes their centroid in
    one pass, and drops every pixel farther than ``max_offset`` from it.
    Mirrors the cleanup used on noisy consumer depth-sensor captures where
    the scanned object is known to be small.
    """
    sel = valid_region(mask, depth).values
    if not np.any(sel):
        raise EmptyMask("no valid masked pixels to clean")
    xyz = depth_to_xyz(depth, camera)
    pts = xyz.coords[sel]
    centroid = np.mean(pts, axis=0)
    dist = np.sqrt(np.sum((pts - centroid) ** 2, axis=1))
    drop = np.zeros_like(sel)
    drop[sel] = dist > max_offset
    return DepthMap(depth.values.copy(), depth.valid & ~drop)
