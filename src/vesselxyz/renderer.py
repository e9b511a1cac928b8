"""Software ray caster producing ground-truth depth/XYZ maps and masks.

Depth is geometric first-hit only (no refraction or transparency): each
pixel ray returns the optical-axis Z of the nearest surface.  Object masks
come from depth differencing: a pixel belongs to an object if removing that
object from the scene changes the first-hit depth by more than a small
epsilon or flips hit/miss.  Content maps are rendered with the vessel
removed, exposing the interior.

Each mesh is cast once into one row of a first-hit table: the ray parameter
``t`` of every pixel's nearest hit on that mesh, ``+inf`` on a miss and for
an empty mesh.  A view of several meshes is the ``np.minimum`` of their
rows, and a pixel is valid where that minimum is finite.  The cast is
``bvh.cast_camera_rays``: a triangle is tested, row by row, only against
the pixel centers within 1e-3 px of its part in that row's 2e-3 px slab;
one with a corner at camera-frame ``z <= 1e-9``, or whose plane passes
through the camera center, runs over every pixel in order.  The spans hold
every pixel the brute-force kernel would hit, with the same kernel inputs,
so the cast's ``t`` keeps its bits, and so do depths and masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bvh import cast_camera_rays
from .errors import EmptyScene
from .geometry import (
    DepthMap, PinholeCamera, SegMask, XyzMap, depth_to_xyz, masked_points, valid_region,
)
from .procgen import SceneRecord

# Placeholders: perfbench/spans.py wraps these names, and nothing calls them.
build_bvh = intersect_rays = None

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
    opening_mask: SegMask


def camera_rays(camera: PinholeCamera):
    """World-space rays through every pixel center.

    Returns (origins, dirs, axial), one row per pixel: ``origins`` is a
    read-only view of the camera center, ``dirs`` are unit world directions
    laid out per axis (``dirs.T`` is contiguous), and ``axial`` is the
    camera-frame Z of each, so a hit at ray parameter t has depth t * axial.
    """
    x = (np.arange(camera.width, dtype=np.float64) - camera.cx) / camera.fx
    y = ((np.arange(camera.height, dtype=np.float64) - camera.cy) / camera.fy)[:, None]
    norm = np.sqrt((x * x + y * y) + 1.0)  # summed as norm(axis=-1) sums (x, y, 1)
    unit = np.empty((3, norm.size))
    for row, axis in zip(unit, (x, y, 1.0)):
        np.divide(axis, norm, out=row.reshape(norm.shape))
    dirs = np.matmul(unit.T, camera.rotation, out=np.empty_like(unit).T)  # row-wise R^T @ d
    return np.broadcast_to(camera.center, dirs.shape), dirs, unit[2]


def _first_hit_table(meshes: list, camera: PinholeCamera):
    """``(t, axial)``: row m of ``t`` is mesh m's first-hit ray parameter per pixel.

    ``t`` has shape ``(len(meshes), H*W)`` and reads ``+inf`` where the ray
    misses the mesh and across the whole row of an empty mesh; ``axial`` is
    :func:`camera_rays`'s per-pixel depth factor.
    """
    _, dirs, axial = camera_rays(camera)
    t = np.full((len(meshes), len(axial)), np.inf)
    for row, mesh in zip(t, meshes):
        if not mesh.is_empty:
            row[:] = cast_camera_rays(mesh, camera, dirs)
    return t, axial


def _depth(t: np.ndarray, valid: np.ndarray, axial: np.ndarray, camera: PinholeCamera) -> DepthMap:
    shape = (camera.height, camera.width)
    return DepthMap((t * axial).reshape(shape), valid.reshape(shape))


def _difference_mask(t1: np.ndarray, t2: np.ndarray, axial: np.ndarray, shape) -> SegMask:
    """Pixels where two renders disagree: validity flips or depth moves.

    With ``axial > 0``, a hit/miss pair moves depth by inf; a double miss is NaN, so False.
    """
    with np.errstate(invalid="ignore"):
        return SegMask((np.abs((t1 - t2) * axial) > MASK_DEPTH_EPS).reshape(shape))


def render_scene(scene: SceneRecord) -> RenderOutput:
    """Render every ground-truth map of a scene from its camera.

    The full scene is vessel + content + ground; content maps come from the
    scene with the vessel removed; the opening disk is rendered alone (it is
    an annotation, not physical geometry, and must not occlude anything).
    The four meshes are cast once into one first-hit table, and each view is
    the ``np.minimum`` of its rows.  An object owns a pixel of its view's
    depth map where its own ``t`` is finite and no greater than the other
    rows' minimum, so at equal ``t`` the vessel wins over the content and
    the content over the ground.
    """
    if scene.opening.is_empty:
        raise EmptyScene("scene has no opening disk")
    camera = scene.camera
    meshes = [scene.vessel, scene.content, scene.ground_plane.to_mesh(), scene.opening]
    (vessel, content, ground, opening), axial = _first_hit_table(meshes, camera)
    shape = (camera.height, camera.width)

    no_vessel = np.minimum(content, ground)
    full = np.minimum(vessel, no_vessel)
    vessel_depth = _depth(full, np.isfinite(vessel) & (vessel <= no_vessel), axial, camera)
    content_depth = _depth(no_vessel, np.isfinite(content) & (content <= ground), axial, camera)
    opening_depth = _depth(opening, np.isfinite(opening), axial, camera)

    return RenderOutput(
        vessel_depth=vessel_depth,
        content_depth=content_depth,
        opening_depth=opening_depth,
        vessel_xyz=depth_to_xyz(vessel_depth, camera),
        content_xyz=depth_to_xyz(content_depth, camera),
        opening_xyz=depth_to_xyz(opening_depth, camera),
        vessel_mask=_difference_mask(full, no_vessel, axial, shape),
        content_mask=_difference_mask(no_vessel, ground, axial, shape),
        opening_mask=SegMask(opening_depth.valid),
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
    the scanned object is known to be small.  EmptyMask if no masked pixel
    is valid.
    """
    region = valid_region(mask, depth)
    pts = masked_points(depth_to_xyz(depth, camera), region)
    centroid = np.mean(pts, axis=0)
    dist = np.sqrt(np.sum((pts - centroid) ** 2, axis=1))
    drop = np.zeros_like(region.values)
    drop[region.values] = dist > max_offset
    return DepthMap(depth.values, depth.valid & ~drop)
