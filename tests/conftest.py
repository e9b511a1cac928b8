"""Shared fixtures and oracle helpers for the test suite.

The oracles here deliberately recompute results by direct enumeration
(python loops over pixels/pairs/triangles) so they stay independent of the
vectorized paths they check.  Final reductions use np.mean/np.sum on arrays
collected in the library's documented element order, which is what makes
bit-identical comparisons meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from vesselxyz import DepthMap, PinholeCamera, SegMask, TriMesh, XyzMap
from vesselxyz.bvh import cast_camera_rays
from vesselxyz.procgen import SceneRecord
from vesselxyz.renderer import camera_rays


# ── random data builders ─────────────────────────────────────────────────

def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_camera(rng: np.random.Generator, width=32, height=24) -> PinholeCamera:
    return PinholeCamera(
        fx=float(rng.uniform(50, 500)),
        fy=float(rng.uniform(50, 500)),
        cx=float(rng.uniform(0, width - 1)),
        cy=float(rng.uniform(0, height - 1)),
        width=width,
        height=height,
        rotation=random_rotation(rng),
        translation=rng.uniform(-1, 1, 3),
    )


def random_depth(rng: np.random.Generator, height, width, holes=0.0) -> DepthMap:
    values = rng.uniform(0.2, 5.0, (height, width))
    valid = rng.uniform(size=(height, width)) >= holes
    if not valid.any():
        valid[0, 0] = True
    return DepthMap(values, valid)


def random_xyz(rng: np.random.Generator, height, width, scale=2.0, holes=0.0) -> XyzMap:
    coords = rng.uniform(-scale, scale, (height, width, 3))
    valid = rng.uniform(size=(height, width)) >= holes
    return XyzMap(coords, valid)


def random_mask(rng: np.random.Generator, height, width, density=0.5) -> SegMask:
    m = rng.uniform(size=(height, width)) < density
    if not m.any():
        m[rng.integers(height), rng.integers(width)] = True
    return SegMask(m)


def dyadic_xyz(rng: np.random.Generator, height, width) -> XyzMap:
    """Random map on a dyadic grid, so adding small dyadic offsets is exact.

    Values are k * 2**-18 with k < 2**20; sums with offsets of the form
    m * 2**-10 (|m| < 2**12) stay exactly representable in float64, which
    makes translation invariance testable as bit equality.
    """
    k = rng.integers(0, 2**20, (height, width, 3))
    return XyzMap(k.astype(np.float64) * 2.0**-18, np.ones((height, width), bool))


def dyadic_offset(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(-(2**12), 2**12, 3).astype(np.float64) * 2.0**-10


# ── naive oracles: geometry ──────────────────────────────────────────────

def oracle_map_accepts(values, valid, positive: bool) -> bool:
    """The map constructors' former check: a boolean gather of the valid pixels' values.

    They must be finite, and for depth (``positive``) also above zero.
    """
    sel = np.asarray(values, dtype=np.float64)[np.asarray(valid, dtype=bool)]
    return bool(np.all(np.isfinite(sel)) and (not positive or np.all(sel > 0.0)))


def oracle_triangle_areas(vertices, triangles) -> np.ndarray:
    """The mesh's former area formula: corner rows, ``np.cross`` and ``norm(axis=1)``."""
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def oracle_pair_list(mask: SegMask, dilations) -> list:
    """Direct scan of the mask for (p, p+d) pairs, in the documented order."""
    h, w = mask.height, mask.width
    m = mask.values
    out = []
    for d in dilations:
        for r in range(h):
            for c in range(w - d):
                if m[r, c] and m[r, c + d]:
                    out.append((r * w + c, r * w + c + d))
        for r in range(h - d):
            for c in range(w):
                if m[r, c] and m[r + d, c]:
                    out.append((r * w + c, (r + d) * w + c))
    return out


# ── naive oracles: losses ────────────────────────────────────────────────
# Enumeration runs over plain python floats (identical IEEE semantics to
# numpy float64 element ops) so a thousand-case sweep stays fast; only the
# final reduction reuses np.mean, applied to terms collected in the same
# (pair-major, axis-minor) order the library documents.

def _pair_terms(pred: XyzMap, gt: XyzMap, pairs):
    fp = pred.coords.reshape(-1, 3).tolist()
    fg = gt.coords.reshape(-1, 3).tolist()
    out = []
    for a, b in zip(pairs.first.tolist(), pairs.second.tolist()):
        pa, pb, ga, gb = fp[a], fp[b], fg[a], fg[b]
        for ax in range(3):
            out.append((ga[ax] - gb[ax], pa[ax] - pb[ax]))
    return out


def oracle_translation_invariant(pred, gt, pairs) -> float:
    terms = [abs(dg - dp) for dg, dp in _pair_terms(pred, gt, pairs)]
    return float(np.mean(np.array(terms)))


def oracle_scale_factor(pred, gt, pairs) -> float:
    nums, dens = [], []
    for dg, dp in _pair_terms(pred, gt, pairs):
        if dg * dp > 0.0:
            nums.append(abs(dg))
            dens.append(abs(dp))
    return float(np.mean(np.array(nums))) / float(np.mean(np.array(dens)))


def oracle_scale_invariant(pred, gt, pairs) -> float:
    k = oracle_scale_factor(pred, gt, pairs)
    terms = [abs(dg - k * dp) for dg, dp in _pair_terms(pred, gt, pairs)]
    value = float(np.mean(np.array(terms)))
    if k > 10.0:
        return value + k
    if k < 0.1:
        return value - k
    return value


# ── oracles: pair gathers and the gradient scatter ────────────────────────
# Reference formulations: a fancy-index gather and np.add.at scatter.  The
# library's np.take gathers and bincount scatter must match them bit for bit,
# -0.0 signs included.

def oracle_pair_differences(xyz: XyzMap, pairs) -> np.ndarray:
    """Fancy-index gather: coords[first] - coords[second], (N, 3)."""
    flat = xyz.coords.reshape(-1, 3)
    return flat[pairs.first] - flat[pairs.second]


def oracle_scatter_pair_grad(pairs, per_pair: np.ndarray) -> np.ndarray:
    """Two np.add.at passes onto +0.0: +row i at first_i, then -row i at second_i."""
    h, w = pairs.shape
    grad = np.zeros((h * w, 3), dtype=np.float64)
    np.add.at(grad, pairs.first, per_pair)
    np.add.at(grad, pairs.second, -per_pair)
    return grad.reshape(h, w, 3)


def oracle_loss_gradient(kind, pred, gt, pairs, k=None) -> np.ndarray:
    """The gradient's plain formulas on fresh arrays, through both oracles above.

    Translation-invariant: sign(D_pred - D_gt) / n.  Scale-invariant:
    K * sign(K * D_pred - D_gt) / n, plus, when K is computed here and out of
    [0.1, 10], the control term's dK (+K above, -K below) on the sign-consistent
    entries: -(num / den^2) * sign(D_pred) / M.
    """
    d_gt, d_pred = oracle_pair_differences(gt, pairs), oracle_pair_differences(pred, pairs)
    n = d_gt.size
    if kind == "translation_invariant":
        return oracle_scatter_pair_grad(pairs, np.sign(d_pred - d_gt) / n)
    keep = (d_gt * d_pred) > 0.0
    num = float(np.mean(np.abs(d_gt[keep])))
    den = float(np.mean(np.abs(d_pred[keep])))
    kk = num / den if k is None else k
    per_pair = kk * np.sign(kk * d_pred - d_gt) / n
    if k is None and not 0.1 <= kk <= 10.0:
        dk = np.zeros_like(d_pred)
        dk[keep] = -(num / den**2) * np.sign(d_pred[keep]) / np.count_nonzero(keep)
        per_pair = per_pair + (dk if kk > 10.0 else -dk)
    return oracle_scatter_pair_grad(pairs, per_pair)


# ── oracles: formats ───────────────────────────────────────────────────────

def oracle_obj_text(mesh: TriMesh) -> str:
    """OBJ text built one f-string per vertex and per face."""
    lines = [f"# {mesh.label}: {len(mesh.vertices)} vertices, {mesh.num_triangles} triangles"]
    for x, y, z in mesh.vertices:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for a, b, c in mesh.triangles:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return "\n".join(lines) + "\n"


# ── oracles: procgen meshes ────────────────────────────────────────────────
# One vertex, quad and fan triangle at a time, in the documented order: ring
# vertices (ring-major, angle-minor), then cap centers; quads ring-major,
# each split (j,k),(j+1,k),(j+1,k+1) then (j,k),(j+1,k+1),(j,k+1); then cap
# fans.  OBJ bytes and the renderer's lowest-triangle tie-break both depend
# on this order.  The cosines come from np.cos on the same angle grid, so
# the check is about order and arithmetic, not libm rounding.

def _oracle_revolved(radii, heights, angular_segments, caps):
    a = angular_segments
    theta = np.linspace(0.0, 2.0 * math.pi, a, endpoint=False)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    verts = []
    for r, h in zip(radii, heights):
        for k in range(a):
            verts.append((r * cos_t[k], h, r * sin_t[k]))
    for ring, _ in caps:
        verts.append((0.0, heights[ring], 0.0))
    tris = []
    for j in range(len(heights) - 1):
        for k in range(a):
            k1 = (k + 1) % a
            tris.append((j * a + k, (j + 1) * a + k, (j + 1) * a + k1))
            tris.append((j * a + k, (j + 1) * a + k1, j * a + k1))
    for i, (ring, upward) in enumerate(caps):
        center = len(heights) * a + i
        for k in range(a):
            k1 = (k + 1) % a
            if upward:
                tris.append((center, ring * a + k1, ring * a + k))
            else:
                tris.append((center, ring * a + k, ring * a + k1))
    return np.array(verts, dtype=np.float64).reshape(-1, 3), np.array(tris, dtype=np.int64)


def oracle_vessel_mesh(profile, angular_segments, vertical_segments):
    """Rings from the base to the rim, closed by a downward disk at the base."""
    heights = np.linspace(0.0, profile.height, vertical_segments + 1)
    return _oracle_revolved(profile.radius(heights), heights, angular_segments, [(0, False)])


def oracle_content_mesh(profile, fill_fraction, angular_segments, vertical_segments, clearance):
    """Rings shrunk by ``clearance``, a downward bottom disk and an upward top disk."""
    top = fill_fraction * profile.height - clearance
    if top - clearance <= clearance:
        return np.empty((0, 3)), np.empty((0, 3), dtype=np.int64)
    heights = np.linspace(clearance, top, vertical_segments + 1)
    caps = [(0, False), (vertical_segments, True)]
    return _oracle_revolved(profile.radius(heights) - clearance, heights, angular_segments, caps)


def oracle_opening_mesh(profile, angular_segments):
    """One ring at the rim and an upward disk."""
    return _oracle_revolved([profile.rim_radius], [profile.height], angular_segments, [(0, True)])


# ── oracles: procgen surface measures and scene checks ────────────────────
# Scenes must satisfy these; the package itself never calls them.

_CONTAINMENT_SALT = 14


def surface_area(mesh: TriMesh) -> float:
    return float(np.sum(mesh.triangle_areas()))


def enclosed_volume(mesh: TriMesh) -> float:
    """Signed volume via the divergence theorem; positive for outward winding."""
    if mesh.is_empty:
        return 0.0
    v, t = mesh.vertices, mesh.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    return float(np.sum(np.einsum("ij,ij->i", a, np.cross(b, c))) / 6.0)


def sample_surface_points(mesh: TriMesh, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform area-weighted random points on a mesh surface."""
    if mesh.is_empty:
        return np.empty((0, 3))
    areas = mesh.triangle_areas()
    t = mesh.triangles[rng.choice(len(areas), size=n, p=areas / areas.sum())]
    a, b, c = (mesh.vertices[t[:, i]] for i in range(3))
    r1 = np.sqrt(rng.uniform(0.0, 1.0, n))
    r2 = rng.uniform(0.0, 1.0, n)
    w0 = 1.0 - r1
    w1 = r1 * (1.0 - r2)
    w2 = r1 * r2
    return w0[:, None] * a + w1[:, None] * b + w2[:, None] * c


def scene_violations(scene: SceneRecord, samples: int = 1000, tol: float = 1e-6) -> list:
    """Check a scene's structural guarantees; returns human-readable violations.

    Content containment is verified on ``samples`` random content-surface
    points (seeded from the scene seed, so the check is reproducible); each
    must sit inside the vessel interior within ``tol``.  The opening disk
    must sit exactly at the rim height with the rim radius.
    """
    problems = []
    profile = scene.profile
    if not scene.content.is_empty:
        rng = np.random.default_rng([scene.seed, _CONTAINMENT_SALT])
        pts = sample_surface_points(scene.content, samples, rng)
        ys = pts[:, 1]
        radial = np.sqrt(pts[:, 0] ** 2 + pts[:, 2] ** 2)
        if np.any(ys < -tol) or np.any(ys > profile.height + tol):
            problems.append("content extends beyond the vessel height range")
        limit = profile.radius(np.clip(ys, 0.0, profile.height)) + tol
        if np.any(radial > limit):
            problems.append("content reaches outside the vessel wall")
    ys = scene.opening.vertices[:, 1]
    if np.max(np.abs(ys - profile.height)) > 1e-12:
        problems.append("opening disk is not at the rim height")
    radial = np.sqrt(scene.opening.vertices[:, 0] ** 2 + scene.opening.vertices[:, 2] ** 2)
    if abs(float(np.max(radial)) - profile.rim_radius) > 1e-12:
        problems.append("opening disk radius differs from the rim radius")
    return problems


# ── naive oracles: metrics ───────────────────────────────────────────────

def masked_point_list(m: XyzMap, mask: SegMask) -> list:
    """Row-major scan of masked pixels, as plain [x, y, z] float lists."""
    coords = m.coords.tolist()
    mv = mask.values.tolist()
    return [
        coords[r][c]
        for r in range(mask.height)
        for c in range(mask.width)
        if mv[r][c]
    ]


def oracle_mae(pred, gt, mask) -> float:
    dists = []
    for p, g in zip(masked_point_list(pred, mask), masked_point_list(gt, mask)):
        dx, dy, dz = g[0] - p[0], g[1] - p[1], g[2] - p[2]
        dists.append(math.sqrt((dx * dx + dy * dy) + dz * dz))
    return float(np.mean(np.array(dists)))


def oracle_mad(gt, mask) -> float:
    pts = masked_point_list(gt, mask)
    cx, cy, cz = (float(v) for v in np.mean(np.array(pts), axis=0))
    dists = []
    for p in pts:
        dx, dy, dz = p[0] - cx, p[1] - cy, p[2] - cz
        dists.append(math.sqrt((dx * dx + dy * dy) + dz * dz))
    return float(np.mean(np.array(dists)))


def oracle_max_dst(gt, mask) -> float:
    """Largest distance over every pair: each point against all later points."""
    pts = np.array(masked_point_list(gt, mask)).reshape(-1, 3)
    best = 0.0
    for i in range(len(pts) - 1):
        (ax, ay, az), b = pts[i], pts[i + 1 :]
        d = ((ax - b[:, 0]) ** 2 + (ay - b[:, 1]) ** 2) + (az - b[:, 2]) ** 2
        best = max(best, float(d.max()))
    return math.sqrt(best)


def oracle_r_squared(pred, gt, mask) -> float:
    g = np.array(masked_point_list(gt, mask))
    p = np.array(masked_point_list(pred, mask))
    centroid = np.mean(g, axis=0)
    rss = float(np.sum(np.sum((g - p) ** 2, axis=-1)))
    tss = float(np.sum(np.sum((g - centroid) ** 2, axis=-1)))
    return 1.0 - rss / tss


def oracle_chamfer(a_pts, b_pts) -> float:
    """Mean nearest distance both ways, over every point pair: no tree."""
    a = np.asarray(a_pts, dtype=np.float64)
    b = np.asarray(b_pts, dtype=np.float64)

    def nearest(queries, points):  # 256 queries a chunk bound the pair array
        return np.concatenate([
            np.sqrt(np.min(np.sum((chunk[:, None] - points) ** 2, axis=-1), axis=1))
            for chunk in np.split(queries, range(256, len(queries), 256))
        ])

    return float(np.mean(nearest(b, a)) + np.mean(nearest(a, b)))


# ── naive oracles: bvh ───────────────────────────────────────────────────

def oracle_moller_trumbore(o, d, v0, e1, e2, t_min=1e-9):
    """Ray/triangle test on (n, 3) arrays with np.cross and einsum; (t, u, v, hit).

    This is the formulation the per-component kernel in ``vesselxyz.bvh``
    must match bit for bit.
    """
    p = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = 1.0 / det
        tvec = o - v0
        u = np.einsum("ij,ij->i", tvec, p) * inv_det
        q = np.cross(tvec, e1)
        v = np.einsum("ij,ij->i", d, q) * inv_det
        t = np.einsum("ij,ij->i", e2, q) * inv_det
        hit = (det != 0.0) & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > t_min)
    return t, u, v, hit


def oracle_first_hit(mesh: TriMesh, origins, dirs):
    """Per ray, the oracle's smallest hit ``t``, ties to the lowest triangle id: (t, tri, u, v)."""
    v0, b, c = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
    n = len(origins)
    best_t, best_tri, best_u, best_v = np.full(n, np.inf), np.full(n, -1), np.zeros(n), np.zeros(n)
    for r in range(n):
        o, d = (np.broadcast_to(x[r], v0.shape) for x in (origins, dirs))
        t, u, v, hit = oracle_moller_trumbore(o, d, v0, b - v0, c - v0)
        ids = np.flatnonzero(hit)
        if ids.size:
            i = ids[np.argmin(t[ids])]  # first occurrence of the minimum: the lowest id
            best_t[r], best_tri[r], best_u[r], best_v[r] = t[i], i, u[i], v[i]
    return best_t, best_tri, best_u, best_v


# ── naive oracles: renderer ──────────────────────────────────────────────

def oracle_camera_rays(camera: PinholeCamera):
    """``(origins, dirs, axial)`` from a meshgrid of pixel centers and np.linalg.norm."""
    uu, vv = np.meshgrid(np.arange(camera.width, dtype=np.float64),
                         np.arange(camera.height, dtype=np.float64))
    d_cam = np.stack([(uu - camera.cx) / camera.fx, (vv - camera.cy) / camera.fy,
                      np.ones_like(uu)], axis=-1).reshape(-1, 3)
    unit = d_cam / np.linalg.norm(d_cam, axis=1, keepdims=True)
    dirs = unit @ camera.rotation
    return np.broadcast_to(camera.center, dirs.shape).copy(), dirs, unit[:, 2].copy()


def oracle_difference_mask(t1, t2, axial, eps) -> np.ndarray:
    """Validity flips, or a depth move above ``eps`` on the pixels both rows hit."""
    ok1, ok2 = np.isfinite(t1), np.isfinite(t2)
    both = ok1 & ok2
    moved = np.zeros_like(both)
    moved[both] = np.abs((t1[both] - t2[both]) * axial[both]) > eps
    return (ok1 != ok2) | moved


# ── single-mesh depth and icosphere for renderer tests ───────────────────

def cast_depth(mesh: TriMesh, camera: PinholeCamera) -> DepthMap:
    """Depth map of one mesh: ``t * axial`` per pixel, ``t`` from the camera cast."""
    _, dirs, axial = camera_rays(camera)
    t = cast_camera_rays(mesh, camera, dirs)
    shape = (camera.height, camera.width)
    return DepthMap((t * axial).reshape(shape), np.isfinite(t).reshape(shape))


def icosphere(subdivisions: int = 4, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> TriMesh:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [np.array(v, dtype=np.float64) / np.linalg.norm(v) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    vertices = np.array(verts) * radius + np.asarray(center, dtype=np.float64)
    return TriMesh(vertices, np.array(faces, dtype=np.int64), "content")
