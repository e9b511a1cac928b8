"""Ray/triangle intersection: a binned camera-ray cast, and a BVH.

``cast_camera_rays`` is the renderer's cast.  Every camera ray runs from
the camera center through a pixel center, so a triangle with every corner
at camera-frame ``z > CAST_Z_EPS`` can be hit only through pixel centers in
the box of its projected corners, widened by ``CAST_MARGIN_PX`` (1e-3 px)
against rounding.  The kernel's own error is ~``eps * f`` px unless its
determinant is pure rounding, which happens only for rays in the triangle's
plane; so a triangle whose plane passes within a relative ``CAST_PLANE_TOL``
of the camera center gets every pixel, as does one reaching ``z <=
CAST_Z_EPS``, whose image is unbounded.  The candidates hold every pair the
kernel reports as a hit, and run ``CAST_BLOCK`` at a time through the same
kernel on the same inputs as a brute-force scan, resolved by the same
smallest (t, triangle index): (t, tri, u, v) keep their bits.

``intersect_rays`` over a ``build_bvh`` tree is now only the API for
arbitrary rays; rendering does not use it.  The build is a
level-synchronous median split.  Per depth, node boxes and centroid extents
come from ``np.minimum/maximum.reduceat``, each node takes its widest
centroid axis by ``argmax``, and one stable ``np.lexsort((key, node))``
sorts every node's triangles along its axis: the stable per-node
sort of a recursive build, so triangle order, leaves and node count are a
recursive build's.  Nodes are numbered breadth first; the children of the
internal nodes are nodes 1, 2, ... in pairs.

Traversal moves breadth-first wavefronts of (ray, node) pairs through the
tree as numpy array operations, ``RAY_BLOCK`` rays at a time so a wavefront
stays in cache.  Bounds, origins and directions are split into per-axis 1-D
arrays, and the slab test chains ``fmin/fmax/maximum/minimum`` over them.
Hits resolve to the smallest (t, triangle index) pair, so results equal a
brute-force scan of every triangle whatever the traversal order.

The Moller-Trumbore test writes its cross products out per component and
sums each 3-term dot product as ``((x0*y0 + x2*y2) + x1*y1) + 0.0``, as
``einsum("ij,ij->i")`` does (it adds into a zeroed output, so a zero sum is
+0.0), so ``t``, ``u`` and ``v`` are bit-identical to the ``np.cross`` /
``einsum`` form; the naive order differs on a fifth of random rows.  Only
pairs with ``det != 0`` and ``0 <= u <= 1`` go on to ``v`` and ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import norm

from .errors import EmptyScene, InvalidValue
from .geometry import PinholeCamera, TriMesh, _frozen

LEAF_SIZE = 8
T_MIN = 1e-9  # hits closer than this are treated as the ray origin itself
RAY_BLOCK = 8192  # rays per traversal wavefront
CAST_Z_EPS = 1e-9  # camera-frame z a triangle's corners must exceed to be boxed
CAST_MARGIN_PX = 1e-3  # widens each projected box against rounding
CAST_PLANE_TOL = 1e-10  # relative plane distance below which rays in the plane hit anywhere
CAST_BLOCK = 65536  # (pixel, triangle) pairs per kernel call of the camera cast


@dataclass(frozen=True)
class Bvh:
    """Flattened BVH nodes plus precomputed triangle data (v0, edges)."""

    bounds_min: np.ndarray  # (M, 3)
    bounds_max: np.ndarray  # (M, 3)
    left: np.ndarray  # (M,) child index or -1
    right: np.ndarray  # (M,)
    start: np.ndarray  # (M,) offset into tri_order for leaves
    count: np.ndarray  # (M,) leaf triangle count, 0 for internal nodes
    tri_order: np.ndarray  # (N,) triangle permutation
    v0: np.ndarray  # (N, 3) per original triangle index
    e1: np.ndarray
    e2: np.ndarray

    @property
    def num_triangles(self) -> int:
        return int(self.v0.shape[0])


def build_bvh(mesh: TriMesh) -> Bvh:
    """Top-down median split over triangle centroids, one depth at a time."""
    if mesh.is_empty:
        raise EmptyScene("cannot build a BVH over an empty mesh")
    verts, tris = mesh.vertices, mesh.triangles
    a, b, c = (verts[tris[:, i]] for i in range(3))
    tri_min = np.minimum(np.minimum(a, b), c)
    tri_max = np.maximum(np.maximum(a, b), c)
    centroids = (tri_min + tri_max) * 0.5
    n = len(tris)

    order = np.arange(n, dtype=np.int64)
    lo, hi = np.zeros(1, dtype=np.int64), np.full(1, n, dtype=np.int64)
    levels = []  # per depth: (bmin, bmax, lo, hi, split) of its nodes
    while lo.size:
        # Cut at every node boundary of this depth; the gaps between nodes
        # are leaves of shallower depths, whose reductions are dropped.
        cuts = np.unique(np.concatenate([lo, hi[hi < n]]))
        seg = np.searchsorted(cuts, lo)
        bmin = np.minimum.reduceat(tri_min[order], cuts)[seg]
        bmax = np.maximum.reduceat(tri_max[order], cuts)[seg]
        split = hi - lo > LEAF_SIZE
        levels.append((bmin, bmax, lo, hi, split))
        lo, hi, seg = lo[split], hi[split], seg[split]
        cent = centroids[order]
        extent = np.maximum.reduceat(cent, cuts)[seg] - np.minimum.reduceat(cent, cuts)[seg]
        sizes = hi - lo
        pos = _concat_ranges(lo, sizes)
        key = cent[pos, np.repeat(np.argmax(extent, axis=1), sizes)]
        order[pos] = order[pos[np.lexsort((key, np.repeat(np.arange(len(lo)), sizes)))]]
        mid = (lo + hi) // 2
        lo, hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()

    bmin, bmax, lo, hi, split = (np.concatenate(x) for x in zip(*levels))
    left = np.full(len(lo), -1, dtype=np.int64)
    left[split] = 1 + 2 * np.arange(int(split.sum()))
    return Bvh(
        bounds_min=_frozen(bmin),
        bounds_max=_frozen(bmax),
        left=_frozen(left),
        right=_frozen(np.where(split, left + 1, -1)),
        start=_frozen(np.where(split, 0, lo)),
        count=_frozen(np.where(split, 0, hi - lo)),
        tri_order=_frozen(order),
        v0=_frozen(a),
        e1=_frozen(b - a),
        e2=_frozen(c - a),
    )


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    """3-term dot product summed as einsum("ij,ij->i") sums it; a -0.0 sum reads +0.0."""
    return ((a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]) + 0.0


def _moller_trumbore(o, d, v0, e1, e2):
    """Ray/triangle test over pairs; returns (hit indices, t, u, v of those hits).

    Every argument is an (x, y, z) triple of 1-D arrays, one entry per pair.
    Barycentric bounds are inclusive so rays through shared edges register
    on both incident triangles (the caller's (t, id) tie-break then picks
    one deterministically) instead of slipping through a crack.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = _cross(d, e2)
        det = _dot(e1, p)
        inv_det = 1.0 / det
        s = (o[0] - v0[0], o[1] - v0[1], o[2] - v0[2])
        u = _dot(s, p) * inv_det
        # u > 1 fails u + v <= 1 for every v >= 0, so such pairs stop here.
        cand = np.flatnonzero((det != 0.0) & (u >= 0.0) & (u <= 1.0))
        s, d, e1, e2 = ([x[cand] for x in vec] for vec in (s, d, e1, e2))
        u, inv_det = u[cand], inv_det[cand]
        q = _cross(s, e1)
        v = _dot(d, q) * inv_det
        t = _dot(e2, q) * inv_det
        ok = (v >= 0.0) & (u + v <= 1.0) & (t > T_MIN)
    return cand[ok], t[ok], u[ok], v[ok]


def _keep_nearest(best, r, tri, t, u, v) -> None:
    """Fold hits into ``best`` in place, keeping the smallest (t, triangle id) per ray.

    Scatter-min t, then the id over the hits at that t (a nearer t drops the
    old id), then u and v of the one hit that won; hit order does not matter.
    """
    best_t, best_tri, best_u, best_v = best
    prev = best_t[r]
    np.minimum.at(best_t, r, t)
    now = best_t[r]
    best_tri[r[now < prev]] = np.iinfo(np.int64).max
    at_best = t == now
    np.minimum.at(best_tri, r[at_best], tri[at_best])
    won = at_best & (tri == best_tri[r])
    best_u[r[won]], best_v[r[won]] = u[won], v[won]


def cast_camera_rays(mesh: TriMesh, camera: PinholeCamera, dirs: np.ndarray):
    """Nearest hit of every pixel-center ray of ``camera`` on ``mesh``.

    ``dirs`` are the rays' unit world directions, row-major, as
    ``renderer.camera_rays`` makes them.  Returns (t, tri, u, v) with the
    bits :func:`intersect_rays` gives for those rays.
    """
    if mesh.is_empty:
        raise EmptyScene("cannot intersect an empty mesh")
    w, h = camera.width, camera.height
    verts, tris = mesh.vertices, mesh.triangles
    p = camera.world_to_camera(verts)[tris]  # (triangle, corner, axis)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        uv = p[..., :2] / p[..., 2:] * (camera.fx, camera.fy) + (camera.cx, camera.cy)
    # Boxed: every corner in front, and the plane clear of the camera center.
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    plane = np.abs(np.einsum("ij,ij->i", np.cross(e1, e2), p[:, 0]))
    scale = norm(e1, axis=1) * norm(e2, axis=1) * norm(p, axis=2).max(axis=1)
    boxed = ((p[:, :, 2].min(axis=1) > CAST_Z_EPS) & (plane > CAST_PLANE_TOL * scale))[:, None]
    # Inclusive candidate pixel box (u, v) per triangle; every pixel if not boxed.
    size = np.array([w, h])
    lo = np.where(boxed, np.ceil(uv.min(axis=1) - CAST_MARGIN_PX), 0).clip(0, size)
    hi = np.where(boxed, np.floor(uv.max(axis=1) + CAST_MARGIN_PX), size - 1).clip(-1, size - 1)
    extent = np.maximum(hi - lo + 1, 0).astype(np.int64)
    count = extent.prod(axis=1)
    ids = np.flatnonzero(count)
    (col0, row0), ncols, count = lo[ids].astype(np.int64).T, extent[ids, 0], count[ids]
    end = np.cumsum(count)
    start = end - count

    a, b, c = (verts[tris[ids, i]].T.copy() for i in range(3))
    tri_data = (a, b - a, c - a)
    d = np.asarray(dirs, dtype=np.float64).T.copy()
    o = tuple(camera.center)  # the one origin, as scalars
    n = w * h
    best = (np.full(n, np.inf), np.full(n, -1, dtype=np.int64), np.zeros(n), np.zeros(n))
    total = int(count.sum())
    # Fixed blocks of (pixel, triangle) pairs bound the transient memory.
    for first in range(0, total, CAST_BLOCK):
        k = np.arange(first, min(first + CAST_BLOCK, total), dtype=np.int64)
        j = np.searchsorted(end, k, side="right")
        row, col = np.divmod(k - start[j], ncols[j])
        pix = (row0[j] + row) * w + col0[j] + col
        hit, t, u, v = _moller_trumbore(
            o, [x[pix] for x in d], *([x[j] for x in vec] for vec in tri_data)
        )
        _keep_nearest(best, pix[hit], ids[j[hit]], t, u, v)
    return best


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """[s0, s0+1, ..., s0+c0-1, s1, ...] without a Python loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offs = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + offs


def _validate_dirs(dirs: np.ndarray):
    norms = np.linalg.norm(dirs, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise InvalidValue("ray directions must be normalized and nonzero")


def intersect_rays(bvh: Bvh, origins: np.ndarray, dirs: np.ndarray):
    """Nearest hit for a batch of rays.

    Returns (t, tri, u, v) float/int arrays; misses carry t = +inf and
    tri = -1.  Ties in t resolve to the lowest triangle index, exactly as
    :func:`intersect_rays_brute` does.
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    _validate_dirs(dirs)
    n = len(origins)
    best = (np.full(n, np.inf), np.full(n, -1, dtype=np.int64), np.zeros(n), np.zeros(n))
    o, d = origins.T.copy(), dirs.T.copy()
    with np.errstate(divide="ignore"):
        inv_d = 1.0 / d
    par = [p if p.any() else None for p in np.isinf(inv_d)]  # per axis: d == 0
    boxes = (bvh.bounds_min.T.copy(), bvh.bounds_max.T.copy())
    # Triangle data in leaf order, so a leaf's triangles are contiguous.
    tris = [x[bvh.tri_order].T.copy() for x in (bvh.v0, bvh.e1, bvh.e2)]
    for lo in range(0, n, RAY_BLOCK):
        rays = np.arange(lo, min(lo + RAY_BLOCK, n), dtype=np.int64)
        _traverse(bvh, boxes, tris, (o, d, inv_d, par), rays, best)
    return best


def _traverse(bvh: Bvh, boxes, tris, ray_data, rays: np.ndarray, best) -> None:
    """Breadth-first wavefront of ``rays`` from the root; updates ``best`` in place."""
    o, d, inv_d, par = ray_data
    nodes = np.zeros(len(rays), dtype=np.int64)
    while rays.size:
        for k in range(3):
            ox, ivk = o[k][rays], inv_d[k][rays]
            lo, hi = boxes[0][k][nodes], boxes[1][k][nodes]
            with np.errstate(invalid="ignore"):
                t1, t2 = (lo - ox) * ivk, (hi - ox) * ivk
            near, far = np.fmin(t1, t2), np.fmax(t1, t2)
            # Axis-parallel rays: 0 * inf above is NaN when the origin sits on
            # a slab plane.  Such an axis constrains nothing if the origin is
            # inside the slab (inclusive) and everything if it is outside.
            if par[k] is not None:
                pk, inside = par[k][rays], (ox >= lo) & (ox <= hi)
                near = np.where(pk, np.where(inside, -np.inf, np.inf), near)
                far = np.where(pk, np.where(inside, np.inf, -np.inf), far)
            tnear = near if k == 0 else np.maximum(tnear, near)
            tfar = far if k == 0 else np.minimum(tfar, far)
        tnear = np.maximum(tnear, 0.0)
        keep = (tfar >= tnear) & (tnear <= best[0][rays])
        rays, nodes = rays[keep], nodes[keep]
        counts = bvh.count[nodes]
        is_leaf = counts > 0
        if is_leaf.any():
            pair_rays = np.repeat(rays[is_leaf], counts[is_leaf])
            pos = _concat_ranges(bvh.start[nodes[is_leaf]], counts[is_leaf])
            hit, t, u, v = _moller_trumbore(
                [x[pair_rays] for x in o], [x[pair_rays] for x in d],
                *([x[pos] for x in vec] for vec in tris),
            )
            _keep_nearest(best, pair_rays[hit], bvh.tri_order[pos[hit]], t, u, v)
        inner = nodes[~is_leaf]
        rays = np.concatenate([rays[~is_leaf]] * 2)
        nodes = np.concatenate([bvh.left[inner], bvh.right[inner]])


def intersect_rays_brute(mesh: TriMesh, origins: np.ndarray, dirs: np.ndarray, chunk: int = 128):
    """Nearest hit by testing every triangle; the BVH's ground truth.

    Works straight off the mesh so it shares nothing with the tree build.
    """
    if mesh.is_empty:
        raise EmptyScene("cannot intersect an empty mesh")
    verts, tris = mesh.vertices, mesh.triangles
    tv0 = verts[tris[:, 0]]
    te1, te2 = verts[tris[:, 1]] - tv0, verts[tris[:, 2]] - tv0
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    _validate_dirs(dirs)
    n_rays, n_tris = len(origins), len(tris)
    best_t, best_u, best_v = np.full(n_rays, np.inf), np.zeros(n_rays), np.zeros(n_rays)
    best_tri = np.full(n_rays, -1, dtype=np.int64)
    for lo in range(0, n_rays, chunk):
        hi = min(lo + chunk, n_rays)
        m = hi - lo
        hit, ht, hu, hv = _moller_trumbore(
            np.repeat(origins[lo:hi], n_tris, axis=0).T,
            np.repeat(dirs[lo:hi], n_tris, axis=0).T,
            np.tile(tv0, (m, 1)).T, np.tile(te1, (m, 1)).T, np.tile(te2, (m, 1)).T,
        )
        t, u, v = np.full(m * n_tris, np.inf), np.zeros(m * n_tris), np.zeros(m * n_tris)
        t[hit], u[hit], v[hit] = ht, hu, hv
        ti = np.argmin(t.reshape(m, n_tris), axis=1)  # first occurrence = lowest triangle id
        flat = np.arange(m) * n_tris + ti
        best_t[lo:hi] = t[flat]
        best_tri[lo:hi] = np.where(np.isfinite(t[flat]), ti, -1)
        best_u[lo:hi], best_v[lo:hi] = u[flat], v[flat]
    return best_t, best_tri, best_u, best_v
