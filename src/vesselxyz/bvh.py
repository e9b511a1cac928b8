"""Ray/triangle intersection: a binned camera-ray cast, and a BVH.

``cast_camera_rays`` is the renderer's cast.  Every camera ray runs from
the camera center through a pixel center.  A triangle with every corner at
camera-frame ``z > CAST_Z_EPS`` is cast over per-row spans: for pixel row
``v``, the projected triangle is clipped to the slab ``[v - m, v + m]``,
``m = CAST_MARGIN_PX``, and the span is the slab's x-extent widened by
``m``.  A hit at pixel P puts P within the kernel's error δ ≪ m of a point
Q of the triangle, so Q lies in P's row slab and P within δ of its x-extent.
δ is ~``eps * f`` px (the extent itself rounds by ulps of the corners' u)
unless the determinant is pure rounding, as for rays in the triangle's
plane; so a triangle whose plane passes within a relative ``CAST_PLANE_TOL``
of the camera center gets every pixel, as does one reaching ``z <=
CAST_Z_EPS``.  These whole-image triangles run over the pixels in
``CAST_BLOCK`` slices, with scalar triangle terms and no gathers; the
spans' (pixel, triangle) pairs run ``CAST_BLOCK`` at a time.  Either way
the kernel sees the values a brute-force scan gives it, and each pixel keeps
the smallest ``t`` of its hits, so ``t`` keeps its bits.

``intersect_rays`` over a ``build_bvh`` tree serves arbitrary rays;
rendering does not use it.  The build is a level-synchronous median split:
per depth, one stable ``np.lexsort((key, node))`` sorts every node's
triangles along its widest centroid axis, so triangle order and leaves are
a recursive build's; nodes are numbered breadth first, children in pairs.
Traversal moves breadth-first wavefronts of (ray, node) pairs through
per-axis slab tests, ``RAY_BLOCK`` rays at a time, and resolves hits as
the brute force does, whatever the traversal order.

The one Moller-Trumbore kernel writes cross products per component and
sums each dot product as ``((x0*y0 + x2*y2) + x1*y1) + 0.0``, as
``einsum("ij,ij->i")`` does, so its bits are the ``np.cross``/``einsum``
form's.  ``s = o - v0``, ``q = s x e1`` and ``e2 . q`` hold no ray
direction: the cast computes them once per triangle for its one origin,
the brute force and the BVH per pair.  ``e2 . q = (e1 x e2) . s`` also
serves as the cast's plane test.  Only pairs with ``det != 0`` and
``0 <= u <= 1`` go on to ``v`` and ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyScene, InvalidValue
from .geometry import PinholeCamera, TriMesh, _frozen

LEAF_SIZE = 8
T_MIN = 1e-9  # hits closer than this are treated as the ray origin itself
RAY_BLOCK = 8192  # rays per traversal wavefront
CAST_Z_EPS = 1e-9  # camera-frame z a triangle's corners must exceed to be spanned
CAST_MARGIN_PX = 1e-3  # half-height of a row's slab, and the widening of its span
CAST_PLANE_TOL = 1e-10  # relative plane distance below which rays in the plane hit anywhere
CAST_BLOCK = 8192  # (pixel, triangle) pairs per kernel call of the camera cast
BRUTE_PAIRS = 65536  # (ray, triangle) pairs per chunk of the brute-force scan


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


def _norm(a):
    """Length of an (x, y, z) triple, summed as ``norm(axis=-1)`` sums it."""
    return np.sqrt((a[0] * a[0] + a[1] * a[1]) + a[2] * a[2])


def _origin_terms(o, v0, e1, e2):
    """``(s, q, e2 . q)`` with ``s = o - v0`` and ``q = s x e1``: no ray direction in them."""
    with np.errstate(invalid="ignore"):
        s = tuple(a - b for a, b in zip(o, v0))
        q = _cross(s, e1)
        return s, q, _dot(e2, q)


def _moller_trumbore(d, e1, e2, s, q, e2q, rows=None):
    """Ray/triangle test over pairs; returns (hit indices, t, u, v of those hits).

    ``d`` holds per-pair (x, y, z) rows.  ``e1``, ``e2`` and the
    :func:`_origin_terms` ``s``, ``q``, ``e2q`` are per pair or scalars, or
    ``q`` and ``e2q`` are per triangle and pair i reads row ``rows[i]``.
    Bounds are inclusive: a ray through a shared edge hits both triangles,
    and the caller's (t, id) tie-break picks one.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = _cross(d, e2)
        det = _dot(e1, p)
        inv_det = 1.0 / det
        u = _dot(s, p) * inv_det
        # u > 1 fails u + v <= 1 for every v >= 0, so such pairs stop here.
        cand = np.flatnonzero((det != 0.0) & (u >= 0.0) & (u <= 1.0))
        at = cand if rows is None else rows[cand]
        *q, e2q = (x[at] if np.ndim(x) else x for x in (*q, e2q))
        u, inv_det = u[cand], inv_det[cand]
        v = _dot([x[cand] for x in d], q) * inv_det
        t = e2q * inv_det
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
    """Nearest-hit ``t`` of every pixel-center ray of ``camera`` on ``mesh``.

    ``dirs`` are the rays' unit world directions, one row per pixel, best
    laid out per axis as ``renderer.camera_rays`` makes them.  Returns the
    ``(H*W,)`` ``t`` that :func:`intersect_rays` gives for those rays, bit
    for bit; ``+inf`` on a miss.
    """
    if mesh.is_empty:
        raise EmptyScene("cannot intersect an empty mesh")
    w, h = camera.width, camera.height
    # Per-axis rows of per-corner arrays: each vertex is projected once, then gathered.
    corners = mesh.triangles.T.copy()
    cam = camera.world_to_camera(mesh.vertices).T.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        uv = cam[:2] / cam[2] * [[camera.fx], [camera.fy]] + [[camera.cx], [camera.cy]]
    # Kernel terms of every triangle.
    a, b, c = (np.take(mesh.vertices.T, i, axis=1) for i in corners)
    e1, e2 = b - a, c - a
    s, q, e2q = _origin_terms(camera.center, a, e1, e2)
    # Spanned: every corner in front, and the plane clear of the camera center;
    # |e2 . q| = |(e1 x e2) . s|, and the corners lie |s|, |s - e1|, |s - e2| away.
    far = np.maximum(np.maximum(_norm(s), _norm(np.subtract(s, e1))), _norm(np.subtract(s, e2)))
    in_front = np.take(cam[2], corners).min(axis=0) > CAST_Z_EPS
    spanned = in_front & (np.abs(e2q) > CAST_PLANE_TOL * (_norm(e1) * _norm(e2) * far))
    ids = np.flatnonzero(spanned)
    # Per row, a segment: the triangle clipped to the row's slab, bounded by the
    # edges a-c and a-b-c (corners sorted by v).  Points go along an edge from the
    # nearer corner, and a non-finite slope reads 0, so a corner keeps its own u.
    u, v = np.take(uv, np.take(corners, ids, axis=1), axis=1)
    for i, j in ((0, 1), (1, 2), (0, 1)):  # a sorting network
        swap = v[j] < v[i]
        for x in (u, v):
            x[i], x[j] = np.where(swap, x[j], x[i]), np.where(swap, x[i], x[j])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = np.divide(*(x[[2, 1, 2]] - x[[0, 0, 1]] for x in (u, v)))  # a-c, a-b, b-c
    slope[~np.isfinite(slope)] = 0.0
    m = CAST_MARGIN_PX
    row0 = np.ceil(v[0] - m).clip(0, h)
    nrows = np.maximum(np.floor(v[2] + m).clip(-1, h - 1) - row0 + 1, 0).astype(np.int64)
    seg = np.repeat(np.arange(len(ids)), nrows)
    row = np.arange(len(seg)) + (row0 - np.cumsum(nrows) + nrows)[seg]
    ua, ub, uc, va, vb, vc, kac, kab, kbc = (x[seg] for x in (*u, *v, *slope))
    y0, y1 = np.maximum(va, row - m), np.minimum(vc, row + m)
    x0 = ua + (y0 - va) * kac
    xs = (x0, uc + (y1 - vc) * kac, np.where((y0 < vb) & (vb < y1), ub, x0),
          np.where(y0 < vb, ua + (y0 - va) * kab, ub + (y0 - vb) * kbc),
          np.where(y1 > vb, uc + (y1 - vc) * kbc, ub + (y1 - vb) * kab))
    lo = np.ceil(np.minimum.reduce(xs) - m).clip(0, w)
    hi = np.floor(np.maximum.reduce(xs) + m).clip(-1, w - 1)
    count = np.maximum(hi - lo + 1, 0).astype(np.int64)
    d = np.ascontiguousarray(np.asarray(dirs, dtype=np.float64).T)
    best = np.full(w * h, np.inf)
    # Spans: fixed blocks of (pixel, triangle) pairs bound the transient memory;
    # the k-th pair overall, in segment s, is pixel k + base[s].
    end = np.cumsum(count)
    start = end - count
    base = (row * w + lo).astype(np.int64) - start
    total = int(count.sum())
    for first in range(0, total, CAST_BLOCK):
        last = min(first + CAST_BLOCK, total)
        j0, j1 = np.searchsorted(end, [first, last - 1], side="right")
        span = np.minimum(end[j0:j1 + 1], last) - np.maximum(start[j0:j1 + 1], first)
        j = np.repeat(ids[seg[j0:j1 + 1]], span)
        pix = np.arange(first, last) + np.repeat(base[j0:j1 + 1], span)
        hit, t, _, _ = _moller_trumbore(
            [x[pix] for x in d], *([x[j] for x in vec] for vec in (e1, e2, s)), q, e2q, rows=j
        )
        np.minimum.at(best, pix[hit], t)
    # Whole-image triangles meet every pixel in order: scalar terms, CAST_BLOCK pixels a call.
    for i in np.flatnonzero(~spanned):
        terms = [[x[i] for x in vec] for vec in (e1, e2, s, q)]
        for px in range(0, len(best), CAST_BLOCK):
            hit, t, _, _ = _moller_trumbore([x[px:px + CAST_BLOCK] for x in d], *terms, e2q[i])
            np.minimum.at(best, px + hit, t)
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
            v0, e1, e2 = ([x[pos] for x in vec] for vec in tris)
            hit, t, u, v = _moller_trumbore(
                [x[pair_rays] for x in d], e1, e2,
                *_origin_terms([x[pair_rays] for x in o], v0, e1, e2),
            )
            _keep_nearest(best, pair_rays[hit], bvh.tri_order[pos[hit]], t, u, v)
        inner = nodes[~is_leaf]
        rays = np.concatenate([rays[~is_leaf]] * 2)
        nodes = np.concatenate([bvh.left[inner], bvh.right[inner]])


def intersect_rays_brute(mesh: TriMesh, origins: np.ndarray, dirs: np.ndarray):
    """Nearest hit by testing every triangle; the BVH's ground truth.

    Works straight off the mesh so it shares nothing with the tree build.
    Rays go ``BRUTE_PAIRS // triangles`` (at least one) at a time, so each
    chunk tests about ``BRUTE_PAIRS`` (ray, triangle) pairs.
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
    chunk = max(1, BRUTE_PAIRS // n_tris)
    # (axis, pair) rows: a chunk's rays repeated, the triangles tiled once for all chunks.
    tiled = [np.tile(x.T, (1, min(chunk, n_rays))) for x in (tv0, te1, te2)]
    for lo in range(0, n_rays, chunk):
        hi = min(lo + chunk, n_rays)
        m = hi - lo
        v0, e1, e2 = (x[:, : m * n_tris] for x in tiled)
        hit, ht, hu, hv = _moller_trumbore(
            np.repeat(dirs[lo:hi].T, n_tris, axis=1), e1, e2,
            *_origin_terms(np.repeat(origins[lo:hi].T, n_tris, axis=1), v0, e1, e2),
        )
        t, u, v = np.full(m * n_tris, np.inf), np.zeros(m * n_tris), np.zeros(m * n_tris)
        t[hit], u[hit], v[hit] = ht, hu, hv
        ti = np.argmin(t.reshape(m, n_tris), axis=1)  # first occurrence = lowest triangle id
        flat = np.arange(m) * n_tris + ti
        best_t[lo:hi] = t[flat]
        best_tri[lo:hi] = np.where(np.isfinite(t[flat]), ti, -1)
        best_u[lo:hi], best_v[lo:hi] = u[flat], v[flat]
    return best_t, best_tri, best_u, best_v
