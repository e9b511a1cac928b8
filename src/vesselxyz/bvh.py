"""Ray/triangle intersection: a binned camera-ray cast, and its brute-force reference.

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

``intersect_rays_brute`` tests every ray against every triangle.  It takes
arbitrary rays and is the reference the cast is checked against; rendering
does not use it.

The one Moller-Trumbore kernel writes cross products per component and
sums each dot product as ``((x0*y0 + x2*y2) + x1*y1) + 0.0``, as
``einsum("ij,ij->i")`` does, so its bits are the ``np.cross``/``einsum``
form's.  ``s = o - v0``, ``q = s x e1`` and ``e2 . q`` hold no ray
direction: the cast computes them once per triangle for its one origin,
the brute force per pair.  ``e2 . q = (e1 x e2) . s`` also serves as the
cast's plane test.  Only pairs with ``det != 0`` and ``0 <= u <= 1`` go on
to ``v`` and ``t``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .geometry import PinholeCamera, TriMesh

T_MIN = 1e-9  # hits closer than this are treated as the ray origin itself
CAST_Z_EPS = 1e-9  # camera-frame z a triangle's corners must exceed to be spanned
CAST_MARGIN_PX = 1e-3  # half-height of a row's slab, and the widening of its span
CAST_PLANE_TOL = 1e-10  # relative plane distance below which rays in the plane hit anywhere
CAST_BLOCK = 8192  # (pixel, triangle) pairs per kernel call of the camera cast
BRUTE_PAIRS = 65536  # (ray, triangle) pairs per chunk of the brute-force scan


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


def cast_camera_rays(mesh: TriMesh, camera: PinholeCamera, dirs: np.ndarray):
    """Nearest-hit ``t`` of every pixel-center ray of ``camera`` on ``mesh``.

    ``dirs`` are the rays' unit world directions, one row per pixel, best
    laid out per axis as ``renderer.camera_rays`` makes them.  Returns the
    ``(H*W,)`` ``t`` that :func:`intersect_rays_brute` gives for those rays,
    bit for bit; ``+inf`` on a miss.
    """
    if mesh.is_empty:
        raise InvalidValue("cannot intersect an empty mesh")
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
    # Span ends far off screen may overflow to +-inf; the clips bound them.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def _validate_dirs(dirs: np.ndarray):
    norms = np.linalg.norm(dirs, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise InvalidValue("ray directions must be normalized and nonzero")


def intersect_rays_brute(mesh: TriMesh, origins: np.ndarray, dirs: np.ndarray):
    """Nearest hit of each ray by testing every triangle; the cast's reference.

    Returns (t, tri, u, v) float/int arrays; misses carry t = +inf and
    tri = -1, and ties in t resolve to the lowest triangle index.  Rays go
    ``BRUTE_PAIRS // triangles`` (at least one) at a time, so each chunk
    tests about ``BRUTE_PAIRS`` (ray, triangle) pairs.
    """
    if mesh.is_empty:
        raise InvalidValue("cannot intersect an empty mesh")
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
