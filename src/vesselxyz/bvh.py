"""Ray/triangle intersection: a binned camera-ray cast, and its brute-force reference.

``cast_camera_rays`` is the renderer's cast.  Every camera ray runs from
the camera center through a pixel center, and every triangle is cast over
per-row spans: with ``m = CAST_MARGIN_PX``, the span of pixel row ``v`` is
the x-extent of the triangle's part in the slab ``[v - m, v + m]``, widened
by ``m``.  A hit at pixel P puts P within the kernel's error δ ≪ m of a
point Q of the triangle, so Q lies in P's row slab and P within δ of its
x-extent.  The extent comes from the triangle's three edge planes through
the camera center, which need no projected corner (Olano & Greer, 1997):
with camera-frame corners P and σ = sign det P = -sign(``e2 . q``), pixel
(x, y) is inside edge j-k when σ (P_j x P_k) . ((x - cx)/fx, (y - cy)/fy,
1) >= 0.  Each edge, at its most lenient y in the slab, bounds x on one
side, and the span is the meet of the three.  The rows are the projected
v-range of a triangle with every corner at camera-frame ``z > CAST_Z_EPS``,
and every row otherwise.  δ is ~``eps * f`` px unless the determinant is
pure rounding, as for rays in the triangle's plane; so a triangle whose
plane passes within a relative ``CAST_PLANE_TOL`` of the camera center (the
plane rule) gets zero edge planes, and with them every row and column.  The
(pixel, triangle) pairs run ``CAST_BLOCK`` at a time; the kernel sees the
values a brute-force scan gives it, and each pixel keeps the smallest ``t``
of its hits, so ``t`` keeps its bits.

``intersect_rays_brute`` tests every ray against every triangle.  It takes
arbitrary rays and is the reference the cast is checked against; rendering
does not use it.

The one Moller-Trumbore kernel writes cross products per component and
sums each dot product as ``((x0*y0 + x2*y2) + x1*y1) + 0.0``, as
``einsum("ij,ij->i")`` does, so its bits are the ``np.cross``/``einsum``
form's.  ``s = o - v0``, ``q = s x e1`` and ``e2 . q`` hold no ray
direction: the cast computes them once per triangle for its one origin,
the brute force per pair.  ``e2 . q = (e1 x e2) . s`` also gives the
cast its plane test and σ.  Only pairs with ``det != 0`` and ``0 <= u <=
1`` go on to ``v`` and ``t``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .geometry import PinholeCamera, TriMesh

T_MIN = 1e-9  # hits closer than this are treated as the ray origin itself
CAST_Z_EPS = 1e-9  # camera-frame z every corner must exceed for rows to be the v-range
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

    ``d``, ``e1``, ``e2`` and the :func:`_origin_terms` ``s`` hold per-pair
    (x, y, z) rows; ``q`` and ``e2q`` are per pair, or per triangle with
    pair i reading row ``rows[i]``.
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
        *q, e2q = (x[at] for x in (*q, e2q))
        u, inv_det = u[cand], inv_det[cand]
        v = _dot([x[cand] for x in d], q) * inv_det
        t = e2q * inv_det
        ok = (v >= 0.0) & (u + v <= 1.0) & (t > T_MIN)
    return cand[ok], t[ok], u[ok], v[ok]


def _row_spans(mesh: TriMesh, camera: PinholeCamera, plane, e2q):
    """Per (triangle, pixel row) segment of the cast: its triangle, first pixel and pixel count."""
    w, h = camera.width, camera.height
    # Per-axis rows of per-corner arrays: each vertex is moved into the camera frame once.
    corners = mesh.triangles.T.copy()
    cam = camera.world_to_camera(mesh.vertices).T.copy()
    # Rows: the projected v-range when every corner is in front, every row otherwise.
    m = CAST_MARGIN_PX
    ranged = (np.take(cam[2], corners).min(axis=0) > CAST_Z_EPS) & ~plane
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.take(cam[1] / cam[2] * camera.fy + camera.cy, corners)
        row0 = np.where(ranged, np.ceil(v.min(axis=0) - m).clip(0, h), 0)
        row1 = np.where(ranged, np.floor(v.max(axis=0) + m).clip(-1, h - 1), h - 1)
    nrows = np.maximum(row1 - row0 + 1, 0).astype(np.int64)
    seg = np.repeat(np.arange(mesh.num_triangles), nrows)
    row = np.arange(len(seg)) + (row0 - np.cumsum(nrows) + nrows)[seg]
    # Columns: edge j-k keeps pixel (x, y) where k . (x - cx, y - cy, 1) >= 0, k = σ (P_j x P_k)
    # / (fx, fy, 1), zero by the plane rule; at its most lenient y in the row's slab it bounds
    # x on one side or, with kx = +-0, keeps or empties the row by the sign of that bound.
    sigma = np.where(plane, 0.0, -np.sign(e2q))
    pa, pb, pc = (np.take(cam, i, axis=1) for i in corners)
    lo, hi, empty = -np.inf, np.inf, False
    for p, r in ((pa, pb), (pb, pc), (pc, pa)):
        k = (x * sigma / f for x, f in zip(_cross(p, r), (camera.fx, camera.fy, 1.0)))
        kx, ky, kz = (np.take(x, seg) for x in k)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = ky * (row - camera.cy) + np.abs(ky) * m + kz
            bound = camera.cx - g / kx
        lo = np.maximum(lo, np.where(kx > 0.0, bound, -np.inf))
        hi = np.minimum(hi, np.where(kx < 0.0, bound, np.inf))
        empty = empty | ((kx == 0.0) & (g < 0.0))
        del kx, ky, kz, g, bound  # freed before the next edge's are made
    lo, hi = np.ceil(lo - m).clip(0, w), np.where(empty, -1, np.floor(hi + m).clip(-1, w - 1))
    return seg, (row * w + lo).astype(np.int64), np.maximum(hi - lo + 1, 0).astype(np.int64)


def cast_camera_rays(mesh: TriMesh, camera: PinholeCamera, dirs: np.ndarray):
    """Nearest-hit ``t`` of every pixel-center ray of ``camera`` on ``mesh``.

    ``dirs`` are the rays' unit world directions, one row per pixel, best
    laid out per axis as ``renderer.camera_rays`` makes them.  Returns the
    ``(H*W,)`` ``t`` that :func:`intersect_rays_brute` gives for those rays,
    bit for bit; ``+inf`` on a miss.
    """
    if mesh.is_empty:
        raise InvalidValue("cannot intersect an empty mesh")
    # Kernel terms of every triangle.
    a, b, c = (np.take(mesh.vertices.T, i, axis=1) for i in mesh.triangles.T)
    e1, e2 = b - a, c - a
    s, q, e2q = _origin_terms(camera.center, a, e1, e2)
    # The plane rule: |e2 . q| = |(e1 x e2) . s|, and the corners lie |s|, |s - e1|, |s - e2| away.
    far = np.maximum(np.maximum(_norm(s), _norm(np.subtract(s, e1))), _norm(np.subtract(s, e2)))
    plane = np.abs(e2q) <= CAST_PLANE_TOL * (_norm(e1) * _norm(e2) * far)
    # The span set-up's temporaries are freed before the pairs' are made.
    seg, base, count = _row_spans(mesh, camera, plane, e2q)
    d = np.ascontiguousarray(np.asarray(dirs, dtype=np.float64).T)
    best = np.full(camera.width * camera.height, np.inf)
    # Fixed blocks of (pixel, triangle) pairs bound the transient memory;
    # the k-th pair overall, in segment s, is pixel k + base[s].
    end = np.cumsum(count)
    start = end - count
    base -= start
    total = int(count.sum())
    for first in range(0, total, CAST_BLOCK):
        last = min(first + CAST_BLOCK, total)
        j0, j1 = np.searchsorted(end, [first, last - 1], side="right")
        span = np.minimum(end[j0:j1 + 1], last) - np.maximum(start[j0:j1 + 1], first)
        j = np.repeat(seg[j0:j1 + 1], span)
        pix = np.arange(first, last) + np.repeat(base[j0:j1 + 1], span)
        terms = ([x[j] for x in vec] for vec in (e1, e2, s))
        hit, t, _, _ = _moller_trumbore([x[pix] for x in d], *terms, q, e2q, rows=j)
        np.minimum.at(best, pix[hit], t)
    return best


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
    if np.any(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0) > 1e-9):
        raise InvalidValue("ray directions must be normalized and nonzero")
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
