"""Axis-aligned BVH over triangles with batched ray casting.

Traversal is breadth-first over (ray, node) pairs so whole wavefronts of
rays move through the tree as numpy array operations; no per-ray Python
loop.  Hits are resolved to the smallest (t, triangle index) pair, which
makes results independent of traversal order and identical to brute-force
scanning of every triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyScene
from .geometry import TriMesh, _frozen

LEAF_SIZE = 8
T_MIN = 1e-9  # hits closer than this are treated as the ray origin itself


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
    """Top-down median-split build over triangle centroids."""
    if mesh.is_empty:
        raise EmptyScene("cannot build a BVH over an empty mesh")
    verts, tris = mesh.vertices, mesh.triangles
    a = verts[tris[:, 0]]
    b = verts[tris[:, 1]]
    c = verts[tris[:, 2]]
    tri_min = np.minimum(np.minimum(a, b), c)
    tri_max = np.maximum(np.maximum(a, b), c)
    centroids = (tri_min + tri_max) * 0.5
    n = len(tris)

    order = np.arange(n, dtype=np.int64)
    bmin, bmax, left, right, start, count = [], [], [], [], [], []

    def alloc() -> int:
        bmin.append(None)
        bmax.append(None)
        left.append(-1)
        right.append(-1)
        start.append(0)
        count.append(0)
        return len(left) - 1

    stack = [(0, n, alloc())]
    while stack:
        lo, hi, node = stack.pop()
        idx = order[lo:hi]
        bmin[node] = tri_min[idx].min(axis=0)
        bmax[node] = tri_max[idx].max(axis=0)
        if hi - lo <= LEAF_SIZE:
            start[node] = lo
            count[node] = hi - lo
            continue
        cent = centroids[idx]
        axis = int(np.argmax(cent.max(axis=0) - cent.min(axis=0)))
        order[lo:hi] = idx[np.argsort(cent[:, axis], kind="stable")]
        mid = (lo + hi) // 2
        li, ri = alloc(), alloc()
        left[node], right[node] = li, ri
        stack.append((lo, mid, li))
        stack.append((mid, hi, ri))

    return Bvh(
        bounds_min=_frozen(np.array(bmin)),
        bounds_max=_frozen(np.array(bmax)),
        left=_frozen(np.array(left, dtype=np.int64)),
        right=_frozen(np.array(right, dtype=np.int64)),
        start=_frozen(np.array(start, dtype=np.int64)),
        count=_frozen(np.array(count, dtype=np.int64)),
        tri_order=_frozen(order),
        v0=_frozen(a),
        e1=_frozen(b - a),
        e2=_frozen(c - a),
    )


def _moller_trumbore(o, d, v0, e1, e2, t_min=T_MIN):
    """Vectorized ray/triangle test; returns (t, u, v, hit) arrays.

    Barycentric bounds are inclusive so rays through shared edges register
    on both incident triangles (the caller's (t, id) tie-break then picks
    one deterministically) instead of slipping through a crack.
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


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """[s0, s0+1, ..., s0+c0-1, s1, ...] without a Python loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(starts, counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return reps + offs


def _validate_dirs(dirs: np.ndarray):
    norms = np.linalg.norm(dirs, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("ray directions must be normalized and nonzero")


def intersect_rays(bvh: Bvh, origins: np.ndarray, dirs: np.ndarray):
    """Nearest hit for a batch of rays.

    Returns (t, tri, u, v) float/int arrays; misses carry t = +inf and
    tri = -1.  Ties in t resolve to the lowest triangle index, exactly as
    :func:`intersect_rays_brute` does.
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    _validate_dirs(dirs)
    n_rays = len(origins)
    best_t = np.full(n_rays, np.inf)
    best_tri = np.full(n_rays, -1, dtype=np.int64)
    best_u = np.zeros(n_rays)
    best_v = np.zeros(n_rays)
    with np.errstate(divide="ignore"):
        inv_d = 1.0 / dirs

    rays = np.arange(n_rays, dtype=np.int64)
    nodes = np.zeros(n_rays, dtype=np.int64)
    while rays.size:
        o = origins[rays]
        iv = inv_d[rays]
        bmin = bvh.bounds_min[nodes]
        bmax = bvh.bounds_max[nodes]
        with np.errstate(invalid="ignore"):
            t1 = (bmin - o) * iv
            t2 = (bmax - o) * iv
        near = np.fmin(t1, t2)
        far = np.fmax(t1, t2)
        # Axis-parallel rays: 0 * inf above is NaN when the origin sits on a
        # slab plane.  Such an axis constrains nothing if the origin is
        # inside the slab (inclusive) and everything if it is outside.
        par = np.isinf(iv)
        if par.any():
            inside = (o >= bmin) & (o <= bmax)
            near = np.where(par, np.where(inside, -np.inf, np.inf), near)
            far = np.where(par, np.where(inside, np.inf, -np.inf), far)
        tnear = np.maximum(near.max(axis=1), 0.0)
        tfar = far.min(axis=1)
        keep = (tfar >= tnear) & (tnear <= best_t[rays])
        rays, nodes = rays[keep], nodes[keep]
        if not rays.size:
            break

        counts = bvh.count[nodes]
        is_leaf = counts > 0
        leaf_rays = rays[is_leaf]
        if leaf_rays.size:
            leaf_counts = counts[is_leaf]
            pair_rays = np.repeat(leaf_rays, leaf_counts)
            tri_ids = bvh.tri_order[
                _concat_ranges(bvh.start[nodes[is_leaf]], leaf_counts)
            ]
            t, u, v, ok = _moller_trumbore(
                origins[pair_rays], dirs[pair_rays],
                bvh.v0[tri_ids], bvh.e1[tri_ids], bvh.e2[tri_ids],
            )
            if np.any(ok):
                cr, ct, ctri = pair_rays[ok], t[ok], tri_ids[ok]
                cu, cv = u[ok], v[ok]
                sel = np.lexsort((ctri, ct, cr))
                cr, ct, ctri = cr[sel], ct[sel], ctri[sel]
                cu, cv = cu[sel], cv[sel]
                first = np.ones(len(cr), dtype=bool)
                first[1:] = cr[1:] != cr[:-1]
                cr, ct, ctri = cr[first], ct[first], ctri[first]
                cu, cv = cu[first], cv[first]
                better = (ct < best_t[cr]) | (
                    (ct == best_t[cr]) & (ctri < best_tri[cr])
                )
                upd = cr[better]
                best_t[upd] = ct[better]
                best_tri[upd] = ctri[better]
                best_u[upd] = cu[better]
                best_v[upd] = cv[better]

        inner = ~is_leaf
        inner_rays = rays[inner]
        inner_nodes = nodes[inner]
        rays = np.concatenate([inner_rays, inner_rays])
        nodes = np.concatenate([bvh.left[inner_nodes], bvh.right[inner_nodes]])

    return best_t, best_tri, best_u, best_v


def intersect_rays_brute(mesh: TriMesh, origins: np.ndarray, dirs: np.ndarray, chunk: int = 128):
    """Nearest hit by testing every triangle; the BVH's ground truth.

    Works straight off the mesh so it shares nothing with the tree build.
    """
    if mesh.is_empty:
        raise EmptyScene("cannot intersect an empty mesh")
    verts, tris = mesh.vertices, mesh.triangles
    tv0 = verts[tris[:, 0]]
    te1 = verts[tris[:, 1]] - tv0
    te2 = verts[tris[:, 2]] - tv0
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    _validate_dirs(dirs)
    n_rays = len(origins)
    n_tris = len(tris)
    best_t = np.full(n_rays, np.inf)
    best_tri = np.full(n_rays, -1, dtype=np.int64)
    best_u = np.zeros(n_rays)
    best_v = np.zeros(n_rays)
    for lo in range(0, n_rays, chunk):
        hi = min(lo + chunk, n_rays)
        m = hi - lo
        o = np.repeat(origins[lo:hi], n_tris, axis=0)
        d = np.repeat(dirs[lo:hi], n_tris, axis=0)
        v0 = np.tile(tv0, (m, 1))
        e1 = np.tile(te1, (m, 1))
        e2 = np.tile(te2, (m, 1))
        t, u, v, ok = _moller_trumbore(o, d, v0, e1, e2)
        t = np.where(ok, t, np.inf).reshape(m, n_tris)
        ti = np.argmin(t, axis=1)  # first occurrence = lowest triangle id
        rows = np.arange(m)
        tb = t[rows, ti]
        hit = np.isfinite(tb)
        best_t[lo:hi] = np.where(hit, tb, np.inf)
        best_tri[lo:hi] = np.where(hit, ti, -1)
        flat = rows * n_tris + ti
        best_u[lo:hi] = np.where(hit, u.reshape(-1)[flat], 0.0)
        best_v[lo:hi] = np.where(hit, v.reshape(-1)[flat], 0.0)
    return best_t, best_tri, best_u, best_v

