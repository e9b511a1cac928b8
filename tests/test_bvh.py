"""Ray/triangle kernel, brute force and binned camera cast, against naive oracles.

The kernel is checked bit for bit against the ``np.cross`` / ``einsum``
formulation in ``conftest``, and ``intersect_rays_brute`` against a per-ray
scan of that formulation.  The camera cast shares the kernel with the brute
force, so cast == brute force alone could not catch a changed summation
order.  The cast is checked against the brute force over random pinhole
cameras and meshes built to hit the edge cases of its per-row span rule, on
real scenes' ground and opening at full size and at a grazing view of the
ground, and at focal lengths whose span ends overflow.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselxyz import PinholeCamera, TriMesh
from vesselxyz.bvh import (
    CAST_MARGIN_PX, CAST_Z_EPS, T_MIN, _moller_trumbore, _origin_terms, cast_camera_rays,
    intersect_rays_brute,
)
from vesselxyz.procgen import SceneConfig, assemble_scene
from vesselxyz.renderer import camera_rays

from conftest import oracle_first_hit, oracle_moller_trumbore, random_rotation

X, Y, Z = np.eye(3)


def _kernel_vs_oracle(o, d, v0, e1, e2, rows=None):
    """Assert the kernel's hits and their (t, u, v) equal the oracle's bitwise.

    The kernel gets the triangle terms in each form its callers pass: per
    pair, and per triangle, where ``rows`` names each pair's row of ``v0``,
    ``e1`` and ``e2`` and one origin serves every pair.
    """
    tri = [np.asarray(a, dtype=np.float64) for a in (v0, e1, e2)]
    pairs = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (o, d)]
    pairs += [np.atleast_2d(a if rows is None else a[rows]) for a in tri]
    pairs = [np.broadcast_to(a, (max(len(r) for r in pairs), 3)).copy() for a in pairs]
    t, u, v, hit = oracle_moller_trumbore(*pairs)
    po, pd, pv0, pe1, pe2 = (np.ascontiguousarray(a.T) for a in pairs)
    forms = [(pd, pe1, pe2, *_origin_terms(po, pv0, pe1, pe2))]
    if rows is not None:
        assert np.ndim(o) == 1
        tv0, te1, te2 = (np.ascontiguousarray(a.T) for a in tri)
        s, q, e2q = _origin_terms(tuple(np.asarray(o, dtype=np.float64)), tv0, te1, te2)
        forms.append((pd, *([x[rows] for x in vec] for vec in (te1, te2, s)), q, e2q, rows))
    for args in forms:
        idx, kt, ku, kv = _moller_trumbore(*args)
        np.testing.assert_array_equal(idx, np.flatnonzero(hit))
        for got, want in ((kt, t), (ku, u), (kv, v)):
            assert got.tobytes() == want[idx].tobytes()
    return hit


def _spread(rng, n):
    """(n, 3) coordinates of random sign with magnitudes log-uniform in 1e-3..1e3."""
    return rng.choice([-1.0, 1.0], (n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 3))


class TestKernel:
    def test_bitwise_on_random_pairs(self):
        rng = np.random.default_rng(20261018)
        n = 120_000
        v0, e1, e2 = _spread(rng, n), _spread(rng, n), _spread(rng, n)
        # Rays aimed through a point of the triangle's plane near the
        # triangle (barycentrics in [-0.25, 1.25]), from 1e-3..1e3 away; the
        # second half point anywhere.
        bary = rng.uniform(-0.25, 1.25, (n, 2))
        target = v0 + bary[:, :1] * e1 + bary[:, 1:] * e2
        offset = _spread(rng, n)
        d = -offset / np.linalg.norm(offset, axis=1, keepdims=True)
        d[n // 2:] = rng.normal(size=(n - n // 2, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        hit = _kernel_vs_oracle(target + offset, d, v0, e1, e2)
        assert 0.05 < hit.mean() < 0.5  # both hits and misses are compared

    def _aimed(self, rng, origin, v0, e1, e2):
        """Unit directions from ``origin`` through points of each triangle's plane
        near the triangle (barycentrics in [-0.25, 1.25]); the second half anywhere."""
        n = len(v0)
        bary = rng.uniform(-0.25, 1.25, (n, 2))
        d = v0 + bary[:, :1] * e1 + bary[:, 1:] * e2 - origin
        d[n // 2:] = rng.normal(size=(n - n // 2, 3))
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def test_bitwise_with_one_origin_and_per_triangle_rows(self):
        # the cast's span form: 2000 triangles, each pair reads its triangle's row
        rng = np.random.default_rng(20261020)
        n_tris, n = 2000, 60_000
        o = _spread(rng, 1)[0]
        v0, e1, e2 = _spread(rng, n_tris), _spread(rng, n_tris), _spread(rng, n_tris)
        rows = rng.integers(0, n_tris, n)
        d = self._aimed(rng, o, v0[rows], e1[rows], e2[rows])
        hit = _kernel_vs_oracle(o, d, v0, e1, e2, rows=rows)
        assert 0.05 < hit.mean() < 0.5

    def test_zero_determinant(self):
        # rays in and above the triangle's plane, parallel to it
        hit = _kernel_vs_oracle(
            [[0.2, 0.2, 0.0], [0.2, 0.2, 1.0], [-1.0, 0.3, 0.0]], [X, -Y, X], 0.0, X, Y
        )
        assert not hit.any()

    def test_shared_edge(self):
        # the unit square's two triangles share the edge u + v == 1
        origins = [[0.5, 0.5, 1.0], [0.25, 0.75, 1.0], [0.5, 0.5 + 2.0**-40, 1.0]]
        lower = _kernel_vs_oracle(origins, -Z, 0.0, X, Y)
        upper = _kernel_vs_oracle(origins, -Z, [1.0, 1.0, 0.0], -X, -Y)
        assert lower[:2].all() and upper[:2].all()
        assert not lower[2] and upper[2]  # just past the edge: the upper side only
        # vertices and the other two edges: u == 0 and v == 0
        corners = [
            [0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.5, 1.0], [0.5, 0.0, 1.0],
        ]
        assert _kernel_vs_oracle(corners, -Z, 0.0, X, Y).all()

    def test_t_at_t_min(self):
        # t equals the origin's height exactly for this triangle and direction
        heights = [T_MIN, np.nextafter(T_MIN, 0.0), np.nextafter(T_MIN, 1.0)]
        hit = _kernel_vs_oracle([[0.25, 0.25, h] for h in heights], -Z, 0.0, X, Y)
        assert hit.tolist() == [False, False, True]

    def test_axis_parallel_directions(self):
        rng = np.random.default_rng(7)
        tilted = ([0.1, -0.2, 0.3], [1.0, 0.0, 0.5], [0.0, 1.0, 0.5])
        dirs = np.concatenate([np.eye(3), -np.eye(3)])
        origins = rng.uniform(-2.0, 2.0, (600, 3))
        hit = _kernel_vs_oracle(origins, np.repeat(dirs, 100, axis=0), *tilted)
        assert hit.any() and not hit.all()


def _grid_mesh(rng, n_tris: int) -> TriMesh:
    """Triangles with corners on a 0.25 grid, so triangles share planes, edges and corners."""
    corners = rng.integers(-4, 5, (n_tris, 3, 3)) * 0.25
    normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    corners = corners[np.linalg.norm(normal, axis=1) > 1e-6]
    if not len(corners):
        corners = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    return TriMesh(corners.reshape(-1, 3), np.arange(corners.size // 3).reshape(-1, 3), "content")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tris=st.integers(1, 48))
def test_brute_force_equals_oracle_on_random_meshes(seed, n_tris):
    rng = np.random.default_rng(seed)
    mesh = _grid_mesh(rng, n_tris)
    dirs = rng.normal(size=(64, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origins = rng.uniform(-2.0, 2.0, (64, 3))
    # Axis-parallel rays whose origins lie on planes through the vertices:
    # every coordinate is a vertex coordinate, and the ray runs along one
    # axis from outside the mesh or from inside it.
    n_par = 96
    axis = rng.integers(0, 3, n_par)
    par_origins = mesh.vertices[rng.integers(0, len(mesh.vertices), (n_par, 3)), [0, 1, 2]]
    start = rng.choice([-3.0, 3.0, 0.0], n_par)
    par_origins[np.arange(n_par), axis] = np.where(
        start == 0.0, par_origins[np.arange(n_par), axis], start
    )
    par_dirs = np.zeros((n_par, 3))
    par_dirs[np.arange(n_par), axis] = np.where(start > 0.0, -1.0, 1.0)
    origins = np.concatenate([origins, par_origins])
    dirs = np.concatenate([dirs, par_dirs])

    got = intersect_rays_brute(mesh, origins, dirs)
    want = oracle_first_hit(mesh, origins, dirs)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# ── binned camera cast ───────────────────────────────────────────────────

CAST_KINDS = (
    "pixel", "random", "tiny", "behind", "straddle", "grazing", "along_ray", "strip",
    "row", "flat", "between", "image_edge", "horizon",
)


def _cast_camera(rng) -> PinholeCamera:
    """Random pinhole camera of up to 24x24 pixels.

    Half the cameras have dyadic focal lengths, half-pixel principal points,
    a quarter-meter center and no rotation, so points built on pixel-center
    rays below lie exactly on them; the others are arbitrary.
    """
    w, h = (int(x) for x in rng.integers(1, 25, 2))
    if rng.random() < 0.5:
        fx, fy = (float(2.0 ** k) for k in rng.integers(-1, 9, 2))
        cx, cy = float(rng.integers(0, 2 * w) / 2), float(rng.integers(0, 2 * h) / 2)
        rotation, center = np.eye(3), rng.integers(-8, 9, 3) / 4.0
    else:
        fx, fy = (float(x) for x in 10.0 ** rng.uniform(-0.3, 2.7, 2))
        cx, cy = float(rng.uniform(0, w)), float(rng.uniform(0, h))
        rotation, center = random_rotation(rng), rng.uniform(-3.0, 3.0, 3)
    return PinholeCamera(fx, fy, cx, cy, w, h, rotation, -rotation @ center)


def _cast_mesh(rng, cam: PinholeCamera, kinds, n_tris: int):
    """Mesh of ``n_tris`` triangles of the given kinds, built in the camera frame.

    pixel: corners on pixel-center rays (edges through pixel centers);
    random: anywhere, mostly off screen; tiny: within about one pixel;
    behind: every corner at z < 0; straddle: corners at z = 0, +-eps, ...;
    grazing: planes holding two pixel-center rays, or up to 1e-15..1e-6 off;
    along_ray: an edge on a pixel-center ray; strip: a grid of corners on
    pixel-center rays, two triangles per cell sharing edges; row: corners on
    a pixel-center row or ``CAST_MARGIN_PX`` off one; flat: a horizontal or
    near-horizontal edge on a row; between: a sub-pixel triangle between two
    rows, some within a margin of one; image_edge: corners on, just inside
    and just outside the image border; horizon: a large triangle, mostly
    reaching behind the camera, in a plane within ~6 degrees of holding the
    optical axis and 1e-3..3 away from the camera center, like a ground
    seen at a grazing angle.  Returns None when every triangle came out
    degenerate.
    """
    w, h = cam.width, cam.height
    m = CAST_MARGIN_PX

    def at(u, v, z):  # camera-frame points at depth z on the rays through (u, v)
        return np.stack([z * (u - cam.cx) / cam.fx, z * (v - cam.cy) / cam.fy, z], -1)

    def depth(n):
        return np.where(rng.random(n) < 0.5, 2.0 ** rng.integers(-2, 3, n), rng.uniform(0.1, 10, n))

    corners = []
    for kind in rng.choice(kinds, n_tris):
        if kind == "pixel":
            c = at(rng.integers(-2, w + 2, 3), rng.integers(-2, h + 2, 3), depth(3))
        elif kind == "random":
            c = at(rng.uniform(-w, 2 * w, 3), rng.uniform(-h, 2 * h, 3), depth(3))
        elif kind == "tiny":
            size = 10.0 ** rng.uniform(-3, 0)
            u = rng.integers(0, w) + rng.uniform(-0.5, 0.5) + size * rng.uniform(-1, 1, 3)
            v = rng.integers(0, h) + rng.uniform(-0.5, 0.5) + size * rng.uniform(-1, 1, 3)
            c = at(u, v, depth(1) * (1.0 + 0.01 * rng.uniform(-1, 1, 3)))
        elif kind == "behind":
            c = at(rng.uniform(-w, 2 * w, 3), rng.uniform(-h, 2 * h, 3), -depth(3))
        elif kind == "straddle":
            eps = CAST_Z_EPS
            z = rng.choice([-1.0, -eps, 0.0, eps / 2, eps, 2 * eps, 1e-6, 1.0, 3.0], 3)
            c = np.column_stack([rng.uniform(-1, 1, (3, 2)), z])
        elif kind == "grazing":
            p = at(np.array([rng.integers(0, w), rng.integers(-2, w + 2)]),
                   np.array([rng.integers(0, h), rng.integers(-2, h + 2)]), depth(2))
            n = np.cross(p[0], p[1])
            if not n.any():  # both on one ray: no plane
                continue
            off = rng.choice([0.0, 1e-15, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6])
            q = rng.uniform(0.2, 1.5) * p[0] + rng.uniform(-0.8, 1.5) * p[1]
            c = np.vstack([p, q + off * n / np.linalg.norm(n)])
        elif kind == "along_ray":
            u, v = rng.integers(0, w), rng.integers(0, h)
            other = at(rng.integers(-2, w + 2), rng.integers(-2, h + 2), depth(1))
            c = np.vstack([at(u, v, depth(2)), other])
        elif kind == "row":
            v = rng.integers(-1, h + 1, 3) + rng.choice([0.0, -m, m], 3)
            c = at(rng.integers(-2, w + 2, 3) + rng.choice([0.0, 0.5, -m, m], 3), v, depth(3))
        elif kind == "flat":
            dv = rng.choice([0.0, 0.0, 1e-15, -1e-12, 1e-9, -m / 2, 2 * m])
            v = rng.integers(0, h) + np.array([0.0, dv, rng.uniform(-h, h)])
            c = at(rng.uniform(-2, w + 1, 3), v, depth(3))
        elif kind == "between":
            r, size = rng.integers(-1, h), 10.0 ** rng.uniform(-4, 0)
            lo = r + rng.choice([m / 2, 2 * m, rng.uniform(0, 1 - size)])
            u = rng.integers(0, w) + rng.uniform(-0.5, 0.5) + 4 * size * rng.uniform(-1, 1, 3)
            c = at(u, np.minimum(lo + size * rng.uniform(0, 1, 3), r + 1 - m / 2), depth(3))
        elif kind == "image_edge":
            u, v = (np.where(rng.random(3) < 0.6,
                             rng.choice([-1.0, -m, 0.0, m, n - 1 - m, n - 1, n - 1 + m, n], 3),
                             rng.uniform(0, n, 3)) for n in (w, h))
            c = at(u, v, depth(3))
        elif kind == "horizon":
            n = np.array([rng.uniform(-0.1, 0.1), rng.choice([-1.0, 1.0]), rng.uniform(-0.1, 0.1)])
            n /= np.linalg.norm(n)
            side = np.cross(n, Z) / np.linalg.norm(np.cross(n, Z))
            ab = 10.0 ** rng.uniform(0.5, 2.0) * rng.uniform(-1, 1, (3, 2))
            c = 10.0 ** rng.uniform(-3, 0.5) * n + ab[:, :1] * side + ab[:, 1:] * np.cross(side, n)
        else:
            continue
        corners.append(c)
    verts = np.array(corners).reshape(-1, 3)
    faces = np.arange(len(verts)).reshape(-1, 3)
    if "strip" in kinds:
        gw, gh = (int(x) for x in rng.integers(2, 6, 2))
        step = rng.integers(1, 3, 2)
        uu, vv = np.meshgrid(rng.integers(-1, w) + np.arange(gw) * step[0],
                             rng.integers(-1, h) + np.arange(gh) * step[1])
        grid = at(uu.ravel(), vv.ravel(), depth(1) + 0.05 * uu.ravel() + 0.1 * (vv.ravel() % 2))
        i = np.arange(gw * gh).reshape(gh, gw)
        a, b, c, d = i[:-1, :-1].ravel(), i[:-1, 1:].ravel(), i[1:, :-1].ravel(), i[1:, 1:].ravel()
        strip = np.concatenate([np.column_stack([a, b, d]), np.column_stack([a, d, c])])
        faces = np.concatenate([faces, strip + len(verts)])
        verts = np.concatenate([verts, grid])
    world = (verts - cam.translation) @ cam.rotation
    e = world[faces]
    area = 0.5 * np.linalg.norm(np.cross(e[:, 1] - e[:, 0], e[:, 2] - e[:, 0]), axis=1)
    faces = faces[area > 1e-9]
    return TriMesh(world, faces, "content") if len(faces) else None


def _assert_cast_equals_brute(mesh: TriMesh, cam: PinholeCamera):
    """The cast's t is the brute force's, bit for bit; returns the brute force's (t, tri, u, v)."""
    origins, dirs, _ = camera_rays(cam)
    got = cast_camera_rays(mesh, cam, dirs)
    want = intersect_rays_brute(mesh, origins, dirs)
    assert got.shape == (cam.width * cam.height,)
    assert got.dtype == want[0].dtype and got.tobytes() == want[0].tobytes()
    return want


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(CAST_KINDS), min_size=1, max_size=4, unique=True),
    n_tris=st.integers(1, 30),
)
def test_cast_equals_brute_force_on_random_cameras(seed, kinds, n_tris):
    rng = np.random.default_rng(seed)
    cam = _cast_camera(rng)
    mesh = _cast_mesh(rng, cam, kinds, n_tris)
    if mesh is not None:
        _assert_cast_equals_brute(mesh, cam)


def test_cast_covers_hits_of_planes_through_the_camera_center():
    # A ray lying in a triangle's plane makes the kernel's determinant pure
    # rounding, so it can report a hit at any pixel on the plane's image
    # line, far outside the triangle's projected box.  Such triangles must
    # get every pixel; this checks such hits occur and are reproduced.
    outside = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        cam = _cast_camera(rng)
        mesh = _cast_mesh(rng, cam, ["along_ray"], 8)
        if mesh is None:
            continue
        _, tri, _, _ = _assert_cast_equals_brute(mesh, cam)
        p = cam.world_to_camera(mesh.vertices)
        pu = (cam.fx * p[:, 0] / p[:, 2] + cam.cx)[mesh.triangles]
        hit = np.flatnonzero(tri >= 0)
        u = (hit % cam.width)[:, None]
        box = pu[tri[hit]]
        outside += int(np.sum((u < box.min(axis=1) - 0.5) | (u > box.max(axis=1) + 0.5)))
    assert outside > 0


GRAZING = SceneConfig(camera_elevation_deg=(-3.0, 3.0), resolution=96, focal_px=120.0)


@pytest.mark.parametrize("seed, config", [
    *(pytest.param(seed, SceneConfig(), id=str(seed)) for seed in (80, 33, 124)),
    *(pytest.param(seed, GRAZING, id=f"grazing-{seed}") for seed in (1, 2, 3)),
])
def test_cast_equals_brute_force_at_full_size(seed, config):
    # A ground triangle of each scene reaches behind the camera, so its
    # rows are every row and its edge planes alone bound its spans; under
    # GRAZING the camera is level with the vessel, and so nearly with the
    # ground.  The opening fan's triangles get their projected rows.
    scene = assemble_scene(seed, config)
    ground = scene.ground_plane.to_mesh()
    z = scene.camera.world_to_camera(ground.vertices)[ground.triangles][..., 2]
    assert (z.min(axis=1) <= CAST_Z_EPS).any()
    for mesh in (ground, scene.opening):
        _, tri, _, _ = _assert_cast_equals_brute(mesh, scene.camera)
        assert (tri >= 0).any()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("focal", [1e308, 1e200])
def test_cast_at_overflowing_focal_lengths(focal):
    # Projected corners lie up to ~focal px from the principal point, so
    # span ends overflow to +-inf: the cast warns nothing and keeps its bits.
    scene = assemble_scene(1, SceneConfig(focal_px=focal, resolution=32))
    for mesh in (scene.vessel, scene.ground_plane.to_mesh(), scene.opening):
        _assert_cast_equals_brute(mesh, scene.camera)
