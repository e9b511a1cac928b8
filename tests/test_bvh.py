"""BVH build and traversal, and the binned camera cast, against naive oracles.

The ray/triangle kernel is checked bit for bit against the ``np.cross`` /
``einsum`` formulation in ``conftest``; ``intersect_rays_brute`` shares the
kernel, so BVH == brute force alone could not catch a changed summation
order.  The tree is checked for structure and against a recursive build.
The camera cast is checked against brute force over random pinhole cameras
and meshes built to hit the edge cases of its candidate-box rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselxyz import PinholeCamera, TriMesh, build_bvh, intersect_rays, intersect_rays_brute
from vesselxyz.bvh import CAST_Z_EPS, LEAF_SIZE, T_MIN, _moller_trumbore, cast_camera_rays
from vesselxyz.procgen import SceneConfig, assemble_scene
from vesselxyz.renderer import camera_rays

from conftest import icosphere, oracle_bvh_leaves, oracle_moller_trumbore, random_rotation

X, Y, Z = np.eye(3)


def _kernel_vs_oracle(o, d, v0, e1, e2):
    """Assert the kernel's hits and their (t, u, v) equal the oracle's bitwise."""
    rows = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (o, d, v0, e1, e2)]
    rows = [np.broadcast_to(a, (max(len(r) for r in rows), 3)).copy() for a in rows]
    t, u, v, hit = oracle_moller_trumbore(*rows)
    idx, kt, ku, kv = _moller_trumbore(*(np.ascontiguousarray(a.T) for a in rows))
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


@pytest.fixture(scope="module")
def meshes():
    scene = assemble_scene(48, SceneConfig())
    return {
        "icosphere": icosphere(3, radius=0.5),
        "vessel": scene.vessel,
        "content": scene.content,
        "opening": scene.opening,
        "ground": scene.ground_plane.to_mesh(),
    }


def _subtree_ranges(bvh) -> dict:
    """Node -> [lo, hi) of its triangles in ``tri_order``, walking from the root."""
    ranges = {}

    def walk(node):
        if bvh.count[node] > 0:
            ranges[node] = (int(bvh.start[node]), int(bvh.start[node] + bvh.count[node]))
        else:
            (lo, mid), (mid2, hi) = walk(bvh.left[node]), walk(bvh.right[node])
            assert mid == mid2  # children cover adjacent ranges
            ranges[node] = (lo, hi)
        return ranges[node]

    walk(0)
    return ranges


@pytest.mark.parametrize("name", ["icosphere", "vessel", "content", "opening", "ground"])
class TestStructure:
    def test_every_triangle_in_exactly_one_leaf(self, meshes, name):
        bvh = build_bvh(meshes[name])
        leaves = np.flatnonzero(bvh.count > 0)
        in_leaves = np.concatenate(
            [bvh.tri_order[bvh.start[i]:bvh.start[i] + bvh.count[i]] for i in leaves]
        )
        np.testing.assert_array_equal(np.sort(in_leaves), np.arange(bvh.num_triangles))

    def test_leaf_sizes(self, meshes, name):
        bvh = build_bvh(meshes[name])
        leaf = bvh.count > 0
        assert np.all(bvh.count[leaf] <= LEAF_SIZE)
        assert np.all((bvh.left[leaf] == -1) & (bvh.right[leaf] == -1))

    def test_node_boxes_are_unions_of_their_triangles(self, meshes, name):
        mesh = meshes[name]
        bvh = build_bvh(mesh)
        corners = mesh.vertices[mesh.triangles]
        ranges = _subtree_ranges(bvh)
        assert sorted(ranges) == list(range(len(bvh.left)))  # every node reached once
        for node, (lo, hi) in ranges.items():
            tris = corners[bvh.tri_order[lo:hi]]
            np.testing.assert_array_equal(bvh.bounds_min[node], tris.min(axis=(0, 1)))
            np.testing.assert_array_equal(bvh.bounds_max[node], tris.max(axis=(0, 1)))

    def test_node_count(self, meshes, name):
        bvh = build_bvh(meshes[name])
        assert len(bvh.left) == 2 * int((bvh.count > 0).sum()) - 1

    def test_matches_recursive_build(self, meshes, name):
        bvh = build_bvh(meshes[name])
        order, leaves = oracle_bvh_leaves(meshes[name], LEAF_SIZE)
        np.testing.assert_array_equal(bvh.tri_order, order)
        leaf = bvh.count > 0
        assert sorted(zip(bvh.start[leaf].tolist(), bvh.count[leaf].tolist())) == leaves


def test_scene_48_vessel_node_count(meshes):
    assert len(build_bvh(meshes["vessel"]).left) == 4095


def _grid_mesh(rng, n_tris: int) -> TriMesh:
    """Triangles with corners on a 0.25 grid, so boxes share slab planes."""
    corners = rng.integers(-4, 5, (n_tris, 3, 3)) * 0.25
    normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    corners = corners[np.linalg.norm(normal, axis=1) > 1e-6]
    if not len(corners):
        corners = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    return TriMesh(corners.reshape(-1, 3), np.arange(corners.size // 3).reshape(-1, 3), "content")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tris=st.integers(1, 48))
def test_bvh_equals_brute_force_on_random_meshes(seed, n_tris):
    rng = np.random.default_rng(seed)
    mesh = _grid_mesh(rng, n_tris)
    dirs = rng.normal(size=(64, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origins = rng.uniform(-2.0, 2.0, (64, 3))
    # Axis-parallel rays whose origins lie on slab planes: every coordinate
    # is a vertex coordinate (a box face of some node), the ray runs along
    # one axis from outside the mesh or from inside it.
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

    fast = intersect_rays(build_bvh(mesh), origins, dirs)
    slow = intersect_rays_brute(mesh, origins, dirs)
    for got, want in zip(fast, slow):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ── binned camera cast ───────────────────────────────────────────────────

CAST_KINDS = ("pixel", "random", "tiny", "behind", "straddle", "grazing", "along_ray", "strip")


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
    grazing: planes through, or within 1e-15..1e-6 of, the camera center;
    along_ray: an edge on a pixel-center ray; strip: a grid of corners on
    pixel-center rays, two triangles per cell sharing edges.  Returns None
    when every triangle came out degenerate.
    """
    w, h = cam.width, cam.height

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
            p = at(rng.uniform(-2, w + 1, 2), rng.uniform(-2, h + 1, 2), depth(2))
            n = np.cross(p[0], p[1])
            off = rng.choice([0.0, 1e-15, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6])
            q = rng.uniform(0.2, 1.5) * p[0] + rng.uniform(-0.8, 1.5) * p[1]
            c = np.vstack([p, q + off * n / np.linalg.norm(n)])
        elif kind == "along_ray":
            u, v = rng.integers(0, w), rng.integers(0, h)
            other = at(rng.integers(-2, w + 2), rng.integers(-2, h + 2), depth(1))
            c = np.vstack([at(u, v, depth(2)), other])
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
    origins, dirs, _ = camera_rays(cam)
    got = cast_camera_rays(mesh, cam, dirs)
    want = intersect_rays_brute(mesh, origins, dirs)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
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
