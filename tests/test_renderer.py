"""Ray caster vs analytic intersections, BVH equivalence, masks, cleaning."""

import numpy as np
import pytest

from vesselxyz import (
    DepthMap,
    EmptyMask,
    EmptyScene,
    PinholeCamera,
    SegMask,
    TriMesh,
    VesselProfile,
    assemble_scene,
    build_bvh,
    clean_depth,
    depth_to_xyz,
    intersect_rays,
    intersect_rays_brute,
    look_at_camera,
    profile_to_mesh,
    render_depth,
    render_scene,
)
from conftest import icosphere


def down_camera(height_m=1.0, res=32, f=40.0):
    """Camera at (0, h, 0) looking straight down (-Y), X right."""
    rotation = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    eye = np.array([0.0, height_m, 0.0])
    return PinholeCamera(
        fx=f, fy=f, cx=(res - 1) / 2, cy=(res - 1) / 2,
        width=res, height=res,
        rotation=rotation, translation=-rotation @ eye,
    )


def square_patch(y=0.0, half=5.0) -> TriMesh:
    v = np.array([[-half, y, -half], [-half, y, half], [half, y, half], [half, y, -half]])
    return TriMesh(v, np.array([[0, 1, 2], [0, 2, 3]]), "ground")


class TestRenderDepth:
    def test_plane_straight_down_all_depth_one(self):
        # optical-axis depth is constant over the whole plane, unlike ray length
        depth = render_depth(square_patch(0.0), down_camera(1.0))
        assert depth.valid.all()
        np.testing.assert_allclose(depth.values, 1.0, rtol=1e-9)

    def test_icosphere_center_pixel_depth(self):
        # unit sphere 3 m ahead: center ray exits at t = 2; subdivision-4
        # chord error stays under 2e-3
        sphere = icosphere(4, radius=1.0, center=(0.0, 0.0, 3.0))
        cam = PinholeCamera(fx=100.0, fy=100.0, cx=15.5, cy=15.5, width=32, height=32)
        t, tri, _, _ = intersect_rays(build_bvh(sphere), np.zeros(3), [0.0, 0.0, 1.0])
        assert tri[0] >= 0
        assert abs(t[0] - 2.0) <= 2e-3
        depth = render_depth(sphere, cam)
        # the four pixels around the principal point straddle the axis
        center = depth.values[15:17, 15:17]
        assert np.all(np.abs(center - 2.0) <= 2.5e-3)

    def test_miss_everything_invalid(self):
        sphere = icosphere(1, radius=0.5, center=(0.0, 0.0, -5.0))  # behind camera
        cam = PinholeCamera(fx=50.0, fy=50.0, cx=7.5, cy=7.5, width=16, height=16)
        depth = render_depth(sphere, cam)
        assert not depth.valid.any()

    def test_empty_scene_raises(self):
        with pytest.raises(EmptyScene):
            render_depth([], down_camera())

    def test_cylinder_silhouette_width(self):
        # side view: silhouette width in pixels ~ 2 r fx / d
        r, h, d = 0.05, 0.3, 0.6
        prof = VesselProfile((), base_radius=r, height=h, samples=64)
        mesh = profile_to_mesh(prof, 256, 8)
        cam = look_at_camera(
            eye=(0.0, h / 2, d), target=(0.0, h / 2, 0.0),
            fx=300.0, fy=300.0, cx=63.5, cy=63.5, width=128, height=128,
        )
        depth = render_depth(mesh, cam)
        mid_row = depth.valid[64]
        width_px = int(mid_row.sum())
        expected = 2 * r * 300.0 / d
        assert abs(width_px - expected) <= 1.0

    def test_ray_origin_inside_closed_mesh_hits(self):
        sphere = icosphere(2, radius=1.0)
        t, tri, _, _ = intersect_rays(build_bvh(sphere), np.zeros(3), [0.0, 0.0, 1.0])
        assert tri[0] >= 0 and t[0] > 0

    def test_degenerate_direction_rejected(self):
        sphere = icosphere(1, radius=1.0)
        with pytest.raises(ValueError):
            intersect_rays(build_bvh(sphere), np.zeros(3), np.zeros(3))


class TestBvhEquivalence:
    def test_matches_brute_force_on_aimed_rays(self):
        # rays aimed from a shell into the bounding volume so most hit
        rng = np.random.default_rng(50)
        scene = assemble_scene(3)
        tris = scene.vessel.triangles[:2000]
        used = np.unique(tris)
        remap = np.zeros(len(scene.vessel.vertices), dtype=np.int64)
        remap[used] = np.arange(len(used))
        mesh = TriMesh(scene.vessel.vertices[used], remap[tris], "vessel")

        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        center = (lo + hi) / 2
        n = 10000
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        origins = center + dirs * 0.6
        targets = rng.uniform(lo, hi, (n, 3))
        aim = targets - origins
        aim /= np.linalg.norm(aim, axis=1, keepdims=True)

        bvh = build_bvh(mesh)
        t_fast, tri_fast, u_fast, v_fast = intersect_rays(bvh, origins, aim)
        t_slow, tri_slow, u_slow, v_slow = intersect_rays_brute(mesh, origins, aim)
        hit_rate = float((tri_fast >= 0).mean())
        assert hit_rate > 0.5  # the comparison must exercise real hits
        np.testing.assert_array_equal(tri_fast, tri_slow)
        np.testing.assert_array_equal(t_fast, t_slow)
        np.testing.assert_array_equal(u_fast, u_slow)
        np.testing.assert_array_equal(v_fast, v_slow)

    def test_axis_parallel_rays_on_box_boundaries(self):
        # rays running along the disk plane's bounding box must not vanish
        scene = assemble_scene(7)
        bvh = build_bvh(scene.opening)
        rim_y = scene.profile.height
        t, tri, _, _ = intersect_rays(bvh, [0.0, 1.0, 0.0], [0.0, -1.0, 0.0])
        assert tri[0] >= 0
        assert t[0] == pytest.approx(1.0 - rim_y, rel=1e-12)


class TestRenderScene:
    def test_output_consistency(self):
        scene = assemble_scene(9)
        out = render_scene(scene)
        cam = scene.camera
        # XYZ maps are exactly the back-projected depth maps
        np.testing.assert_array_equal(
            out.vessel_xyz.valid, out.vessel_depth.valid
        )
        ref = depth_to_xyz(out.vessel_depth, cam)
        sel = ref.valid
        np.testing.assert_array_equal(out.vessel_xyz.coords[sel], ref.coords[sel])

    def test_content_mask_is_exposed_silhouette(self):
        scene = assemble_scene(9)
        out = render_scene(scene)
        # every pixel whose first no-vessel hit is the content belongs to the mask
        assert np.all(out.content_mask.values[out.content_depth.valid])
        assert out.content_mask.count >= int(out.content_depth.valid.sum())

    def test_vessel_mask_superset_of_first_hits(self):
        scene = assemble_scene(12)
        out = render_scene(scene)
        assert np.all(out.vessel_mask.values[out.vessel_depth.valid])

    def test_empty_content_scene(self):
        # fill fraction 0 -> no liquid -> content maps empty
        from vesselxyz import SceneConfig

        config = SceneConfig(fill_fraction=(0.0, 0.0))
        scene = assemble_scene(4, config)
        assert scene.content.is_empty
        out = render_scene(scene)
        assert out.content_mask.count == 0
        assert not out.content_depth.valid.any()

    def test_deterministic(self):
        a = render_scene(assemble_scene(6))
        b = render_scene(assemble_scene(6))
        np.testing.assert_array_equal(a.vessel_depth.values[a.vessel_depth.valid],
                                      b.vessel_depth.values[b.vessel_depth.valid])
        np.testing.assert_array_equal(a.content_mask.values, b.content_mask.values)


class TestCleanDepth:
    def _flat_depth(self, res=40, d=0.5):
        return DepthMap(np.full((res, res), d), np.ones((res, res), bool))

    def test_tight_cluster_unchanged(self):
        cam = down_camera(1.0, res=40, f=400.0)  # narrow FOV -> small footprint
        depth = self._flat_depth(40)
        mask = SegMask(np.ones((40, 40), bool))
        cleaned = clean_depth(depth, cam, mask)
        assert np.array_equal(cleaned.valid, depth.valid)

    def test_single_outlier_removed(self):
        cam = down_camera(1.0, res=40, f=400.0)
        values = np.full((40, 40), 0.5)
        values[3, 7] = 0.8  # 30 cm beyond the plane
        depth = DepthMap(values, np.ones((40, 40), bool))
        cleaned = clean_depth(depth, cam, SegMask(np.ones((40, 40), bool)))
        removed = depth.valid & ~cleaned.valid
        assert removed.sum() == 1 and removed[3, 7]

    def test_synthetic_sensor_outliers(self):
        # 1% of pixels pushed 0.3-1.0 m away: all removed, no inliers lost
        rng = np.random.default_rng(60)
        res = 100
        cam = down_camera(1.0, res=res, f=1000.0)
        values = rng.uniform(0.48, 0.52, (res, res))
        outliers = rng.uniform(size=(res, res)) < 0.01
        n_out = int(outliers.sum())
        values[outliers] += rng.uniform(0.3, 1.0, n_out)
        depth = DepthMap(values, np.ones((res, res), bool))
        cleaned = clean_depth(depth, cam, SegMask(np.ones((res, res), bool)))
        removed = depth.valid & ~cleaned.valid
        assert np.array_equal(removed, outliers)

    def test_empty_mask_raises(self):
        cam = down_camera()
        with pytest.raises(EmptyMask):
            clean_depth(self._flat_depth(32), cam, SegMask(np.zeros((32, 32), bool)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_render_scene_matches_brute_force_cast(monkeypatch, seed):
    # Every map of a 48x48 render keeps its bits when each mesh is cast by
    # testing every triangle against every pixel ray instead.
    from vesselxyz import SceneConfig, renderer

    config = SceneConfig(resolution=48, focal_px=SceneConfig().focal_px * 48 / 256)
    scene = assemble_scene(seed, config)
    fast = render_scene(scene)

    cast = []

    def brute_cast(mesh, camera, dirs):
        cast.append(mesh.label)
        return intersect_rays_brute(mesh, np.broadcast_to(camera.center, dirs.shape), dirs)

    monkeypatch.setattr(renderer, "cast_camera_rays", brute_cast)
    slow = render_scene(scene)
    assert sorted(cast) == ["content", "ground", "opening", "vessel"]
    for name in fast.__dataclass_fields__:
        for attr in ("values", "valid", "coords"):
            got, want = getattr(getattr(fast, name), attr, None), getattr(getattr(slow, name), attr, None)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, attr)
    assert fast.vessel_mask.count > 0 and fast.content_mask.count > 0
