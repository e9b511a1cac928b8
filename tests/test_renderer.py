"""Ray casters vs analytic intersections, the cast vs brute force, masks, cleaning."""

import numpy as np
import pytest

from vesselxyz import (
    DepthMap,
    EmptyMask,
    GroundPlane,
    InvalidValue,
    MaterialVector,
    PinholeCamera,
    SceneRecord,
    SegMask,
    TriMesh,
    VesselProfile,
    assemble_scene,
    clean_depth,
    depth_to_xyz,
    intersect_rays_brute,
    look_at_camera,
    profile_to_mesh,
    render_scene,
)
from vesselxyz.bvh import cast_camera_rays
from vesselxyz.renderer import camera_rays
from conftest import cast_depth, icosphere, oracle_camera_rays, oracle_difference_mask, random_rotation


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
        depth = cast_depth(square_patch(0.0), down_camera(1.0))
        assert depth.valid.all()
        np.testing.assert_allclose(depth.values, 1.0, rtol=1e-9)

    def test_icosphere_center_pixel_depth(self):
        # unit sphere 3 m ahead: center ray exits at t = 2; subdivision-4
        # chord error stays under 2e-3
        sphere = icosphere(4, radius=1.0, center=(0.0, 0.0, 3.0))
        cam = PinholeCamera(fx=100.0, fy=100.0, cx=15.5, cy=15.5, width=32, height=32)
        t, tri, _, _ = intersect_rays_brute(sphere, np.zeros(3), [0.0, 0.0, 1.0])
        assert tri[0] >= 0
        assert abs(t[0] - 2.0) <= 2e-3
        depth = cast_depth(sphere, cam)
        # the four pixels around the principal point straddle the axis
        center = depth.values[15:17, 15:17]
        assert np.all(np.abs(center - 2.0) <= 2.5e-3)

    def test_miss_everything_invalid(self):
        sphere = icosphere(1, radius=0.5, center=(0.0, 0.0, -5.0))  # behind camera
        cam = PinholeCamera(fx=50.0, fy=50.0, cx=7.5, cy=7.5, width=16, height=16)
        depth = cast_depth(sphere, cam)
        assert not depth.valid.any()

    def test_empty_scene_raises(self):
        cam = down_camera()
        with pytest.raises(InvalidValue, match="cannot intersect an empty mesh"):
            cast_camera_rays(TriMesh([], [], "content"), cam, camera_rays(cam)[1])

    def test_cylinder_silhouette_width(self):
        # side view: silhouette width in pixels ~ 2 r fx / d
        r, h, d = 0.05, 0.3, 0.6
        prof = VesselProfile((), base_radius=r, height=h, samples=64)
        mesh = profile_to_mesh(prof, 256, 8)
        cam = look_at_camera((0.0, h / 2, d), (0.0, h / 2, 0.0), focal_px=300.0, resolution=128)
        depth = cast_depth(mesh, cam)
        mid_row = depth.valid[64]
        width_px = int(mid_row.sum())
        expected = 2 * r * 300.0 / d
        assert abs(width_px - expected) <= 1.0

    def test_ray_origin_inside_closed_mesh_hits(self):
        sphere = icosphere(2, radius=1.0)
        t, tri, _, _ = intersect_rays_brute(sphere, np.zeros(3), [0.0, 0.0, 1.0])
        assert tri[0] >= 0 and t[0] > 0

    def test_degenerate_direction_rejected(self):
        sphere = icosphere(1, radius=1.0)
        with pytest.raises(ValueError):
            intersect_rays_brute(sphere, np.zeros(3), np.zeros(3))

    def test_ray_through_the_opening_fan_center(self):
        # straight down onto the flat opening disk, through the vertex every fan triangle shares
        scene = assemble_scene(7)
        rim_y = scene.profile.height
        t, tri, _, _ = intersect_rays_brute(scene.opening, [0.0, 1.0, 0.0], [0.0, -1.0, 0.0])
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


def tie_scene(vessel, content, ground=GroundPlane(5.0)) -> SceneRecord:
    """A hand-built scene under ``down_camera()``; the opening floats aside."""
    opening = TriMesh(square_patch(0.9, 0.05).vertices, [[0, 1, 2], [0, 2, 3]], "opening")
    material = MaterialVector((0.0, 0.0, 0.0), 0.0, 0.0, 0.0, 0.0)
    return SceneRecord(
        seed=0, profile=VesselProfile((), 0.05, 0.1, 8), vessel=vessel, content=content,
        opening=opening, ground_plane=ground, camera=down_camera(), vessel_material=material,
        content_material=material, fill_fraction=0.0,
    )


def relabeled(mesh: TriMesh, label: str) -> TriMesh:
    return TriMesh(mesh.vertices, mesh.triangles, label)


class TestRaysAndMasks:
    @pytest.mark.parametrize("seed", range(12))
    def test_camera_rays_match_oracle_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        w, h = [(1, 37), (29, 1), (1, 1)][seed] if seed < 3 else rng.integers(1, 80, 2)
        # principal points on either edge, at the center or anywhere
        cx, cy = (float(rng.choice([0.0, n - 1e-9, (n - 1) / 2, rng.uniform(0, n)]))
                  for n in (w, h))
        cam = PinholeCamera(float(10 ** rng.uniform(0, 3)), float(10 ** rng.uniform(0, 3)),
                            cx, cy, int(w), int(h), random_rotation(rng), rng.uniform(-3, 3, 3))
        got, want = camera_rays(cam), oracle_camera_rays(cam)
        for g, x in zip(got, want):
            assert g.shape == x.shape and g.dtype == x.dtype and g.tobytes() == x.tobytes()
        origins, dirs, _ = got
        assert not origins.flags.writeable
        assert dirs.T.flags.c_contiguous  # per-axis rows for the cast

    @pytest.mark.parametrize("seed", range(6))
    def test_difference_mask_matches_oracle_bitwise(self, seed):
        from vesselxyz.renderer import MASK_DEPTH_EPS, _difference_mask

        rng = np.random.default_rng(seed)
        h, w = rng.integers(1, 40, 2)
        n = h * w
        t1 = rng.uniform(0.1, 10.0, n)
        # equal, within and just past the epsilon, and far moves
        step = rng.choice([0.0, MASK_DEPTH_EPS / 2, MASK_DEPTH_EPS, 2 * MASK_DEPTH_EPS, 1.0], n)
        t2 = t1 + step * rng.choice([-1.0, 1.0], n)
        miss = rng.choice(4, n)  # neither, first, second, both rows miss
        t1[(miss == 1) | (miss == 3)] = np.inf
        t2[(miss == 2) | (miss == 3)] = np.inf
        axial = rng.uniform(0.3, 1.0, n)
        got = _difference_mask(t1, t2, axial, (h, w)).values
        want = oracle_difference_mask(t1, t2, axial, MASK_DEPTH_EPS).reshape(h, w)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestCrossMeshTies:
    """At equal t the earlier mesh keeps the pixel: vessel over content over ground."""

    def test_vessel_keeps_tie_with_content(self):
        vessel = relabeled(square_patch(0.5, 0.1), "vessel")
        content = relabeled(vessel, "content")
        tied = cast_depth(vessel, down_camera()).valid
        assert 0 < tied.sum() < tied.size
        out = render_scene(tie_scene(vessel, content))
        np.testing.assert_array_equal(
            out.vessel_depth.values, cast_depth(content, down_camera()).values
        )
        # the content's equal hit does not take the pixel from the vessel, and
        # removing the vessel moves no depth, so its mask stays empty
        np.testing.assert_array_equal(out.vessel_depth.valid, tied)
        assert not out.vessel_mask.values.any()
        np.testing.assert_array_equal(out.content_depth.valid, tied)

    def test_content_keeps_tie_with_ground(self):
        ground = GroundPlane(5.0)
        content = relabeled(ground.to_mesh(), "content")
        out = render_scene(tie_scene(relabeled(square_patch(0.5, 0.1), "vessel"), content, ground))
        np.testing.assert_array_equal(
            out.content_depth.values, cast_depth(ground.to_mesh(), down_camera()).values
        )
        assert out.content_depth.valid.all()
        assert not out.content_mask.values.any()


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
        return intersect_rays_brute(mesh, np.broadcast_to(camera.center, dirs.shape), dirs)[0]

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
