"""Profiles, surface-of-revolution meshes, liquid fills, scene assembly."""

import json
import math
import re
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vesselxyz import (
    GenerationFailed,
    InvalidValue,
    LinearTerm,
    MalformedDocument,
    PolynomialTerm,
    ProfileConfig,
    SceneConfig,
    SinusoidTerm,
    VesselProfile,
    assemble_scene,
    flat_liquid_fill,
    generate_profile,
    opening_plane,
    profile_to_mesh,
)
from conftest import (
    enclosed_volume,
    oracle_content_mesh,
    oracle_opening_mesh,
    oracle_vessel_mesh,
    oracle_world_to_camera,
    scene_violations,
    surface_area,
)

CLEARANCE = 1e-4


def cylinder(radius=1.0, height=2.0, samples=1024):
    return VesselProfile(terms=(), base_radius=radius, height=height, samples=samples)


def edge_counts(mesh) -> Counter:
    counts = Counter()
    for a, b, c in mesh.triangles:
        for e in ((a, b), (b, c), (c, a)):
            counts[tuple(sorted(e))] += 1
    return counts


class TestProfiles:
    def test_zero_derivative_is_cylinder(self):
        prof = cylinder(0.04, 0.1)
        hs = np.linspace(0, 0.1, 100)
        np.testing.assert_array_equal(prof.radius(hs), np.full(100, 0.04))

    def test_constant_derivative_is_cone(self):
        # r(h) = base + a*h; trapezoid integration of a constant is exact
        a = 0.3
        prof = VesselProfile((LinearTerm(a),), base_radius=0.05, height=0.2, samples=1024)
        hs = np.linspace(0, 0.2, 500)
        np.testing.assert_allclose(prof.radius(hs), 0.05 + a * hs, rtol=1e-6)

    def test_monomial_derivative_closed_form(self):
        # d r/d h = c * (h/H)^2  ->  r = base + c*H/3 * (h/H)^3
        c, H = 0.3, 0.12
        prof = VesselProfile((PolynomialTerm(c, 2),), 0.05, H, samples=4096)
        hs = np.linspace(0, H, 200)
        expected = 0.05 + c * H / 3.0 * (hs / H) ** 3
        np.testing.assert_allclose(prof.radius(hs), expected, rtol=1e-5, atol=1e-12)

    def test_sinusoid_term_integrates(self):
        A, f, H = 0.02, 2.0, 0.1
        prof = VesselProfile((SinusoidTerm(A, f, 0.0),), 0.05, H, samples=8192)
        # integral of A sin(2 pi f h/H) dh = A H/(2 pi f) (1 - cos(2 pi f u))
        hs = np.linspace(0, H, 100)
        expected = 0.05 + A * H / (2 * math.pi * f) * (1 - np.cos(2 * math.pi * f * hs / H))
        np.testing.assert_allclose(prof.radius(hs), expected, rtol=0, atol=1e-9)

    def test_same_seed_bit_identical(self):
        a = generate_profile(123)
        b = generate_profile(123)
        assert a == b  # frozen dataclass equality covers terms and scalars
        np.testing.assert_array_equal(a.radius(np.linspace(0, a.height, 50)),
                                      b.radius(np.linspace(0, b.height, 50)))

    def test_min_radius_respected_on_dense_grid(self):
        config = ProfileConfig()
        for seed in range(40):
            prof = generate_profile(seed, config)
            hs = np.linspace(0.0, prof.height, 10000)
            assert float(np.min(prof.radius(hs))) > config.min_radius

    def test_generation_failed_on_impossible_config(self):
        # base radius already below the positivity floor: every draw fails
        config = ProfileConfig(base_radius=(0.004, 0.004), max_retries=20)
        with pytest.raises(GenerationFailed):
            generate_profile(0, config)

    def test_knot_count_is_capped(self):
        with pytest.raises(InvalidValue, match="profile needs 2 to 1048576 knots, got 1048577"):
            VesselProfile((), 0.05, 0.1, samples=2**20 + 1)

    def test_roundtrip_serialization(self):
        prof = generate_profile(9)
        again = VesselProfile.from_dict(prof.to_dict())
        assert again == prof


class TestProfileToMesh:
    def test_cylinder_lateral_area(self):
        mesh = profile_to_mesh(cylinder(1.0, 2.0), 256, 64)
        lateral = surface_area(mesh) - math.pi * 1.0**2  # subtract bottom cap
        assert lateral == pytest.approx(2 * math.pi * 1.0 * 2.0, rel=1e-3)

    def test_vertices_on_revolution_surface(self):
        prof = generate_profile(5)
        mesh = profile_to_mesh(prof, 48, 32)
        v = mesh.vertices[:-1]  # all but the cap center
        radial = np.sqrt(v[:, 0] ** 2 + v[:, 2] ** 2)
        np.testing.assert_allclose(radial, prof.radius(v[:, 1]), rtol=0, atol=1e-9)

    def test_invalid_resolution(self):
        with pytest.raises(InvalidValue, match="segments, got 2/8"):
            profile_to_mesh(cylinder(), 2, 8)
        with pytest.raises(InvalidValue, match="segments, got 8/1"):
            profile_to_mesh(cylinder(), 8, 1)

    def test_watertight_below_rim(self):
        # every edge shared by exactly 2 triangles except the rim ring,
        # whose edges belong to exactly 1
        mesh = profile_to_mesh(generate_profile(3), 32, 16)
        counts = edge_counts(mesh)
        boundary = [e for e, c in counts.items() if c == 1]
        interior = [e for e, c in counts.items() if c == 2]
        assert len(boundary) == 32  # one open ring at the top
        assert len(boundary) + len(interior) == len(counts)
        rim_height = mesh.vertices[[a for a, _ in boundary], 1]
        np.testing.assert_allclose(rim_height, rim_height.max())


class TestFlatLiquidFill:
    def test_zero_fill_empty(self):
        mesh = flat_liquid_fill(cylinder(), 0.0, 256, 64, CLEARANCE)
        assert mesh.is_empty

    def test_cylinder_volume_closed_form(self):
        r, height, f = 1.0, 2.0, 0.5
        mesh = flat_liquid_fill(cylinder(r, height), f, 256, 64, CLEARANCE)
        assert enclosed_volume(mesh) == pytest.approx(
            math.pi * r * r * f * height, rel=5e-3
        )

    def test_desk_scale_volume_with_clearance(self):
        # at labware scale the wall clearance matters; compare against the
        # closed form of the shrunken solid exactly as constructed
        r, height, f = 0.04, 0.12, 0.6
        mesh = flat_liquid_fill(cylinder(r, height), f, 256, 64, CLEARANCE)
        rr = r - CLEARANCE
        hh = (f * height - CLEARANCE) - CLEARANCE
        assert enclosed_volume(mesh) == pytest.approx(math.pi * rr * rr * hh, rel=2e-4)

    def test_full_fill_top_at_rim_minus_clearance(self):
        prof = generate_profile(17)
        mesh = flat_liquid_fill(prof, 1.0, 256, 64, CLEARANCE)
        assert mesh.vertices[:, 1].max() == pytest.approx(
            prof.height - CLEARANCE, abs=1e-12
        )

    def test_volume_monotone_in_fill(self):
        prof = generate_profile(8)
        vols = [
            enclosed_volume(flat_liquid_fill(prof, f, 64, 32, CLEARANCE))
            for f in np.linspace(0.0, 1.0, 11)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(vols, vols[1:]))

    def test_liquid_mesh_closed(self):
        mesh = flat_liquid_fill(generate_profile(2), 0.7, 32, 16, CLEARANCE)
        assert all(c == 2 for c in edge_counts(mesh).values())


class TestOpeningPlane:
    def test_disk_area(self):
        disk = opening_plane(cylinder(1.0, 2.0), 256)
        assert surface_area(disk) == pytest.approx(math.pi, rel=1e-3)

    def test_all_vertices_at_rim_height(self):
        prof = generate_profile(11)
        disk = opening_plane(prof, 64)
        np.testing.assert_array_equal(disk.vertices[:, 1], np.full(65, prof.height))

    def test_radius_matches_rim(self):
        prof = generate_profile(13)
        disk = opening_plane(prof, 64)
        radial = np.sqrt(disk.vertices[:, 0] ** 2 + disk.vertices[:, 2] ** 2)
        assert abs(radial.max() - prof.rim_radius) <= 1e-12


class TestMeshOrder:
    """Vertex and triangle bytes match the one-quad-at-a-time oracles."""

    @staticmethod
    def assert_same_bytes(mesh, expected):
        vertices, triangles = expected
        assert mesh.vertices.tobytes() == vertices.tobytes()
        assert mesh.triangles.tobytes() == triangles.tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("angular, vertical", [(3, 2), (5, 3), (96, 48)])
    def test_vessel_content_opening(self, seed, angular, vertical):
        prof = generate_profile(seed)
        self.assert_same_bytes(
            profile_to_mesh(prof, angular, vertical), oracle_vessel_mesh(prof, angular, vertical)
        )
        for fill in (0.0, 0.35, 1.0):  # 0.0 leaves no room for the clearance: empty
            self.assert_same_bytes(
                flat_liquid_fill(prof, fill, angular, vertical, CLEARANCE),
                oracle_content_mesh(prof, fill, angular, vertical, CLEARANCE),
            )
        self.assert_same_bytes(opening_plane(prof, angular), oracle_opening_mesh(prof, angular))


@pytest.mark.parametrize(
    "field, cap",
    [("resolution", 8192), ("angular_segments", 8192), ("vertical_segments", 8192),
     ("profile.samples", 2**20), ("profile.max_retries", 10_000), ("profile.term_count", 64),
     ("profile.poly_degrees", 1024), ("camera_distance", 1e6), ("ground_half_extent", 1e6),
     ("profile.height", 1e6), ("profile.base_radius", 1e6), ("profile.linear_slope", 1e6),
     ("profile.poly_coefficient", 1e6), ("profile.sin_amplitude_scale", 1e6),
     ("profile.sin_frequency", 1e6), ("camera_elevation_deg", 1e6), ("camera_azimuth_deg", 1e6)],
)
def test_config_size_fields_are_capped(field, cap):
    def doc(value):
        default = SceneConfig().to_dict()
        for key in field.split("."):
            default = default[key]
        if isinstance(default, tuple):  # a range: both ends are checked
            value = [1, value]
        for key in reversed(field.split(".")):
            value = {key: value}
        return value

    SceneConfig.from_dict(doc(cap))  # a config builds no mesh or image, so this allocates nothing
    with pytest.raises(MalformedDocument, match=rf"'{field}': must lie in \[.+, {cap}\]"):
        SceneConfig.from_dict(doc(cap + 1))


@pytest.mark.parametrize(
    "field", ["linear_slope", "poly_coefficient", "sin_amplitude_scale", "sin_frequency"]
)
def test_config_signed_profile_fields_are_capped_below(field):
    SceneConfig.from_dict({"profile": {field: [-1e6, 0.0]}})
    with pytest.raises(MalformedDocument, match=rf"'profile.{field}': must lie in \[-1000000.0, "):
        SceneConfig.from_dict({"profile": {field: [-1e6 - 1, 0.0]}})


@pytest.mark.parametrize(
    "inside, outside, field, bounds",
    [
        ({"camera_elevation_deg": [-1e6, 0]}, {"camera_elevation_deg": [-1e6 - 1, 0]},
         "camera_elevation_deg", "[-1000000.0, 1000000.0]"),
        ({"camera_azimuth_deg": [-1e6, 0]}, {"camera_azimuth_deg": [-1e6 - 1, 0]},
         "camera_azimuth_deg", "[-1000000.0, 1000000.0]"),
        ({"wall_clearance": 1e-6}, {"wall_clearance": 9e-7}, "wall_clearance", "[1e-06, 1000000.0]"),
        ({"profile": {"min_radius": 2e-6}, "wall_clearance": 1e-6},
         {"profile": {"min_radius": 9e-7}}, "profile.min_radius", "[1e-06, 1000000.0]"),
        ({"profile": {"base_radius": [1e-6, 0.08]}}, {"profile": {"base_radius": [9e-7, 0.08]}},
         "profile.base_radius", "[1e-06, 1000000.0]"),
        # the cross-field rules keep both below base_radius[1], itself at most 1e6
        ({"wall_clearance": 0.5, "profile": {"min_radius": 1.0, "base_radius": [1, 1e6]}},
         {"wall_clearance": 1e6 + 1}, "wall_clearance", "[1e-06, 1000000.0]"),
        ({"profile": {"min_radius": 999_999.0, "base_radius": [1, 1e6]}},
         {"profile": {"min_radius": 1e6 + 1}}, "profile.min_radius", "[1e-06, 1000000.0]"),
    ],
    ids=["elevation-floor", "azimuth-floor", "clearance-floor", "min-radius-floor",
         "base-radius-floor", "clearance-cap", "min-radius-cap"],
)
def test_config_field_outside_its_bounds_is_named(inside, outside, field, bounds):
    SceneConfig.from_dict(inside)
    with pytest.raises(MalformedDocument, match=re.escape(f"'{field}': must lie in {bounds}")):
        SceneConfig.from_dict(outside)


def test_every_numeric_config_field_has_closed_finite_bounds():
    for cls in (SceneConfig, ProfileConfig):
        for f in fields(cls):
            if f.name == "profile":
                continue
            assert "bounds" in f.metadata, f.name
            low, high = f.metadata["bounds"]
            assert math.isfinite(low) and math.isfinite(high), f.name
            default = getattr(cls(), f.name)
            values = default if isinstance(default, tuple) else [default]
            assert all(low <= v <= high for v in values), f.name


def _within(default, bounds):
    """JSON values of the default's type and shape that lie in the closed ``bounds``."""
    low, high = bounds
    if isinstance(default, tuple):  # a [low, high] range, -0.0 sorted before 0.0
        return st.lists(_within(default[0], bounds), min_size=2, max_size=2).map(
            lambda pair: sorted(pair, key=lambda v: (v, math.copysign(1, v)))
        )
    integers = st.integers(math.ceil(low), math.floor(high))
    return integers if isinstance(default, int) else st.one_of(st.floats(low, high), integers)


def _in_range(cls):
    """Every field of ``cls`` but a nested config, each drawn within its declared range.

    Deferred, so a field without a range fails this test and not the module's collection.
    """
    return st.deferred(lambda: st.fixed_dictionaries({
        f.name: _within(getattr(cls(), f.name), f.metadata["bounds"])
        for f in fields(cls) if f.name != "profile"
    }))


@settings(max_examples=200, deadline=None)
@given(scene=_in_range(SceneConfig), profile=_in_range(ProfileConfig))
def test_config_in_range_survives_json_round_trip(scene, profile):
    # the cross-field rules, wall_clearance < profile.min_radius < profile.base_radius[1],
    # met by sorting three draws from the one length range these fields share
    low, top = profile["base_radius"]
    clearance, limit, top = sorted([scene["wall_clearance"], profile["min_radius"], top])
    assume(clearance < limit < top)
    profile = {**profile, "min_radius": limit, "base_radius": [low, top]}
    doc = {"profile": profile, **scene, "wall_clearance": clearance}
    text = json.dumps(doc, sort_keys=True)  # the draws do not keep the fields' order
    assert json.dumps(SceneConfig.from_dict(json.loads(text)).to_dict(), sort_keys=True) == text


class TestAssembleScene:
    def test_same_seed_bit_identical(self):
        a = assemble_scene(42)
        b = assemble_scene(42)
        np.testing.assert_array_equal(a.vessel.vertices, b.vessel.vertices)
        np.testing.assert_array_equal(a.content.vertices, b.content.vertices)
        np.testing.assert_array_equal(a.camera.rotation, b.camera.rotation)
        assert a.fill_fraction == b.fill_fraction
        assert a.vessel_material == b.vessel_material

    def test_invariants_over_100_seeds(self):
        failures = []
        for seed in range(100):
            scene = assemble_scene(seed)
            problems = scene_violations(scene)
            if problems:
                failures.append((seed, problems))
        assert not failures, failures

    def test_zero_width_camera_ranges(self):
        config = SceneConfig(
            camera_distance=(0.5, 0.5),
            camera_elevation_deg=(30.0, 30.0),
            camera_azimuth_deg=(45.0, 45.0),
        )
        a = assemble_scene(1, config)
        b = assemble_scene(2, config)
        # different seeds, same pose offsets relative to each vessel centroid
        off_a = a.camera.center - a.vessel.centroid()
        off_b = b.camera.center - b.vessel.centroid()
        np.testing.assert_allclose(off_a, off_b, atol=1e-12)

    def test_materials_in_range(self):
        scene = assemble_scene(77)
        for m in (scene.vessel_material, scene.content_material):
            assert all(0.0 <= c <= 1.0 for c in m.rgb)
            assert 1.0 <= m.ior_physical <= 2.0

    def test_camera_looks_at_vessel(self):
        scene = assemble_scene(21)
        target_cam = oracle_world_to_camera(scene.camera, scene.vessel.centroid())
        # the look-at target sits on the optical axis, ahead of the camera
        assert target_cam[2] > 0
        assert abs(target_cam[0]) < 1e-9
        assert abs(target_cam[1]) < 1e-9
