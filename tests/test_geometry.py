"""Map types, depth<->XYZ conversion, and pair-set machinery."""

import numpy as np
import pytest

from vesselxyz import (
    DepthMap,
    DimensionMismatch,
    EmptyMask,
    InvalidEndpoint,
    InvalidValue,
    NonPositiveDepth,
    PairSet,
    PinholeCamera,
    SegMask,
    TriMesh,
    XyzMap,
    build_pair_set,
    default_dilations,
    depth_to_xyz,
    pair_differences,
    xyz_to_depth,
)
from conftest import (
    dyadic_offset,
    dyadic_xyz,
    oracle_pair_list,
    random_camera,
    random_depth,
)


def uniform_depth(h, w, d):
    return DepthMap(np.full((h, w), d), np.ones((h, w), bool))


class TestDepthToXyz:
    def test_principal_point_is_optical_axis(self):
        # pixel at (cx, cy) with depth 2 -> (0, 0, 2) for any focal length
        cam = PinholeCamera(fx=123.0, fy=457.0, cx=5.0, cy=3.0, width=16, height=8)
        xyz = depth_to_xyz(uniform_depth(8, 16, 2.0), cam)
        np.testing.assert_array_equal(xyz.coords[3, 5], [0.0, 0.0, 2.0])

    def test_hand_computed_offset_pixel(self):
        # u = cx + 100, fx = 500, depth 1 -> X = 100 * 1 / 500 = 0.2
        cam = PinholeCamera(fx=500.0, fy=500.0, cx=10.0, cy=4.0, width=128, height=8)
        xyz = depth_to_xyz(uniform_depth(8, 128, 1.0), cam)
        np.testing.assert_allclose(xyz.coords[4, 110], [0.2, 0.0, 1.0], rtol=0, atol=1e-15)

    def test_all_invalid_propagates(self):
        cam = PinholeCamera(fx=100.0, fy=100.0, cx=2.0, cy=2.0, width=4, height=4)
        depth = DepthMap(np.full((4, 4), np.nan), np.zeros((4, 4), bool))
        xyz = depth_to_xyz(depth, cam)
        assert not xyz.valid.any()

    def test_dimension_mismatch(self):
        cam = PinholeCamera(fx=100.0, fy=100.0, cx=2.0, cy=2.0, width=4, height=4)
        with pytest.raises(DimensionMismatch):
            depth_to_xyz(uniform_depth(5, 4, 1.0), cam)

    def test_round_trip_100_random_cameras(self):
        rng = np.random.default_rng(1001)
        for _ in range(100):
            cam = random_camera(rng, width=17, height=13)
            depth = random_depth(rng, 13, 17, holes=0.3)
            back = xyz_to_depth(depth_to_xyz(depth, cam), cam)
            assert np.array_equal(back.valid, depth.valid)
            sel = depth.valid
            np.testing.assert_allclose(
                back.values[sel], depth.values[sel], rtol=1e-9, atol=0
            )


class TestXyzToDepth:
    def test_single_pixel(self):
        cam = PinholeCamera(fx=10.0, fy=10.0, cx=0.0, cy=0.0, width=1, height=1)
        xyz = XyzMap(np.array([[[0.0, 0.0, 2.0]]]), np.ones((1, 1), bool))
        assert xyz_to_depth(xyz, cam).values[0, 0] == 2.0

    def test_nonpositive_z_rejected(self):
        cam = PinholeCamera(fx=10.0, fy=10.0, cx=0.0, cy=0.5, width=2, height=2)
        coords = np.ones((2, 2, 3))
        coords[1, 1, 2] = -1.0
        with pytest.raises(NonPositiveDepth):
            xyz_to_depth(XyzMap(coords, np.ones((2, 2), bool)), cam)


class TestMapTypes:
    def test_depth_map_rejects_nonpositive_valid(self):
        with pytest.raises(NonPositiveDepth):
            DepthMap(np.zeros((2, 2)), np.ones((2, 2), bool))

    def test_invalid_pixels_stored_as_nan(self):
        valid = np.array([[True, False]])
        d = DepthMap(np.array([[1.0, 7.0]]), valid)
        assert np.isnan(d.values[0, 1])

    def test_maps_are_frozen(self):
        d = uniform_depth(2, 2, 1.0)
        with pytest.raises(ValueError):
            d.values[0, 0] = 3.0

    def test_camera_rejects_bad_rotation(self):
        bad = np.eye(3)
        bad[0, 0] = 1.1
        with pytest.raises(ValueError):
            PinholeCamera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=2, rotation=bad)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("translation", [0.0, np.nan, 0.0]),
            ("rotation", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.nan]]),
            ("fx", np.inf),
        ],
        ids=["nan-translation", "nan-rotation", "infinite-fx"],
    )
    def test_camera_rejects_non_finite(self, field, value):
        params = dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=2)
        params[field] = value
        with pytest.raises(InvalidValue):
            PinholeCamera(**params)

    def test_mesh_rejects_non_finite_vertex(self):
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        vertices[1, 2] = np.nan
        with pytest.raises(InvalidValue):
            TriMesh(vertices, [[0, 1, 2]], "content")


class TestBuildPairSet:
    def test_two_pixel_mask_single_pair(self):
        pairs = build_pair_set(SegMask(np.ones((1, 2), bool)), [1])
        assert len(pairs) == 1

    def test_3x3_full_mask_dilation_1(self):
        # brute force: 6 horizontal + 6 vertical adjacent in-mask pairs
        pairs = build_pair_set(SegMask(np.ones((3, 3), bool)), [1])
        assert len(pairs) == 12

    def test_dilation_exceeding_extent_gives_no_pairs(self):
        pairs = build_pair_set(SegMask(np.ones((3, 3), bool)), [4])
        assert len(pairs) == 0

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMask):
            build_pair_set(SegMask(np.zeros((3, 3), bool)), [1])

    def test_bad_dilations_rejected(self):
        mask = SegMask(np.ones((3, 3), bool))
        with pytest.raises(ValueError):
            build_pair_set(mask, [2, 1])
        with pytest.raises(ValueError):
            build_pair_set(mask, [0, 1])

    def test_matches_brute_force_scan_ordering_and_set(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            h = int(rng.integers(1, 33))
            w = int(rng.integers(1, 33))
            m = rng.uniform(size=(h, w)) < rng.uniform(0.2, 1.0)
            if not m.any():
                m[0, 0] = True
            dil = sorted(rng.choice([1, 2, 3, 4, 5, 8], size=3, replace=False))
            pairs = build_pair_set(SegMask(m), dil)
            expected = oracle_pair_list(SegMask(m), dil)
            got = list(zip(pairs.first.tolist(), pairs.second.tolist()))
            assert got == expected  # ordering contract, implies set equality
            assert len(set(got)) == len(got)  # no duplicates
            assert not any((b, a) in set(got) for a, b in got if a != b)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h, w = int(rng.integers(2, 20)), int(rng.integers(2, 20))
            m = rng.uniform(size=(h, w)) < 0.7
            if not m.any():
                m[0, 0] = True
            pairs = build_pair_set(SegMask(m), [1, 3])
            pairs_t = build_pair_set(SegMask(m.T), [1, 3])
            assert len(pairs) == len(pairs_t)

    def test_default_dilations_clip_to_extent(self):
        assert default_dilations(16, 16) == (1, 2, 4, 8)
        assert default_dilations(256, 256) == (1, 2, 4, 8, 16, 32, 64)


class TestPairSet:
    @pytest.mark.parametrize("first, second", [
        ([-1, 0], [0, 1]),  # would wrap to the last pixel
        ([0, 1], [1, -6]),
        ([0, 6], [1, 2]),  # one past the 2x3 grid
        ([0, 1], [1, 2**40]),
    ])
    def test_out_of_range_index_rejected(self, first, second):
        with pytest.raises(InvalidValue):
            PairSet(first, second, (1,), (2, 3))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (-2, 3), (2, -3)])
    def test_nonpositive_shape_rejected(self, shape):
        with pytest.raises(InvalidValue):
            PairSet([], [], (1,), shape)

    @pytest.mark.parametrize("first, second", [
        ([0.5, 1.7], [1, 2]),  # would truncate to [0, 1]
        ([0, 1], [1.0, 2.0]),
        ([True, False], [1, 2]),
        ([0, 1], [1, object()]),
        ([0, 1], [1, 2**63]),  # does not fit in int64
        ([0, 1], [1, 2**64]),
    ])
    def test_non_integer_index_rejected(self, first, second):
        with pytest.raises(InvalidValue):
            PairSet(first, second, (1,), (2, 3))

    def test_grid_corners_accepted(self):
        pairs = PairSet([0, 4], [5, 5], (1,), (2, 3))
        assert len(pairs) == 2 and pairs.shape == (2, 3)
        assert len(PairSet([], [], (1,), (1, 1))) == 0

    def test_int64_indices_kept_without_copy(self):
        first, second = np.array([0, 4]), np.array([5, 5])
        pairs = PairSet(first, second, (1,), (2, 3))
        assert np.shares_memory(pairs.first, first) and np.shares_memory(pairs.second, second)
        pairs = PairSet(np.array([0, 4], np.int32), np.array([5, 5], np.uint8), (1,), (2, 3))
        assert pairs.first.dtype == pairs.second.dtype == np.int64


def test_callers_arrays_stay_writeable():
    # Arrays are frozen as read-only views: the caller's arrays keep their
    # flags, while the object's own arrays cannot be written through.
    first, second, mask = np.array([0, 4]), np.array([5, 5]), np.ones((2, 3), bool)
    coords, depth, valid = np.ones((2, 3, 3)), np.ones((2, 3)), np.ones((2, 3), bool)
    made = [
        PairSet(first, second, (1,), (2, 3)).first, SegMask(mask).values,
        XyzMap(coords, valid).valid, DepthMap(depth, valid).valid,
    ]
    for a in (first, second, mask, coords, depth, valid):
        assert a.flags.writeable
    assert np.shares_memory(made[0], first) and np.shares_memory(made[1], mask)
    for a in made:
        assert not a.flags.writeable
    first[0] = 1
    assert made[0][0] == 1  # a view, not a copy


class TestPairDifferences:
    def test_constant_map_zero_differences(self):
        m = XyzMap(np.full((2, 3, 3), 1.5), np.ones((2, 3), bool))
        pairs = build_pair_set(SegMask(np.ones((2, 3), bool)), [1])
        assert np.all(pair_differences(m, pairs) == 0.0)

    def test_two_pixel_hand_values(self):
        coords = np.zeros((1, 2, 3))
        coords[0, 0] = (0.5, -1.0, 0.0)
        coords[0, 1] = (0.5, -1.0, 4.0)
        m = XyzMap(coords, np.ones((1, 2), bool))
        pairs = build_pair_set(SegMask(np.ones((1, 2), bool)), [1])
        d = pair_differences(m, pairs)
        np.testing.assert_array_equal(d, [[0.0, 0.0, -4.0]])

    def test_translation_cancels_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = dyadic_xyz(rng, 6, 7)
            pairs = build_pair_set(SegMask(np.ones((6, 7), bool)), [1, 2])
            shifted = m.shifted(dyadic_offset(rng))
            assert np.array_equal(
                pair_differences(m, pairs), pair_differences(shifted, pairs)
            )

    def test_invalid_endpoint_rejected(self):
        coords = np.ones((1, 2, 3))
        valid = np.array([[True, True]])
        m = XyzMap(coords, np.array([[True, False]]))
        pairs = build_pair_set(SegMask(valid), [1])
        with pytest.raises(InvalidEndpoint):
            pair_differences(m, pairs)
