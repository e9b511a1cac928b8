"""Map types, depth<->XYZ conversion, and pair-set machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vesselxyz import (
    DepthMap,
    DimensionMismatch,
    EmptyMask,
    InvalidEndpoint,
    InvalidValue,
    PairSet,
    PinholeCamera,
    SegMask,
    TriMesh,
    VesselXyzError,
    XyzMap,
    build_pair_set,
    default_dilations,
    depth_to_xyz,
    masked_points,
    pair_differences,
)
from conftest import (
    dyadic_offset,
    dyadic_xyz,
    oracle_map_accepts,
    oracle_pair_list,
    oracle_triangle_areas,
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
            xyz = depth_to_xyz(depth, cam)
            assert np.array_equal(xyz.valid, depth.valid)
            sel = depth.valid
            assert xyz.coords[..., 2][sel].tobytes() == depth.values[sel].tobytes()


class TestMapTypes:
    def test_depth_map_rejects_nonpositive_valid(self):
        with pytest.raises(InvalidValue, match="must have finite and positive values"):
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

    @pytest.mark.parametrize(
        "field, value",
        [("width", 16.5), ("width", 2.0), ("height", True), ("height", 0), ("width", -2)],
        ids=["fractional-width", "float-width", "bool-height", "zero-height", "negative-width"],
    )
    def test_camera_rejects_non_integer_size(self, field, value):
        params = dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=2)
        params[field] = value
        with pytest.raises(InvalidValue, match="integers"):
            PinholeCamera(**params)

    def test_mesh_rejects_non_finite_vertex(self):
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        vertices[1, 2] = np.nan
        with pytest.raises(InvalidValue):
            TriMesh(vertices, [[0, 1, 2]], "content")

    def test_mesh_rejects_overflowing_area(self):
        # finite corners whose cross product overflows: the area reads inf
        vertices = np.array([[-1e300, 0.0, -1e300], [-1e300, 0.0, 1e300], [1e300, 0.0, 1e300]])
        with pytest.raises(InvalidValue):
            TriMesh(vertices, [[0, 1, 2]], "ground")

    @pytest.mark.parametrize(
        "scale, triangle, accepted",
        [
            (1e-6, [0, 1, 2], True),
            (1e-60, [0, 1, 2], True),
            (1e-90, [0, 1, 2], False),  # the cross product squared, 1e-360, underflows to 0
            (1.0, [0, 1, 3], False),
            (1.0, [0, 1, 1], False),
        ],
        ids=["micrometer", "1e-60", "underflowing", "collinear", "repeated-corner"],
    )
    def test_mesh_keeps_exactly_the_positive_areas(self, scale, triangle, accepted):
        corners = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0]]
        vertices = scale * np.array(corners)
        if accepted:
            assert TriMesh(vertices, [triangle], "vessel").triangle_areas()[0] > 0.0
        else:
            with pytest.raises(InvalidValue, match="positive and finite"):
                TriMesh(vertices, [triangle], "vessel")


# What an invalid pixel may hold on input, and one map's worth of raw arrays.
_INVALID_FILL = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, -3.5, 1e308])


@st.composite
def _raw_map(draw, pixel: tuple, positive: bool):
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shape = (h, w) + pixel
    good = st.floats(1e-300, 1e300) if positive else st.floats(-1e300, 1e300)
    values = draw(arrays(np.float64, shape, elements=good))
    if not positive:
        values[draw(arrays(bool, shape))] = -0.0
    fill = draw(arrays(np.float64, shape, elements=_INVALID_FILL))
    valid = draw(arrays(bool, (h, w)))
    keep = valid[..., None] if pixel else valid
    return np.where(keep, values, fill), valid


def _copy_then_fill(values, valid):
    """The map constructors' former store: a copy, then NaN on invalid pixels."""
    out = np.asarray(values, dtype=np.float64).copy()
    out[~valid] = np.nan
    return out


MAP_KINDS = {"depth": (DepthMap, (), True), "xyz": (XyzMap, (3,), False)}


@pytest.mark.parametrize("kind", MAP_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_map_store_matches_copy_then_fill(kind, data):
    cls, pixel, positive = MAP_KINDS[kind]
    values, valid = data.draw(_raw_map(pixel, positive))
    m = cls(values, valid)
    stored = m.values if cls is DepthMap else m.coords
    assert stored.dtype == np.float64 and stored.flags.c_contiguous
    assert stored.tobytes() == _copy_then_fill(values, valid).tobytes()
    assert np.array_equal(m.valid, valid)
    assert not np.shares_memory(stored, values)

    h, w = valid.shape
    with pytest.raises(DimensionMismatch):  # wrong ndim
        cls(values[..., None], valid)
    with pytest.raises(DimensionMismatch):  # shape mismatch
        cls(values, np.ones((h, w + 1), bool))
    if valid.any():
        r, c = np.argwhere(valid)[data.draw(st.integers(0, int(valid.sum()) - 1))]
        bad = [np.nan, np.inf, -np.inf] + ([0.0, -0.0, -1.0] if positive else [])
        broken = values.copy()
        broken[r, c] = data.draw(st.sampled_from(bad))
        with pytest.raises(InvalidValue, match="valid pixels must have finite"):
            cls(broken, valid)


# Values a valid pixel may hold on input: each side of every rule, subnormals included.
_EDGE_VALUES = st.sampled_from([
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1.7976931348623157e308, -1.0, 0.5,
])


@pytest.mark.parametrize("kind", MAP_KINDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_map_accepts_what_the_gather_rule_accepts(kind, data):
    cls, pixel, positive = MAP_KINDS[kind]
    values, valid = data.draw(_raw_map(pixel, positive))
    edits = data.draw(arrays(bool, values.shape), label="edits")
    values[edits] = data.draw(arrays(np.float64, values.shape, elements=_EDGE_VALUES))[edits]
    if not oracle_map_accepts(values, valid, positive):
        with pytest.raises(InvalidValue, match="valid pixels must have finite"):
            cls(values, valid)
        return
    m = cls(values, valid)
    stored = m.values if cls is DepthMap else m.coords
    want = np.where(valid[..., None] if pixel else valid, values, np.nan)
    assert stored.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), m=st.integers(1, 80))
def test_triangle_areas_match_cross_and_norm_bitwise(seed, n, m):
    rng = np.random.default_rng(seed)
    magnitude = 10.0 ** rng.uniform(-8.0, 8.0, (n, 3))
    vertices = rng.choice([-1.0, 1.0], (n, 3)) * rng.uniform(1.0, 10.0, (n, 3)) * magnitude
    triangles = np.array([rng.choice(n, 3, replace=False) for _ in range(m)])
    want = oracle_triangle_areas(vertices, triangles)
    kept = (want > 0) & (want < np.inf)  # what a mesh may hold
    if not kept.any():
        return
    mesh = TriMesh(vertices, triangles[kept], "vessel")
    assert mesh.triangle_areas().tobytes() == want[kept].tobytes()


def _masked_points_case(name):
    coords = np.arange(24, dtype=np.float64).reshape(2, 4, 3)
    valid = np.ones((2, 4), bool)
    valid[1, 3] = False
    mask = np.zeros((2, 4), bool)
    mask[0, 1] = mask[1, 0] = True
    if name == "size mismatch":  # checked before emptiness
        return XyzMap(coords, valid), SegMask(np.zeros((2, 3), bool))
    if name == "empty mask":  # checked before validity
        return XyzMap(coords, np.zeros((2, 4), bool)), SegMask(np.zeros((2, 4), bool))
    if name == "invalid pixel":
        mask[1, 3] = True
    return XyzMap(coords, valid), SegMask(mask)


@pytest.mark.parametrize("name, error", [
    ("size mismatch", DimensionMismatch),
    ("empty mask", EmptyMask),
    ("invalid pixel", InvalidEndpoint),
])
def test_masked_points_error_contract(name, error):
    with pytest.raises(VesselXyzError) as info:
        masked_points(*_masked_points_case(name))
    assert type(info.value) is error


def test_masked_points_row_major():
    xyz, mask = _masked_points_case("valid")
    np.testing.assert_array_equal(masked_points(xyz, mask), xyz.coords[[0, 1], [1, 0]])


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
            PairSet(first, second, (2, 3))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (-2, 3), (2, -3)])
    def test_nonpositive_shape_rejected(self, shape):
        with pytest.raises(InvalidValue):
            PairSet([], [], shape)

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
            PairSet(first, second, (2, 3))

    def test_grid_corners_accepted(self):
        pairs = PairSet([0, 4], [5, 5], (2, 3))
        assert len(pairs) == 2 and pairs.shape == (2, 3)
        assert len(PairSet([], [], (1, 1))) == 0

    def test_int64_indices_kept_without_copy(self):
        first, second = np.array([0, 4]), np.array([5, 5])
        pairs = PairSet(first, second, (2, 3))
        assert np.shares_memory(pairs.first, first) and np.shares_memory(pairs.second, second)
        pairs = PairSet(np.array([0, 4], np.int32), np.array([5, 5], np.uint8), (2, 3))
        assert pairs.first.dtype == pairs.second.dtype == np.int64


def test_callers_arrays_stay_writeable():
    # Arrays are frozen as read-only views: the caller's arrays keep their
    # flags, while the object's own arrays cannot be written through.
    first, second, mask = np.array([0, 4]), np.array([5, 5]), np.ones((2, 3), bool)
    coords, depth, valid = np.ones((2, 3, 3)), np.ones((2, 3)), np.ones((2, 3), bool)
    made = [
        PairSet(first, second, (2, 3)).first, SegMask(mask).values,
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
            shifted = XyzMap(m.coords + dyadic_offset(rng), m.valid)
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
