"""Evaluation metrics: hand fixtures, statistical calibration, oracles."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselxyz import (
    DegenerateGT,
    DimensionMismatch,
    EmptyMask,
    EmptySet,
    InvalidEndpoint,
    InvalidValue,
    MaterialVector,
    SegMask,
    TooFewPoints,
    VesselXyzError,
    XyzMap,
    chamfer,
    evaluate_xyz,
    mad,
    mae_points,
    material_mae,
    masked_points,
    max_dst,
    r_squared,
    seg_eval,
    similarity_from_region,
)
from vesselxyz.metrics import _nearest
from conftest import (
    oracle_chamfer,
    oracle_mad,
    oracle_mae,
    oracle_max_dst,
    oracle_r_squared,
    random_mask,
    random_rotation,
    random_xyz,
)


def full_mask(h, w):
    return SegMask(np.ones((h, w), bool))


def brute_max_dst(pts) -> float:
    """Diameter over every pair, in the oracle's ((dx^2 + dy^2) + dz^2) order."""
    pts = np.asarray(pts, dtype=np.float64)
    best = 0.0
    rows = max(1, (1 << 20) // len(pts))
    for i in range(0, len(pts), rows):
        d = pts[i : i + rows, None, :] - pts[None, :, :]
        x, y, z = d[..., 0], d[..., 1], d[..., 2]
        best = max(best, float(np.max((x * x + y * y) + z * z)))
    return math.sqrt(best)


def assert_exact_diameter(pts):
    m, mask = points_map(pts)
    assert max_dst(m, mask) == brute_max_dst(pts)


def points_map(pts) -> tuple:
    """Pack an (N, 3) point list into a 1xN map with a full mask."""
    pts = np.asarray(pts, dtype=np.float64)
    coords = pts[None, :, :]
    valid = np.ones((1, len(pts)), bool)
    return XyzMap(coords, valid), SegMask(valid)


class TestMaePoints:
    def test_identity_zero(self):
        rng = np.random.default_rng(0)
        m = random_xyz(rng, 6, 6)
        assert mae_points(m, m, full_mask(6, 6)) == 0.0

    def test_constant_offset_345(self):
        rng = np.random.default_rng(1)
        gt = random_xyz(rng, 6, 6)
        pred = XyzMap(gt.coords + np.array([3.0, 4.0, 0.0]), gt.valid)
        assert mae_points(pred, gt, full_mask(6, 6)) == pytest.approx(5.0, rel=1e-12)

    def test_gaussian_noise_chi3_mean(self):
        # E||N(0, sigma I_3)|| = sigma * 2 * sqrt(2/pi); checked against an
        # independent Monte Carlo draw as well as the closed form
        rng = np.random.default_rng(2)
        sigma = 0.01
        h = w = 350  # 122500 pixels
        gt = random_xyz(rng, h, w, scale=1.0)
        pred = XyzMap(gt.coords + rng.normal(0.0, sigma, gt.coords.shape), gt.valid)
        got = mae_points(pred, gt, full_mask(h, w))
        closed_form = sigma * 2.0 * math.sqrt(2.0 / math.pi)
        mc = float(
            np.mean(np.linalg.norm(np.random.default_rng(3).normal(0, sigma, (200000, 3)), axis=1))
        )
        assert got == pytest.approx(closed_form, rel=0.02)
        assert got == pytest.approx(mc, rel=0.02)

    def test_empty_mask(self):
        rng = np.random.default_rng(4)
        m = random_xyz(rng, 3, 3)
        with pytest.raises(EmptyMask):
            mae_points(m, m, SegMask(np.zeros((3, 3), bool)))

    def test_rigid_transform_of_both_maps_invariant(self):
        rng = np.random.default_rng(30)
        gt = random_xyz(rng, 6, 6)
        pred = random_xyz(rng, 6, 6)
        mask = full_mask(6, 6)
        r = random_rotation(rng)
        t = rng.uniform(-2, 2, 3)
        gt2 = XyzMap(gt.coords @ r.T + t, gt.valid)
        pred2 = XyzMap(pred.coords @ r.T + t, pred.valid)
        assert mae_points(pred2, gt2, mask) == pytest.approx(
            mae_points(pred, gt, mask), rel=1e-12
        )


def depth_view_cap(n: int, radius: float = 0.08, depth: float = 1.0) -> np.ndarray:
    """A sphere's front seen along +z: one point per pixel of an n x n grid 0.16 m wide."""
    u = np.linspace(-0.08, 0.08, n)
    x, y = (a.ravel() for a in np.meshgrid(u, u))
    inside = x * x + y * y < radius * radius
    x, y = x[inside], y[inside]
    return np.stack([x, y, depth + radius - np.sqrt(radius * radius - x * x - y * y)], axis=1)


def brute_nearest(points, queries) -> np.ndarray:
    """Distance from each query to its nearest point, squares summed as ((x^2 + y^2) + z^2)."""
    out = np.empty(len(queries))
    rows = max(1, (1 << 20) // len(points))
    for i in range(0, len(queries), rows):
        d = points[None, :, :] - queries[i : i + rows, None, :]
        x, y, z = d[..., 0], d[..., 1], d[..., 2]
        out[i : i + rows] = np.sqrt(np.min((x * x + y * y) + z * z, axis=1))
    return out


class TestMad:
    def test_degenerate_single_point_cluster(self):
        m, mask = points_map([(1.0, 2.0, 3.0)] * 4)
        assert mad(m, mask) == 0.0

    def test_two_points_hand_value(self):
        m, mask = points_map([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
        assert mad(m, mask) == 1.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(5)
        gt = random_xyz(rng, 5, 5)
        moved = XyzMap(gt.coords + np.array([0.3, -0.6, 0.9]), gt.valid)
        assert mad(moved, full_mask(5, 5)) == pytest.approx(
            mad(gt, full_mask(5, 5)), rel=1e-12
        )


class TestMaxDst:
    def test_two_points(self):
        m, mask = points_map([(0.0, 0.0, 0.0), (0.0, 7.0, 0.0)])
        assert max_dst(m, mask) == 7.0

    def test_unit_cube_diagonal(self):
        corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        m, mask = points_map(corners)
        assert max_dst(m, mask) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_collinear(self):
        m, mask = points_map([(float(i), 0.0, 0.0) for i in range(4)])
        assert max_dst(m, mask) == 3.0

    def test_too_few_points(self):
        m, mask = points_map([(0.0, 0.0, 0.0)])
        with pytest.raises(TooFewPoints):
            max_dst(m, mask)

    def test_exact_above_old_subsample_cap(self):
        # 5041 points: above the 5000-point cap of the former subsampled path
        rng = np.random.default_rng(6)
        m = random_xyz(rng, 71, 71, scale=1.0)
        expected = oracle_max_dst(m, full_mask(71, 71))
        assert max_dst(m, full_mask(71, 71)) == expected
        assert brute_max_dst(m.coords.reshape(-1, 3)) == expected

    def test_sphere(self):
        rng = np.random.default_rng(30)
        d = rng.normal(size=(4000, 3))
        assert_exact_diameter(d / np.linalg.norm(d, axis=1, keepdims=True))

    def test_cocircular_ring(self):
        # an opening rim: many near-antipodal pairs within rounding of each other
        a = np.linspace(0.0, 2.0 * np.pi, 3001)[:-1]
        ring = np.stack([0.04 * np.cos(a), 0.04 * np.sin(a), np.full_like(a, 0.7)], axis=1)
        assert_exact_diameter(ring @ random_rotation(np.random.default_rng(31)).T)

    def test_duplicated_points(self):
        rng = np.random.default_rng(32)
        pts = np.repeat(rng.uniform(-1.0, 1.0, (500, 3)), 4, axis=0)
        assert_exact_diameter(pts[rng.permutation(len(pts))])

    def test_all_points_coincide_is_zero_and_fast(self):
        # a quadratic pass over 40k points would take seconds
        m, mask = points_map(np.tile([0.25, -1.5, 3.0], (40000, 1)))
        start = time.perf_counter()
        assert max_dst(m, mask) == 0.0
        assert time.perf_counter() - start < 1.0

    def test_collinear_off_axis(self):
        rng = np.random.default_rng(33)
        t = rng.uniform(-2.0, 2.0, (3000, 1))
        assert_exact_diameter(np.array([0.3, -0.1, 1.2]) + t * np.array([0.48, 0.6, 0.64]))

    def test_float32_planar_disk(self):
        rng = np.random.default_rng(34)
        r = 0.05 * np.sqrt(rng.uniform(size=5000))
        a = rng.uniform(0.0, 2.0 * np.pi, 5000)
        disk = np.stack([r * np.cos(a), r * np.sin(a), np.zeros_like(a)], axis=1)
        disk = disk @ random_rotation(rng).T + np.array([0.1, -0.2, 0.9])
        assert_exact_diameter(disk.astype(np.float32).astype(np.float64))

    def test_small_cloud_far_from_origin(self):
        rng = np.random.default_rng(35)
        assert_exact_diameter(1e3 + rng.uniform(0.0, 2e-3, (3000, 3)))

    def test_subnormal_extent(self):
        # the squares underflow to zero, and binning must not overflow
        assert_exact_diameter([[0.0, 0.0, 0.0], [5e-324, 0.0, 0.0], [1e-310, -2e-310, 0.0]])

    def test_uniform_cube(self):
        rng = np.random.default_rng(36)
        assert_exact_diameter(rng.uniform(-1.0, 1.0, (6000, 3)))

    def test_depth_view_cap(self):
        # 2724 points in 672 kept cells: most of the cell pairs are dropped
        # before the rest are sorted
        cap = depth_view_cap(60)
        assert_exact_diameter(cap)
        assert_exact_diameter(cap @ random_rotation(np.random.default_rng(37)).T)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.floats(-1e3, 1e3, allow_subnormal=False)] * 3),
            min_size=2,
            max_size=300,
        ),
        st.randoms(use_true_random=False),
    )
    def test_pixel_permutation_invariant(self, pts, rand):
        m, mask = points_map(pts)
        order = list(range(len(pts)))
        rand.shuffle(order)
        shuffled, _ = points_map([pts[i] for i in order])
        value = max_dst(m, mask)
        assert max_dst(shuffled, mask) == value
        assert value == brute_max_dst(m.coords[0])


class TestRSquared:
    def test_identity_one(self):
        rng = np.random.default_rng(7)
        m = random_xyz(rng, 6, 6)
        assert r_squared(m, m, full_mask(6, 6)) == 1.0

    def test_centroid_predictor_zero(self):
        rng = np.random.default_rng(8)
        gt = random_xyz(rng, 6, 6)
        centroid = gt.coords.reshape(-1, 3).mean(axis=0)
        pred = XyzMap(np.broadcast_to(centroid, gt.coords.shape).copy(), gt.valid)
        assert abs(r_squared(pred, gt, full_mask(6, 6))) < 1e-9

    def test_worse_than_centroid_negative(self):
        rng = np.random.default_rng(9)
        gt = random_xyz(rng, 6, 6, scale=1.0)
        pred = XyzMap(gt.coords + 100.0, gt.valid)
        assert r_squared(pred, gt, full_mask(6, 6)) < 0.0

    def test_coincident_gt_degenerate(self):
        m, mask = points_map([(1.0, 1.0, 1.0)] * 5)
        with pytest.raises(DegenerateGT):
            r_squared(m, m, mask)


class TestChamfer:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-1, 1, (50, 3))
        assert chamfer(pts, pts) == 0.0

    def test_single_pair_two_sided(self):
        assert chamfer(np.array([[3.0, 4.0, 0.0]]), np.array([[0.0, 0.0, 0.0]])) == 10.0

    def test_asymmetric_sets_hand_value(self):
        gt = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        pred = np.array([[0.0, 0.0, 0.0]])
        # forward (gt->pred): (0 + 1)/2 = 0.5; backward: 0
        assert chamfer(pred, gt) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (40, 3))
        b = rng.uniform(-1, 1, (60, 3))
        assert chamfer(a, b) == chamfer(b, a)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, (30, 3))
        b = rng.uniform(-1, 1, (45, 3))
        r = random_rotation(rng)
        t = rng.uniform(-2, 2, 3)
        assert chamfer(a @ r.T + t, b @ r.T + t) == pytest.approx(
            chamfer(a, b), rel=1e-9
        )

    def test_empty_set_raises(self):
        with pytest.raises(EmptySet):
            chamfer(np.empty((0, 3)), np.array([[0.0, 0.0, 0.0]]))

    def test_matches_brute_force_to_1e12(self):
        rng = np.random.default_rng(13)
        for n, m in ((100, 80), (500, 700), (2000, 1500)):
            a = rng.uniform(-1, 1, (n, 3))
            b = rng.uniform(-1, 1, (m, 3))
            assert chamfer(a, b) == pytest.approx(oracle_chamfer(a, b), abs=1e-12)

    @pytest.mark.parametrize("case", ["uniform", "far-offset cap"])
    def test_nearest_distances_match_brute_force_bitwise(self, case):
        rng = np.random.default_rng(14)
        if case == "uniform":
            gt, pred = rng.uniform(-1, 1, (1500, 3)), rng.uniform(-1, 1, (2000, 3))
        else:
            # a 0.16 m depth-view surface and a prediction ~0.4 m behind it,
            # at its center of curvature: from each predicted point, hundreds
            # of surface points lie within 1 mm of the nearest distance
            gt = depth_view_cap(60, radius=0.4)
            pred = 0.1 * (gt - [0.0, 0.0, 1.0]) + [0.0, 0.0, 1.4] + rng.normal(0, 1e-3, gt.shape)
        forward, backward = brute_nearest(pred, gt), brute_nearest(gt, pred)
        assert np.array_equal(_nearest(pred, gt), forward)
        assert np.array_equal(_nearest(gt, pred), backward)
        assert chamfer(pred, gt) == float(np.mean(forward) + np.mean(backward))


class TestAlignPrediction:
    def test_similarity_removed_exactly(self):
        rng = np.random.default_rng(14)
        gt = random_xyz(rng, 10, 10, scale=1.0)
        mask = full_mask(10, 10)
        for s in (0.3, 1.0, 4.0):
            pred = XyzMap(s * gt.coords + np.array([0.5, -1.0, 2.0]), gt.valid)
            aligned = similarity_from_region(pred, gt, mask).apply(pred, mask)
            report = evaluate_xyz(aligned, gt, mask)
            assert report.mae < 1e-9
            assert report.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_identity_unchanged(self):
        rng = np.random.default_rng(15)
        gt = random_xyz(rng, 8, 8)
        mask = full_mask(8, 8)
        aligned = similarity_from_region(gt, gt, mask).apply(gt, mask)
        assert evaluate_xyz(aligned, gt, mask).mae == 0.0

    def test_vessel_reference_keeps_content_offset(self):
        # two disjoint regions in one map: "vessel" left, "content" right.
        # pred matches GT on the vessel but the content is shifted; aligning
        # by the vessel must preserve that placement error, aligning by the
        # content itself must remove it.
        rng = np.random.default_rng(16)
        gt = random_xyz(rng, 12, 12, scale=1.0)
        vessel = np.zeros((12, 12), bool)
        vessel[:, :6] = True
        content = ~vessel
        delta = np.array([0.07, 0.0, 0.0])
        coords = gt.coords.copy()
        coords[content] += delta
        pred = XyzMap(coords, gt.valid)

        vessel, content = SegMask(vessel), SegMask(content)
        by_vessel = similarity_from_region(pred, gt, vessel).apply(pred, content)
        err_vessel = evaluate_xyz(by_vessel, gt, content).mae
        assert err_vessel == pytest.approx(np.linalg.norm(delta), rel=1e-9)

        by_content = similarity_from_region(pred, gt, content).apply(pred, content)
        err_content = evaluate_xyz(by_content, gt, content).mae
        assert err_content < 1e-9

    def test_transform_reusable_across_maps(self):
        rng = np.random.default_rng(17)
        gt = random_xyz(rng, 8, 8)
        pred = XyzMap(2.0 * gt.coords + 0.25, gt.valid)
        mask = full_mask(8, 8)
        transform = similarity_from_region(pred, gt, mask)
        assert transform.k == pytest.approx(0.5, rel=1e-12)
        other = XyzMap(2.0 * gt.coords + 0.25, gt.valid)
        aligned = transform.apply(other, mask)
        assert evaluate_xyz(aligned, gt, mask).mae < 1e-12

    def test_apply_gives_the_transformed_masked_points(self):
        rng = np.random.default_rng(24)
        gt = random_xyz(rng, 9, 7)
        pred = XyzMap(1.7 * gt.coords - 0.3, gt.valid)
        transform = similarity_from_region(pred, gt, full_mask(9, 7))
        mask = random_mask(rng, 9, 7)
        aligned = transform.apply(pred, mask)
        want = transform.k * masked_points(pred, mask) + transform.t
        assert aligned.shape == (mask.count, 3)
        assert aligned.dtype == want.dtype and aligned.tobytes() == want.tobytes()

    def test_apply_rejects_an_invalid_target_pixel(self):
        rng = np.random.default_rng(25)
        gt = random_xyz(rng, 6, 6)
        transform = similarity_from_region(gt, gt, full_mask(6, 6))
        holed = gt.valid.copy()
        holed[2, 3] = False
        with pytest.raises(InvalidEndpoint):
            transform.apply(XyzMap(gt.coords, holed), full_mask(6, 6))


class TestSegEval:
    def test_perfect_match(self):
        rng = np.random.default_rng(18)
        m = random_mask(rng, 10, 10)
        r = seg_eval(m, m)
        assert (r.iou, r.precision, r.recall) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        a = np.zeros((4, 4), bool)
        a[0] = True
        b = np.zeros((4, 4), bool)
        b[2] = True
        assert seg_eval(SegMask(a), SegMask(b)).iou == 0.0

    def test_half_overlap_pixel_counts(self):
        gt = np.zeros((10, 20), bool)
        gt[:5, :] = True  # 100 px
        pred = np.zeros((10, 20), bool)
        pred[:5, :10] = True  # 50 overlapping
        pred[5:, :10] = True  # 50 spurious
        r = seg_eval(SegMask(pred), SegMask(gt))
        assert r.intersection == 50
        assert r.union == 150
        assert r.iou == pytest.approx(1.0 / 3.0)
        assert r.precision == 0.5
        assert r.recall == 0.5

    def test_empty_conventions(self):
        empty = SegMask(np.zeros((3, 3), bool))
        some = SegMask(np.eye(3, dtype=bool))
        both = seg_eval(empty, empty)
        assert (both.iou, both.precision, both.recall) == (1.0, 1.0, 1.0)
        pred_empty = seg_eval(empty, some)
        assert (pred_empty.iou, pred_empty.precision, pred_empty.recall) == (0.0, 0.0, 0.0)
        gt_empty = seg_eval(some, empty)
        assert (gt_empty.iou, gt_empty.precision, gt_empty.recall) == (0.0, 0.0, 0.0)

    def test_swap_exchanges_precision_recall(self):
        rng = np.random.default_rng(19)
        a = random_mask(rng, 16, 16, 0.4)
        b = random_mask(rng, 16, 16, 0.6)
        ab = seg_eval(a, b)
        ba = seg_eval(b, a)
        assert ab.iou == ba.iou
        assert ab.precision == ba.recall
        assert ab.recall == ba.precision
        assert ab.iou <= min(ab.precision, ab.recall) <= 1.0


class TestMaterialMae:
    def test_identical_vectors_zero(self):
        m = MaterialVector((0.1, 0.5, 0.9), 0.3, 0.2, 0.7, 0.4)
        e = material_mae(m, m)
        assert (e.transmission, e.color, e.roughness, e.metallic, e.ior) == (0, 0, 0, 0, 0)

    def test_uniform_offset(self):
        a = MaterialVector((0.2, 0.2, 0.2), 0.2, 0.2, 0.2, 0.2)
        b = MaterialVector((0.3, 0.3, 0.3), 0.3, 0.3, 0.3, 0.3)
        e = material_mae(a, b)
        for v in (e.transmission, e.color, e.roughness, e.metallic, e.ior):
            assert v == pytest.approx(0.1, rel=1e-12)

    def test_rgb_averaging(self):
        a = MaterialVector((0.2, 0.4, 0.9), 0.0, 0.0, 0.0, 0.0)
        b = MaterialVector((0.1, 0.4, 0.6), 0.0, 0.0, 0.0, 0.0)
        assert material_mae(a, b).color == pytest.approx((0.1 + 0.0 + 0.3) / 3.0)

    def test_ior_physical_mapping(self):
        m = MaterialVector.with_physical_ior((0, 0, 0), 0, 0, 0, ior_physical=1.5)
        assert m.ior == 0.5
        assert m.ior_physical == 1.5
        with pytest.raises(ValueError):
            MaterialVector((0, 0, 0), 0, 0, 0, 1.5)


class TestOracleEquivalence:
    def test_metrics_match_naive_oracles_bitwise(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            h, w = int(rng.integers(2, 16)), int(rng.integers(2, 16))
            gt = random_xyz(rng, h, w)
            pred = random_xyz(rng, h, w)
            mask = random_mask(rng, h, w, density=0.8)
            if mask.count < 2:
                continue
            assert mae_points(pred, gt, mask) == oracle_mae(pred, gt, mask)
            assert mad(gt, mask) == oracle_mad(gt, mask)
            assert max_dst(gt, mask) == oracle_max_dst(gt, mask)
            assert r_squared(pred, gt, mask) == oracle_r_squared(pred, gt, mask)


class TestEvaluateXyz:
    def test_identity_report(self):
        rng = np.random.default_rng(21)
        gt = random_xyz(rng, 8, 8)
        mask = full_mask(8, 8)
        rep = evaluate_xyz(masked_points(gt, mask), gt, mask)
        assert rep.mae == 0.0
        assert rep.chamfer == 0.0
        assert rep.r_squared == 1.0
        assert rep.mad <= rep.max_dst
        assert rep.mae_over_mad == 0.0

    def test_ratios_consistent(self):
        rng = np.random.default_rng(22)
        gt = random_xyz(rng, 8, 8)
        pred = random_xyz(rng, 8, 8)
        mask = full_mask(8, 8)
        rep = evaluate_xyz(masked_points(pred, mask), gt, mask)
        assert rep.mae_over_mad == rep.mae / rep.mad
        assert rep.chamfer_over_maxdst == rep.chamfer / rep.max_dst
        assert rep.r_squared <= 1.0


def _error_case(name: str) -> tuple:
    """(pred, gt, mask) for one degenerate evaluate_xyz input."""
    rng = np.random.default_rng(23)
    gt = random_xyz(rng, 4, 4)
    pred = random_xyz(rng, 4, 4)
    one = np.zeros((4, 4), bool)
    one[1, 2] = True
    holed = pred.valid.copy()
    holed[1, 2] = False
    if name == "size mismatch":
        return pred, gt, full_mask(5, 4)
    if name == "empty mask":
        return pred, gt, SegMask(np.zeros((4, 4), bool))
    if name == "invalid predicted pixel":
        return XyzMap(pred.coords, holed), gt, full_mask(4, 4)
    if name == "invalid predicted pixel before gt size":
        return XyzMap(pred.coords, holed), random_xyz(rng, 5, 4), full_mask(4, 4)
    if name == "invalid pixel before too few points":
        return XyzMap(pred.coords, holed), gt, SegMask(one)
    if name == "single point":
        return pred, gt, SegMask(one)
    if name == "zero-extent gt":
        return pred, XyzMap(np.full((4, 4, 3), 0.5), gt.valid), full_mask(4, 4)
    if name == "zero tss":  # nonzero extent, TSS below the floor
        return pred, XyzMap(0.5 + 1e-8 * gt.coords, gt.valid), full_mask(4, 4)
    raise AssertionError(name)


# The errors class each degenerate input raises.  The "before" cases pin the
# order: the prediction is checked before the GT, validity before the count.
EVALUATE_XYZ_ERRORS = {
    "size mismatch": DimensionMismatch,
    "empty mask": EmptyMask,
    "invalid predicted pixel": InvalidEndpoint,
    "invalid predicted pixel before gt size": InvalidEndpoint,
    "invalid pixel before too few points": InvalidEndpoint,
    "single point": TooFewPoints,
    "zero-extent gt": DegenerateGT,
    "zero tss": DegenerateGT,
}


@pytest.mark.parametrize("name", EVALUATE_XYZ_ERRORS)
def test_evaluate_xyz_error_contract(name):
    pred, gt, mask = _error_case(name)
    with pytest.raises(VesselXyzError) as info:
        evaluate_xyz(masked_points(pred, mask), gt, mask)
    assert type(info.value) is EVALUATE_XYZ_ERRORS[name]


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (15, 3), (17, 3), (16, 2)])
def test_evaluate_xyz_needs_one_point_per_mask_pixel(shape):
    # a single row would broadcast against the 16 GT points without the check
    rng = np.random.default_rng(26)
    gt = random_xyz(rng, 4, 4)
    with pytest.raises(DimensionMismatch):
        evaluate_xyz(rng.uniform(-1, 1, shape), gt, full_mask(4, 4))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_points_are_rejected(bad):
    # an alignment that overflows gives such points; the KD-tree would raise a ValueError
    rng = np.random.default_rng(27)
    gt = random_xyz(rng, 4, 4)
    points = masked_points(gt, full_mask(4, 4))
    points[5, 1] = bad
    with pytest.raises(InvalidValue):
        evaluate_xyz(points, gt, full_mask(4, 4))
    with pytest.raises(InvalidValue):
        chamfer(masked_points(gt, full_mask(4, 4)), points)
