"""Translation/scale-invariant losses: fixtures, invariances, oracles."""

import numpy as np
import pytest

from vesselxyz import (
    DegenerateScale,
    EmptyPairSet,
    InvalidValue,
    ScaleFactor,
    SegMask,
    XyzMap,
    build_pair_set,
    loss_gradient,
    scale_factor,
    scale_invariant_loss,
    translation_invariant_loss,
)
from conftest import (
    dyadic_offset,
    dyadic_xyz,
    oracle_scale_factor,
    oracle_scale_invariant,
    oracle_translation_invariant,
    random_xyz,
)


def full_mask(h, w):
    return SegMask(np.ones((h, w), bool))


def scaled(m: XyzMap, s: float, t=(0.0, 0.0, 0.0)) -> XyzMap:
    return XyzMap(s * m.coords + np.asarray(t), m.valid)


def two_pixel_fixture():
    """GT Z = {0, 4}, pred Z = {1, 2}, X and Y identical in both."""
    gt = np.zeros((1, 2, 3))
    gt[0, 0] = (0.7, -0.2, 0.0)
    gt[0, 1] = (0.7, -0.2, 4.0)
    pred = gt.copy()
    pred[0, 0, 2] = 1.0
    pred[0, 1, 2] = 2.0
    valid = np.ones((1, 2), bool)
    pairs = build_pair_set(full_mask(1, 2), [1])
    return XyzMap(pred, valid), XyzMap(gt, valid), pairs


class TestTranslationInvariantLoss:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        m = random_xyz(rng, 5, 5)
        pairs = build_pair_set(full_mask(5, 5), [1])
        assert translation_invariant_loss(m, m, pairs).value == 0.0

    def test_shift_is_zero(self):
        # integer offsets added to dyadic-grid values cancel exactly in fp
        rng = np.random.default_rng(1)
        gt = dyadic_xyz(rng, 5, 5)
        pred = XyzMap(gt.coords + np.array([5.0, -3.0, 7.0]), gt.valid)
        pairs = build_pair_set(full_mask(5, 5), [1, 2])
        assert translation_invariant_loss(pred, gt, pairs).value == 0.0

    def test_two_pixel_hand_value(self):
        # single pair over 3 axes: (|4 - 1| + 0 + 0) / 3 = 1.0
        pred, gt, pairs = two_pixel_fixture()
        report = translation_invariant_loss(pred, gt, pairs)
        assert report.value == 1.0
        assert report.k_used is None
        assert report.pair_count == 1

    def test_exact_invariance_dyadic(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            gt = dyadic_xyz(rng, 6, 6)
            pred = dyadic_xyz(rng, 6, 6)
            pairs = build_pair_set(full_mask(6, 6), [1, 2])
            base = translation_invariant_loss(pred, gt, pairs).value
            moved_pred = XyzMap(pred.coords + dyadic_offset(rng), pred.valid)
            moved = translation_invariant_loss(moved_pred, gt, pairs).value
            assert moved == base

    def test_empty_pairs_raise(self):
        pred, gt, _ = two_pixel_fixture()
        pairs = build_pair_set(full_mask(1, 2), [5])  # dilation exceeds extent
        with pytest.raises(EmptyPairSet):
            translation_invariant_loss(pred, gt, pairs)

    def test_gradient_rejects_scale_factor(self):
        pred, gt, pairs = two_pixel_fixture()
        with pytest.raises(InvalidValue):
            loss_gradient("translation_invariant", pred, gt, pairs, k=ScaleFactor(2.0, 8))

    def test_matches_naive_oracle_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            gt = random_xyz(rng, h, w)
            pred = random_xyz(rng, h, w)
            pairs = build_pair_set(full_mask(h, w), [1, 3])
            if len(pairs) == 0:
                continue
            assert translation_invariant_loss(pred, gt, pairs).value == (
                oracle_translation_invariant(pred, gt, pairs)
            )


class TestScaleFactor:
    def test_uniform_double_scale(self):
        rng = np.random.default_rng(4)
        gt = random_xyz(rng, 6, 6)
        pred = scaled(gt, 2.0)
        pairs = build_pair_set(full_mask(6, 6), [1])
        assert scale_factor(pred, gt, pairs).k == pytest.approx(0.5, rel=1e-12)

    def test_identity_is_one(self):
        rng = np.random.default_rng(5)
        gt = random_xyz(rng, 6, 6)
        pairs = build_pair_set(full_mask(6, 6), [1])
        assert scale_factor(gt, gt, pairs).k == 1.0

    def test_single_axis_hand_ratio(self):
        # along a 1x9 row each of the 8 pairs has gt difference +4 and pred
        # difference +1 on Z; X/Y flat so their zero-product entries are
        # excluded -> K = 4
        gt = np.zeros((1, 9, 3))
        gt[0, :, 2] = -4.0 * np.arange(9)  # first - second = +4
        pred = np.zeros((1, 9, 3))
        pred[0, :, 2] = -1.0 * np.arange(9)
        valid = np.ones((1, 9), bool)
        pairs = build_pair_set(full_mask(1, 9), [1])
        k = scale_factor(XyzMap(pred, valid), XyzMap(gt, valid), pairs)
        assert k.k == 4.0
        assert k.valid_pair_count == 8

    def test_min_pair_floor(self):
        pred, gt, pairs = two_pixel_fixture()
        with pytest.raises(DegenerateScale):
            scale_factor(pred, gt, pairs)  # default minimum is 8

    def test_constant_pred_degenerate(self):
        rng = np.random.default_rng(6)
        gt = random_xyz(rng, 4, 4)
        pred = XyzMap(np.full((4, 4, 3), 2.0), gt.valid)
        pairs = build_pair_set(full_mask(4, 4), [1])
        with pytest.raises(DegenerateScale):
            scale_factor(pred, gt, pairs)

    def test_scaling_law(self):
        rng = np.random.default_rng(7)
        gt = random_xyz(rng, 8, 8)
        pred = random_xyz(rng, 8, 8)
        pairs = build_pair_set(full_mask(8, 8), [1, 2])
        base = scale_factor(pred, gt, pairs).k
        for s in (0.25, 0.5, 3.0, 7.5):
            k_s = scale_factor(scaled(pred, s), gt, pairs).k
            assert k_s == pytest.approx(base / s, rel=1e-12)

    def test_matches_naive_oracle_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            gt = random_xyz(rng, 7, 7)
            pred = random_xyz(rng, 7, 7)
            pairs = build_pair_set(full_mask(7, 7), [1, 2])
            assert scale_factor(pred, gt, pairs).k == oracle_scale_factor(pred, gt, pairs)


class TestScaleInvariantLoss:
    def test_similarity_invariance(self):
        rng = np.random.default_rng(9)
        gt = random_xyz(rng, 8, 8)
        pairs = build_pair_set(full_mask(8, 8), [1, 2])
        for s in (0.2, 0.5, 1.0, 2.0, 5.0):
            pred = scaled(gt, s, t=(1.0, -2.0, 0.5))
            report = scale_invariant_loss(pred, gt, pairs)
            assert report.value <= 1e-12
            assert not report.control_term_active

    def test_control_term_high(self):
        # pred = gt / 20 -> K = 20 > 10 -> value = 0 + 20
        rng = np.random.default_rng(10)
        gt = random_xyz(rng, 8, 8)
        pred = scaled(gt, 1.0 / 20.0)
        pairs = build_pair_set(full_mask(8, 8), [1])
        report = scale_invariant_loss(pred, gt, pairs)
        assert report.control_term_active
        assert report.value == pytest.approx(20.0, rel=1e-9)

    def test_control_term_low(self):
        # pred = 20 * gt -> K = 0.05 < 0.1 -> value = 0 - 0.05
        rng = np.random.default_rng(11)
        gt = random_xyz(rng, 8, 8)
        pred = scaled(gt, 20.0)
        pairs = build_pair_set(full_mask(8, 8), [1])
        report = scale_invariant_loss(pred, gt, pairs)
        assert report.control_term_active
        assert report.value == pytest.approx(-0.05, rel=1e-9)
        assert report.value >= -report.k_used.k  # report invariant

    def test_control_threshold_is_strict(self):
        pred, gt, pairs = two_pixel_fixture()
        at_ceiling = scale_invariant_loss(pred, gt, pairs, k=ScaleFactor(10.0, 9))
        assert not at_ceiling.control_term_active
        above = scale_invariant_loss(pred, gt, pairs, k=ScaleFactor(10.0 + 1e-12, 9))
        assert above.control_term_active
        at_floor = scale_invariant_loss(pred, gt, pairs, k=ScaleFactor(0.1, 9))
        assert not at_floor.control_term_active

    def test_external_k_overrides(self):
        # sharing the vessel's K: internal estimate would be 0.5, we force 1
        rng = np.random.default_rng(12)
        gt = random_xyz(rng, 6, 6)
        pred = scaled(gt, 2.0)
        pairs = build_pair_set(full_mask(6, 6), [1])
        forced = scale_invariant_loss(pred, gt, pairs, k=ScaleFactor(1.0, 99))
        assert forced.k_used.k == 1.0
        assert forced.value > 0.0

    def test_constant_in_s_inside_window(self):
        rng = np.random.default_rng(13)
        gt = random_xyz(rng, 8, 8)
        pred = random_xyz(rng, 8, 8)
        pairs = build_pair_set(full_mask(8, 8), [1, 2])
        base = scale_invariant_loss(pred, gt, pairs).value
        k0 = scale_factor(pred, gt, pairs).k
        for s in (0.5, 2.0, 4.0):
            if not 0.1 < k0 / s < 10.0:
                continue
            v = scale_invariant_loss(scaled(pred, s, t=(0.3, 0.0, -1.0)), gt, pairs).value
            assert v == pytest.approx(base, rel=1e-9)

    def test_nonnegative_without_control(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            gt = random_xyz(rng, 6, 6)
            pred = random_xyz(rng, 6, 6)
            pairs = build_pair_set(full_mask(6, 6), [1])
            report = scale_invariant_loss(pred, gt, pairs)
            if not report.control_term_active:
                assert report.value >= 0.0

    def test_matches_naive_oracle_bitwise(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            gt = random_xyz(rng, 7, 7)
            pred = random_xyz(rng, 7, 7)
            pairs = build_pair_set(full_mask(7, 7), [1, 3])
            assert scale_invariant_loss(pred, gt, pairs).value == (
                oracle_scale_invariant(pred, gt, pairs)
            )
