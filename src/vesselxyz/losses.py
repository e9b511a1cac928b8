"""Translation- and scale-invariant pairwise-distance losses with gradients.

The losses never look at absolute coordinates: they compare signed per-axis
differences D over pixel pairs, which makes them independent of the XYZ
origin.  The scale-invariant variant additionally rescales the predicted
differences by a per-image factor K before comparing.

Sign conventions: sign(0) = 0 at |.| kinks; K is a stop-gradient constant in
the main scale-invariant term, but the out-of-range control term (+K above
the ceiling, -K below the floor) is differentiable through K so it can steer
the prediction scale back into range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScale, DimensionMismatch, EmptyPairSet, InvalidValue
from .geometry import PairSet, SegMask, XyzMap, masked_points, pair_differences

SCALE_CEILING = 10.0
SCALE_FLOOR = 0.1
MIN_SCALE_PAIRS = 8
DENOMINATOR_FLOOR = 1e-12

LOSS_KINDS = ("translation_invariant", "scale_invariant")


@dataclass(frozen=True)
class ScaleFactor:
    """Ratio of mean absolute GT differences to mean absolute predicted ones."""

    k: float
    valid_pair_count: int

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0):
            raise DegenerateScale(f"scale factor must be positive and finite, got {self.k}")


@dataclass(frozen=True)
class LossReport:
    """One loss evaluation: the scalar plus what went into it."""

    value: float
    k_used: ScaleFactor | None
    control_term_active: bool
    pair_count: int


def _paired_differences(pred: XyzMap, gt: XyzMap, pairs: PairSet):
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise DimensionMismatch("prediction and ground truth differ in size")
    if len(pairs) == 0:
        raise EmptyPairSet("no pixel pairs to compare")
    d_gt = pair_differences(gt, pairs)
    d_pred = pair_differences(pred, pairs)
    return d_gt, d_pred


def translation_invariant_loss(pred: XyzMap, gt: XyzMap, pairs: PairSet) -> LossReport:
    """Mean absolute error between GT and predicted pair differences.

    Shifting the prediction by any constant vector leaves the value
    unchanged, because constant offsets cancel inside each difference.
    """
    d_gt, d_pred = _paired_differences(pred, gt, pairs)
    value = float(np.mean(np.abs(d_gt - d_pred)))
    return LossReport(value, None, False, len(pairs))


def _scale_terms(d_gt: np.ndarray, d_pred: np.ndarray):
    """K from gathered differences, plus the kept mask and both means behind it.

    Returns (ScaleFactor, keep, num, den) with num and den the mean absolute
    GT and predicted differences over the sign-consistent entries ``keep``.
    DegenerateScale when fewer than ``MIN_SCALE_PAIRS`` entries are kept or
    the predicted mean is numerically zero.
    """
    keep = (d_gt * d_pred) > 0.0
    n_keep = int(np.count_nonzero(keep))
    if n_keep < MIN_SCALE_PAIRS:
        raise DegenerateScale(
            f"only {n_keep} sign-consistent pair entries, need at least {MIN_SCALE_PAIRS}"
        )
    den = float(np.mean(np.abs(d_pred[keep])))
    if den < DENOMINATOR_FLOOR:
        raise DegenerateScale(f"predicted differences vanish (mean {den})")
    num = float(np.mean(np.abs(d_gt[keep])))
    return ScaleFactor(num / den, n_keep), keep, num, den


def scale_factor(pred: XyzMap, gt: XyzMap, pairs: PairSet) -> ScaleFactor:
    """Per-image scale ratio K between GT and predicted pair differences.

    Only pair/axis entries whose GT and predicted differences agree in sign
    (positive product) enter the two means; sign-flipped entries say nothing
    about scale.  Raises DegenerateScale when fewer than ``MIN_SCALE_PAIRS``
    entries survive or the predicted mean is numerically zero.
    """
    return _scale_terms(*_paired_differences(pred, gt, pairs))[0]


def _control_term(k: float):
    """Out-of-range penalty: +K above the ceiling, -K below the floor."""
    if k > SCALE_CEILING:
        return k, True
    if k < SCALE_FLOOR:
        return -k, True
    return 0.0, False


def scale_invariant_loss(
    pred: XyzMap,
    gt: XyzMap,
    pairs: PairSet,
    k: ScaleFactor | None = None,
) -> LossReport:
    """Mean absolute error after rescaling predicted differences by K.

    K is computed internally unless supplied (supplying the vessel's K to its
    content/opening shares one scale across overlapping objects).  The mean
    runs over all pairs and axes; the sign-consistency restriction applies
    only to K itself.  When K leaves [SCALE_FLOOR, SCALE_CEILING] the control
    term (+K or -K) is added to the value and flagged.
    """
    d_gt, d_pred = _paired_differences(pred, gt, pairs)
    if k is None:
        k = _scale_terms(d_gt, d_pred)[0]
    value = float(np.mean(np.abs(d_gt - k.k * d_pred)))
    extra, active = _control_term(k.k)
    return LossReport(value + extra, k, active, len(pairs))


def translation_consistency_loss(
    pred_vessel: XyzMap,
    pred_content: XyzMap,
    gt_vessel: XyzMap,
    gt_content: XyzMap,
    overlap: SegMask,
) -> LossReport:
    """Penalty on per-pixel vessel-minus-content offsets differing from GT.

    Over pixels where vessel and content overlap, compares the GT offset
    (vessel - content) against the predicted one; a translation applied to
    both predicted objects cancels, so only relative placement is scored.
    Each map's overlap points come from :func:`masked_points`, with its errors.
    """
    pv, pc, gv, gc = (
        masked_points(m, overlap) for m in (pred_vessel, pred_content, gt_vessel, gt_content)
    )
    value = float(np.mean(np.abs((gv - gc) - (pv - pc))))
    return LossReport(value, None, False, overlap.count)


def _scatter_pair_grad(pairs: PairSet, per_pair: np.ndarray) -> np.ndarray:
    """Sum per-pair (N, 3) rows onto the grid: every +row at first, then every -row at second."""
    h, w = pairs.shape
    idx = np.concatenate([pairs.first, pairs.second])
    cols = [np.bincount(idx, np.concatenate([c, -c]), h * w) for c in per_pair.T]
    return np.stack(cols, axis=1).reshape(h, w, 3)


def loss_gradient(
    loss_kind: str,
    pred: XyzMap,
    gt: XyzMap,
    pairs: PairSet,
    k: ScaleFactor | None = None,
) -> np.ndarray:
    """Analytic gradient of a loss value with respect to the predicted map.

    Returns an (H, W, 3) array; pixels that no pair touches get zero.  For
    ``scale_invariant`` the main term treats K as a constant while the
    control term's gradient flows through K's dependence on the predicted
    differences.  Supplying ``k`` (scale-invariant only) freezes it entirely
    (no control-term gradient), matching how a shared vessel scale is used.
    """
    if loss_kind not in LOSS_KINDS:
        raise InvalidValue(f"unknown loss kind {loss_kind!r}, expected one of {LOSS_KINDS}")
    if loss_kind == "translation_invariant" and k is not None:
        raise InvalidValue("the translation-invariant loss takes no scale factor k")
    d_gt, d_pred = _paired_differences(pred, gt, pairs)
    n_terms = d_gt.size  # 3 * |pairs|

    if loss_kind == "translation_invariant":
        return _scatter_pair_grad(pairs, np.sign(d_pred - d_gt) / n_terms)

    supplied = k is not None
    if not supplied:
        k, keep, num, den = _scale_terms(d_gt, d_pred)
    per_pair = k.k * np.sign(k.k * d_pred - d_gt) / n_terms
    _, active = _control_term(k.k)
    if active and not supplied:
        # d(+K)/dD_pred_j = -(num/den^2) * sign(D_pred_j) / M on the
        # sign-consistent entries; the -K branch flips the sign.
        dk = np.zeros_like(d_pred)
        dk[keep] = -(num / den**2) * np.sign(d_pred[keep]) / k.valid_pair_count
        per_pair = per_pair + (dk if k.k > SCALE_CEILING else -dk)
    return _scatter_pair_grad(pairs, per_pair)
