"""Translation- and scale-invariant pairwise-distance losses with gradients.

The losses never look at absolute coordinates: they compare signed per-axis
differences D over pixel pairs, which makes them independent of the XYZ
origin.  The scale-invariant variant additionally rescales the predicted
differences by a per-image factor K before comparing.

Sign conventions: sign(0) = 0 at |.| kinks; K is a stop-gradient constant in
the main scale-invariant term, but the out-of-range control term (+K above
the ceiling, -K below the floor) is differentiable through K so it can steer
the prediction scale back into range.

Buffer reuse: each call works in place (``out=``) on its own two gathers of
pair differences instead of allocating an array per arithmetic step, and never
writes into a caller's array; the bits are those of the plain formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScale, DimensionMismatch, EmptyPairSet, InvalidValue
from .geometry import PairSet, XyzMap, pair_differences

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
    return pair_differences(gt, pairs), pair_differences(pred, pairs)


def translation_invariant_loss(pred: XyzMap, gt: XyzMap, pairs: PairSet) -> LossReport:
    """Mean absolute error between GT and predicted pair differences.

    Shifting the prediction by any constant vector leaves the value
    unchanged, because constant offsets cancel inside each difference.
    """
    d_gt, d_pred = _paired_differences(pred, gt, pairs)
    value = float(np.mean(np.abs(np.subtract(d_gt, d_pred, out=d_gt), out=d_gt)))
    return LossReport(value, None, False, len(pairs))


def _scale_terms(d_gt: np.ndarray, d_pred: np.ndarray):
    """K from gathered differences, plus the kept mask and both means behind it.

    Returns (ScaleFactor, keep, num, den) with num and den the mean absolute
    GT and predicted differences over the sign-consistent entries ``keep``.
    """
    keep = (d_gt * d_pred) > 0.0
    n_keep = int(np.count_nonzero(keep))
    if n_keep < MIN_SCALE_PAIRS:
        raise DegenerateScale(
            f"only {n_keep} sign-consistent pair entries, need at least {MIN_SCALE_PAIRS}"
        )
    kept = d_pred[keep]
    den = float(np.mean(np.abs(kept, out=kept)))
    if den < DENOMINATOR_FLOOR:
        raise DegenerateScale(f"predicted differences vanish (mean {den})")
    del kept  # freed before the second gather takes its place
    kept = d_gt[keep]
    num = float(np.mean(np.abs(kept, out=kept)))
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
    np.subtract(d_gt, np.multiply(d_pred, k.k, out=d_pred), out=d_gt)
    value = float(np.mean(np.abs(d_gt, out=d_gt)))
    extra, active = _control_term(k.k)
    return LossReport(value + extra, k, active, len(pairs))


def _scatter_pair_grad(pairs: PairSet, per_pair: np.ndarray) -> np.ndarray:
    """Sum per-pair (N, 3) rows onto the grid: every +row at first, then every -row at second."""
    h, w = pairs.shape
    idx = np.concatenate([pairs.first, pairs.second])
    weights = np.empty((2, len(pairs)))  # [+column, -column], in idx order
    grad = np.empty((h * w, 3))
    for axis, column in enumerate(per_pair.T):
        weights[0] = column
        np.negative(column, out=weights[1])
        grad[:, axis] = np.bincount(idx, weights.reshape(-1), h * w)
    return grad.reshape(h, w, 3)


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

    # the per-pair terms overwrite d_pred
    if loss_kind == "translation_invariant":
        np.sign(np.subtract(d_pred, d_gt, out=d_pred), out=d_pred)
        np.divide(d_pred, n_terms, out=d_pred)
    else:
        supplied = k is not None
        if not supplied:
            k, keep, num, den = _scale_terms(d_gt, d_pred)
        # k * sign(k * d_pred - d_gt) / n_terms, where (k * s) / n == s * (k / n)
        # exactly for s in {-1, 0, 1}
        np.subtract(np.multiply(d_pred, k.k, out=d_pred), d_gt, out=d_pred)
        np.multiply(np.sign(d_pred, out=d_pred), k.k / n_terms, out=d_pred)
        if _control_term(k.k)[1] and not supplied:
            # d(+K)/dD_pred_j = -(num/den^2) * sign(D_pred_j) / M where kept, 0
            # elsewhere; -K flips the sign.  Where kept sign(D_pred) ==
            # sign(D_gt) = +-1, so the term is exactly -+step: copysign into
            # d_gt's buffer, +-0 elsewhere (which changes no per-pair term, as
            # sign() never gives -0.0).
            step = num / den**2 / k.valid_pair_count
            np.multiply(np.copysign(step, d_gt, out=d_gt), keep, out=d_gt)
            ufunc = np.subtract if k.k > SCALE_CEILING else np.add
            ufunc(d_pred, d_gt, out=d_pred)
    del d_gt  # freed before the scatter allocates its own buffers
    return _scatter_pair_grad(pairs, d_pred)
