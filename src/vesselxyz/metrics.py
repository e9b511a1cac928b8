"""Evaluation metrics over XYZ maps, segmentation masks, and material vectors.

All 3D metrics operate on the per-pixel point sets selected by an object
mask.  Errors are reported in meters and, because absolute scale is
arbitrary for camera-agnostic predictions, normalized by two GT-side
size measures: MAD (mean distance to the object centroid) and MaxDst
(the exact point-set diameter).  Chamfer alone uses scipy, so it imports
``scipy.spatial`` on its first call: a process that runs none never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGT, DimensionMismatch, InvalidValue, TooFewPoints
from .geometry import MaterialVector, SegMask, XyzMap, build_pair_set, masked_points, sq_norm
from .losses import scale_factor

_DIAMETER_SLACK = 1.0 + 1e-9  # relative margin on max_dst's reach
_DIAMETER_TINY = 1e-290  # squared diameter at or below which max_dst scans every pair
_DIAMETER_BLOCK = 1 << 16  # point pairs per chunk of an exact max_dst scan
_TSS_FLOOR = 1e-12
_CHAMFER_LEAF = 48  # big leaves, unbalanced unshrunk trees: fastest for eval's far queries


@dataclass(frozen=True)
class EvalReport:
    """3D-reconstruction metrics for one object, raw and normalized."""

    mae: float
    mad: float
    max_dst: float
    mae_over_mad: float
    mae_over_maxdst: float
    chamfer: float
    chamfer_over_mad: float
    chamfer_over_maxdst: float
    r_squared: float


@dataclass(frozen=True)
class SegReport:
    """Per-object segmentation quality."""

    iou: float
    precision: float
    recall: float
    intersection: int
    union: int


@dataclass(frozen=True)
class MaterialErrors:
    """Per-property mean absolute errors (color averaged over RGB)."""

    transmission: float
    color: float
    roughness: float
    metallic: float
    ior: float


def _mae(p: np.ndarray, g: np.ndarray) -> float:
    return float(np.mean(np.sqrt(sq_norm((g - p).T))))


def _mad(g: np.ndarray) -> float:
    return float(np.mean(np.sqrt(sq_norm((g - np.mean(g, axis=0)).T))))


def _r_squared(p: np.ndarray, g: np.ndarray) -> float:
    rss = float(np.sum(sq_norm((g - p).T)))
    tss = float(np.sum(sq_norm((g - np.mean(g, axis=0)).T)))
    if tss <= _TSS_FLOOR:
        raise DegenerateGT("all GT points coincide; TSS is zero")
    return 1.0 - rss / tss


def mae_points(pred: XyzMap, gt: XyzMap, mask: SegMask) -> float:
    """Mean Euclidean distance between same-pixel predicted and GT points."""
    return _mae(masked_points(pred, mask), masked_points(gt, mask))


def mad(gt: XyzMap, mask: SegMask) -> float:
    """Mean distance from each masked GT point to the GT centroid."""
    return _mad(masked_points(gt, mask))


def max_dst(gt: XyzMap, mask: SegMask) -> float:
    """Diameter of the masked GT point set (max pairwise distance), exact.

    Bit-identical to a brute force over every pair, summing squares in the
    same order.  Farthest-point hops give a lower bound ``best``.  With r
    each point's distance from the bounding-box centre, the triangle
    inequality gives |p - q| <= r_p + r_q, so a pair can beat ``best`` only
    if r_q reaches sqrt(best) - r_p.  The points are sorted by decreasing r
    and scanned exactly, a block of rows at a time, each row p against the
    later points that reach its cut (found by bisection); the cut only rises
    down the order, so the scan ends at the first p that no later point
    reaches.  Away from underflow each computed norm is within a few ulps of
    its true value, and the relative slack of 1e-9 on the reach (~1e7 ulps)
    keeps every pair that could hold the maximum.  When ``best`` is at most
    1e-290, the squares may be subnormal and carry no such precision, so
    every pair is scanned.  Worst case: on a full sphere every point has
    about the same r and nothing is pruned; 20k points take ~0.4 s, and a
    single depth view cannot produce one.
    """
    g = masked_points(gt, mask)
    if len(g) < 2:
        raise TooFewPoints("diameter needs at least 2 points")
    lo, hi = g.min(axis=0), g.max(axis=0)
    if np.array_equal(lo, hi):
        return 0.0  # every point coincides
    best, i = 0.0, 0
    for _ in range(4):  # farthest-point hops
        d2 = sq_norm((g - g[i]).T)
        i = int(np.argmax(d2))
        best = max(best, float(d2[i]))

    r = np.sqrt(sq_norm((g - (0.5 * lo + 0.5 * hi)).T))
    order = np.argsort(-r)
    xyz, neg_r = g[order].T.copy(), -r[order]  # one row per axis; neg_r ascends for searchsorted
    k = 0
    while k < len(neg_r) - 1:
        reach = np.sqrt(best) / _DIAMETER_SLACK + neg_r[k] if best > _DIAMETER_TINY else 0.0
        end = int(np.searchsorted(neg_r, -reach, side="right"))  # later points with r >= reach
        if end <= k + 1:
            break
        rows = max(1, _DIAMETER_BLOCK // (end - k))
        d = xyz[:, k : k + rows, None] - xyz[:, None, k + 1 : end]
        d *= d
        best = max(best, float(np.max((d[0] + d[1]) + d[2])))  # sq_norm's order
        k += rows
    return float(np.sqrt(best))


def r_squared(pred: XyzMap, gt: XyzMap, mask: SegMask) -> float:
    """1 - RSS/TSS with squared point distances against the GT centroid."""
    return _r_squared(masked_points(pred, mask), masked_points(gt, mask))


def chamfer(pred_points: np.ndarray, gt_points: np.ndarray) -> float:
    """Two-sided Chamfer distance between raw point sets.

    Mean distance from each GT point to its nearest predicted point plus the
    mean in the opposite direction.  Pixel-grid positions are irrelevant;
    nearest neighbors come from an exact KD-tree.
    """
    p = np.asarray(pred_points, dtype=np.float64).reshape(-1, 3)
    g = np.asarray(gt_points, dtype=np.float64).reshape(-1, 3)
    if len(p) == 0 or len(g) == 0:
        raise TooFewPoints("chamfer needs two nonempty point sets")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(g))):
        raise InvalidValue("chamfer needs finite points")
    return float(np.mean(_nearest(p, g)) + np.mean(_nearest(g, p)))


def _nearest(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    from scipy.spatial import cKDTree
    tree = cKDTree(points, leafsize=_CHAMFER_LEAF, balanced_tree=False, compact_nodes=False)
    return tree.query(queries)[0]


@dataclass(frozen=True)
class SimilarityTransform:
    """Scale-then-translate map p' = k * p + t estimated from one region."""

    k: float
    t: np.ndarray

    def apply(self, m: XyzMap, target_mask: SegMask) -> np.ndarray:
        """(N, 3) transformed points of ``m`` on the target pixels, in mask order."""
        return self.k * masked_points(m, target_mask) + self.t


def similarity_from_region(
    pred: XyzMap,
    gt: XyzMap,
    region: SegMask,
    dilations=None,
) -> SimilarityTransform:
    """Estimate the similarity aligning a prediction to GT over one region.

    The scale is the pair-difference ratio K over the region; the translation
    matches the region centroids after scaling (the L2-optimal translation
    for a fixed scale).  Aligning with ``.apply(pred, target_mask)``: a
    vessel region keeps a content target's placement errors relative to the
    vessel; the target's own region removes them and leaves shape error.
    """
    pairs = build_pair_set(region, dilations)
    k = scale_factor(pred, gt, pairs).k
    p_ref = masked_points(pred, region)
    g_ref = masked_points(gt, region)
    t = np.mean(g_ref, axis=0) - k * np.mean(p_ref, axis=0)
    return SimilarityTransform(k, t)


def seg_eval(pred: SegMask, gt: SegMask) -> SegReport:
    """IOU, precision, and recall between predicted and GT masks.

    Empty-mask conventions: both empty scores 1.0 everywhere; one-sided
    empties score 0.0 everywhere.
    """
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise DimensionMismatch("masks differ in size")
    inter = int(np.count_nonzero(pred.values & gt.values))
    union = int(np.count_nonzero(pred.values | gt.values))
    n_pred = pred.count
    n_gt = gt.count
    if n_pred == 0 and n_gt == 0:
        return SegReport(1.0, 1.0, 1.0, 0, 0)
    iou = inter / union if union else 0.0
    precision = inter / n_pred if n_pred else 0.0
    recall = inter / n_gt if n_gt else 0.0
    return SegReport(iou, precision, recall, inter, union)


def material_mae(pred: MaterialVector, gt: MaterialVector) -> MaterialErrors:
    """Per-property absolute errors, with RGB averaged into one color error."""
    color = float(np.mean(np.abs(np.asarray(pred.rgb) - np.asarray(gt.rgb))))
    return MaterialErrors(
        transmission=abs(pred.transmission - gt.transmission),
        color=color,
        roughness=abs(pred.roughness - gt.roughness),
        metallic=abs(pred.metallic - gt.metallic),
        ior=abs(pred.ior - gt.ior),
    )


def evaluate_xyz(pred_points: np.ndarray, gt: XyzMap, mask: SegMask) -> EvalReport:
    """MAE, MAD, MaxDst, Chamfer and R^2 of an object's predicted points, in mask order."""
    if np.shape(pred_points) != (mask.count, 3):
        raise DimensionMismatch(f"{np.shape(pred_points)} points vs {mask.count} mask pixels")
    p, g = pred_points, masked_points(gt, mask)
    err, spread = _mae(p, g), _mad(g)
    diameter = max_dst(gt, mask)  # by its public name, where perfbench times it
    cd = chamfer(p, g)
    r2 = _r_squared(p, g)
    if spread <= 0.0 or diameter <= 0.0:
        raise DegenerateGT("GT object has zero spatial extent")
    return EvalReport(
        mae=err,
        mad=spread,
        max_dst=diameter,
        mae_over_mad=err / spread,
        mae_over_maxdst=err / diameter,
        chamfer=cd,
        chamfer_over_mad=cd / spread,
        chamfer_over_maxdst=cd / diameter,
        r_squared=r2,
    )
