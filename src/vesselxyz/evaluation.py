"""Batch evaluation of predictions against generated ground truth.

Predictions live in a flat directory using the same naming scheme the
generator emits: per object an XYZ map ``<seed>_<role>_xyz.pfm`` (with its
validity sibling) or, in segmentation mode, a mask ``<seed>_<role>_mask.pgm``.

Alignment modes mirror the two ways of normalizing scale/translation before
scoring an object:

* ``vessel-scale``: every object is aligned by the similarity estimated on
  the vessel, so content placement errors relative to the vessel survive.
* ``content-scale``: each object is aligned by its own region, isolating
  shape error.
* ``segmentation``: mask IOU/precision/recall, no alignment.
"""

from __future__ import annotations

from contextlib import suppress
from pathlib import Path

from .errors import InvalidValue, VesselXyzError
from .formats import read_pgm, read_xyz_pfm
from .geometry import valid_region
from .manifest import ROLES, SceneManifest, find_manifests, load_manifest
from .metrics import evaluate_xyz, seg_eval, similarity_from_region
from .report import SEG_COLUMNS, XYZ_COLUMNS, ReportDocument

COLUMNS = {"vessel-scale": XYZ_COLUMNS, "content-scale": XYZ_COLUMNS, "segmentation": SEG_COLUMNS}
MODES = tuple(COLUMNS)
REFERENCE = {  # per xyz mode, the role whose similarity aligns each role
    "vessel-scale": dict.fromkeys(ROLES, "vessel"),
    "content-scale": {role: role for role in ROLES},
}


def evaluate_scene(manifest: SceneManifest, gt_dir, pred_dir, mode: str, dilations=None) -> list:
    """Metric rows for one scene's vessel/content/opening predictions.

    Per role the GT xyz map (xyz modes only), the GT mask and the prediction
    are read first, so a file that exists but cannot be read raises.

    In the xyz modes a role is aligned by its REFERENCE role's similarity,
    estimated once over ``valid_region(gt mask, gt xyz, prediction)``, and
    its row's ``k`` is that similarity's scale.  Dilations default to the
    ladder for the map size.

    A row that cannot be scored is absent, and its ``missing`` holds why:
    ``no-file`` (no prediction file), ``no-reference`` (another role's
    similarity, which this role needs, could not be estimated) or
    ``unscorable`` (scoring, or estimating the role's own similarity, raised
    a VesselXyzError).  An empty GT mask turns any of these into
    ``not-in-view``; a row that scored stays present.
    """
    gt_dir, pred_dir = Path(gt_dir), Path(pred_dir)
    xyz = mode != "segmentation"
    gt_maps, gt_masks, preds = {}, {}, {}
    for role in ROLES:
        if xyz:
            gt_maps[role] = read_xyz_pfm(gt_dir / manifest.files[f"{role}_xyz"])
        gt_masks[role] = read_pgm(gt_dir / manifest.files[f"{role}_mask"])
        path = pred_dir / manifest.files[f"{role}_{'xyz' if xyz else 'mask'}"]
        preds[role] = (read_xyz_pfm if xyz else read_pgm)(path) if path.exists() else None

    def region(role: str):
        return valid_region(gt_masks[role], gt_maps[role], preds[role])

    refs = REFERENCE.get(mode, {})
    transforms = {}  # reference role -> its similarity, when one could be estimated
    for ref in dict.fromkeys(refs.values()):
        if preds[ref] is not None:
            with suppress(VesselXyzError):
                transforms[ref] = similarity_from_region(
                    preds[ref], gt_maps[ref], region(ref), dilations
                )

    rows = []
    for role in ROLES:
        row, pred, ref = {"seed": manifest.seed, "object": role}, preds[role], refs.get(role)
        if pred is None:
            row["missing"] = "no-file"
        elif xyz and ref not in transforms:
            row["missing"] = "unscorable" if ref == role else "no-reference"
        else:
            try:
                if xyz:
                    mask, transform = region(role), transforms[ref]
                    report = evaluate_xyz(transform.apply(pred, mask), gt_maps[role], mask)
                    values = {**vars(report), "k": transform.k}
                else:
                    values = vars(seg_eval(pred, gt_masks[role]))
                row.update({col: values[col] for col in COLUMNS[mode]})
            except VesselXyzError:
                row["missing"] = "unscorable"
        if "missing" in row and not gt_masks[role].count:
            row["missing"] = "not-in-view"
        rows.append(row)
    return rows


def run_eval(gt_dir, pred_dir, mode: str, dilations=None) -> ReportDocument:
    """Evaluate every scene manifest in ``gt_dir`` against ``pred_dir``."""
    if mode not in MODES:
        raise InvalidValue(f"mode must be one of {MODES}, got {mode!r}")
    manifest_paths = find_manifests(gt_dir)
    if not manifest_paths:
        raise InvalidValue(f"no *_manifest.json files under {gt_dir}")
    if not Path(pred_dir).is_dir():
        raise InvalidValue(f"prediction directory {pred_dir} is missing or not a directory")
    rows = []
    for path in manifest_paths:
        rows.extend(evaluate_scene(load_manifest(path), gt_dir, pred_dir, mode, dilations))
    return ReportDocument.build(mode, COLUMNS[mode], rows)
