"""Build the golden artifacts and write their sha256 digests to ``golden_digests.json``.

The artifacts are what the byte-identity contract covers: ``generate`` with
meshes of a few seeds at 64x64, of twelve 256x256 scenes (two of them with
ground that reaches behind the camera) and of one 32x32 scene whose vessel
has over 10k vertices (so OBJ face indices reach 5 digits), the ``eval``
reports in every mode on a fixed similarity of the 64x64 ground truth, and
the ``loss`` printout of both kinds.  ``tests/test_golden_digests.py``
rebuilds them and compares.  A change that moves artifact bytes on purpose
regenerates the file::

    PYTHONPATH=src python tests/make_golden_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from vesselxyz import cli
from vesselxyz.formats import read_pgm, read_xyz_pfm, write_pfm, write_pgm
from vesselxyz.geometry import SegMask, XyzMap
from vesselxyz.manifest import ROLES

DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
SMALL_SEEDS = "1..3"  # at 64x64, with the default field of view
SMALL_CONFIG = {"resolution": 64, "focal_px": 80.0}
# At the default 256x256: the scenes the benchmark's generate workload times.
# Seeds 80 and 124 have ground that reaches behind the camera.
FULL_SEEDS = "80,27,111,108,84,26,87,133,33,102,48,124"
FINE_SEEDS = "5"  # 256 x 49 ring vertices on the vessel: 5-digit OBJ face indices
FINE_CONFIG = {"resolution": 32, "focal_px": 40.0, "angular_segments": 256}
PRED_SCALE = 1.5
PRED_SHIFTS = {"vessel": (0.25, -0.5, 0.125), "content": (-0.375, 0.25, 0.5),
               "opening": (0.5, 0.125, -0.25)}
LOSS_SCENE = 2
MODES = ("vessel-scale", "content-scale", "segmentation")
LOSS_KINDS = ("scale_invariant", "translation_invariant")


def machine() -> dict:
    """The platform and numpy build the digests were made with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "machine": platform.machine(),
            "numpy": np.__version__, "numpy_blas": f"{blas.get('name')} {blas.get('version')}"}


def _cli(*argv) -> str:
    """Run the CLI in-process; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"vesselxyz {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def _predict(gt: Path, pred: Path) -> None:
    """A similarity of every GT map with per-role shifts, a fixed ripple and flipped masks.

    The values are a fixed function of the pixel index, so the prediction
    depends on no random stream.
    """
    pred.mkdir()
    for path in sorted(gt.glob("*_vessel_xyz.pfm")):
        scene = path.name.split("_")[0]
        for role in ROLES:
            xyz = read_xyz_pfm(gt / f"{scene}_{role}_xyz.pfm")
            index = np.arange(xyz.coords.size, dtype=np.float64).reshape(xyz.coords.shape)
            ripple = ((index * 7) % 11 - 5) * 2e-4
            coords = PRED_SCALE * (xyz.coords + ripple) + PRED_SHIFTS[role]
            write_pfm(pred / f"{scene}_{role}_xyz.pfm",
                      XyzMap(np.where(xyz.valid[..., None], coords, np.nan), xyz.valid))
            truth = read_pgm(gt / f"{scene}_{role}_mask.pgm").values
            flip = (np.arange(truth.size).reshape(truth.shape) % 37) == 0
            write_pgm(pred / f"{scene}_{role}_mask.pgm", SegMask(truth ^ flip))


def build(work: Path) -> Path:
    """Write every golden artifact under ``work``; returns the directory holding them."""
    root = work / "golden"
    small, full, pred = root / "generate64", root / "generate256", work / "pred"
    for name, seeds, settings in (("64", SMALL_SEEDS, SMALL_CONFIG),
                                  ("fine32", FINE_SEEDS, FINE_CONFIG)):
        config = work / f"config{name}.json"
        config.write_text(json.dumps(settings), encoding="utf-8")
        _cli("generate", "--seeds", seeds, "--config", config, "--out", root / f"generate{name}")
    _cli("generate", "--seeds", FULL_SEEDS, "--out", full)
    _predict(small, pred)
    for mode in MODES:
        _cli("eval", "--gt", small, "--pred", pred, "--mode", mode, "--out", root / mode)
    for kind in LOSS_KINDS:
        text = _cli("loss", "--pred", pred / f"{LOSS_SCENE}_vessel_xyz.pfm",
                    "--gt", small / f"{LOSS_SCENE}_vessel_xyz.pfm",
                    "--mask", small / f"{LOSS_SCENE}_vessel_mask.pgm", "--kind", kind)
        (root / f"loss_{kind}.txt").write_text(text, encoding="utf-8")
    return root


def digests(root: Path) -> dict:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        files = digests(build(Path(work)))
    DIGESTS.write_text(json.dumps({"machine": machine(), "files": files}, indent=1) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(files)} digests to {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
