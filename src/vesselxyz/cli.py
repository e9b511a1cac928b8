"""Command-line surface: generate, render, eval, loss, clean-depth.

Exit codes form a stable contract: 0 success, 1 usage error (a flag the
CLI cannot use), 2 data error (unreadable/malformed input files or config
values, unwritable output), 3 partial batch failure (some seeds failed to
generate or render, the rest were emitted).  Flags are checked while they are
parsed and fail as ``_UsageError``; every other failure is a
``VesselXyzError`` or an ``OSError``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

from . import __version__
from .errors import GenerationFailed, InvalidValue, VesselXyzError
from .evaluation import MODES, run_eval
from .formats import read_depth_pfm, read_pgm, read_xyz_pfm, write_pfm
from .geometry import PinholeCamera, build_pair_set, checked_dilations, valid_region
from .losses import LOSS_KINDS, scale_invariant_loss, translation_invariant_loss
from .manifest import emit_scene, load_manifest, read_document
from .procgen import MAX_RESOLUTION, SceneConfig
from .renderer import CLEAN_MAX_OFFSET, clean_depth

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


class _UsageError(argparse.ArgumentTypeError):
    """A flag the CLI cannot use (exit 1); from a ``type=`` converter, argparse names the flag."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_seeds(text: str) -> list:
    """One ``range`` per comma-separated part: a seed >= 0 or an inclusive range (1..5 or 1-5)."""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        sep = ".." if ".." in part else ("-" if "-" in part[1:] else None)
        ends = part.split(sep, 1) if sep else (part, part)
        lo, hi = int(ends[0]), int(ends[1])
        if lo < 0:
            raise _UsageError(f"seeds must be non-negative, got {part!r}")
        if hi < lo:
            raise _UsageError(f"empty seed range {part!r}")
        seeds.append(range(lo, hi + 1))
    if not seeds:
        raise _UsageError(f"no seeds in {text!r}")
    return seeds


def parse_dilations(text: str) -> tuple:
    """Comma-separated dilations, e.g. 1,2,4: positive and strictly increasing."""
    try:
        return checked_dilations(text.split(","))
    except InvalidValue as e:
        raise _UsageError(str(e)) from None


def _resolution(text: str) -> int:
    value = _positive(int(text))
    if value > MAX_RESOLUTION:
        raise _UsageError(f"must be at most {MAX_RESOLUTION}, got {value}")
    return value


def positive_float(text: str) -> float:
    return _positive(float(text))


def _positive(value):
    if not value > 0:  # NaN too
        raise _UsageError(f"must be positive, got {value}")
    return value


def _load_config(path: str | None, resolution: int | None) -> SceneConfig:
    config = SceneConfig() if path is None else read_document(path, SceneConfig.from_dict)
    if resolution is not None:
        config = replace(config, resolution=resolution)
    return config


def _probe_writable(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write-probe"
    probe.write_bytes(b"")
    probe.unlink()


@functools.cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="vesselxyz", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vesselxyz {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate, render, and write scenes")
    gen.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1..20 or 3,5,9")
    gen.add_argument("--config", help="scene config JSON (defaults used otherwise)")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--resolution", type=_resolution,
                     help="override resolution; keeps focal_px, so the field of view changes")
    gen.add_argument("--no-meshes", action="store_true", help="skip OBJ export")

    ren = sub.add_parser("render", help="replay one manifest's artifacts")
    ren.add_argument("--manifest", required=True)
    ren.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate predictions against GT manifests")
    ev.add_argument("--gt", required=True, help="directory with manifests + GT artifacts")
    ev.add_argument("--pred", required=True, help="directory with prediction files")
    ev.add_argument("--mode", required=True, choices=MODES)
    ev.add_argument("--dilations", type=parse_dilations, help="comma-separated, e.g. 1,2,4")
    ev.add_argument("--out", help="directory for report.csv / report.txt")

    lo = sub.add_parser("loss", help="compute a loss between two XYZ map files")
    lo.add_argument("--pred", required=True, help="predicted XYZ map (.pfm)")
    lo.add_argument("--gt", required=True, help="ground-truth XYZ map (.pfm)")
    lo.add_argument("--mask", required=True, help="object mask (.pgm)")
    lo.add_argument("--kind", required=True, choices=LOSS_KINDS)
    lo.add_argument("--dilations", type=parse_dilations, help="comma-separated, e.g. 1,2,4")

    cd = sub.add_parser("clean-depth", help="drop masked pixels far from the object center")
    cd.add_argument("--depth", required=True, help="input depth map (.pfm)")
    cd.add_argument("--mask", required=True, help="object mask (.pgm)")
    cd.add_argument("--out", required=True, help="output depth map (.pfm)")
    cd.add_argument("--manifest", help="take camera intrinsics from this manifest")
    cd.add_argument("--fx", type=float)
    cd.add_argument("--fy", type=float)
    cd.add_argument("--cx", type=float)
    cd.add_argument("--cy", type=float)
    cd.add_argument("--max-offset", type=positive_float, default=CLEAN_MAX_OFFSET,
                    help=f"meters, default {CLEAN_MAX_OFFSET}")
    return parser


def _cmd_generate(args) -> int:
    config = _load_config(args.config, args.resolution)
    out = Path(args.out)
    _probe_writable(out)
    failures = []
    for seed in chain.from_iterable(args.seeds):
        try:
            emit_scene(seed, config, out, write_meshes=not args.no_meshes)
        except VesselXyzError as e:
            failures.append((seed, str(e)))
    total = sum(map(len, args.seeds))
    print(f"generated {total - len(failures)}/{total} scenes in {out}")
    if failures:
        for seed, why in failures:
            print(f"FAILED seed {seed}: {why}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_render(args) -> int:
    manifest = load_manifest(args.manifest)
    out = Path(args.out)
    _probe_writable(out)
    meshes = "vessel_mesh" in manifest.files  # replay what the manifest lists
    try:
        emit_scene(manifest.seed, manifest.config, out, write_meshes=meshes)
    except (VesselXyzError, OSError) as e:  # the seed and config give no scene, or no file name
        raise GenerationFailed(f"{args.manifest}: {e}") from e
    print(f"re-rendered seed {manifest.seed} into {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    out = Path(args.out) if args.out else None
    if out:  # before scoring, so an unwritable --out prints no report
        _probe_writable(out)
    report = run_eval(args.gt, args.pred, args.mode, args.dilations)
    text = report.to_text()
    print(text)
    if out:
        (out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
        (out / "report.txt").write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_loss(args) -> int:
    pred, gt, mask = read_xyz_pfm(args.pred), read_xyz_pfm(args.gt), read_pgm(args.mask)
    loss = {"translation_invariant": translation_invariant_loss,
            "scale_invariant": scale_invariant_loss}[args.kind]
    try:
        report = loss(pred, gt, build_pair_set(valid_region(mask, pred, gt), args.dilations))
    except VesselXyzError as e:  # the inputs give no loss: name them
        raise VesselXyzError(f"{args.pred}, {args.gt}, {args.mask}: {e}") from e
    k = report.k_used.k if report.k_used else None
    print(f"kind: {args.kind}")
    print(f"value: {report.value!r}")
    print(f"k: {k!r}")
    print(f"control_term_active: {report.control_term_active}")
    print(f"pair_count: {report.pair_count}")
    return EXIT_OK


def _cmd_clean_depth(args) -> int:
    depth = read_depth_pfm(args.depth)
    mask = read_pgm(args.mask)
    if args.manifest:
        camera = load_manifest(args.manifest).camera
    elif None not in (args.fx, args.fy, args.cx, args.cy):
        try:
            camera = PinholeCamera(args.fx, args.fy, args.cx, args.cy, depth.width, depth.height)
        except VesselXyzError as e:
            raise _UsageError(f"--fx/--fy/--cx/--cy: {e}") from None
    else:
        raise _UsageError("clean-depth needs --manifest or all of --fx/--fy/--cx/--cy")
    try:
        cleaned = clean_depth(depth, camera, mask, max_offset=args.max_offset)
    except VesselXyzError as e:  # the inputs give no cleaned map: name them
        files = ", ".join(filter(None, (args.depth, args.mask, args.manifest)))
        raise VesselXyzError(f"{files}: {e}") from e
    write_pfm(args.out, cleaned)
    removed = int(depth.valid.sum() - cleaned.valid.sum())
    print(f"removed {removed} pixels; wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "render": _cmd_render,
    "eval": _cmd_eval,
    "loss": _cmd_loss,
    "clean-depth": _cmd_clean_depth,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (VesselXyzError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
