"""Bit-exact file formats: PFM float maps, PGM masks, OBJ meshes.

PFM stores IEEE 754 single-precision values, so round trips are exact for
float32-representable data.  Depth maps are 1-channel "Pf" files with -inf
marking invalid pixels; XYZ maps are 3-channel "PF" files with NaN marking
invalid pixels.  In both cases the authoritative validity mask is written
alongside as ``<name>.valid.pgm``; readers use it when present and fall
back to the sentinel pattern otherwise.

Rows follow the PFM convention: bottom-to-top, little-endian (negative
scale).  PGM is binary P5, maxval 255; any value >= 128 reads as set.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import MalformedHeader, TruncatedPayload
from .geometry import DepthMap, SegMask, TriMesh, XyzMap

_PFM_SCALE = -1.0  # little-endian
_MAX_TOKEN_BYTES = 64  # per header token with its leading whitespace; far more than written


def validity_path(path) -> Path:
    return Path(path).with_suffix(".valid.pgm")


def write_pgm(path, mask: SegMask) -> None:
    data = np.where(mask.values, 255, 0).astype(np.uint8)
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header + data.tobytes())


def read_pgm(path) -> SegMask:
    with open(path, "rb") as f:
        magic = _read_token(f, path)
        if magic != b"P5":
            raise MalformedHeader(f"{path}: expected binary PGM magic 'P5', got {magic!r}")
        try:
            width = int(_read_token(f, path))
            height = int(_read_token(f, path))
            maxval = int(_read_token(f, path))
        except ValueError as e:
            raise MalformedHeader(f"{path}: non-numeric PGM header field") from e
        if maxval != 255:
            raise MalformedHeader(f"{path}: only maxval 255 is supported, got {maxval}")
        payload = _read_payload(f, path, width, height, 1)
    values = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return SegMask(values >= 128)


def _read_token(f, path) -> bytes:
    """One whitespace-delimited header token; consumes the delimiter after it."""
    token = b""
    for _ in range(_MAX_TOKEN_BYTES):
        c = f.read(1)
        if not c:
            raise MalformedHeader(f"{path}: unexpected end of file in header")
        if not c.isspace():
            token += c
        elif token:
            return token
    raise MalformedHeader(f"{path}: header token and whitespace over {_MAX_TOKEN_BYTES} bytes")


def _read_payload(f, path, width: int, height: int, pixel_bytes: int) -> bytes:
    """The declared payload, after checking the header against the file size."""
    if width <= 0 or height <= 0:
        raise MalformedHeader(f"{path}: non-positive size {width}x{height} in header")
    size = width * height * pixel_bytes
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size > left:
        raise TruncatedPayload(f"{path}: expected {size} payload bytes, got {left}")
    return f.read(size)


def write_pfm(path, m) -> None:
    """Write a DepthMap (Pf) or XyzMap (PF) plus its validity sibling."""
    if isinstance(m, DepthMap):
        magic = b"Pf"
        data = np.where(m.valid, m.values, -np.inf).astype("<f4")
    elif isinstance(m, XyzMap):
        magic = b"PF"
        data = m.coords.astype("<f4")
    else:
        raise TypeError(f"write_pfm expects DepthMap or XyzMap, got {type(m).__name__}")
    header = magic + f"\n{m.width} {m.height}\n{_PFM_SCALE}\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header + np.flipud(data).tobytes())
    write_pgm(validity_path(path), SegMask(m.valid))


def _read_pfm_raw(path):
    with open(path, "rb") as f:
        magic = _read_token(f, path)
        if magic == b"PF":
            channels = 3
        elif magic == b"Pf":
            channels = 1
        else:
            raise MalformedHeader(f"{path}: not a PFM file (magic {magic!r})")
        try:
            width = int(_read_token(f, path))
            height = int(_read_token(f, path))
            scale = float(_read_token(f, path))
        except ValueError as e:
            raise MalformedHeader(f"{path}: non-numeric PFM header field") from e
        if scale == 0.0:
            raise MalformedHeader(f"{path}: zero scale")
        payload = _read_payload(f, path, width, height, channels * 4)
    dtype = "<f4" if scale < 0 else ">f4"
    with np.errstate(invalid="ignore"):  # a signaling NaN casts to a quiet one
        data = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    shape = (height, width) if channels == 1 else (height, width, channels)
    return np.flipud(data.reshape(shape)), channels


def _sibling_validity(path, shape):
    vp = validity_path(path)
    if not os.path.exists(vp):
        return None
    mask = read_pgm(vp)
    if (mask.height, mask.width) != shape:
        raise MalformedHeader(f"{vp}: validity mask size differs from the map")
    return mask.values


def read_depth_pfm(path) -> DepthMap:
    data, channels = _read_pfm_raw(path)
    if channels != 1:
        raise MalformedHeader(f"{path}: expected 1-channel 'Pf' depth, found 3-channel 'PF'")
    valid = _sibling_validity(path, data.shape)
    if valid is None:
        valid = np.isfinite(data) & (data > 0)
    return DepthMap(data, valid)


def read_xyz_pfm(path) -> XyzMap:
    data, channels = _read_pfm_raw(path)
    if channels != 3:
        raise MalformedHeader(f"{path}: expected 3-channel 'PF' coordinates, found 'Pf'")
    valid = _sibling_validity(path, data.shape[:2])
    if valid is None:
        valid = np.all(np.isfinite(data), axis=-1)
    return XyzMap(data, valid)


def write_obj(path, mesh: TriMesh) -> None:
    """ASCII OBJ for inspection; deterministic float formatting."""
    n, m = len(mesh.vertices), mesh.num_triangles
    header = f"# {mesh.label}: {n} vertices, {m} triangles\n"
    vertices = ("v %.17g %.17g %.17g\n" * n) % tuple(mesh.vertices.ravel().tolist())
    faces = ("f %d %d %d\n" * m) % tuple((mesh.triangles + 1).ravel().tolist())
    Path(path).write_text(header + vertices + faces, encoding="ascii")
