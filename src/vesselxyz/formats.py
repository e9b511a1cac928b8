"""Bit-exact file formats: PFM float maps, PGM masks, OBJ meshes.

PFM stores IEEE 754 single-precision values, so round trips are exact for
float32-representable data.  Depth maps are 1-channel "Pf" files with -inf
marking invalid pixels; XYZ maps are 3-channel "PF" files with NaN marking
invalid pixels.  In both cases the authoritative validity mask is written
alongside as ``<name>.valid.pgm``; readers use it when present and fall
back to the sentinel pattern otherwise.

Rows follow the PFM convention: bottom-to-top, little-endian (negative
scale).  PGM is binary P5, maxval 255; any value >= 128 reads as set.
Both share one header, ``magic / width height / last field``.  A reader
checks the magic first, then the declared size against the file, and only
then reads the payload.

OBJ meshes are written, never read: a ``#`` header line, a ``v`` line per
vertex with ``%.17g`` values, and an ``f`` line of 1-based indices per triangle.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .errors import InvalidValue, MalformedHeader
from .geometry import DepthMap, SegMask, TriMesh, XyzMap

_PFM_SCALE = -1.0  # little-endian
_MAX_TOKEN_BYTES = 64  # per header token with its leading whitespace; far more than written


def validity_path(path) -> Path:
    return Path(path).with_suffix(".valid.pgm")


def _write_grid(path, magic: bytes, width: int, height: int, last, data: np.ndarray) -> None:
    """The header, then the C-contiguous ``data`` as it lies in memory."""
    with open(path, "wb") as f:
        f.write(magic + f"\n{width} {height}\n{last}\n".encode("ascii"))
        f.write(data)


def _read_grid(path, magic: bytes, last_type, pixel_bytes: int):
    """``(width, height, last field, payload)`` of a file; ``last_type`` parses the last field."""
    with open(path, "rb") as f:
        found = _read_token(f, path)
        if found != magic:
            raise MalformedHeader(f"{path}: expected magic {magic!r}, got {found!r}")
        try:
            width, height = int(_read_token(f, path)), int(_read_token(f, path))
            last = last_type(_read_token(f, path))
        except ValueError as e:
            raise MalformedHeader(f"{path}: non-numeric header field") from e
        if width <= 0 or height <= 0:
            raise MalformedHeader(f"{path}: non-positive size {width}x{height} in header")
        size = width * height * pixel_bytes
        left = os.fstat(f.fileno()).st_size - f.tell()
        if size > left:
            raise MalformedHeader(f"{path}: expected {size} payload bytes, got {left}")
        return width, height, last, f.read(size)


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


def write_pgm(path, mask: SegMask) -> None:
    data = np.where(mask.values, np.uint8(255), np.uint8(0))
    _write_grid(path, b"P5", mask.width, mask.height, 255, data)


def read_pgm(path) -> SegMask:
    width, height, maxval, payload = _read_grid(path, b"P5", int, 1)
    if maxval != 255:
        raise MalformedHeader(f"{path}: only maxval 255 is supported, got {maxval}")
    return SegMask(np.frombuffer(payload, dtype=np.uint8).reshape(height, width) >= 128)


def write_pfm(path, m) -> None:
    """Write a DepthMap (Pf) or XyzMap (PF) plus its validity sibling."""
    if isinstance(m, DepthMap):
        magic, data = b"Pf", np.where(m.valid, m.values, -np.inf)
    elif isinstance(m, XyzMap):
        magic, data = b"PF", m.coords
    else:
        raise TypeError(f"write_pfm expects DepthMap or XyzMap, got {type(m).__name__}")
    _write_grid(path, magic, m.width, m.height, _PFM_SCALE, np.flipud(data).astype("<f4"))
    write_pgm(validity_path(path), SegMask(m.valid))


def _read_pfm(path, magic: bytes, pixel: tuple, cls):
    """A ``cls`` map from a PFM file of kind ``magic`` with per-pixel shape ``pixel``.

    Validity is the sibling mask, which must have the map's size; without
    one, a pixel is valid when it is finite, and for depth also positive.
    """
    width, height, scale, payload = _read_grid(path, magic, float, 4 * math.prod(pixel))
    if scale == 0.0 or not math.isfinite(scale):  # its sign gives the byte order
        raise MalformedHeader(f"{path}: scale must be finite and nonzero, got {scale}")
    with np.errstate(invalid="ignore"):  # a signaling NaN casts to a quiet one
        data = np.frombuffer(payload, dtype="<f4" if scale < 0 else ">f4").astype(np.float64)
    data = np.flipud(data.reshape(height, width, *pixel))
    vp = validity_path(path)
    if os.path.exists(vp):
        valid = read_pgm(vp).values
        if valid.shape != (height, width):
            raise MalformedHeader(f"{vp}: validity mask size differs from the map")
    else:  # the sentinels: NaN in XYZ, -inf in depth
        valid = np.isfinite(data).all(axis=-1) if pixel else np.isfinite(data) & (data > 0)
    try:
        return cls(data, valid)
    except InvalidValue as e:  # a valid pixel the map cannot hold: name the file
        raise InvalidValue(f"{path}: {e}") from e


def read_depth_pfm(path) -> DepthMap:
    return _read_pfm(path, b"Pf", (), DepthMap)


def read_xyz_pfm(path) -> XyzMap:
    return _read_pfm(path, b"PF", (3,), XyzMap)


def write_obj(path, mesh: TriMesh) -> None:
    """ASCII OBJ for inspection.  Each distinct vertex value is formatted once.

    Values are told apart by their float64 bits, so -0.0 keeps its sign.
    """
    n, m = len(mesh.vertices), mesh.num_triangles
    bits, inverse = np.unique(mesh.vertices.view(np.int64).ravel(), return_inverse=True)
    text = ("%.17g " * len(bits) % tuple(bits.view(np.float64).tolist())).encode("ascii")
    text = np.array(text.split(), dtype=object)
    with open(path, "wb") as f:
        f.write(f"# {mesh.label}: {n} vertices, {m} triangles\n".encode("ascii"))
        f.write(b"v %s %s %s\n" * n % tuple(text[inverse].tolist()))
        f.write(_face_lines(mesh.triangles + 1))


def _face_lines(index: np.ndarray) -> bytes:
    """``f a b c`` lines of the positive ``(M, 3)`` integers ``index``: rows of one digit matrix."""
    top = int(index.max(initial=0))
    width = len(str(top))
    index = index.astype(np.min_scalar_type(top))  # the narrowest type divides fastest
    lines = np.full((len(index), 3 * (width + 1) + 2), ord(" "), dtype=np.uint8)
    lines[:, 0], lines[:, -1] = ord("f"), ord("\n")
    keep = np.ones_like(lines, dtype=bool)
    for d in range(width):  # the digit of 10**(width-1-d) of each index, if not a leading zero
        p = 10 ** (width - 1 - d)
        lines[:, 2 + d:-1:width + 1] = index // p % 10 + ord("0")
        keep[:, 2 + d:-1:width + 1] = index >= p
    return lines[keep].tobytes()
