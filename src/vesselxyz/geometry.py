"""Map, camera, mesh and material data model plus the pixel-pair difference machinery.

Conventions used throughout the package:

* Images are indexed ``[row, col]`` = ``[v, u]`` with ``u`` growing right and
  ``v`` growing down.  Flat pixel indices are row-major (``v * width + u``).
* Depth is the distance along the camera optical axis (the Z coordinate in
  the camera frame), not the Euclidean ray length.
* The camera frame is the standard computer-vision frame: X right, Y down,
  Z forward.  ``PinholeCamera.rotation/translation`` map world points into
  that frame.
* Invalid pixels store a quiet-NaN sentinel.  The map constructors write
  it; callers pass any values there.  Operations select pixels through
  validity masks, with two readers of the sentinel itself:
  :func:`pair_differences` detects an invalid endpoint by it, and
  ``formats.write_pfm`` writes it as the XYZ file's sentinel.
* An object's points are the pixels :func:`masked_points` selects.
* 3-vector sums run through :func:`cross`, :func:`sq_norm` and :func:`rotate`
  in fixed ``(x, y, z)`` order, never through BLAS (its kernel varies by CPU).

All types are immutable after construction and all operations are pure
functions.  Their arrays are read-only.  A map owns a fresh value array
(its values with the sentinel written in); masks, meshes, pair indices and
a map's ``valid`` are views of an argument that already has the right
dtype and layout, so the caller's own array stays writeable and writing to
it later changes the object too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyMask, InvalidEndpoint, InvalidValue

DEFAULT_DILATIONS = (1, 2, 4, 8, 16, 32, 64)
MESH_LABELS = ("vessel", "content", "opening", "ground")
IOR_PHYSICAL_RANGE = (1.0, 2.0)
MIN_FOCAL_PX = 1e-6  # below it, camera rays and back-projected points overflow


def cross(a, b):
    """Cross product of two ``(x, y, z)`` triples (tuples, or arrays whose leading axis is 3)."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def sq_norm(a):
    """Squared length of an ``(x, y, z)`` triple, summed as ``(x*x + y*y) + z*z``."""
    return (a[0] * a[0] + a[1] * a[1]) + a[2] * a[2]


def rotate(r, p):
    """``r @ p`` for a 3x3 ``r`` and an ``(x, y, z)`` triple ``p``, each row summed in that order."""
    return tuple((ri[0] * p[0] + ri[1] * p[1]) + ri[2] * p[2] for ri in r)


def frozen(a: np.ndarray) -> np.ndarray:
    """Read-only contiguous view of ``a``; ``a`` itself keeps its flags."""
    out = np.ascontiguousarray(a).view()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SegMask:
    """Boolean per-pixel object region."""

    values: np.ndarray  # (H, W) bool

    def __post_init__(self):
        v = np.asarray(self.values, dtype=bool)
        if v.ndim != 2:
            raise DimensionMismatch(f"mask must be 2-D, got shape {v.shape}")
        object.__setattr__(self, "values", frozen(v))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def count(self) -> int:
        return int(self.values.sum())


def _init_map(m, field: str, pixel: tuple, positive: bool) -> None:
    """Check and store a map's ``field`` and ``valid`` arrays.

    ``field`` must be ``(H, W) + pixel`` over an ``(H, W)`` validity mask,
    and finite (and positive, for depth) on valid pixels.  It is stored as
    ``np.where(valid, values, nan)``: one pass that also makes the copy.
    NaN fails each test, so a count of the stored values that pass checks the valid ones.
    """
    values = np.asarray(getattr(m, field), dtype=np.float64)
    valid = np.asarray(m.valid, dtype=bool)
    if values.ndim != 2 + len(pixel) or values.shape != valid.shape + pixel:
        raise DimensionMismatch(
            f"{field} {values.shape} must be (H, W) + {pixel} over validity {valid.shape}"
        )
    stored = np.where(valid[..., None] if pixel else valid, values, np.nan)
    with np.errstate(invalid="ignore"):  # a signaling NaN compares False too
        good = np.count_nonzero(stored > 0.0 if positive else np.isfinite(stored))
        bad = positive and np.isinf(stored).any()
    if bad or good != np.count_nonzero(valid) * math.prod(pixel):
        need = "finite and positive" if positive else "finite"
        raise InvalidValue(f"valid pixels must have {need} {field}")
    object.__setattr__(m, field, frozen(stored))
    object.__setattr__(m, "valid", frozen(valid))


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel optical-axis depth in meters with a validity mask.

    Valid pixels are positive and finite; invalid pixels are stored as NaN
    and are never read by any operation.
    """

    values: np.ndarray  # (H, W) float64
    valid: np.ndarray  # (H, W) bool

    def __post_init__(self):
        _init_map(self, "values", (), positive=True)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class XyzMap:
    """Per-pixel 3D coordinates (meters) with a validity mask.

    Equivalent to an organized point cloud; carries no camera information.
    """

    coords: np.ndarray  # (H, W, 3) float64
    valid: np.ndarray  # (H, W) bool

    def __post_init__(self):
        _init_map(self, "coords", (3,), positive=False)

    @property
    def height(self) -> int:
        return self.coords.shape[0]

    @property
    def width(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class PinholeCamera:
    """Pinhole intrinsics plus a rigid world-to-camera transform.

    ``rotation @ p_world + translation`` gives camera-frame coordinates.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        size = (self.width, self.height)
        if not all(type(n) is int and n >= 1 for n in size):
            raise InvalidValue(f"width and height must be integers >= 1, got {size}")
        if not (self.fx >= MIN_FOCAL_PX and self.fy >= MIN_FOCAL_PX):  # NaN too
            raise InvalidValue(f"fx and fy must be >= {MIN_FOCAL_PX}, got {self.fx}, {self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InvalidValue("principal point must lie inside the image")
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise DimensionMismatch("rotation must be 3x3")
        if not np.all(np.isfinite([self.fx, self.fy, *r.ravel(), *t])):
            raise InvalidValue("camera focal lengths, rotation and translation must be finite")
        orthonormal = np.max(np.abs(np.subtract(rotate(r, r.T), np.eye(3)))) <= 1e-9
        if not orthonormal or abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise InvalidValue("rotation must be orthonormal with determinant +1")
        object.__setattr__(self, "rotation", frozen(r))
        object.__setattr__(self, "translation", frozen(t))

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -np.array(rotate(self.rotation.T, self.translation))


@dataclass(frozen=True)
class PairSet:
    """Pixel pairs (flat row-major indices) produced by dilated enumeration.

    The ordering is deterministic: ascending dilation, horizontal pairs
    before vertical, row-major within each block.  Within a pair the first
    pixel is the left/top one, so differences are signed consistently.
    """

    first: np.ndarray  # (N,) int64 flat indices
    second: np.ndarray  # (N,) int64 flat indices
    shape: tuple  # (H, W) of the originating mask

    def __post_init__(self):
        a, b = np.asarray(self.first), np.asarray(self.second)
        if a.shape != b.shape or a.ndim != 1:
            raise DimensionMismatch("pair index arrays must be equal-length 1-D")
        h, w = int(self.shape[0]), int(self.shape[1])
        if h <= 0 or w <= 0:
            raise InvalidValue(f"pair set shape must be positive, got {(h, w)}")
        if a.size and not (a.dtype.kind in "iu" and b.dtype.kind in "iu"):
            raise InvalidValue(f"pair indices must be integers, got {a.dtype} and {b.dtype}")
        if a.size and not (min(a.min(), b.min()) >= 0 and max(a.max(), b.max()) < h * w):
            raise InvalidValue(f"pair indices must lie in [0, {h * w}) for shape {(h, w)}")
        object.__setattr__(self, "first", frozen(a.astype(np.int64, copy=False)))
        object.__setattr__(self, "second", frozen(b.astype(np.int64, copy=False)))
        object.__setattr__(self, "shape", (h, w))

    def __len__(self) -> int:
        return int(self.first.shape[0])


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle mesh with a semantic label.

    Triangles are wound counterclockwise seen from outside, so cross products
    of edge vectors give outward normals and the divergence-theorem volume of
    a closed mesh comes out positive.  Every triangle's area is positive and finite.
    """

    vertices: np.ndarray  # (N, 3) float64
    triangles: np.ndarray  # (M, 3) int64
    label: str

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.label not in MESH_LABELS:
            raise InvalidValue(f"label must be one of {MESH_LABELS}")
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise DimensionMismatch("triangle indices out of range")
        if not np.all(np.isfinite(v)):
            raise InvalidValue("mesh vertices must be finite")
        object.__setattr__(self, "vertices", frozen(v))
        object.__setattr__(self, "triangles", frozen(t))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or NaN here
            areas = self.triangle_areas()
        if not np.all((areas > 0.0) & (areas < np.inf)):
            raise InvalidValue("mesh triangle areas must be positive and finite")

    @property
    def num_triangles(self) -> int:
        return int(self.triangles.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.num_triangles == 0

    def centroid(self) -> np.ndarray:
        return np.mean(self.vertices, axis=0)

    def triangle_areas(self) -> np.ndarray:
        """(M,) triangle areas, bit for bit ``0.5 * norm(cross(b - a, c - a), axis=1)``."""
        a, b, c = (np.take(self.vertices.T, i, axis=1) for i in self.triangles.T)
        return 0.5 * np.sqrt(sq_norm(cross(b - a, c - a)))


@dataclass(frozen=True)
class MaterialVector:
    """Scalar material properties, all stored in [0, 1].

    IOR is normalized from its physical range [1, 2]; use ``ior_physical``
    to recover the refractive index itself.
    """

    rgb: tuple
    transmission: float
    roughness: float
    metallic: float
    ior: float

    def __post_init__(self):
        rgb = tuple(float(c) for c in self.rgb)
        if len(rgb) != 3:
            raise DimensionMismatch("rgb must have exactly 3 components")
        object.__setattr__(self, "rgb", rgb)
        for name in ("transmission", "roughness", "metallic", "ior"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise InvalidValue(f"{name}={v} outside [0, 1]")
            object.__setattr__(self, name, v)
        if any(not 0.0 <= c <= 1.0 for c in rgb):
            raise InvalidValue(f"rgb {rgb} outside [0, 1]")

    @property
    def ior_physical(self) -> float:
        lo, hi = IOR_PHYSICAL_RANGE
        return lo + self.ior * (hi - lo)

    @classmethod
    def with_physical_ior(cls, rgb, transmission, roughness, metallic, ior_physical):
        lo, hi = IOR_PHYSICAL_RANGE
        return cls(rgb, transmission, roughness, metallic, (ior_physical - lo) / (hi - lo))


def default_dilations(height: int, width: int) -> tuple:
    """Powers-of-two dilation ladder clipped to the image extent."""
    return tuple(d for d in DEFAULT_DILATIONS if d < max(height, width))


def valid_region(mask: SegMask, *maps: XyzMap | DepthMap) -> SegMask:
    """The pixels of ``mask`` that are valid in every one of ``maps``."""
    sel = mask.values
    for m in maps:
        if (m.height, m.width) != (mask.height, mask.width):
            raise DimensionMismatch(
                f"map {m.height}x{m.width} vs mask {mask.height}x{mask.width}"
            )
        sel = sel & m.valid
    return SegMask(sel)


def masked_points(xyz: XyzMap, mask: SegMask) -> np.ndarray:
    """(N, 3) points of the N mask pixels, row-major: an object's point set.

    DimensionMismatch if the sizes differ, EmptyMask if the mask selects no
    pixel, InvalidEndpoint if it selects a pixel the map marks invalid.
    """
    if (xyz.height, xyz.width) != (mask.height, mask.width):
        raise DimensionMismatch(f"map {xyz.height}x{xyz.width} vs mask {mask.height}x{mask.width}")
    if mask.count == 0:
        raise EmptyMask("mask selects no pixel")
    if not np.all(xyz.valid[mask.values]):
        raise InvalidEndpoint("mask covers invalid pixels")
    return xyz.coords[mask.values]


def depth_to_xyz(depth: DepthMap, camera: PinholeCamera) -> XyzMap:
    """Back-project a depth map into camera-frame XYZ coordinates.

    X = (u - cx) * Z / fx, Y = (v - cy) * Z / fy, Z = depth(v, u), so the
    result is expressed in the camera frame regardless of the camera pose.
    Validity is preserved pixel-for-pixel.
    """
    if (depth.height, depth.width) != (camera.height, camera.width):
        raise DimensionMismatch(
            f"depth {depth.height}x{depth.width} vs camera {camera.height}x{camera.width}"
        )
    u = np.arange(depth.width, dtype=np.float64) - camera.cx
    v = (np.arange(depth.height, dtype=np.float64) - camera.cy)[:, None]
    z = depth.values
    return XyzMap(np.stack([u * z / camera.fx, v * z / camera.fy, z], axis=-1), depth.valid)


def checked_dilations(dilations) -> tuple:
    """``dilations`` as integers; InvalidValue unless positive and strictly increasing."""
    dil = tuple(int(d) for d in dilations)
    if any(d <= 0 for d in dil) or any(b <= a for a, b in zip(dil, dil[1:])):
        raise InvalidValue(f"dilations must be positive and strictly increasing: {list(dil)}")
    return dil


def build_pair_set(mask: SegMask, dilations=None) -> PairSet:
    """Enumerate all in-mask pixel pairs (p, p + d) per dilation and direction.

    For each dilation d the horizontal pairs are (v, u)-(v, u+d) and the
    vertical pairs are (v, u)-(v+d, u), both endpoints inside the mask.
    A dilation larger than the mask extent simply contributes no pairs.
    """
    if mask.count == 0:
        raise EmptyMask("cannot build pairs over an empty mask")
    if dilations is None:
        dilations = default_dilations(mask.height, mask.width)
    dil = checked_dilations(dilations)

    h, w = mask.height, mask.width
    m = mask.values
    flat = np.arange(h * w, dtype=np.int64).reshape(h, w)
    firsts, seconds = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for d in dil:
        if d < w:
            both = m[:, : w - d] & m[:, d:]
            firsts.append(flat[:, : w - d][both])
            seconds.append(flat[:, d:][both])
        if d < h:
            both = m[: h - d, :] & m[d:, :]
            firsts.append(flat[: h - d, :][both])
            seconds.append(flat[d:, :][both])
    return PairSet(np.concatenate(firsts), np.concatenate(seconds), (h, w))


def pair_differences(xyz: XyzMap, pairs: PairSet) -> np.ndarray:
    """Signed per-axis coordinate differences over a pair set.

    Returns an (N, 3) array with row i holding coords(first_i) - coords(second_i)
    for the X, Y, Z axes.  Differences are kept signed here; consumers apply
    absolute values where they need them.
    """
    if pairs.shape != (xyz.height, xyz.width):
        raise DimensionMismatch(
            f"pair set built for {pairs.shape}, map is {(xyz.height, xyz.width)}"
        )
    flat = xyz.coords.reshape(-1, 3)
    diff = np.take(flat, pairs.first, axis=0)
    np.subtract(diff, np.take(flat, pairs.second, axis=0), out=diff)
    # valid coords are finite and invalid ones NaN, so a difference is NaN
    # exactly when an endpoint is invalid (overflow gives +-inf, not NaN)
    if len(pairs) and np.isnan(diff.min()):
        raise InvalidEndpoint("pair set references invalid pixels")
    return diff
