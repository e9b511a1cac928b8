"""Procedural vessel profiles, surface-of-revolution meshes, and scene assembly.

A vessel is a surface of revolution around the +Y axis sitting on the ground
plane y = 0.  Its radius-versus-height curve r(h) is the numerical integral
of a random derivative built from constant-slope, monomial, and sinusoidal
terms, which yields smooth but varied labware-like silhouettes.  Content is
a static liquid: the vessel interior up to a fill height, shrunk by a small
wall clearance and capped by a flat horizontal disk.

Everything is a pure function of (seed, config); regenerating with the same
inputs is bit-identical.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import GenerationFailed, InvalidValue, MalformedDocument
from .geometry import (IOR_PHYSICAL_RANGE, MIN_FOCAL_PX, MaterialVector, PinholeCamera, TriMesh,
                       cross, frozen, rotate, sq_norm)

_FILL_SALT = 11
_MATERIAL_SALT = 12
_CAMERA_SALT = 13
# Caps on the image size and knot count, far above any useful scene.
MAX_RESOLUTION = 8192
_MAX_SAMPLES = 2**20
# Meters: within [1e-6, 1e6] a scene's areas and depths neither underflow nor overflow.
_LENGTH = (1e-6, 1e6)
_SIGNED = (-1e6, 1e6)


def _ranged(default, bounds: tuple):
    """A config field with its default and its closed (low, high) range, both ends included."""
    return field(default=default, metadata={"bounds": bounds})


# ---------------------------------------------------------------------------
# Profiles


@dataclass(frozen=True)
class LinearTerm:
    """Constant radius slope: contributes a linear piece to r(h)."""

    slope: float

    def derivative(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(u, self.slope)


@dataclass(frozen=True)
class PolynomialTerm:
    """Monomial derivative in normalized height: coefficient * u**degree."""

    coefficient: float
    degree: int

    def derivative(self, u: np.ndarray) -> np.ndarray:
        return self.coefficient * u**self.degree


@dataclass(frozen=True)
class SinusoidTerm:
    """Sinusoidal derivative: amplitude * sin(2*pi*frequency*u + phase)."""

    amplitude: float
    frequency: float
    phase: float

    def derivative(self, u: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(2.0 * math.pi * self.frequency * u + self.phase)


def term_to_dict(term) -> dict:
    return {"kind": type(term).__name__, **asdict(term)}


def term_from_dict(d: dict):
    kinds = {c.__name__: c for c in (LinearTerm, PolynomialTerm, SinusoidTerm)}
    d = dict(d)
    kind = d.pop("kind")
    if kind not in kinds:
        raise InvalidValue(f"terms: unknown kind {kind!r}, expected one of {sorted(kinds)}")
    return kinds[kind](**d)


@dataclass(frozen=True)
class VesselProfile:
    """Radius-vs-height curve r(h) on [0, height], sampled at evenly spaced knots.

    The curve is base_radius plus the trapezoid integral of the summed term
    derivatives; between knots it is evaluated by linear interpolation.
    """

    terms: tuple
    base_radius: float
    height: float
    samples: int

    def __post_init__(self):
        if not 2 <= self.samples <= _MAX_SAMPLES:
            raise InvalidValue(f"profile needs 2 to {_MAX_SAMPLES} knots, got {self.samples}")
        if not (self.base_radius > 0 and self.height > 0):
            raise InvalidValue("base_radius and height must be positive")
        object.__setattr__(self, "terms", tuple(self.terms))
        hs = np.linspace(0.0, self.height, self.samples)
        u = hs / self.height
        deriv = np.zeros_like(hs)
        for term in self.terms:
            deriv = deriv + term.derivative(u)
        dh = hs[1] - hs[0]
        radii = np.empty_like(hs)
        radii[0] = self.base_radius
        radii[1:] = self.base_radius + np.cumsum((deriv[1:] + deriv[:-1]) * (0.5 * dh))
        object.__setattr__(self, "_knot_heights", frozen(hs))
        object.__setattr__(self, "_knot_radii", frozen(radii))

    def radius(self, h) -> np.ndarray:
        """Interpolated radius at height(s) h (clamped to [0, height])."""
        return np.interp(h, self._knot_heights, self._knot_radii)

    @property
    def rim_radius(self) -> float:
        return float(self._knot_radii[-1])

    def to_dict(self) -> dict:
        return {**asdict(self), "terms": [term_to_dict(t) for t in self.terms]}

    @classmethod
    def from_dict(cls, d: dict) -> "VesselProfile":
        return cls(**{**d, "terms": tuple(term_from_dict(t) for t in d["terms"])})


@dataclass(frozen=True)
class ProfileConfig:
    """Ranges for random profile generation (uniform draws unless noted)."""

    term_count: tuple = _ranged((1, 4), (0, 64))  # inclusive
    linear_slope: tuple = _ranged((-0.5, 0.5), _SIGNED)
    poly_degrees: tuple = _ranged((2, 3), (0, 1024))
    poly_coefficient: tuple = _ranged((-0.3, 0.3), _SIGNED)
    sin_amplitude_scale: tuple = _ranged((0.0, 0.3), _SIGNED)  # multiplied by base_radius
    sin_frequency: tuple = _ranged((0.5, 4.0), _SIGNED)  # cycles per height
    base_radius: tuple = _ranged((0.02, 0.08), _LENGTH)
    height: tuple = _ranged((0.05, 0.25), _LENGTH)
    min_radius: float = _ranged(0.005, _LENGTH)
    samples: int = _ranged(1024, (2, _MAX_SAMPLES))
    max_retries: int = _ranged(100, (1, 10_000))


def _config_fields(cls, d, prefix: str = "") -> dict:
    """Checked keyword arguments for config dataclass ``cls`` from a JSON object.

    Every key must name a field, and every value must have the shape of the
    field's default: a nested config object, an integer, a number, or a list
    of those of the default's length, each within the field's closed range
    (which NaN and the infinities are not).  MalformedDocument names the first
    bad field.
    """
    if not isinstance(d, dict):
        raise MalformedDocument(f"{prefix.rstrip('.') or 'config'} must be an object, got {d!r}")
    defaults = cls()
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in d.items():
        name = prefix + key
        if key not in known:
            raise MalformedDocument(f"field {name!r}: unknown key")
        default = getattr(defaults, key)
        if is_dataclass(default):
            kwargs[key] = type(default)(**_config_fields(type(default), value, name + "."))
            continue
        items = value if isinstance(default, tuple) else [value]
        wanted = default if isinstance(default, tuple) else [default]
        ok = isinstance(items, list) and len(items) == len(wanted) and all(
            like(v, w) for v, w in zip(items, wanted)
        )
        if not ok:
            raise MalformedDocument(f"field {name!r}: expected the type of {default!r}, got {value!r}")
        low, high = known[key].metadata["bounds"]
        if not all(low <= v <= high for v in items):  # exact for any int, False for NaN
            raise MalformedDocument(f"field {name!r}: must lie in [{low}, {high}], got {value!r}")
        if isinstance(default, tuple) and math.copysign(1, items[1] - items[0]) < 0:  # -0.0 too
            raise MalformedDocument(f"field {name!r}: low end above high end in {value!r}")
        kwargs[key] = tuple(value) if isinstance(default, tuple) else value
    return kwargs


def like(value, default) -> bool:
    """An integer where the default is one, else an integer or a float; never a bool."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int if isinstance(default, int) else (int, float))


def _draw_term(rng: np.random.Generator, config: ProfileConfig, base_radius: float):
    kind = rng.integers(0, 3)
    if kind == 0:
        return LinearTerm(float(rng.uniform(*config.linear_slope)))
    if kind == 1:
        degree = int(rng.integers(config.poly_degrees[0], config.poly_degrees[1] + 1))
        return PolynomialTerm(float(rng.uniform(*config.poly_coefficient)), degree)
    lo, hi = config.sin_amplitude_scale
    return SinusoidTerm(
        amplitude=float(rng.uniform(lo, hi) * base_radius),
        frequency=float(rng.uniform(*config.sin_frequency)),
        phase=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def generate_profile(seed: int, config: ProfileConfig | None = None) -> VesselProfile:
    """Draw random derivative terms and integrate them into a vessel profile.

    Rejects and redraws any candidate whose radius dips to ``min_radius`` or
    below anywhere on [0, height]; gives up after ``max_retries`` attempts.
    """
    config = config or ProfileConfig()
    rng = np.random.default_rng(seed)
    for _ in range(config.max_retries):
        base_radius = float(rng.uniform(*config.base_radius))
        height = float(rng.uniform(*config.height))
        n_terms = int(rng.integers(config.term_count[0], config.term_count[1] + 1))
        terms = tuple(_draw_term(rng, config, base_radius) for _ in range(n_terms))
        profile = VesselProfile(terms, base_radius, height, config.samples)
        if float(np.min(profile._knot_radii)) > config.min_radius:
            return profile
    raise GenerationFailed(
        f"no positive-radius profile within {config.max_retries} retries (seed {seed})"
    )


# ---------------------------------------------------------------------------
# Meshes


def _revolved_mesh(
    radii: np.ndarray, heights: np.ndarray, angular_segments: int, caps, label: str
) -> TriMesh:
    """Surface of revolution about +Y: stacked rings, quads between them, disk caps.

    Ring j holds ``angular_segments`` vertices at height ``heights[j]`` and
    radius ``radii[j]``.  Each quad between rings j and j+1 is split into two
    outward-wound triangles, quads in (ring, angle) order.  Each cap
    ``(ring index, upward)`` fans from a center on the axis at its ring's
    height; the centers follow the rings and the fans follow the quads, in
    cap order.
    """
    a, n = angular_segments, len(heights)
    theta = np.linspace(0.0, 2.0 * math.pi, a, endpoint=False)
    rings = np.empty((n, a, 3))
    rings[:, :, 0] = radii[:, None] * np.cos(theta)[None, :]
    rings[:, :, 1] = heights[:, None]
    rings[:, :, 2] = radii[:, None] * np.sin(theta)[None, :]
    centers = np.array([[0.0, heights[ring], 0.0] for ring, _ in caps])
    k = np.arange(a)
    k1 = (k + 1) % a
    v0 = np.arange(n - 1)[:, None] * a + k  # (j, k); + a is (j+1, k)
    v1 = np.arange(n - 1)[:, None] * a + k1  # (j, k+1)
    quads = np.stack([v0, v0 + a, v1 + a, v0, v1 + a, v1], axis=-1).reshape(-1, 3)
    fans = [
        np.stack([np.full(a, n * a + i), *((k1, k) if up else (k, k1))], axis=1)
        + [0, ring * a, ring * a]
        for i, (ring, up) in enumerate(caps)
    ]
    return TriMesh(np.vstack([rings.reshape(-1, 3), centers]), np.vstack([quads, *fans]), label)


def profile_to_mesh(
    profile: VesselProfile, angular_segments: int, vertical_segments: int
) -> TriMesh:
    """Vessel surface of revolution: closed bottom disk, open top rim."""
    if angular_segments < 3 or vertical_segments < 2:
        raise InvalidValue(
            f"need >= 3 angular and >= 2 vertical segments, got {angular_segments}/{vertical_segments}"
        )
    heights = np.linspace(0.0, profile.height, vertical_segments + 1)
    return _revolved_mesh(
        profile.radius(heights), heights, angular_segments, [(0, False)], "vessel"
    )


def flat_liquid_fill(
    profile: VesselProfile, fill_fraction: float, angular_segments: int, vertical_segments: int,
    clearance: float,
) -> TriMesh:
    """Static liquid: the vessel interior up to the fill height, shrunk inward.

    The solid spans heights [clearance, fill_fraction*height - clearance] with
    lateral radius r(h) - clearance, closed by flat disks at both ends.  The
    clearance keeps liquid faces off the vessel faces so ray casting never
    sees coplanar geometry.  A fill too small to fit the clearance margins
    yields an empty mesh.
    """
    if not 0.0 <= fill_fraction <= 1.0:
        raise InvalidValue("fill_fraction must lie in [0, 1]")
    if angular_segments < 3 or vertical_segments < 2:
        raise InvalidValue("need >= 3 angular and >= 2 vertical segments")
    top = fill_fraction * profile.height - clearance
    bottom = clearance
    if top - bottom <= clearance:
        return TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64), "content")
    heights = np.linspace(bottom, top, vertical_segments + 1)
    caps = [(0, False), (vertical_segments, True)]
    return _revolved_mesh(
        profile.radius(heights) - clearance, heights, angular_segments, caps, "content"
    )


def opening_plane(profile: VesselProfile, angular_segments: int) -> TriMesh:
    """Flat disk spanning the vessel's top rim."""
    if angular_segments < 3:
        raise InvalidValue("need >= 3 angular segments")
    return _revolved_mesh(
        np.array([profile.rim_radius]), np.array([profile.height]), angular_segments,
        [(0, True)], "opening",
    )


# ---------------------------------------------------------------------------
# Scenes


@dataclass(frozen=True)
class GroundPlane:
    """Horizontal square ground patch at y = 0."""

    half_extent: float

    def to_mesh(self) -> TriMesh:
        e = self.half_extent
        vertices = np.array(
            [[-e, 0.0, -e], [-e, 0.0, e], [e, 0.0, e], [e, 0.0, -e]], dtype=np.float64
        )
        triangles = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
        return TriMesh(vertices, triangles, "ground")


@dataclass(frozen=True)
class SceneConfig:
    """All knobs for random scene assembly, JSON-serializable."""

    profile: ProfileConfig = field(default_factory=ProfileConfig)
    angular_segments: int = _ranged(96, (3, 8192))
    vertical_segments: int = _ranged(48, (2, 8192))
    wall_clearance: float = _ranged(1e-4, _LENGTH)
    fill_fraction: tuple = _ranged((0.2, 0.9), (0.0, 1.0))
    camera_distance: tuple = _ranged((0.35, 0.8), _LENGTH)  # meters from the vessel centroid
    camera_elevation_deg: tuple = _ranged((10.0, 60.0), _SIGNED)
    camera_azimuth_deg: tuple = _ranged((0.0, 360.0), _SIGNED)
    focal_px: float = _ranged(320.0, (MIN_FOCAL_PX, sys.float_info.max))
    resolution: int = _ranged(256, (1, MAX_RESOLUTION))
    ground_half_extent: float = _ranged(2.0, _LENGTH)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SceneConfig":
        """Parse a config object; MalformedDocument names an unknown or bad field."""
        config = cls(**_config_fields(cls, d))
        clearance, limit = config.wall_clearance, config.profile.min_radius
        if clearance >= limit:  # so content radii, at least knot radii - clearance, stay positive
            raise MalformedDocument(
                f"field 'wall_clearance': must be < profile.min_radius {limit}, got {clearance}"
            )
        top = config.profile.base_radius[1]
        if limit >= top:  # a profile's first knot radius is its base radius, at most top
            raise MalformedDocument(
                f"field 'profile.min_radius': must be < profile.base_radius[1] {top}, got {limit}"
            )
        return config


@dataclass(frozen=True)
class SceneRecord:
    """One generated scene: geometry, camera, materials, and provenance."""

    seed: int
    profile: VesselProfile
    vessel: TriMesh
    content: TriMesh
    opening: TriMesh
    ground_plane: GroundPlane
    camera: PinholeCamera
    vessel_material: MaterialVector
    content_material: MaterialVector
    fill_fraction: float


def look_at_camera(eye, target, focal_px: float, resolution: int) -> PinholeCamera:
    """Square camera at ``eye`` looking toward ``target`` (CV frame: X right, Y down, Z forward).

    The image is ``resolution`` pixels on a side, with focal length ``focal_px``
    on both axes and the principal point at the image center.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = target - eye
    norm = np.sqrt(sq_norm(forward))
    if norm < 1e-12:
        raise InvalidValue("eye and target coincide")
    forward = forward / norm
    upv = np.array([0.0, 1.0, 0.0])  # world up, unless the view is within ~2.6 deg of vertical
    if abs(float(forward[1])) > 0.999:
        upv = np.array([0.0, 0.0, 1.0])
    right = np.array(cross(forward, upv))
    right = right / np.sqrt(sq_norm(right))
    down = cross(forward, right)
    rotation = np.array([right, down, forward])
    center = (resolution - 1) / 2.0
    return PinholeCamera(
        fx=focal_px, fy=focal_px, cx=center, cy=center, width=resolution, height=resolution,
        rotation=rotation, translation=-np.array(rotate(rotation, eye)),
    )


def _random_material(rng: np.random.Generator) -> MaterialVector:
    return MaterialVector.with_physical_ior(
        rgb=tuple(float(x) for x in rng.uniform(0.0, 1.0, 3)),
        transmission=float(rng.uniform(0.0, 1.0)),
        roughness=float(rng.uniform(0.0, 1.0)),
        metallic=float(rng.uniform(0.0, 1.0)),
        ior_physical=float(rng.uniform(*IOR_PHYSICAL_RANGE)),
    )


def assemble_scene(seed: int, config: SceneConfig | None = None) -> SceneRecord:
    """Build a full random scene deterministically from a seed.

    Independent RNG streams (seeded by the scene seed plus a per-purpose
    salt) drive the fill level, the materials, and the camera, so changing
    one config range never perturbs the other draws.
    """
    config = config or SceneConfig()
    profile = generate_profile(seed, config.profile)
    vessel = profile_to_mesh(profile, config.angular_segments, config.vertical_segments)

    fill_rng = np.random.default_rng([seed, _FILL_SALT])
    fill = float(fill_rng.uniform(*config.fill_fraction))
    content = flat_liquid_fill(
        profile, fill, config.angular_segments, config.vertical_segments, config.wall_clearance
    )
    opening = opening_plane(profile, config.angular_segments)

    mat_rng = np.random.default_rng([seed, _MATERIAL_SALT])
    vessel_material = _random_material(mat_rng)
    content_material = _random_material(mat_rng)

    cam_rng = np.random.default_rng([seed, _CAMERA_SALT])
    distance = float(cam_rng.uniform(*config.camera_distance))
    elevation = math.radians(float(cam_rng.uniform(*config.camera_elevation_deg)))
    azimuth = math.radians(float(cam_rng.uniform(*config.camera_azimuth_deg)))
    target = vessel.centroid()
    offset = distance * np.array(
        [
            math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation),
            math.cos(elevation) * math.cos(azimuth),
        ]
    )
    camera = look_at_camera(target + offset, target, config.focal_px, config.resolution)
    return SceneRecord(
        seed=seed,
        profile=profile,
        vessel=vessel,
        content=content,
        opening=opening,
        ground_plane=GroundPlane(config.ground_half_extent),
        camera=camera,
        vessel_material=vessel_material,
        content_material=content_material,
        fill_fraction=fill,
    )
