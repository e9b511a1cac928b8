"""Exception hierarchy shared by all vesselxyz modules; the only errors the library raises."""


class VesselXyzError(Exception):
    """Base class for every error raised by this package."""


class InvalidValue(VesselXyzError, ValueError):
    """An argument or input value lies outside its domain (e.g. a non-positive focal length)."""


class DimensionMismatch(VesselXyzError):
    """Two maps/masks/cameras that must share dimensions do not."""


class NonPositiveDepth(VesselXyzError):
    """A valid pixel carries depth (or Z) that is zero, negative, or non-finite."""


class EmptyMask(VesselXyzError):
    """A mask that must select at least one pixel selects none."""


class EmptyPairSet(VesselXyzError):
    """A pair set that must contain at least one pixel pair is empty."""


class InvalidEndpoint(VesselXyzError):
    """A pixel pair references a pixel marked invalid in the map."""


class DegenerateScale(VesselXyzError):
    """Too few sign-consistent pairs, or a vanishing denominator, for a scale ratio."""


class DegenerateGT(VesselXyzError):
    """Ground-truth points are (numerically) coincident; normalizers are undefined."""


class TooFewPoints(VesselXyzError):
    """An operation needs more points than the mask provides."""


class EmptySet(VesselXyzError):
    """A point set that must be nonempty is empty."""


class InvalidResolution(VesselXyzError):
    """Mesh tessellation parameters below their minimum."""


class GenerationFailed(VesselXyzError):
    """Procedural generation exhausted its retry budget."""


class EmptyScene(VesselXyzError):
    """Rendering was asked to cast rays against zero triangles."""


class MalformedHeader(VesselXyzError):
    """A PFM/PGM file header is not what the reader expects."""


class TruncatedPayload(VesselXyzError):
    """A PFM/PGM file ends before its declared payload does."""


class MalformedConfig(VesselXyzError):
    """A scene config is not JSON, or has an unknown key, a wrong type or a value out of range."""


class MalformedManifest(VesselXyzError):
    """A scene manifest is not valid JSON or lacks or garbles a field."""


class MissingPrediction(VesselXyzError):
    """An evaluation's ground-truth directory holds no ``*_manifest.json``.

    A missing prediction file is not an error: it gives an absent report row.
    """
