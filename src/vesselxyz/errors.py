"""Exception hierarchy shared by all vesselxyz modules; the only errors the library raises."""


class VesselXyzError(Exception):
    """Base class for every error raised by this package."""


class InvalidValue(VesselXyzError, ValueError):
    """An argument or input value lies outside its domain.

    For example a non-positive focal length or depth, a non-finite coordinate,
    too few mesh segments, a mesh with no triangles to cast against, or a
    ground-truth directory with no scene manifests.
    """


class DimensionMismatch(VesselXyzError):
    """Two maps/masks/cameras that must share dimensions do not."""


class EmptyMask(VesselXyzError):
    """A mask that must select at least one pixel selects none."""


class InvalidEndpoint(VesselXyzError):
    """A pixel pair references a pixel marked invalid in the map."""


class DegenerateScale(VesselXyzError):
    """Too few sign-consistent pairs, or a vanishing denominator, for a scale ratio."""


class DegenerateGT(VesselXyzError):
    """Ground-truth points are (numerically) coincident; normalizers are undefined."""


class TooFewPoints(VesselXyzError):
    """An operation needs more points, or pixel pairs, than its input provides."""


class GenerationFailed(VesselXyzError):
    """Procedural generation exhausted its retry budget."""


class MalformedHeader(VesselXyzError):
    """A PFM/PGM header is not what the reader expects, or declares more payload than the file holds."""


class MalformedDocument(VesselXyzError):
    """A scene config or manifest is not JSON, or has an unknown or missing key, or a bad value."""
