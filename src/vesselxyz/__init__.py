"""vesselxyz: camera-agnostic 3D reconstruction toolkit.

Per-pixel XYZ maps and depth maps, translation/scale-invariant pairwise
losses with analytic gradients, a full evaluation-metric suite, procedural
vessel-scene generation, and a ray-cast renderer for ground-truth maps.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateGT,
    DegenerateScale,
    DimensionMismatch,
    EmptyMask,
    GenerationFailed,
    InvalidEndpoint,
    InvalidValue,
    MalformedDocument,
    MalformedHeader,
    TooFewPoints,
    VesselXyzError,
)
from .geometry import (
    DepthMap,
    MaterialVector,
    PairSet,
    PinholeCamera,
    SegMask,
    TriMesh,
    XyzMap,
    build_pair_set,
    default_dilations,
    depth_to_xyz,
    masked_points,
    pair_differences,
)
from .losses import (
    LossReport,
    ScaleFactor,
    loss_gradient,
    scale_factor,
    scale_invariant_loss,
    translation_invariant_loss,
)
from .metrics import (
    EvalReport,
    MaterialErrors,
    SegReport,
    SimilarityTransform,
    chamfer,
    evaluate_xyz,
    mad,
    mae_points,
    material_mae,
    max_dst,
    r_squared,
    seg_eval,
    similarity_from_region,
)
from .procgen import (
    GroundPlane,
    LinearTerm,
    PolynomialTerm,
    ProfileConfig,
    SceneConfig,
    SceneRecord,
    SinusoidTerm,
    VesselProfile,
    assemble_scene,
    flat_liquid_fill,
    generate_profile,
    look_at_camera,
    opening_plane,
    profile_to_mesh,
)
from .renderer import RenderOutput, clean_depth, render_scene
from .formats import (
    read_depth_pfm,
    read_pgm,
    read_xyz_pfm,
    write_obj,
    write_pfm,
    write_pgm,
)
from .manifest import SceneManifest, emit_scene, load_manifest
from .evaluation import run_eval
from .report import ReportDocument
