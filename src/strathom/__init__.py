"""strathom: numerical toolkit for foliated stratifications of R^n.

Models prestratifications whose strata are parametrized submanifolds,
validates constant-rank hypotheses for a stratifying map, decides
regularity conditions at boundary points by Grassmannian limit analysis,
and reproduces the associated stability/instability phenomena at desk
scale.

A stratified map here means a map of constant rank on each stratum; the
fibers of its restriction foliate the stratum, and all regularity
conditions are statements about the leaf tangents of those foliations.
Stronger notions of stratified map exist in the literature; the
validators in this package certify exactly the constant-rank property
and nothing more.
"""

__version__ = "0.1.0"

from .constructions import (
    DestabilizerSequence,
    RankDropMap,
    SampledSheet,
    bump,
    choose_complement_H,
    destabilizing_sequence,
    rank_drop_map,
    tf_witness,
)
from .dsl import SmoothMap, parse_expr, parse_map
from .gallery import GalleryEntry, blowup_scene, gallery, gallery_entry
from .grassmann import (
    Subspace,
    grassmann_distance,
    grassmann_limit,
    grassmann_limits,
    kernel,
    principal_angles,
    span_of,
    subspace_intersection,
    subspace_sum,
)
from .regularity import (
    RegularityVerdict,
    Status,
    check_af_at,
    check_afs_at,
    check_tf_at,
    check_whitney_a_at,
    transverse_at,
)
from .scene import Scene, load_scene, scene_from_dict
from .strata import (
    ApproachPlan,
    Incidence,
    Prestratification,
    StratifiedMapContext,
    Stratum,
    approach_sequence,
    tangent_space,
    validate_constant_rank,
    validate_prestratification,
)

__all__ = [
    "__version__",
    "SmoothMap",
    "parse_expr",
    "parse_map",
    "Subspace",
    "grassmann_distance",
    "grassmann_limit",
    "grassmann_limits",
    "kernel",
    "principal_angles",
    "span_of",
    "subspace_intersection",
    "subspace_sum",
    "Stratum",
    "Incidence",
    "Prestratification",
    "StratifiedMapContext",
    "ApproachPlan",
    "approach_sequence",
    "tangent_space",
    "validate_constant_rank",
    "validate_prestratification",
    "Status",
    "RegularityVerdict",
    "check_af_at",
    "check_afs_at",
    "check_tf_at",
    "check_whitney_a_at",
    "transverse_at",
    "bump",
    "rank_drop_map",
    "RankDropMap",
    "choose_complement_H",
    "destabilizing_sequence",
    "DestabilizerSequence",
    "tf_witness",
    "SampledSheet",
    "GalleryEntry",
    "gallery",
    "gallery_entry",
    "blowup_scene",
    "Scene",
    "load_scene",
    "scene_from_dict",
]
