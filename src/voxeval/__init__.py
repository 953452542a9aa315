"""Multi-rater evaluation of probabilistic multi-organ segmentations.

Library + CLI covering consensus-restricted Dice, consensus confidence,
confidence calibration error, volumetric CRPS, composite ranking, and
bootstrap ranking-stability analysis, plus synthetic phantoms with
known ground truth for desk-scale verification.
"""

__version__ = "0.1.0"

from .consensus import ConsensusRegions, derive_regions
from .grid import (
    CLASS_NAMES,
    ORGAN_CLASSES,
    GridGeometry,
    LabelVolume,
    ProbabilityVolume,
)
from .manifest import DatasetManifest, load_manifest
from .metrics import (
    CalibrationBins,
    CaseMetrics,
    ConfidenceScores,
    EvalConfig,
    VolumeDistribution,
    cece,
    cece_multirater,
    confidence_scores,
    crps_gaussian,
    dsc_consensus,
    evaluate_case,
    predicted_volume,
    rater_volume_distribution,
)
from .nifti import read_nifti, read_volume, write_nifti
from .phantom import Phantom, PhantomSpec, PredictionModel, Sphere, generate
from .ranking import RankingTable, composite_ranking, rank_cases, rank_metric
from .stability import BootstrapSummary, bootstrap_ranks, bubble_export

__all__ = [
    "__version__",
    "CLASS_NAMES",
    "ORGAN_CLASSES",
    "GridGeometry",
    "LabelVolume",
    "ProbabilityVolume",
    "DatasetManifest",
    "load_manifest",
    "ConsensusRegions",
    "derive_regions",
    "CalibrationBins",
    "CaseMetrics",
    "ConfidenceScores",
    "EvalConfig",
    "VolumeDistribution",
    "cece",
    "cece_multirater",
    "confidence_scores",
    "crps_gaussian",
    "dsc_consensus",
    "evaluate_case",
    "predicted_volume",
    "rater_volume_distribution",
    "read_nifti",
    "read_volume",
    "write_nifti",
    "Phantom",
    "PhantomSpec",
    "PredictionModel",
    "Sphere",
    "generate",
    "RankingTable",
    "composite_ranking",
    "rank_cases",
    "rank_metric",
    "BootstrapSummary",
    "bootstrap_ranks",
    "bubble_export",
]
