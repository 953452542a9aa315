"""Per-case evaluation metrics.

Four families, all computed per organ class and then averaged across
the three organs:

* consensus-restricted Dice: false positives can only occur in the
  consensus background, false negatives only in the consensus
  foreground; dissensus voxels contribute nothing;
* consensus confidence: ``c_seg = ((1 - c_bg) + c_fg) / 2`` where c_fg /
  c_bg are the mean predicted class probability over the foreground /
  background consensus;
* confidence expected calibration error over max-softmax confidence:
  each prediction's confidences are binned once, every rater is scored
  against those bins, and the per-rater errors are averaged;
* volumetric CRPS of the probability-summed predicted volume against a
  Gaussian fitted to the rater volumes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .consensus import ConsensusRegions, RegionView, derive_regions
from .errors import ParameterError, VoxevalError
from .grid import ORGAN_CLASSES, LabelVolume, ProbabilityVolume, require_same_grid

SQRT_PI = math.sqrt(math.pi)
SQRT_2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EvalConfig:
    """Knobs for a single (case, algorithm) evaluation."""

    threshold: float = 0.5
    argmax_mode: bool = False
    ece_bins: int = 10
    eq2_literal: bool = False
    ece_per_class: bool = False
    ece_exclude_dissensus: bool = False
    sigma_convention: str = "population"
    classes: tuple[int, ...] = ORGAN_CLASSES

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ParameterError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.ece_bins < 2:
            raise ParameterError(f"ece_bins must be >= 2, got {self.ece_bins}")
        if self.sigma_convention not in ("population", "sample"):
            raise ParameterError(f"unknown sigma convention {self.sigma_convention!r}")
        if not self.classes or any(c not in ORGAN_CLASSES for c in self.classes):
            raise ParameterError(f"classes must be a non-empty subset of {ORGAN_CLASSES}")


def compensated_sum(values: np.ndarray) -> float:
    """Sum with error-free combination of pairwise-summed chunks.

    Large float32 maps are summed chunk-wise in float64 (numpy's pairwise
    reduction) and the chunk totals combined exactly with math.fsum, so
    1e8-voxel volumes do not drift.
    """
    flat = np.asarray(values).reshape(-1)
    step = 1 << 20
    return math.fsum(
        float(np.sum(flat[i : i + step], dtype=np.float64)) for i in range(0, flat.size, step)
    )


def dsc_consensus(
    pred: ProbabilityVolume,
    regions: ConsensusRegions,
    class_id: int,
    threshold: float = 0.5,
    argmax_mode: bool = False,
) -> tuple[float, bool]:
    """Consensus-restricted Dice for one class.

    Returns (dsc, empty_consensus_fg). TP/FN are counted inside the
    foreground consensus, FP inside the background consensus; the
    degenerate all-empty case (no consensus foreground, nothing
    predicted in the consensus background) scores 1.0 with the flag set
    instead of NaN.
    """
    require_same_grid(pred.geometry, regions.geometry, "prediction vs consensus regions")
    r = regions[class_id]
    if argmax_mode:  # ties go to the lowest class id, as in np.argmax
        predicted = np.argmax(pred.channels, axis=0) == class_id
    else:
        predicted = pred.channels[class_id] >= threshold
    tp = int(np.count_nonzero(predicted & r.fg.to_bool()))
    fp = int(np.count_nonzero(predicted & r.bg.to_bool()))
    fn = r.fg.count() - tp
    empty = r.fg.count() == 0
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0, empty
    return 2.0 * tp / (2.0 * tp + fp + fn), empty


@dataclass(frozen=True)
class ConfidenceScores:
    """Eq-style consensus confidence per class.

    Classes whose foreground or background consensus is empty get None
    and are skipped from the mean.
    """

    c_fg: dict[int, float | None]
    c_bg: dict[int, float | None]
    c_seg: dict[int, float | None]
    mean: float | None


def _mask_mean(channel: np.ndarray, mask: RegionView) -> float | None:
    n = mask.count()
    if n == 0:
        return None
    return compensated_sum(channel[mask.to_bool()]) / n


def confidence_scores(pred: ProbabilityVolume, regions: ConsensusRegions) -> ConfidenceScores:
    require_same_grid(pred.geometry, regions.geometry, "prediction vs consensus regions")
    c_fg, c_bg, c_seg = {}, {}, {}
    for c, r in regions.per_class.items():
        f = _mask_mean(pred.channels[c], r.fg)
        b = _mask_mean(pred.channels[c], r.bg)
        c_fg[c], c_bg[c] = f, b
        c_seg[c] = None if (f is None or b is None) else ((1.0 - b) + f) / 2.0
    defined = [v for v in c_seg.values() if v is not None]
    return ConfidenceScores(c_fg, c_bg, c_seg, sum(defined) / len(defined) if defined else None)


@dataclass(frozen=True)
class CalibrationBins:
    """Equal-width confidence binning and the resulting calibration error.

    ``value`` is sum over occupied bins of weight * |acc - conf|, with
    weight = count / n_evaluated by default. The literal-equation mode
    weights by count / bin_count instead (kept for comparison; it does
    not normalize to a weighted average). The records of one prediction's
    raters share their ``counts`` and ``conf_mean`` arrays.
    """

    bin_count: int
    counts: np.ndarray = field(repr=False)
    conf_mean: np.ndarray = field(repr=False)
    acc_mean: np.ndarray = field(repr=False)
    n_evaluated: int
    value: float
    literal_weighting: bool = False

    def rows(self) -> list[dict]:
        out = []
        for m in range(self.bin_count):
            if self.counts[m]:
                out.append(
                    {
                        "bin": m,
                        "lo": m / self.bin_count,
                        "hi": (m + 1) / self.bin_count,
                        "count": int(self.counts[m]),
                        "conf": float(self.conf_mean[m]),
                        "acc": float(self.acc_mean[m]),
                    }
                )
        return out


def _calibrate(pred, raters, class_id, bins, literal, include) -> list[CalibrationBins]:
    """Bin the prediction's confidences once; return one CalibrationBins per rater.

    ``class_id=None`` is multiclass: confidence = max softmax probability,
    predicted = argmax class (ties to the lowest class id). A class id is
    one-vs-rest: confidence = max(p, 1 - p) of its channel, predicted =
    p >= 0.5. A voxel is correct when predicted matches the rater.
    ``include`` optionally restricts the voxels (e.g. to unanimous ones).
    Bin rule shared with the brute-force oracles: floor(conf * M) in
    float64, last bin right-closed. Only the correct-counts per bin
    depend on the rater.
    """
    if bins < 2:
        raise ParameterError(f"bin count must be >= 2, got {bins}")
    for r in raters:
        require_same_grid(pred.geometry, r.geometry, "prediction vs rater")
    if class_id is None:
        conf = pred.channels.max(axis=0)
        predicted = np.argmax(pred.channels, axis=0)
        correct = (predicted == r.voxels for r in raters)
    else:
        p = pred.channels[class_id].astype(np.float64, copy=False)
        predicted = p >= 0.5
        conf = np.maximum(p, 1.0 - p)
        del p
        correct = (predicted == (r.voxels == class_id) for r in raters)
    if include is not None:
        conf = conf[include]
        correct = (c[include] for c in correct)
    conf = conf.astype(np.float64, copy=False).reshape(-1)
    idx = np.minimum(np.floor(conf * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    conf_sums = np.bincount(idx, weights=conf, minlength=bins)
    n = conf.size
    del conf
    occupied = counts > 0
    conf_mean = np.zeros(bins)
    conf_mean[occupied] = conf_sums[occupied] / counts[occupied]
    denom = bins if literal else n

    out = []
    for c in correct:
        acc_sums = np.bincount(idx, weights=c.reshape(-1), minlength=bins)
        acc_mean = np.zeros(bins)
        acc_mean[occupied] = acc_sums[occupied] / counts[occupied]
        value = float(np.sum(counts[occupied] / denom * np.abs(acc_mean[occupied] - conf_mean[occupied])))
        out.append(CalibrationBins(bins, counts, conf_mean, acc_mean, n, value, literal))
    return out


def cece(
    pred: ProbabilityVolume,
    rater: LabelVolume,
    bins: int = 10,
    eq2_literal: bool = False,
    include: np.ndarray | None = None,
) -> CalibrationBins:
    """Multiclass calibration error against one rater: max-softmax
    confidence, argmax prediction (see _calibrate)."""
    return _calibrate(pred, [rater], None, bins, eq2_literal, include)[0]


def cece_binary(
    pred: ProbabilityVolume,
    rater: LabelVolume,
    class_id: int,
    bins: int = 10,
    eq2_literal: bool = False,
    include: np.ndarray | None = None,
) -> CalibrationBins:
    """One-vs-rest calibration error for a single class: confidence
    max(p, 1 - p), prediction p >= 0.5 (see _calibrate)."""
    return _calibrate(pred, [rater], class_id, bins, eq2_literal, include)[0]


def cece_multirater(
    pred: ProbabilityVolume,
    raters: list[LabelVolume],
    bins: int = 10,
    eq2_literal: bool = False,
    include: np.ndarray | None = None,
) -> float:
    """Mean of the per-rater multiclass calibration errors."""
    values = [b.value for b in _calibrate(pred, raters, None, bins, eq2_literal, include)]
    return sum(values) / len(values)


def predicted_volume(pred: ProbabilityVolume, class_id: int) -> float:
    """Probability-summed volume in cm^3; no thresholding."""
    return pred.geometry.voxel_volume_cm3 * compensated_sum(pred.channels[class_id])


@dataclass(frozen=True)
class VolumeDistribution:
    """Gaussian fitted to the rater volumes, plus the point prediction."""

    mu: float
    sigma: float
    predicted: float


def rater_volume_distribution(
    raters: list[LabelVolume], class_id: int, convention: str = "population"
) -> tuple[float, float, tuple[float, ...]]:
    """(mu, sigma, per-rater volumes) of class volumes in cm^3.

    sigma uses the population convention (divide by R) by default: the
    raters are the whole rater population for a case. 'sample' switches
    to the R-1 divisor (a single rater then yields sigma = 0).

    Statistics run on the integer voxel counts and are scaled to cm^3
    afterwards, so unanimous raters give sigma exactly 0 and a mean that
    bit-matches an exact prediction's probability-summed volume.
    """
    geometry = raters[0].geometry
    for i, r in enumerate(raters[1:], start=1):
        require_same_grid(geometry, r.geometry, f"rater 0 vs rater {i}")
    counts = [int(np.count_nonzero(r.voxels == class_id)) for r in raters]
    return _volume_distribution(counts, geometry.voxel_volume_cm3, convention)


def _volume_distribution(counts, vv: float, convention: str) -> tuple[float, float, tuple[float, ...]]:
    """(mu, sigma, volumes) in cm^3 from per-rater voxel counts and the voxel volume."""
    counts = np.array(counts)
    mu = float(np.mean(counts)) * vv
    if convention == "sample":
        sigma = float(np.std(counts, ddof=1)) * vv if len(counts) > 1 else 0.0
    else:
        sigma = float(np.std(counts)) * vv
    return mu, sigma, tuple(float(c) * vv for c in counts)


def crps_gaussian(dist: VolumeDistribution) -> float:
    """Closed-form CRPS of a Gaussian reference against a point value.

    For sigma > 0:  sigma * (z * (2 * Phi(z) - 1) + 2 * phi(z) - 1/sqrt(pi))
    with z = (predicted - mu) / sigma. The sigma = 0 limit is
    |predicted - mu|.
    """
    if dist.sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {dist.sigma}")
    if dist.sigma == 0.0:
        return abs(dist.predicted - dist.mu)
    z = (dist.predicted - dist.mu) / dist.sigma
    cdf = 0.5 * (1.0 + math.erf(z / SQRT_2))
    pdf = math.exp(-0.5 * z * z) / SQRT_2PI
    return dist.sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / SQRT_PI)


@dataclass(frozen=True)
class CaseMetrics:
    """All metrics for one (case, algorithm) pair.

    Per-class maps are keyed by organ class id. c_seg entries are None
    where a consensus mask was empty; those classes are excluded from
    mean_c_seg. In the default multiclass calibration mode the per-class
    cece entries all hold the same grid-level value.
    """

    case_id: str
    algorithm: str
    dsc: dict[int, float]
    c_seg: dict[int, float | None]
    cece: dict[int, float]
    crps: dict[int, float]
    mean_dsc: float
    mean_c_seg: float | None
    mean_cece: float
    mean_crps: float
    empty_consensus_fg: dict[int, bool]
    empty_consensus_bg: dict[int, bool]
    sigma_zero: dict[int, bool]

    def metric_mean(self, metric: str) -> float:
        value = {
            "dsc": self.mean_dsc,
            "confidence": self.mean_c_seg,
            "ece": self.mean_cece,
            "crps": self.mean_crps,
        }[metric]
        return math.nan if value is None else value


METRIC_NAMES = ("dsc", "confidence", "ece", "crps")


def evaluate_case(
    pred: ProbabilityVolume,
    raters: list[LabelVolume],
    config: EvalConfig = EvalConfig(),
    case_id: str = "",
    algorithm: str = "",
    regions: ConsensusRegions | None = None,
) -> CaseMetrics:
    """Compute all four metric families for one prediction.

    ``regions`` are the raters' ``derive_regions(raters, config.classes)``;
    a case with several algorithms derives them once and passes them in.
    Errors are re-raised with (case, algorithm) context attached.
    """
    try:
        return _evaluate_case(pred, raters, config, case_id, algorithm, regions)
    except VoxevalError as exc:
        raise type(exc)(f"case {case_id!r}, algorithm {algorithm!r}: {exc}") from exc


def _evaluate_case(pred, raters, config, case_id, algorithm, regions) -> CaseMetrics:
    for i, r in enumerate(raters):
        require_same_grid(pred.geometry, r.geometry, f"prediction vs rater {i}")
    if regions is None:
        regions = derive_regions(raters, classes=config.classes)
    elif tuple(regions.per_class) != config.classes:
        raise ParameterError(f"regions derived for classes {tuple(regions.per_class)}, config has {config.classes}")
    conf = confidence_scores(pred, regions)

    include = None
    if config.ece_exclude_dissensus:
        include = regions.unanimous.to_bool()

    vv = regions.geometry.voxel_volume_cm3
    dsc, crps, empty_fg, empty_bg, sigma_zero = {}, {}, {}, {}, {}
    for c in config.classes:
        dsc[c], empty_fg[c] = dsc_consensus(pred, regions, c, config.threshold, config.argmax_mode)
        empty_bg[c] = regions[c].bg.count() == 0
        mu, sigma, _ = _volume_distribution(regions.rater_counts[c], vv, config.sigma_convention)
        sigma_zero[c] = sigma == 0.0
        crps[c] = crps_gaussian(VolumeDistribution(mu, sigma, predicted_volume(pred, c)))

    if config.ece_per_class:
        cece_by_class = {}
        for c in config.classes:
            per_rater = _calibrate(pred, raters, c, config.ece_bins, config.eq2_literal, include)
            cece_by_class[c] = float(np.mean([b.value for b in per_rater]))
        mean_cece = sum(cece_by_class.values()) / len(cece_by_class)
    else:
        grid_value = cece_multirater(pred, raters, config.ece_bins, config.eq2_literal, include)
        cece_by_class = {c: grid_value for c in config.classes}
        mean_cece = grid_value

    return CaseMetrics(
        case_id=case_id,
        algorithm=algorithm,
        dsc=dsc,
        c_seg=conf.c_seg,
        cece=cece_by_class,
        crps=crps,
        mean_dsc=sum(dsc.values()) / len(dsc),
        mean_c_seg=conf.mean,
        mean_cece=mean_cece,
        mean_crps=sum(crps.values()) / len(crps),
        empty_consensus_fg=empty_fg,
        empty_consensus_bg=empty_bg,
        sigma_zero=sigma_zero,
    )
