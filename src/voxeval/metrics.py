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

Every family is a small function of additive statistics gathered in one
pass over the prediction (``_one_pass``). The pass walks the flat logical
``[x, y, z]`` C-order in ``grid.CHUNK_VOXELS`` chunks and reads each
chunk's four channels, region codes and rater labels once: a compare
chain gives argmax and max together, Dice TP/FP and the calibration bin
counts and correct-counts are integers, calibration confidence sums are
added voxel by voxel in grid order, and the c_fg/c_bg and volume sums
carry their open SUM_BLOCK-value block across chunks: a volume sum adds
each block, a view of its channel, once the chunks have passed it; a
c_fg/c_bg sum records the grid spans of its chunks and gathers them once
when the block closes. So the results are bit-identical whatever the
chunk size, and the working memory is bounded by one chunk and one block,
not by the grid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .consensus import ConsensusRegions, RegionView, derive_regions
from .errors import ParameterError, VoxevalError
from .grid import N_CHANNELS, ORGAN_CLASSES, LabelVolume, ProbabilityVolume, chunk_bounds, require_same_grid

SQRT_PI = math.sqrt(math.pi)
SQRT_2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Values per pairwise-summed block of compensated_sum.
SUM_BLOCK = 1 << 20


@dataclass(frozen=True)
class EvalConfig:
    """Knobs for a single (case, algorithm) evaluation."""

    #: Dice predicts a voxel where ``p >= threshold``, compared at the
    #: prediction's dtype: for float32 channels the threshold is rounded to
    #: float32 first, so a voxel holding float32(0.7) counts at 0.7.
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


def _block_total(block: np.ndarray) -> float:
    return float(np.sum(block, dtype=np.float64))


class _RegionSum:
    """compensated_sum of one channel over one consensus region, fed chunk by chunk.

    The open block is recorded as the grid spans of the chunks that hold its
    values, not as the values. It is gathered into one block-sized array
    only when it closes, full or holding the region's last voxel, and then
    summed as compensated_sum sums a block, so the total equals
    compensated_sum of the region's values bit for bit while at most one
    block and one chunk are held.
    """

    def __init__(self, values: np.ndarray, view: RegionView):
        self._values, self._view, self._code = values, view, view.code.reshape(-1)
        self._totals: list[float] = []
        self._spans: list[tuple[int, int, int]] = []  # (start, stop, selected values in the block before)
        self._n_open = 0
        self._n_left = view.count()

    def add(self, start: int, stop: int, selected: np.ndarray) -> None:
        """The grid chunk [start, stop), with ``selected`` its voxels in the region."""
        n = self._n_left if stop == self._values.size else int(np.count_nonzero(selected))
        if n == 0:
            return
        self._n_left -= n
        used = 0
        if self._n_open + n >= SUM_BLOCK or not self._n_left:  # a block closes in this chunk
            gathered = self._values[start:stop][selected]
            while used < n and (self._n_open + n - used >= SUM_BLOCK or not self._n_left):
                take = min(SUM_BLOCK - self._n_open, n - used)
                self._close(gathered[used : used + take])
                used += take
        if used < n:  # the rest joins the open block as a span
            self._spans.append((start, stop, used))
            self._n_open += n - used

    def _close(self, tail: np.ndarray) -> None:
        """Gather the open block, ending with ``tail``, and sum it."""
        block = tail
        if self._spans:
            block = np.empty(self._n_open + tail.size, dtype=tail.dtype)
            pos = 0
            for start, stop, skip in self._spans:
                piece = self._values[start:stop][self._view.selects(self._code[start:stop])][skip:]
                block[pos : pos + piece.size] = piece
                pos += piece.size
            block[pos:] = tail
        self._totals.append(_block_total(block))
        self._spans, self._n_open = [], 0

    def total(self) -> float:
        return math.fsum(self._totals)


def compensated_sum(values: np.ndarray) -> float:
    """Sum with error-free combination of pairwise-summed blocks.

    Large float32 maps are summed block-wise in float64 (numpy's pairwise
    reduction) and the block totals combined exactly with math.fsum, so
    1e8-voxel volumes do not drift.
    """
    flat = np.asarray(values).reshape(-1)
    return math.fsum(_block_total(flat[i : i + SUM_BLOCK]) for i in range(0, flat.size, SUM_BLOCK))


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


@dataclass
class _Binning:
    """Calibration statistics of one confidence definition, added chunk by chunk.

    Bin rule shared with the brute-force oracles: floor(conf * M) in
    float64, last bin right-closed. Only the correct-counts per bin
    (``hits``, one array per rater) depend on the rater.
    """

    counts: np.ndarray
    conf_sums: np.ndarray  # float64, added voxel by voxel in grid order
    hits: list[np.ndarray]
    n: int = 0

    @classmethod
    def empty(cls, bins: int, n_raters: int) -> "_Binning":
        return cls(np.zeros(bins, np.intp), np.zeros(bins), [np.zeros(bins, np.intp) for _ in range(n_raters)])

    def add(self, conf, predicted, truths, include) -> None:
        """One chunk: float64 confidences, predictions, each rater's truth, optional mask."""
        if include is not None:
            conf, predicted = conf[include], predicted[include]
            truths = [t[include] for t in truths]
        bins = self.counts.size
        idx = np.minimum(np.floor(conf * bins).astype(np.int64), bins - 1)
        counts = np.bincount(idx, minlength=bins)
        self.counts += counts
        np.add.at(self.conf_sums, idx, conf)  # same order and result as bincount(idx, weights=conf)
        for hits, truth in zip(self.hits, truths):  # gathering the (usually few) wrong voxels is cheap
            hits += counts - np.bincount(idx[predicted != truth], minlength=bins)
        self.n += conf.size

    def results(self, literal: bool) -> list[CalibrationBins]:
        """One CalibrationBins per rater."""
        bins = self.counts.size
        occupied = self.counts > 0
        conf_mean = np.zeros(bins)
        conf_mean[occupied] = self.conf_sums[occupied] / self.counts[occupied]
        denom = bins if literal else self.n
        out = []
        for hits in self.hits:
            acc_mean = np.zeros(bins)
            acc_mean[occupied] = hits[occupied] / self.counts[occupied]
            value = float(np.sum(self.counts[occupied] / denom * np.abs(acc_mean[occupied] - conf_mean[occupied])))
            out.append(CalibrationBins(bins, self.counts, conf_mean, acc_mean, self.n, value, literal))
        return out


@dataclass
class _PassStatistics:
    """What one pass gathered, keyed by class id (or calibration target)."""

    tp: dict[int, int]
    fp: dict[int, int]
    fg_sum: dict[int, _RegionSum]
    bg_sum: dict[int, _RegionSum]
    volume: dict[int, list[float]]  # compensated_sum's block totals
    binning: dict[int | None, _Binning]


def _argmax_max(channels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(argmax, max) over axis 0 in one compare chain; the strict > keeps
    ties on the lowest class id, as np.argmax does."""
    best = channels[0].copy()
    arg = np.zeros(best.shape, dtype=np.uint8)
    for k in range(1, len(channels)):
        arg[channels[k] > best] = k
        np.maximum(best, channels[k], out=best)
    return arg, best


def _one_pass(
    pred: ProbabilityVolume,
    regions: ConsensusRegions | None = None,
    raters: list[LabelVolume] = (),
    *,
    dice=(),
    threshold: float = 0.5,
    argmax_mode: bool = False,
    confidence=(),
    volume=(),
    calibrate=(),
    bins: int = 10,
    include: np.ndarray | RegionView | None = None,
) -> _PassStatistics:
    """Walk the prediction once, chunk by chunk, gathering the requested statistics.

    * ``dice`` class ids: TP/FP of the prediction (``channel >= threshold``,
      or argmax class) in the foreground / background consensus;
    * ``confidence`` class ids: the class probability summed over each
      consensus region;
    * ``volume`` class ids: the class probability summed over the grid;
    * ``calibrate`` targets, binned against every rater: ``None`` is
      multiclass (confidence = max softmax probability, predicted = argmax
      class), a class id is one-vs-rest (confidence = max(p, 1 - p),
      predicted = p >= 0.5). A voxel is correct when predicted matches the
      rater. ``include`` (a grid-shaped boolean mask or a region view)
      restricts the calibrated voxels.
    """
    channels = pred.channels.reshape(N_CHANNELS, -1)
    code = None if regions is None else regions.code.reshape(-1)
    labels = [r.voxels.reshape(-1) for r in raters]
    if include is not None and not isinstance(include, RegionView):
        include = np.asarray(include, dtype=bool).reshape(-1)
        if include.size != channels.shape[1]:
            raise ParameterError(f"include mask has {include.size} voxels, the grid {channels.shape[1]}")
    stats = _PassStatistics(
        tp=dict.fromkeys(dice, 0),
        fp=dict.fromkeys(dice, 0),
        fg_sum={c: _RegionSum(channels[c], regions[c].fg) for c in confidence},
        bg_sum={c: _RegionSum(channels[c], regions[c].bg) for c in confidence},
        volume={c: [] for c in volume},
        binning={t: _Binning.empty(bins, len(raters)) for t in calibrate},
    )
    region_classes = {c: regions[c] for c in (*dice, *confidence)}
    need_argmax = None in stats.binning or (argmax_mode and bool(dice))
    n_voxels, volume_fed = channels.shape[1], 0
    for start, stop in chunk_bounds(n_voxels):
        ch = channels[:, start:stop]
        codes = None if code is None else code[start:stop]
        if need_argmax:
            arg, best = _argmax_max(ch)
        for c, r in region_classes.items():
            fg, bg = r.fg.selects(codes), r.bg.selects(codes)
            if c in stats.tp:
                predicted = arg == c if argmax_mode else ch[c] >= threshold
                stats.tp[c] += int(np.count_nonzero(predicted & fg))
                stats.fp[c] += int(np.count_nonzero(predicted & bg))
            if c in stats.fg_sum:
                stats.fg_sum[c].add(start, stop, fg)
                stats.bg_sum[c].add(start, stop, bg)
        while stop - volume_fed >= SUM_BLOCK or volume_fed < stop == n_voxels:  # blocks the chunks have passed
            block = slice(volume_fed, min(volume_fed + SUM_BLOCK, stop))
            for c, totals in stats.volume.items():
                totals.append(_block_total(channels[c, block]))  # a view: no copy
            volume_fed = block.stop
        if include is None:
            sel = None
        elif isinstance(include, RegionView):
            sel = include.selects(codes)
        else:
            sel = include[start:stop]
        truths = [lab[start:stop] for lab in labels]
        for target, binning in stats.binning.items():
            if target is None:
                binning.add(best.astype(np.float64), arg, truths, sel)
            else:
                p = ch[target].astype(np.float64)
                binning.add(np.maximum(p, 1.0 - p), p >= 0.5, [t == target for t in truths], sel)
    return stats


def _dice(tp: int, fp: int, n_fg: int) -> tuple[float, bool]:
    """(dsc, empty_consensus_fg) from the TP/FP counts and the foreground consensus size."""
    fn = n_fg - tp
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0, n_fg == 0
    return 2.0 * tp / (2.0 * tp + fp + fn), n_fg == 0


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
    instead of NaN. ``argmax_mode`` gives ties to the lowest class id.
    """
    require_same_grid(pred.geometry, regions.geometry, "prediction vs consensus regions")
    stats = _one_pass(pred, regions, dice=(class_id,), threshold=threshold, argmax_mode=argmax_mode)
    return _dice(stats.tp[class_id], stats.fp[class_id], regions[class_id].fg.count())


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


def _mean(acc: _RegionSum, n: int) -> float | None:
    return None if n == 0 else acc.total() / n


def _confidence(stats: _PassStatistics, regions: ConsensusRegions) -> ConfidenceScores:
    c_fg, c_bg, c_seg = {}, {}, {}
    for c, r in regions.per_class.items():
        f = _mean(stats.fg_sum[c], r.fg.count())
        b = _mean(stats.bg_sum[c], r.bg.count())
        c_fg[c], c_bg[c] = f, b
        c_seg[c] = None if (f is None or b is None) else ((1.0 - b) + f) / 2.0
    defined = [v for v in c_seg.values() if v is not None]
    return ConfidenceScores(c_fg, c_bg, c_seg, sum(defined) / len(defined) if defined else None)


def confidence_scores(pred: ProbabilityVolume, regions: ConsensusRegions) -> ConfidenceScores:
    require_same_grid(pred.geometry, regions.geometry, "prediction vs consensus regions")
    return _confidence(_one_pass(pred, regions, confidence=tuple(regions.per_class)), regions)


def _calibrate(pred, raters, class_id, bins, literal, include) -> list[CalibrationBins]:
    """One CalibrationBins per rater for one target (``None`` multiclass, or
    a class id one-vs-rest; see _one_pass), from a single binning."""
    if bins < 2:
        raise ParameterError(f"bin count must be >= 2, got {bins}")
    for r in raters:
        require_same_grid(pred.geometry, r.geometry, "prediction vs rater")
    stats = _one_pass(pred, raters=raters, calibrate=(class_id,), bins=bins, include=include)
    return stats.binning[class_id].results(literal)


def cece(
    pred: ProbabilityVolume,
    rater: LabelVolume,
    bins: int = 10,
    eq2_literal: bool = False,
    include: np.ndarray | None = None,
) -> CalibrationBins:
    """Multiclass calibration error against one rater: max-softmax
    confidence, argmax prediction (see _one_pass)."""
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
    max(p, 1 - p), prediction p >= 0.5 (see _one_pass)."""
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
    require_same_grid(pred.geometry, regions.geometry, "prediction vs consensus regions")
    targets = config.classes if config.ece_per_class else (None,)
    stats = _one_pass(
        pred,
        regions,
        raters,
        dice=config.classes,
        threshold=config.threshold,
        argmax_mode=config.argmax_mode,
        confidence=config.classes,
        volume=config.classes,
        calibrate=targets,
        bins=config.ece_bins,
        include=regions.unanimous if config.ece_exclude_dissensus else None,
    )
    conf = _confidence(stats, regions)

    vv = regions.geometry.voxel_volume_cm3
    dsc, crps, empty_fg, empty_bg, sigma_zero = {}, {}, {}, {}, {}
    for c in config.classes:
        dsc[c], empty_fg[c] = _dice(stats.tp[c], stats.fp[c], regions[c].fg.count())
        empty_bg[c] = regions[c].bg.count() == 0
        mu, sigma, _ = _volume_distribution(regions.rater_counts[c], vv, config.sigma_convention)
        sigma_zero[c] = sigma == 0.0
        predicted = pred.geometry.voxel_volume_cm3 * math.fsum(stats.volume[c])
        crps[c] = crps_gaussian(VolumeDistribution(mu, sigma, predicted))

    values = {t: [b.value for b in stats.binning[t].results(config.eq2_literal)] for t in targets}
    if config.ece_per_class:
        cece_by_class = {c: float(np.mean(values[c])) for c in config.classes}
        mean_cece = sum(cece_by_class.values()) / len(cece_by_class)
    else:
        grid_value = sum(values[None]) / len(values[None])
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
