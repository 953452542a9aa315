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
chunk's four channels, region codes and rater labels once. The raters
come packed at two bits a voxel (``consensus.PackedLabels``): with shared
regions, ``evaluate_case`` scores them from ``regions.labels`` and needs
no label map, and the calibration entry points pack their own. A compare
chain gives argmax and max together, Dice TP/FP and the calibration bin
counts and correct-counts are integers, calibration confidence sums are
added voxel by voxel in grid order, and every c_fg, c_bg and volume sum
is one ``_BlockSum``: it carries its open SUM_BLOCK-value block across
chunks as grid spans and sums it when it closes, as a view of the channel
where the block is one run of whole chunks (always, for a volume). So the
results are bit-identical whatever the chunk size, and the working memory
is bounded by one chunk and one block, not by the grid.

Homogeneous chunks skip per-voxel work and give the same bits. A chunk of
one region code selects each region wholly or not at all: Dice counts its
predicted voxels, and a c_fg/c_bg sum takes it as a plain slice, with no
mask and no gather. A chunk whose confidences share one calibration bin
(the bins of its smallest and largest match) adds its count and its
correct-counts to that bin, and continues the bin's confidence sum with a
cumsum, in voxel order as np.add.at does. Where every calibrated voxel is
rater-unanimous (the chunk's codes all carry the unanimous bit, or
calibration is restricted to those voxels) only rater 0's labels are
unpacked and scored, for every rater. The restricted selection is gathered
once per chunk for all calibration targets.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .consensus import UNANIMOUS_BIT, ConsensusRegions, PackedLabels, RegionView, derive_regions, pack_labels
from .errors import ParameterError, VoxevalError
from .grid import N_CHANNELS, ORGAN_CLASSES, LabelVolume, ProbabilityVolume, chunk_bounds, require_same_grid

SQRT_PI = math.sqrt(math.pi)
SQRT_2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Values per block of a channel sum over the grid or a region (``_BlockSum``): each block,
#: in grid order, is summed in float64 by np.sum (pairwise) and math.fsum adds the block
#: totals exactly, so 1e8-voxel volumes do not drift and every chunk size gives the same bits.
SUM_BLOCK = 1 << 20

#: The most calibration bins: a chunk's bin tables then never outgrow the
#: ``grid.CHUNK_VOXELS`` voxels they count.
_MAX_BINS = 1 << 16


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
        _require_bin_count(self.ece_bins)
        _require_sigma_convention(self.sigma_convention)
        if not self.classes or any(c not in ORGAN_CLASSES for c in self.classes):
            raise ParameterError(f"classes must be a non-empty subset of {ORGAN_CLASSES}")
        # the organ means add the classes in this order, so every caller's order gives the same bits
        object.__setattr__(self, "classes", tuple(sorted(set(self.classes))))


def _require_bin_count(bins: int) -> None:
    if bins < 2:
        raise ParameterError(f"ece_bins must be >= 2, got {bins}")
    if bins > _MAX_BINS:
        raise ParameterError(f"ece_bins must be <= {_MAX_BINS}, got {bins}")


def _require_sigma_convention(convention: str) -> None:
    if convention not in ("population", "sample"):
        raise ParameterError(f"unknown sigma convention {convention!r}")


class _BlockSum:
    """The SUM_BLOCK sum of one channel over the grid (``view`` None) or a region, fed chunk by chunk.

    The open block is recorded as the grid spans of the chunks that hold its
    values, not as the values; contiguous whole chunks join one span. When it
    closes, full or holding the last voxel, a block that is one such run is
    summed as a view of the channel, any other is gathered into one array
    first. np.sum gives a view and a contiguous copy of the same values the
    same bits, so the total is the SUM_BLOCK sum bit for bit while at most
    one block and one chunk are held.
    """

    def __init__(self, values: np.ndarray, view: RegionView | None = None):
        self._values, self._view = values, view
        self._code = None if view is None else view.code.reshape(-1)
        self._totals: list[float] = []
        # (start, stop, selected values in the block before, whether the chunks lie wholly in the region)
        self._spans: list[tuple[int, int, int, bool]] = []
        self._n_open = 0
        self._n_left = values.size if view is None else view.count()

    def add(self, start: int, stop: int, selected: np.ndarray | bool) -> None:
        """The grid chunk [start, stop), with ``selected`` its voxels in the region: a mask,
        or a Python bool when the chunk lies wholly inside or wholly outside it."""
        if selected is False:
            return
        full = selected is True  # the chunk's values are a plain slice: no mask, no gather
        n = self._n_left if stop == self._values.size else stop - start if full else int(np.count_nonzero(selected))
        if n == 0:
            return
        self._n_left -= n
        used = 0
        if self._n_open + n >= SUM_BLOCK or not self._n_left:  # a block closes in this chunk
            gathered = self._values[start:stop] if full else self._values[start:stop][selected]
            while used < n and (self._n_open + n - used >= SUM_BLOCK or not self._n_left):
                take = min(SUM_BLOCK - self._n_open, n - used)
                self._close(gathered[used : used + take], start if full else None)
                used += take
        if used < n:  # the rest joins the open block, extending its run when it continues one
            last = self._spans[-1] if self._spans else None
            if full and last and last[3] and last[1] == start:
                self._spans[-1] = (last[0], stop, last[2], True)
            else:
                self._spans.append((start, stop, used, full))
            self._n_open += n - used

    def _close(self, tail: np.ndarray, tail_start: int | None) -> None:
        """Sum the open block, ending with ``tail``: the channel from ``tail_start`` on, or gathered (None)."""
        block, spans = tail, self._spans
        if len(spans) == 1 and spans[0][3] and spans[0][1] == tail_start:  # one run of whole chunks
            block = self._values[spans[0][0] + spans[0][2] : tail_start + tail.size]
        elif spans:
            block = np.empty(self._n_open + tail.size, dtype=tail.dtype)
            pos = 0
            for start, stop, skip, full in spans:
                values = self._values[start:stop]
                piece = (values if full else values[self._view.selects(self._code[start:stop])])[skip:]
                block[pos : pos + piece.size] = piece
                pos += piece.size
            block[pos:] = tail
        self._totals.append(float(np.sum(block, dtype=np.float64)))
        self._spans, self._n_open = [], 0

    def total(self) -> float:
        return math.fsum(self._totals)


def mean_in_order(rows):
    """Mean over the leading axis of a non-empty ``rows``, of shape
    ``rows.shape[1:]``: the rows are added in float64 one at a time, in
    order, starting from 0.0, then divided by their count.

    The organ means of a case, the case and group means, the averaged ranks,
    the composite and every bootstrap resample mean are taken here, so their
    bits depend on neither the Python version (``sum`` of floats is
    compensated from 3.12 on) nor numpy's reduction order (pairwise along a
    contiguous axis).
    """
    rows = np.asarray(rows, dtype=np.float64)
    total = 0.0 + rows[0]  # a new array, and -0.0 becomes 0.0 as 0.0 + -0.0 does
    for row in rows[1:]:
        total += row
    return total / len(rows)


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
    exact: list[bool]  # per bin: its confidences add exactly in any order (see _exact_bins)
    n: int = 0

    @classmethod
    def empty(cls, bins: int, n_raters: int, exact: list[bool] | None = None) -> "_Binning":
        return cls(np.zeros(bins, np.intp), np.zeros(bins), [np.zeros(bins, np.intp) for _ in range(n_raters)],
                   [False] * bins if exact is None else exact)

    def add(self, conf, predicted, truths) -> None:
        """One chunk: float64 confidences (overwritten), predictions and each rater's
        truth; a single truth stands for every rater.

        Each bin's confidence sum is a running total that every voxel continues, in
        grid order, across chunks. When all of the chunk's confidences share a bin
        (the bin rule is monotone, so the bins of the smallest and the largest
        match), cumsum from that total adds them exactly as np.add.at does, and in
        an exact bin every order gives those bits, so np.sum adds them.
        """
        n, bins = conf.size, self.counts.size
        if n == 0:
            return
        smallest, largest = conf.min(), conf.max()
        if largest > 1.0:  # only the top bin holds values above 1; _exact_bins assumes none
            self.exact[-1] = False
        lo, hi = (min(math.floor(c * bins), bins - 1) for c in (smallest, largest))
        if lo == hi:
            at, counts = lo, n
            if lo > 0 and self.exact[lo]:  # a negative lo is a confidence below 0: no floor
                self.conf_sums[lo] += np.sum(conf)
            else:
                conf[0] += self.conf_sums[lo]
                self.conf_sums[lo] = np.cumsum(conf, out=conf)[-1]
            wrong = [np.count_nonzero(predicted != truth) for truth in truths]
        else:
            idx = np.minimum(np.floor(conf * bins).astype(np.int64), bins - 1)
            at, counts = slice(None), np.bincount(idx, minlength=bins)
            np.add.at(self.conf_sums, idx, conf)  # each voxel continues its bin's running total, in order
            # gathering the (usually few) wrong voxels is cheap
            wrong = [np.bincount(idx[predicted != truth], minlength=bins) for truth in truths]
        self.counts[at] += counts
        for hits, w in zip(self.hits, wrong * len(self.hits) if len(wrong) == 1 else wrong):
            hits[at] += counts - w
        self.n += n

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


def _exact_bins(bins: int, n_voxels: int) -> list[bool]:
    """Per bin: whether float32 confidences in it, at most ``n_voxels`` of them and
    none above 1, add exactly in float64 in any order.

    v * bins is exact in float64 for a float32 v (bins <= _MAX_BINS < 2**29), so every value
    in bin b >= 1 is at least b / bins, at least 2**e for e = floor(log2(b /
    bins)), and so a multiple of 2**(e - 23). Every partial sum is then a
    multiple of it of at most ``n_voxels``, which float64 holds exactly while
    ``n_voxels <= 2**(e + 30)``: in every bin from the first b >= bins * 2**k
    on, k the smallest such e. Bin 0 has no floor.
    """
    k = (n_voxels - 1).bit_length() - 30
    first = min(bins, max(1, bins << k if k >= 0 else -(-bins >> -k)))  # ceil(bins * 2**k)
    return [False] * first + [True] * (bins - first)


@dataclass
class _PassStatistics:
    """What one pass gathered, keyed by class id (or calibration target)."""

    tp: dict[int, int]
    fp: dict[int, int]
    fg_sum: dict[int, _BlockSum]
    bg_sum: dict[int, _BlockSum]
    volume: dict[int, _BlockSum]  # each class channel over the grid
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
    labels: PackedLabels | None = None,
    *,
    dice=(),
    threshold: float = 0.5,
    argmax_mode: bool = False,
    confidence=(),
    volume=(),
    calibrate=(),
    bins: int = 10,
    include: RegionView | None = None,
) -> _PassStatistics:
    """Walk the prediction once, chunk by chunk, gathering the requested statistics.

    * ``dice`` class ids: TP/FP of the prediction (``channel >= threshold``,
      or argmax class) in the foreground / background consensus;
    * ``confidence`` class ids: the class probability summed over each
      consensus region;
    * ``volume`` class ids: the class probability summed over the grid;
    * ``calibrate`` targets, binned against every rater of ``labels``: ``None`` is
      multiclass (confidence = max softmax probability, predicted = argmax
      class), a class id is one-vs-rest (confidence = max(p, 1 - p),
      predicted = p >= 0.5). A voxel is correct when predicted matches the
      rater. ``include``, a region view over a code of the grid's size,
      restricts the calibrated voxels.
    """
    channels = pred.channels.reshape(N_CHANNELS, -1)
    code = None if regions is None else regions.code.reshape(-1)
    include_code = None if include is None else include.code.reshape(-1)
    n_raters = 0 if labels is None else labels.n_raters
    stats = _PassStatistics(
        tp=dict.fromkeys(dice, 0),
        fp=dict.fromkeys(dice, 0),
        fg_sum={c: _BlockSum(channels[c], regions[c].fg) for c in confidence},
        bg_sum={c: _BlockSum(channels[c], regions[c].bg) for c in confidence},
        volume={c: _BlockSum(channels[c]) for c in volume},
        # multiclass float32 confidences have a floor in each bin b >= 1, one-vs-rest ones (1 - p in float64) do not
        binning={t: _Binning.empty(bins, n_raters, _exact_bins(bins, channels.shape[1])
                                   if t is None and channels.dtype == np.float32 else None) for t in calibrate},
    )
    region_classes = {c: regions[c] for c in (*dice, *confidence)}
    need_argmax = None in stats.binning or (argmax_mode and bool(dice))
    # the regions' unanimous bit speaks for these raters only
    shared_labels = regions is not None and labels is regions.labels
    for start, stop in chunk_bounds(channels.shape[1]):
        ch = channels[:, start:stop]
        codes = None if code is None else _one_code(code[start:stop])
        if need_argmax:
            arg, best = _argmax_max(ch)
        for c, r in region_classes.items():
            fg, bg = r.fg.selects(codes), r.bg.selects(codes)
            if c in stats.tp:
                predicted = arg == c if argmax_mode else ch[c] >= threshold
                stats.tp[c] += _count_selected(predicted, fg)
                stats.fp[c] += _count_selected(predicted, bg)
            if c in stats.fg_sum:
                stats.fg_sum[c].add(start, stop, fg)
                stats.bg_sum[c].add(start, stop, bg)
        for acc in stats.volume.values():
            acc.add(start, stop, True)
        sel = True if include is None else include.selects(_one_code(include_code[start:stop]))
        if not stats.binning or sel is False:
            continue
        sel = slice(None) if sel is True else sel  # a view of the whole chunk, or one gather for every target
        # where every calibrated voxel is unanimous, rater 0's truth is every rater's
        one_truth = shared_labels and (include is regions.unanimous or np.min(codes) >= UNANIMOUS_BIT)
        truths = [labels.rater(r, start, stop)[sel] for r in range(1 if one_truth else n_raters)]
        for target, binning in stats.binning.items():
            if target is None:
                binning.add(best[sel].astype(np.float64), arg[sel], truths)
            else:
                p = ch[target][sel].astype(np.float64)
                binning.add(np.maximum(p, 1.0 - p), p >= 0.5, [t == target for t in truths])
    return stats


def _one_code(codes: np.ndarray) -> np.ndarray | int:
    """A chunk's region codes, or their one value as a Python int when all are equal:
    a view's ``selects`` then gives a Python bool for the whole chunk."""
    lowest = int(codes.min())
    return lowest if lowest == codes.max() else codes


def _count_selected(predicted: np.ndarray, selected: np.ndarray | bool) -> int:
    """Voxels of ``predicted`` in ``selected``, a mask or a Python bool for the whole chunk."""
    if isinstance(selected, bool):
        return int(np.count_nonzero(predicted)) if selected else 0
    return int(np.count_nonzero(predicted & selected))


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


def _mean(acc: _BlockSum, n: int) -> float | None:
    return None if n == 0 else acc.total() / n


def _confidence(stats: _PassStatistics, regions: ConsensusRegions) -> ConfidenceScores:
    c_fg, c_bg, c_seg = {}, {}, {}
    for c, r in regions.per_class.items():
        f = _mean(stats.fg_sum[c], r.fg.count())
        b = _mean(stats.bg_sum[c], r.bg.count())
        c_fg[c], c_bg[c] = f, b
        c_seg[c] = None if (f is None or b is None) else ((1.0 - b) + f) / 2.0
    defined = [v for v in c_seg.values() if v is not None]
    return ConfidenceScores(c_fg, c_bg, c_seg, float(mean_in_order(defined)) if defined else None)


def confidence_scores(pred: ProbabilityVolume, regions: ConsensusRegions) -> ConfidenceScores:
    require_same_grid(pred.geometry, regions.geometry, "prediction vs consensus regions")
    return _confidence(_one_pass(pred, regions, confidence=tuple(regions.per_class)), regions)


def _calibrate(pred, raters, class_id, bins, literal, include) -> list[CalibrationBins]:
    """One CalibrationBins per rater for one target (``None`` multiclass, or
    a class id one-vs-rest; see _one_pass), from a single binning."""
    _require_bin_count(bins)
    for r in raters:
        require_same_grid(pred.geometry, r.geometry, "prediction vs rater")
    if include is not None:  # a boolean mask, as the code of a one-bit region view
        mask = np.asarray(include, dtype=bool).reshape(-1)
        if mask.size != pred.geometry.n_voxels:
            raise ParameterError(f"include mask has {mask.size} voxels, the grid {pred.geometry.n_voxels}")
        include = RegionView(mask.view(np.uint8), 1, 1, int(np.count_nonzero(mask)))
    stats = _one_pass(pred, labels=pack_labels(raters), calibrate=(class_id,), bins=bins, include=include)
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
    return float(mean_in_order([b.value for b in _calibrate(pred, raters, None, bins, eq2_literal, include)]))


def predicted_volume(pred: ProbabilityVolume, class_id: int) -> float:
    """Probability-summed volume in cm^3; no thresholding."""
    return pred.geometry.voxel_volume_cm3 * _one_pass(pred, volume=(class_id,)).volume[class_id].total()


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
    to the R-1 divisor (a single rater then yields sigma = 0); any other
    convention is a ParameterError.

    Statistics run on the integer voxel counts and are scaled to cm^3
    afterwards, so unanimous raters give sigma exactly 0 and a mean that
    bit-matches an exact prediction's probability-summed volume.
    """
    _require_sigma_convention(convention)
    geometry = raters[0].geometry
    for i, r in enumerate(raters[1:], start=1):
        require_same_grid(geometry, r.geometry, f"rater 0 vs rater {i}")
    counts = tuple(int(np.count_nonzero(r.voxels == class_id)) for r in raters)
    return _volume_distribution(counts, geometry.voxel_volume_cm3, convention)


@functools.lru_cache(maxsize=1024)
def _volume_distribution(counts: tuple[int, ...], vv: float, convention: str) -> tuple[float, float, tuple[float, ...]]:
    """(mu, sigma, volumes) in cm^3 from per-rater voxel counts and the voxel volume.

    Memoized: every algorithm of a case shares its rater counts, so each
    (case, class) computes its reference once.
    """
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


#: Each metric's per-class field of CaseMetrics; the organ mean is in ``mean_<field>``.
METRIC_FIELDS = {"dsc": "dsc", "confidence": "c_seg", "ece": "cece", "crps": "crps"}
METRIC_NAMES = tuple(METRIC_FIELDS)
#: The per-class flag fields of CaseMetrics.
FLAG_NAMES = ("empty_consensus_fg", "empty_consensus_bg", "sigma_zero")


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

    def per_class(self, metric: str) -> dict[int, float | None]:
        """The per-class map of ``metric``, one of METRIC_NAMES."""
        return getattr(self, METRIC_FIELDS[metric])

    def mean(self, metric: str) -> float | None:
        """The organ mean of ``metric``, None where it is undefined."""
        return getattr(self, "mean_" + METRIC_FIELDS[metric])

    def metric_mean(self, metric: str) -> float:
        value = self.mean(metric)
        return math.nan if value is None else value

    def flagged(self, flag: str) -> list[int]:
        """The sorted ids of the classes where ``flag``, one of FLAG_NAMES, is set."""
        return sorted(c for c, v in getattr(self, flag).items() if v)


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
    Given regions, every rater statistic comes from them (the packed labels
    and the rater counts), so ``raters`` are only checked against the grid
    and may be empty. Errors are re-raised with (case, algorithm) context
    attached.
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
        regions.labels,
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
        predicted = pred.geometry.voxel_volume_cm3 * stats.volume[c].total()
        crps[c] = crps_gaussian(VolumeDistribution(mu, sigma, predicted))

    values = {t: [b.value for b in stats.binning[t].results(config.eq2_literal)] for t in targets}
    if config.ece_per_class:
        # numpy's mean over the raters, pairwise from 8 raters on: it does not
        # depend on the Python version, and mean_in_order would move its last bit
        cece_by_class = {c: float(np.mean(values[c])) for c in config.classes}
        mean_cece = float(mean_in_order(list(cece_by_class.values())))
    else:
        grid_value = float(mean_in_order(values[None]))
        cece_by_class = {c: grid_value for c in config.classes}
        mean_cece = grid_value

    return CaseMetrics(
        case_id=case_id,
        algorithm=algorithm,
        dsc=dsc,
        c_seg=conf.c_seg,
        cece=cece_by_class,
        crps=crps,
        mean_dsc=float(mean_in_order(list(dsc.values()))),
        mean_c_seg=conf.mean,
        mean_cece=mean_cece,
        mean_crps=float(mean_in_order(list(crps.values()))),
        empty_consensus_fg=empty_fg,
        empty_consensus_bg=empty_bg,
        sigma_zero=sigma_zero,
    )
