"""Shared builders and independent oracles for the test suite.

The oracle functions here deliberately avoid the library's vectorized
code paths: they loop voxel by voxel or integrate numerically, so they
can disagree with the implementation when the implementation is wrong.
"""

import gzip
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from voxeval.consensus import ConsensusRegions
from voxeval.errors import ChannelSumError, ParameterError, ValidationError
from voxeval.grid import CHANNEL_SUM_TOLERANCE, N_CHANNELS, GridGeometry, LabelVolume, ProbabilityVolume, require_same_grid
from voxeval.metrics import METRIC_NAMES, CalibrationBins, CaseMetrics
from voxeval.nifti import DESK_DTYPES, DTYPE_CODES, _write_payload
from voxeval.phantom import PhantomSpec, PredictionModel
from voxeval.ranking import METRIC_DIRECTIONS, rank_metric
from voxeval.stability import BootstrapSummary, RankStats


def geom(dims=(4, 4, 4), spacing=(1.0, 1.0, 1.0)) -> GridGeometry:
    return GridGeometry(tuple(dims), tuple(spacing))


def label_volume(array, spacing=(1.0, 1.0, 1.0)) -> LabelVolume:
    arr = np.asarray(array, dtype=np.uint8)
    return LabelVolume(geom(arr.shape, spacing), arr)


def one_hot_volume(labels: LabelVolume) -> ProbabilityVolume:
    channels = np.zeros((4, *labels.geometry.dims), dtype=np.float32)
    for c in range(4):
        channels[c] = labels.voxels == c
    return ProbabilityVolume(labels.geometry, channels)


def probability_volume(channels, spacing=(1.0, 1.0, 1.0)) -> ProbabilityVolume:
    arr = np.asarray(channels, dtype=np.float32)
    return ProbabilityVolume(geom(arr.shape[1:], spacing), arr)


def random_label_array(rng, dims, n_classes=4):
    return rng.integers(0, n_classes, size=dims).astype(np.uint8)


def random_probability_volume(rng, dims, spacing=(1.0, 1.0, 1.0)) -> ProbabilityVolume:
    raw = rng.random(size=(4, *dims)).astype(np.float64) + 1e-3
    channels = (raw / raw.sum(axis=0)).astype(np.float32)
    return probability_volume(channels, spacing)


def make_case_metrics(case_id, algorithm, dsc, confidence, ece, crps) -> CaseMetrics:
    """Synthetic CaseMetrics with every class holding the same value."""
    classes = (1, 2, 3)
    return CaseMetrics(
        case_id=case_id,
        algorithm=algorithm,
        dsc={c: dsc for c in classes},
        c_seg={c: confidence for c in classes},
        cece={c: ece for c in classes},
        crps={c: crps for c in classes},
        mean_dsc=dsc,
        mean_c_seg=confidence,
        mean_cece=ece,
        mean_crps=crps,
        empty_consensus_fg={c: False for c in classes},
        empty_consensus_bg={c: False for c in classes},
        sigma_zero={c: False for c in classes},
    )


def regions_to_label_volume(regions: ConsensusRegions, class_id: int) -> LabelVolume:
    """Export one class's partition as a label map for visual audit.

    Encoding: 0 = background consensus, 1 = dissensus, 2 = foreground
    consensus.
    """
    r = regions.per_class[class_id]
    out = np.zeros(regions.geometry.dims, dtype=np.uint8)
    out[r.dissensus.to_bool(regions.geometry.dims)] = 1
    out[r.fg.to_bool(regions.geometry.dims)] = 2
    return LabelVolume(regions.geometry, out)


def region_counts(regions: ConsensusRegions) -> dict[int, dict[str, int]]:
    """Voxel counts per class; fg + bg + dissensus equals the grid size."""
    return {
        c: {"fg": r.fg.count(), "bg": r.bg.count(), "dissensus": r.dissensus.count()}
        for c, r in regions.per_class.items()
    }


def rank_sum_identity(n_algorithms: int) -> float:
    """Every iteration's ranks for one metric sum to K(K+1)/2."""
    return n_algorithms * (n_algorithms + 1) / 2.0


def expected_rank_spread(std_rank: float, iterations: int) -> float:
    """Sanity band for comparing mean ranks across different seeds."""
    return 3.0 * std_rank / math.sqrt(iterations)


# --- oracles --------------------------------------------------------------


def consensus_by_voxel_loop(rater_arrays, class_id):
    """Per-voxel triple-loop tri-partition, independent of the bitset path."""
    dims = rater_arrays[0].shape
    fg = np.zeros(dims, dtype=bool)
    bg = np.zeros(dims, dtype=bool)
    dissensus = np.zeros(dims, dtype=bool)
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                votes = [int(r[x, y, z] == class_id) for r in rater_arrays]
                if all(votes):
                    fg[x, y, z] = True
                elif not any(votes):
                    bg[x, y, z] = True
                else:
                    dissensus[x, y, z] = True
    return fg, bg, dissensus


def dsc_by_voxel_loop(prob: ProbabilityVolume, rater_arrays, class_id, threshold=0.5, argmax_mode=False):
    """TP/FP/FN counting loop over the raw rater arrays; ``argmax_mode``
    predicts the first channel holding the voxel's maximum."""
    dims = prob.geometry.dims
    tp = fp = fn = 0
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                votes = [int(r[x, y, z] == class_id) for r in rater_arrays]
                if argmax_mode:
                    ps = [float(prob.channels[c][x, y, z]) for c in range(4)]
                    predicted = ps.index(max(ps)) == class_id
                else:
                    predicted = float(prob.channels[class_id][x, y, z]) >= threshold
                if all(votes):
                    if predicted:
                        tp += 1
                    else:
                        fn += 1
                elif not any(votes):
                    if predicted:
                        fp += 1
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def cece_by_voxel_loop(prob: ProbabilityVolume, labels: LabelVolume, bins, literal=False):
    """Brute-force bin assignment, one voxel at a time."""
    dims = prob.geometry.dims
    table = [[0, 0.0, 0.0] for _ in range(bins)]  # count, conf sum, correct sum
    n = 0
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                ps = [float(prob.channels[c][x, y, z]) for c in range(4)]
                conf = max(ps)
                predicted = ps.index(conf)  # first max = lowest class id
                correct = predicted == int(labels.voxels[x, y, z])
                m = min(int(conf * bins), bins - 1)
                table[m][0] += 1
                table[m][1] += conf
                table[m][2] += 1.0 if correct else 0.0
                n += 1
    total = 0.0
    for count, conf_sum, correct_sum in table:
        if count:
            weight = count / (bins if literal else n)
            total += weight * abs(correct_sum / count - conf_sum / count)
    return total


def cece_binary_by_voxel_loop(prob: ProbabilityVolume, labels: LabelVolume, class_id, bins,
                              literal=False):
    """Brute-force one-vs-rest binning, one voxel at a time."""
    dims = prob.geometry.dims
    table = [[0, 0.0, 0.0] for _ in range(bins)]  # count, conf sum, correct sum
    n = 0
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                p = float(prob.channels[class_id][x, y, z])
                predicted = p >= 0.5
                conf = p if predicted else 1.0 - p
                correct = predicted == (int(labels.voxels[x, y, z]) == class_id)
                m = min(int(conf * bins), bins - 1)
                table[m][0] += 1
                table[m][1] += conf
                table[m][2] += 1.0 if correct else 0.0
                n += 1
    total = 0.0
    for count, conf_sum, correct_sum in table:
        if count:
            weight = count / (bins if literal else n)
            total += weight * abs(correct_sum / count - conf_sum / count)
    return total


def _bin_confidences_reference(conf, correct, bins, literal) -> CalibrationBins:
    conf = conf.astype(np.float64, copy=False).reshape(-1)
    correct = correct.reshape(-1)
    idx = np.minimum(np.floor(conf * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    conf_sums = np.bincount(idx, weights=conf, minlength=bins)
    acc_sums = np.bincount(idx, weights=correct.astype(np.float64), minlength=bins)
    occupied = counts > 0
    conf_mean = np.zeros(bins)
    acc_mean = np.zeros(bins)
    conf_mean[occupied] = conf_sums[occupied] / counts[occupied]
    acc_mean[occupied] = acc_sums[occupied] / counts[occupied]
    n = conf.size
    denom = bins if literal else n
    value = float(np.sum(counts[occupied] / denom * np.abs(acc_mean[occupied] - conf_mean[occupied])))
    return CalibrationBins(bins, counts, conf_mean, acc_mean, n, value, literal)


def calibration_reference(pred, raters, class_id, bins, literal=False,
                          include=None) -> list[CalibrationBins]:
    """Per-rater calibration as it was before binning was shared.

    Every rater re-derives confidence, prediction and bins on its own:
    multiclass for ``class_id=None``, one-vs-rest for a class id. The
    library's shared-binning core must match this bit for bit.
    """
    out = []
    for rater in raters:
        if bins < 2:
            raise ParameterError(f"bin count must be >= 2, got {bins}")
        require_same_grid(pred.geometry, rater.geometry, "prediction vs rater")
        if class_id is None:
            conf = pred.channels.max(axis=0)
            predicted = np.argmax(pred.channels, axis=0)
            correct = predicted == rater.voxels
        else:
            p = pred.channels[class_id].astype(np.float64, copy=False)
            predicted_pos = p >= 0.5
            conf = np.where(predicted_pos, p, 1.0 - p)
            correct = predicted_pos == (rater.voxels == class_id)
        if include is not None:
            conf, correct = conf[include], correct[include]
        out.append(_bin_confidences_reference(conf, correct, bins, literal))
    return out


def calibration_rows(result: CalibrationBins) -> list[dict]:
    """One dict per occupied bin of ``result``: its index, bounds, count and means."""
    return [
        {
            "bin": m,
            "lo": m / result.bin_count,
            "hi": (m + 1) / result.bin_count,
            "count": int(result.counts[m]),
            "conf": float(result.conf_mean[m]),
            "acc": float(result.acc_mean[m]),
        }
        for m in range(result.bin_count)
        if result.counts[m]
    ]


def compensated_sum_reference(values, block=1 << 20) -> float:
    """Float64 np.sum of each ``block``-value slice, totals combined with math.fsum."""
    flat = np.asarray(values).reshape(-1)
    return math.fsum(
        float(np.sum(flat[i : i + block], dtype=np.float64)) for i in range(0, flat.size, block)
    )


def rater_labels_reference(spec: PhantomSpec) -> list[np.ndarray]:
    """Each rater's label map from one whole-grid float64 grid of squared distances
    per sphere: the phantom's box-by-box labelling must give the same bytes."""
    x, y, z = np.ogrid[: spec.geometry.dims[0], : spec.geometry.dims[1], : spec.geometry.dims[2]]
    out = [np.zeros(spec.geometry.dims, dtype=np.uint8) for _ in spec.rater_deltas]
    for c, s in spec.spheres.items():
        dist_sq = (x - s.center[0]) ** 2.0 + (y - s.center[1]) ** 2.0 + (z - s.center[2]) ** 2.0
        for labels, delta in zip(out, spec.rater_deltas):
            labels[dist_sq <= (s.radius + delta) ** 2] = c
    return out


def unanimity_one_hot_reference(labels: list[np.ndarray]) -> np.ndarray:
    """Float32 one-hot grid of the raters' unanimity map (background where they disagree)."""
    agree = np.ones(labels[0].shape, dtype=bool)
    for l in labels[1:]:
        agree &= l == labels[0]
    unanimous = np.where(agree, labels[0], 0).astype(np.uint8)
    one_hot = np.zeros((N_CHANNELS, *labels[0].shape), dtype=np.float32)
    for c in range(N_CHANNELS):
        one_hot[c] = unanimous == c
    return one_hot


def apply_model_reference(one_hot: np.ndarray, model: PredictionModel) -> np.ndarray:
    """A prediction model applied to any probability grid, voxel by voxel: the
    phantom's predictions from the unanimity label map must have the same bytes."""
    if model.kind == "perfect":
        return one_hot
    if model.kind == "blurred":
        from scipy.ndimage import gaussian_filter

        blurred = np.stack([gaussian_filter(ch, model.sigma) for ch in one_hot])
        sums = blurred.sum(axis=0, dtype=np.float64)
        return np.clip(blurred / sums[np.newaxis], 0.0, 1.0).astype(np.float32)
    # miscalibrated: move |delta| of probability mass between the winning
    # channel and the rest (positive delta drains the winner)
    shifted = one_hot.astype(np.float64)
    winner = np.argmax(shifted, axis=0)[np.newaxis]
    w = np.take_along_axis(shifted, winner, axis=0)
    is_winner = np.zeros(shifted.shape, dtype=bool)
    np.put_along_axis(is_winner, winner, True, axis=0)
    if model.delta >= 0:
        take = np.minimum(w, model.delta)
        shifted = np.where(is_winner, shifted - take, shifted + take / (N_CHANNELS - 1))
    else:
        others = 1.0 - w
        give = np.minimum(-model.delta, others)
        scale = np.divide(others - give, others, out=np.ones_like(others), where=others > 0)
        shifted = np.where(is_winner, shifted + give, shifted * scale)
    shifted = np.clip(shifted, 0.0, 1.0)
    sums = shifted.sum(axis=0)
    return (shifted / sums[np.newaxis]).astype(np.float32)


def decode_payload_reference(payload: bytes, dtype, dims, channels: int, scale=None) -> np.ndarray:
    """Whole-array decode of an x-fastest payload: the slab decoder must give the same bits and dtype.

    An owned native-order array in memory layout ([x,y,z] if ``channels``
    is 0, else [c,x,y,z]); a (slope, inter) ``scale`` maps it to
    ``arr * slope + inter``.
    """
    dtype = np.dtype(dtype)
    dx, dy, dz = dims
    flat = np.frombuffer(payload, dtype=dtype, count=max(channels, 1) * dx * dy * dz)
    if channels == 0:
        view = flat.reshape(dz, dy, dx).transpose(2, 1, 0)
    else:
        view = flat.reshape(channels, dz, dy, dx).transpose(0, 3, 2, 1)
    arr = view.astype(dtype.newbyteorder("="), order="C")  # cast and transpose in one copy
    if scale is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            arr = arr * scale[0] + scale[1]
    return arr


def write_desk(volume: LabelVolume | ProbabilityVolume, path) -> None:
    """Write the JSON-header desk format that ``nifti.read_desk`` reads,
    through the library's slab payload writer."""
    path = Path(path)
    if isinstance(volume, LabelVolume):
        arr, channels = volume.voxels, 0
    else:
        arr, channels = volume.channels, N_CHANNELS
    name = {v: k for k, v in DESK_DTYPES.items()}[arr.dtype.str.lstrip("<>|=")]
    meta = {
        "dims": list(volume.geometry.dims),
        "spacing_mm": list(volume.geometry.spacing),
        "dtype": name,
        "channels": channels,
    }
    path.write_text(json.dumps(meta, sort_keys=True) + "\n")
    with open(path.with_suffix(".raw"), "wb") as f:
        _write_payload(f, arr)


def write_volume_reference(volume: LabelVolume | ProbabilityVolume, path) -> None:
    """Whole-array twin of ``write_nifti`` (``.nii``/``.nii.gz``) or, for ``.json``, of ``write_desk`` above.

    It builds the whole little-endian file-order payload at once; the slab
    writers must write the same bytes.
    """
    path = Path(path)
    if isinstance(volume, LabelVolume):
        arr, dim0, channels = volume.voxels, 3, 0
        payload = np.ascontiguousarray(arr.transpose(2, 1, 0))
    else:
        arr, dim0, channels = volume.channels, 4, 4
        payload = np.ascontiguousarray(arr.transpose(0, 3, 2, 1))
    payload = payload.astype(payload.dtype.newbyteorder("<")).tobytes()
    base = arr.dtype.str.lstrip("<>|=")
    if path.suffix == ".json":
        meta = {
            "dims": list(volume.geometry.dims),
            "spacing_mm": list(volume.geometry.spacing),
            "dtype": {v: k for k, v in DESK_DTYPES.items()}[base],
            "channels": channels,
        }
        path.write_text(json.dumps(meta, sort_keys=True) + "\n")
        path.with_suffix(".raw").write_bytes(payload)
        return
    code = {b: c for c, (b, _) in DTYPE_CODES.items()}[base]
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, dim0, *volume.geometry.dims, max(channels, 1), 1, 1, 1)
    struct.pack_into("<h", header, 70, code)
    struct.pack_into("<h", header, 72, DTYPE_CODES[code][1])
    struct.pack_into("<8f", header, 76, 1.0, *volume.geometry.spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", header, 108, 352.0)
    struct.pack_into("<f", header, 112, 1.0)
    struct.pack_into("<f", header, 116, 0.0)
    struct.pack_into("<4s", header, 344, b"n+1\x00")
    blob = bytes(header) + b"\x00" * 4 + payload
    if path.suffix == ".gz":
        with open(path, "wb") as f:
            with gzip.GzipFile(filename="", mode="wb", fileobj=f, mtime=0) as gz:
                gz.write(blob)
    else:
        path.write_bytes(blob)


def validate_probability_sums_reference(channels: np.ndarray, renormalize: bool = False) -> np.ndarray:
    """Whole-array channel-sum check: the chunked validation must return the
    same bytes or raise the same message (fault priority, channel and voxel)."""

    def where(flat_index, shape):
        return tuple(int(i) for i in np.unravel_index(int(flat_index), shape))

    if not np.isfinite(channels).all():
        idx = where(np.argmin(np.isfinite(channels)), channels.shape)
        raise ChannelSumError(f"non-finite probability at channel/voxel {idx}")
    if channels.size and channels.min() < 0.0:
        idx = where(np.argmax(channels < 0.0), channels.shape)
        raise ChannelSumError(f"negative probability {channels[idx]:.6g} at channel/voxel {idx}")
    with np.errstate(over="ignore"):
        sums = channels.sum(axis=0, dtype=np.float64)
    if renormalize:
        zero = sums <= 0
        if zero.any():
            idx = where(np.argmax(zero), sums.shape)
            raise ChannelSumError(f"cannot renormalize zero-sum voxel {idx}")
        with np.errstate(over="ignore"):
            divisors = sums.astype(channels.dtype)
        unbounded = ~np.isfinite(divisors)  # dividing by an infinite sum would give silent zeros
        if unbounded.any():
            idx = where(np.argmax(unbounded), sums.shape)
            raise ChannelSumError(
                f"cannot renormalize voxel {idx}: its channel sum {sums[idx]:.6g} is not finite in {channels.dtype}"
            )
        out = channels / divisors[np.newaxis]
        return out.astype(channels.dtype, copy=False)
    if channels.size and channels.max() > 1.0:
        idx = where(np.argmax(channels > 1.0), channels.shape)
        raise ChannelSumError(
            f"probability {channels[idx]:.6g} outside [0, 1] at channel/voxel {idx}"
        )
    err = np.abs(sums - 1.0)
    worst = int(np.argmax(err))
    if err.flat[worst] > CHANNEL_SUM_TOLERANCE:
        raise ChannelSumError(
            f"probability channels sum to {sums.flat[worst]:.6f} at voxel {where(worst, sums.shape)} "
            f"(|sum - 1| = {err.flat[worst]:.2e} > {CHANNEL_SUM_TOLERANCE:g})"
        )
    return channels


def crps_by_integration(mu: float, sigma: float, y: float) -> float:
    """Trapezoid integration of the squared CDF-vs-step gap.

    Step sigma/1e4 over [mu - 12 sigma, mu + 12 sigma], split at y so the
    integrand is smooth on each segment; outside that window the
    integrand is constant to ~1e-33 and handled analytically.
    """
    if sigma == 0.0:
        return abs(y - mu)
    h = sigma / 1e4
    lo, hi = mu - 12.0 * sigma, mu + 12.0 * sigma

    def cdf(x):
        return ndtr((x - mu) / sigma)

    def seg(a, b, f):
        if b <= a:
            return 0.0
        n = max(2, int(math.ceil((b - a) / h)) + 1)
        x = np.linspace(a, b, n)
        return float(np.trapezoid(f(x), x))

    if y < lo:
        return (lo - y) + seg(lo, hi, lambda x: (1.0 - cdf(x)) ** 2)
    if y > hi:
        return seg(lo, hi, lambda x: cdf(x) ** 2) + (y - hi)
    return seg(lo, y, lambda x: cdf(x) ** 2) + seg(y, hi, lambda x: (1.0 - cdf(x)) ** 2)


def pearson_by_formula(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    dx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    dy = math.sqrt(sum((y - my) ** 2 for y in ys))
    return num / (dx * dy)


def average_ranks(values):
    """Tie-averaged ranks (1 = smallest) by direct enumeration."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def mean_left_to_right(values) -> float:
    """Referee for every published mean: add from 0.0, left to right, then
    divide by the count. A plain loop, so it means the same on every Python
    version (``sum`` of floats is compensated from 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def aggregate_case_means_reference(case_metrics) -> dict[str, dict[str, float]]:
    """metric -> algorithm -> mean over cases (the Table-style aggregate)."""
    by_alg: dict[str, list] = {}
    for cm in case_metrics:
        by_alg.setdefault(cm.algorithm, []).append(cm)
    out: dict[str, dict[str, float]] = {m: {} for m in METRIC_NAMES}
    for a, items in by_alg.items():
        for m in METRIC_NAMES:
            out[m][a] = mean_left_to_right([cm.metric_mean(m) for cm in items])
    return out


def per_case_average_ranks_reference(case_metrics) -> dict[str, dict[str, float]]:
    """Alternative aggregation: rank within each case, then average ranks."""
    by_case: dict[str, list] = {}
    for cm in case_metrics:
        by_case.setdefault(cm.case_id, []).append(cm)
    all_algorithms = {cm.algorithm for cm in case_metrics}
    for case_id, items in by_case.items():
        if {cm.algorithm for cm in items} != all_algorithms:
            raise ValidationError(f"case {case_id!r} does not cover every algorithm")
    sums: dict[str, dict[str, float]] = {m: {} for m in METRIC_NAMES}
    n_cases = len(by_case)
    for items in by_case.values():
        for m in METRIC_NAMES:
            ranks = rank_metric(
                {cm.algorithm: cm.metric_mean(m) for cm in items}, METRIC_DIRECTIONS[m]
            )
            for a, r in ranks.items():
                sums[m][a] = sums[m].get(a, 0.0) + r
    return {m: {a: s / n_cases for a, s in per_alg.items()} for m, per_alg in sums.items()}


def _iteration_ranks(values: dict[str, np.ndarray], algorithms, idx) -> dict[str, np.ndarray]:
    out = {}
    for metric, mat in values.items():
        means = [mean_left_to_right(row) for row in mat[:, idx].tolist()]
        ranks = rank_metric(dict(zip(algorithms, means)), METRIC_DIRECTIONS[metric])
        out[metric] = np.array([ranks[a] for a in algorithms])
    return out


def bootstrap_ranks_reference(case_metrics, iterations: int, seed: int) -> BootstrapSummary:
    """One iteration at a time through ``rank_metric``: the block-ranked
    ``bootstrap_ranks`` must reproduce this summary byte for byte."""
    algorithms = sorted({cm.algorithm for cm in case_metrics})
    case_ids = sorted({cm.case_id for cm in case_metrics})
    by_pair = {(cm.algorithm, cm.case_id): cm for cm in case_metrics}
    matrices = {
        metric: np.array([[by_pair[a, c].metric_mean(metric) for c in case_ids] for a in algorithms])
        for metric in METRIC_NAMES
    }
    n_cases = len(case_ids)

    def run(i: int) -> dict[str, np.ndarray]:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        idx = rng.integers(0, n_cases, size=n_cases)
        return _iteration_ranks(matrices, algorithms, idx)

    per_iteration = [run(i) for i in range(iterations)]

    stats: dict[str, dict[str, RankStats]] = {}
    for metric in METRIC_NAMES:
        ranks = np.vstack([r[metric] for r in per_iteration])  # (iterations, n_alg)
        stats[metric] = {}
        for j, a in enumerate(algorithms):
            column = ranks[:, j]
            mean = float(column.mean())
            std = float(column.std())
            occupied, counts = np.unique(column, return_counts=True)
            freq = {float(r): float(c) / iterations for r, c in zip(occupied, counts)}
            stats[metric][a] = RankStats(
                mean_rank=mean,
                std_rank=std,
                median_rank=float(np.median(column)),
                ci_low=mean - 1.96 * std,
                ci_high=mean + 1.96 * std,
                rank_frequency=freq,
            )
    return BootstrapSummary(
        iterations=iterations,
        rng_seed=seed,
        algorithms=tuple(algorithms),
        metrics=METRIC_NAMES,
        stats=stats,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240907)
