"""The one chunked pass per prediction, against the brute-force oracles.

Every metric must come out bit for bit as the unchunked references give
it, whatever ``grid.CHUNK_VOXELS`` and ``metrics.SUM_BLOCK`` are;
channel-sum validation must return the same bytes or raise the same
message; and the working memory of both must stay a fraction of the
prediction.
"""

import dataclasses
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    calibration_reference,
    compensated_sum_reference,
    consensus_by_voxel_loop,
    dsc_by_voxel_loop,
    mean_left_to_right,
    random_probability_volume,
    validate_probability_sums_reference,
)
from test_cece import assert_same_bins, edge_case_prediction, perturbed_raters
from voxeval import grid, metrics
from voxeval.consensus import derive_regions
from voxeval.errors import ChannelSumError
from voxeval.grid import ORGAN_CLASSES, GridGeometry, LabelVolume, ProbabilityVolume, validate_probability_sums
from voxeval.metrics import (
    CaseMetrics,
    EvalConfig,
    VolumeDistribution,
    cece,
    cece_binary,
    cece_multirater,
    confidence_scores,
    crps_gaussian,
    dsc_consensus,
    evaluate_case,
    predicted_volume,
    rater_volume_distribution,
)
from voxeval.nifti import _as_volume
from voxeval.phantom import PhantomSpec, PredictionModel, Sphere, generate

#: 1 and 7 voxels, the default, and None for "larger than the grid".
CHUNKS = st.sampled_from([1, 7, 1 << 16, None])


def chunked(chunk, n_voxels, block=None) -> ExitStack:
    """Patch the pass's chunk size (None: one chunk longer than the grid) and, if given, the sum block."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(grid, "CHUNK_VOXELS", n_voxels + 5 if chunk is None else chunk))
    if block is not None:
        stack.enter_context(mock.patch.object(metrics, "SUM_BLOCK", block))
    return stack


def expected_case_metrics(pred, raters, config: EvalConfig, case_id, algorithm) -> CaseMetrics:
    """CaseMetrics assembled from the oracles, one unchunked reference per number."""
    arrays = [r.voxels for r in raters]
    # The library compares the threshold at the prediction's precision.
    threshold = float(pred.channels.dtype.type(config.threshold))
    unanimous = np.all([a == arrays[0] for a in arrays], axis=0)
    include = unanimous if config.ece_exclude_dissensus else None
    vv = pred.geometry.voxel_volume_cm3
    dsc, c_seg, crps, empty_fg, empty_bg, sigma_zero = {}, {}, {}, {}, {}, {}
    for c in config.classes:
        fg, bg, _ = consensus_by_voxel_loop(arrays, c)
        dsc[c] = dsc_by_voxel_loop(pred, arrays, c, threshold, config.argmax_mode)
        empty_fg[c], empty_bg[c] = not fg.any(), not bg.any()
        f, b = (
            compensated_sum_reference(pred.channels[c][m], metrics.SUM_BLOCK) / int(m.sum()) if m.any() else None
            for m in (fg, bg)
        )
        c_seg[c] = None if f is None or b is None else ((1.0 - b) + f) / 2.0
        mu, sigma, _ = rater_volume_distribution(raters, c, config.sigma_convention)
        sigma_zero[c] = sigma == 0.0
        volume = vv * compensated_sum_reference(pred.channels[c], metrics.SUM_BLOCK)
        crps[c] = crps_gaussian(VolumeDistribution(mu, sigma, volume))

    def values(target):
        return [b.value for b in calibration_reference(pred, raters, target, config.ece_bins, config.eq2_literal, include)]

    if config.ece_per_class:
        cece_by_class = {c: float(np.mean(values(c))) for c in config.classes}
        mean_cece = mean_left_to_right(cece_by_class.values())
    else:
        per_rater = values(None)
        mean_cece = mean_left_to_right(per_rater)
        cece_by_class = {c: mean_cece for c in config.classes}
    defined = [v for v in c_seg.values() if v is not None]
    return CaseMetrics(
        case_id=case_id,
        algorithm=algorithm,
        dsc=dsc,
        c_seg=c_seg,
        cece=cece_by_class,
        crps=crps,
        mean_dsc=mean_left_to_right(dsc.values()),
        mean_c_seg=mean_left_to_right(defined) if defined else None,
        mean_cece=mean_cece,
        mean_crps=mean_left_to_right(crps.values()),
        empty_consensus_fg=empty_fg,
        empty_consensus_bg=empty_bg,
        sigma_zero=sigma_zero,
    )


def assert_same_case_metrics(got: CaseMetrics, expected: CaseMetrics):
    for f in dataclasses.fields(CaseMetrics):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert a == b, f.name
        pairs = zip(a.values(), b.values()) if isinstance(b, dict) else [(a, b)]
        for x, y in pairs:  # Python numbers, not numpy scalars
            assert type(x) is type(y), (f.name, type(x), type(y))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(3, 6), st.integers(2, 5), st.integers(3, 4)),
    n_raters=st.integers(2, 6),
    dtype=st.sampled_from([np.float32, np.float64]),
    chunk=CHUNKS,
    block=st.sampled_from([1 << 20, 3, 8]),
    classes=st.lists(st.sampled_from(ORGAN_CLASSES), min_size=1, max_size=3, unique=True).map(tuple),
    threshold=st.floats(0.05, 0.95),
    argmax_mode=st.booleans(),
    bins=st.integers(2, 12),
    eq2_literal=st.booleans(),
    ece_per_class=st.booleans(),
    ece_exclude_dissensus=st.booleans(),
    sigma_convention=st.sampled_from(["population", "sample"]),
)
def test_evaluate_case_matches_the_oracles_at_any_chunk_size(
    seed, dims, n_raters, dtype, chunk, block, classes, threshold, argmax_mode, bins, eq2_literal,
    ece_per_class, ece_exclude_dissensus, sigma_convention,
):
    rng = np.random.default_rng(seed)
    pred = edge_case_prediction(rng, dims, bins, dtype)
    raters = perturbed_raters(rng, dims, n_raters, flip=float(rng.uniform(0.0, 0.5)))
    config = EvalConfig(
        threshold=threshold,
        argmax_mode=argmax_mode,
        ece_bins=bins,
        eq2_literal=eq2_literal,
        ece_per_class=ece_per_class,
        ece_exclude_dissensus=ece_exclude_dissensus,
        sigma_convention=sigma_convention,
        classes=classes,
    )
    with chunked(chunk, pred.geometry.n_voxels, block):
        expected = expected_case_metrics(pred, raters, config, "c", "a")
        regions = derive_regions(raters, classes=classes)
        assert_same_case_metrics(evaluate_case(pred, (), config, "c", "a", regions), expected)
        assert_same_case_metrics(evaluate_case(pred, raters, config, "c", "a"), expected)

        scores = confidence_scores(pred, regions)
        assert scores.c_seg == expected.c_seg and scores.mean == expected.mean_c_seg
        for c in classes:
            assert dsc_consensus(pred, regions, c, threshold, argmax_mode) == (expected.dsc[c], expected.empty_consensus_fg[c])
            reference = compensated_sum_reference(pred.channels[c], metrics.SUM_BLOCK)
            assert predicted_volume(pred, c) == pred.geometry.voxel_volume_cm3 * reference


@pytest.mark.parametrize("n_raters", [2, 3, 5])  # one packed plane, a full one, and two
@pytest.mark.parametrize("chunk", [1, 7, 1 << 16, None])
@pytest.mark.parametrize("block", [1 << 20, 3, 8])
def test_shared_regions_carry_the_raters_labels(n_raters, chunk, block):
    rng = np.random.default_rng(100 * n_raters + 7)
    dims = (5, 4, 3)
    pred = edge_case_prediction(rng, dims, 6, np.float32)
    raters = perturbed_raters(rng, dims, n_raters, flip=0.3)
    config = EvalConfig(ece_bins=6, ece_per_class=True, ece_exclude_dissensus=True)
    with chunked(chunk, pred.geometry.n_voxels, block):
        expected = expected_case_metrics(pred, raters, config, "c", "a")
        regions = derive_regions(raters)
        assert_same_case_metrics(evaluate_case(pred, (), config, "c", "a", regions), expected)
        assert_same_case_metrics(evaluate_case(pred, raters, config, "c", "a"), expected)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(3, 6), st.integers(2, 5), st.integers(3, 4)),
    n_raters=st.integers(1, 4),
    dtype=st.sampled_from([np.float32, np.float64]),
    chunk=CHUNKS,
    bins=st.integers(2, 12),
    literal=st.booleans(),
    include=st.sampled_from(["none", "random", "empty", "all"]),
)
def test_calibration_entry_points_match_the_reference_at_any_chunk_size(
    seed, dims, n_raters, dtype, chunk, bins, literal, include
):
    rng = np.random.default_rng(seed)
    pred = edge_case_prediction(rng, dims, bins, dtype)
    raters = perturbed_raters(rng, dims, n_raters)
    mask = {
        "none": None,
        "random": rng.random(dims) < rng.random(),
        "empty": np.zeros(dims, dtype=bool),
        "all": np.ones(dims, dtype=bool),
    }[include]
    with chunked(chunk, pred.geometry.n_voxels):
        for class_id in (None, *ORGAN_CLASSES):
            expected = calibration_reference(pred, raters, class_id, bins, literal, mask)
            for r, e in zip(raters, expected):
                if class_id is None:
                    assert_same_bins(cece(pred, r, bins, literal, mask), e)
                else:
                    assert_same_bins(cece_binary(pred, r, class_id, bins, literal, mask), e)
        expected_values = [e.value for e in calibration_reference(pred, raters, None, bins, literal, mask)]
        assert cece_multirater(pred, raters, bins, literal, mask) == mean_left_to_right(expected_values)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    chunk=CHUNKS,
    block=st.integers(1, 64),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_predicted_volume_carries_its_open_block_across_chunks(seed, n, chunk, block, dtype):
    # values of every sign and magnitude in channel 2 of an n-voxel line of 1 cm^3 voxels
    rng = np.random.default_rng(seed)
    channels = np.zeros((4, n, 1, 1), dtype=dtype)
    channels[2].reshape(-1)[:] = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 9, size=n)
    pred = ProbabilityVolume(GridGeometry((n, 1, 1), (10.0, 10.0, 10.0)), channels)
    with chunked(chunk, n, block):
        assert predicted_volume(pred, 2) == compensated_sum_reference(channels[2], block)


#: Two raters' class-1 labels per kind of 8-voxel chunk: F the class-1 foreground consensus,
#: B its background, M mixed (4 foreground, 2 background and 2 dissensus voxels).
EDGE_CHUNKS = {"F": ([1] * 8, [1] * 8), "B": ([0] * 8, [0] * 8), "M": ([1] * 4 + [0] * 4, [1] * 4 + [0] * 2 + [1] * 2)}


@pytest.mark.parametrize(
    "layout, block, sums, volume_sums",
    [
        # a run of whole chunks from the start, then one broken by a mixed chunk with whole chunks after
        # it; 20 is not a multiple of the chunk; the background (2 mixed voxels, then whole chunks) is gathered
        ("FFFMFFBB", 20, [(0, 20), (None, 20), (44, 4), (None, 18)], [(0, 20), (20, 20), (40, 20), (60, 4)]),
        # a run that ends at the foreground's last voxel, before the grid ends
        ("BFFFBB", 32, [(8, 24), (None, 24)], [(0, 32), (32, 16)]),
        # whole chunks with a gap between them are no run
        ("FBFB", 16, [(None, 16), (None, 16)], [(0, 16), (16, 16)]),
        # runs that start inside a chunk, after a block closed there
        ("FFFFFF", 12, [(0, 12), (12, 12), (24, 12), (36, 12)], [(0, 12), (12, 12), (24, 12), (36, 12)]),
    ],
)
def test_block_sums_are_views_of_whole_chunk_runs(monkeypatch, layout, block, sums, volume_sums):
    rng = np.random.default_rng(len(layout) * block)
    n = 8 * len(layout)
    geometry = GridGeometry((n, 1, 1), (10.0, 10.0, 10.0))
    channels = np.zeros((4, n, 1, 1), dtype=np.float32)
    channels[1].reshape(-1)[:] = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 6, size=n)
    pred = ProbabilityVolume(geometry, channels)
    labels = [np.concatenate([EDGE_CHUNKS[k][r] for k in layout]).astype(np.uint8).reshape(n, 1, 1) for r in range(2)]
    regions = derive_regions([LabelVolume(geometry, l) for l in labels], classes=(1,))
    fg, bg, _ = consensus_by_voxel_loop(labels, 1)
    values = pred.channels[1]
    expected_fg, expected_bg = (
        compensated_sum_reference(values[m], block) / int(m.sum()) if m.any() else None for m in (fg, bg)
    )

    summed, np_sum = [], np.sum

    def spy(a, *args, **kwargs):  # each block as (its offset in channel 1 if a view of it, else None, its size)
        offset = (a.ctypes.data - values.ctypes.data) // a.itemsize if np.shares_memory(a, values) else None
        summed.append((offset, a.size))
        return np_sum(a, *args, **kwargs)

    with chunked(8, n, block):
        monkeypatch.setattr(np, "sum", spy)
        scores = confidence_scores(pred, regions)
        block_sums, summed[:] = summed[:], []
        volume = predicted_volume(pred, 1)
        monkeypatch.undo()
    assert (scores.c_fg[1], scores.c_bg[1]) == (expected_fg, expected_bg)
    assert volume == geometry.voxel_volume_cm3 * compensated_sum_reference(values, block)
    assert (block_sums, summed) == (sums, volume_sums)


# --- homogeneous chunks ------------------------------------------------------

#: 8 chunks of 16 voxels on a 4x4x8 grid, one kind of chunk each (see homogeneous_case).
CHUNK = 16
EDGE = 0.7  # a bin edge k/M at the default 10 bins


def bin_of(conf, bins):
    """The oracles' bin rule: floor(conf * M) in float64, the last bin right-closed."""
    return np.minimum(np.floor(np.asarray(conf, dtype=np.float64) * bins).astype(np.int64), bins - 1)


def homogeneous_case(dtype):
    """A prediction and three raters whose chunks are, in order:

    0. one region code (unanimous background), every confidence in the top bin;
    1. the same code, confidences 1.0 (the top bin's clamp) and 0.91-0.99;
    2. one code (unanimous kidney), confidences in several bins;
    3. mixed codes (the raters disagree on 4 voxels), every confidence in the top bin;
    4. kidney probabilities just below and at the bin edge EDGE, nothing else;
    5. one code with no voxel unanimous: nothing is calibrated under --ece-exclude-dissensus;
    6. the raters disagree on a random third of the voxels, confidences random;
    7. one code (unanimous liver), every confidence in the top bin.
    """
    rng = np.random.default_rng(24)
    channels = np.empty((4, 8 * CHUNK))
    raters = np.zeros((3, 8 * CHUNK), dtype=np.uint8)
    ch = [channels[:, k * CHUNK : (k + 1) * CHUNK] for k in range(8)]  # views, one per chunk
    labels = [raters[:, k * CHUNK : (k + 1) * CHUNK] for k in range(8)]

    def confident(k, winners, lo=0.91, hi=0.99):
        p = rng.uniform(lo, hi, CHUNK)
        ch[k][:] = (1.0 - p) / 3.0
        ch[k][winners, np.arange(CHUNK)] = p

    def random_softmax(k):
        raw = rng.random((4, CHUNK)) + 1e-3
        ch[k][:] = raw / raw.sum(axis=0)

    confident(0, 0)
    confident(1, 0)
    ch[1][:, :8] = [[1.0], [0.0], [0.0], [0.0]]
    random_softmax(2)
    labels[2][:] = 2
    labels[3][:] = rng.integers(0, 4, CHUNK)
    labels[3][1, :4] = (labels[3][0, :4] + 1) % 4
    confident(3, labels[3][0], 0.95, 0.99)  # one-vs-rest p >= 0.95 or <= 0.05/3: the top bin too
    below, at = np.nextafter(dtype(EDGE), dtype(0)), dtype(EDGE)
    while bin_of(below, 10) == bin_of(at, 10):  # in float32, EDGE rounds below the edge
        below, at = at, np.nextafter(at, dtype(1))
    p = np.where(np.arange(CHUNK) % 2 == 0, below, at).astype(np.float64)
    ch[4][:] = [(1.0 - p) / 2.0, np.zeros(CHUNK), p, (1.0 - p) / 2.0]
    labels[4][:] = 2
    ch[5][:] = ch[0]
    labels[5][1] = 1  # class 1 dissensus and no unanimous voxel: one region code
    random_softmax(6)
    labels[6][:] = rng.integers(0, 4, CHUNK)
    for r in (1, 2):
        flipped = rng.random(CHUNK) < 1 / 3
        labels[6][r, flipped] = rng.integers(0, 4, int(flipped.sum()))
    confident(7, 3)
    labels[7][:] = 3

    dims = (4, 4, 8)
    pred = ProbabilityVolume(GridGeometry(dims, (1.0, 1.0, 1.0)), channels.astype(dtype).reshape(4, *dims))
    return pred, [LabelVolume(pred.geometry, r.reshape(dims)) for r in raters]


def chunk_kinds(pred, raters, classes, bins):
    """Per chunk: (one region code, one multiclass bin, one bin for each class of ``classes``)."""
    code = derive_regions(raters, classes=classes).code.reshape(-1)
    channels = pred.channels.reshape(4, -1).astype(np.float64)
    kinds = []
    for start in range(0, code.size, CHUNK):
        ch = channels[:, start : start + CHUNK]
        one_bin = [np.ptp(bin_of(ch.max(axis=0), bins)) == 0]
        one_bin += [np.ptp(bin_of(np.maximum(ch[c], 1.0 - ch[c]), bins)) == 0 for c in classes]
        kinds.append((np.ptp(code[start : start + CHUNK]) == 0, *one_bin))
    return kinds


CONFIGS = {
    "default": {},
    "per-class": {"ece_per_class": True},
    "argmax": {"argmax_mode": True},
    "eq2_literal": {"eq2_literal": True},
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("block", [1 << 20, 24])
@pytest.mark.parametrize("classes", [(1, 2, 3), (2,)])
@pytest.mark.parametrize("exclude_dissensus", [False, True])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_homogeneous_chunks_match_the_oracles(dtype, block, classes, exclude_dissensus, config):
    pred, raters = homogeneous_case(dtype)
    kinds = chunk_kinds(pred, raters, classes, 10)
    assert kinds[0] == (True, True, *[True] * len(classes))  # one code, one bin
    assert kinds[3][0] is np.False_ and kinds[3][1]  # mixed codes, one bin
    assert not any(kinds[6][1:])  # mixed bins
    assert not kinds[4][1] and not kinds[4][2 + classes.index(2)]  # the edge splits the chunk
    config = EvalConfig(classes=classes, ece_exclude_dissensus=exclude_dissensus, **CONFIGS[config])
    with chunked(CHUNK, pred.geometry.n_voxels, block):
        expected = expected_case_metrics(pred, raters, config, "c", "a")
        regions = derive_regions(raters, classes=classes)
        assert not regions.unanimous.to_bool().reshape(-1)[5 * CHUNK : 6 * CHUNK].any()  # nothing included
        assert_same_case_metrics(evaluate_case(pred, (), config, "c", "a", regions), expected)
        scores = confidence_scores(pred, regions)
        assert scores.c_seg == expected.c_seg and scores.mean == expected.mean_c_seg


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_homogeneous_chunks_of_the_calibration_entry_points_match_the_reference(dtype):
    pred, raters = homogeneous_case(dtype)
    # an include mask whole in some chunks, empty in others, and mixed in the rest
    mask = np.zeros(pred.geometry.n_voxels, dtype=bool)
    mask[: 2 * CHUNK] = True
    mask[4 * CHUNK : 5 * CHUNK] = True
    mask[6 * CHUNK :: 3] = True
    mask = mask.reshape(pred.geometry.dims)
    with chunked(CHUNK, pred.geometry.n_voxels):
        for include in (None, mask):
            for class_id in (None, *ORGAN_CLASSES):
                expected = calibration_reference(pred, raters, class_id, 10, False, include)
                for r, e in zip(raters, expected):
                    if class_id is None:
                        assert_same_bins(cece(pred, r, 10, False, include), e)
                    else:
                        assert_same_bins(cece_binary(pred, r, class_id, 10, False, include), e)
            values = [e.value for e in calibration_reference(pred, raters, None, 10, False, include)]
            assert cece_multirater(pred, raters, 10, False, include) == mean_left_to_right(values)


def test_binning_continues_each_bins_running_sum_alike_in_one_bin_and_mixed_chunks():
    # The same voxel stream, cut into chunks that each hold one bin, and into chunks
    # that each straddle bins: counts, hits and the confidence sums' bits agree.
    rng = np.random.default_rng(7)
    bins = 10
    conf = np.concatenate([rng.uniform(0.9, 1.0, 40), [1.0] * 5, rng.uniform(0.3, 0.4, 30), rng.uniform(0.9, 1.0, 25)])
    predicted = rng.integers(0, 4, conf.size)
    truths = [predicted.copy(), rng.integers(0, 4, conf.size)]
    one_bin_cuts, mixed_cuts = [0, 17, 45, 60, 75, 90, 100], [0, 50, 100]
    results = []
    for cuts in (one_bin_cuts, mixed_cuts, [0, conf.size]):
        binning = metrics._Binning.empty(bins, len(truths))
        for a, b in zip(cuts, cuts[1:]):
            binning.add(conf[a:b].copy(), predicted[a:b], [t[a:b] for t in truths])
        results.append(binning)
    assert all(np.ptp(bin_of(conf[a:b], bins)) == 0 for a, b in zip(one_bin_cuts, one_bin_cuts[1:]))
    assert all(np.ptp(bin_of(conf[a:b], bins)) > 0 for a, b in zip(mixed_cuts, mixed_cuts[1:]))
    idx = bin_of(conf, bins)
    reference = np.bincount(idx, weights=conf, minlength=bins)  # added in voxel order from zero
    for binning in results:
        assert binning.n == conf.size
        assert binning.counts.tobytes() == np.bincount(idx, minlength=bins).tobytes()
        assert binning.conf_sums.tobytes() == reference.tobytes()
        for hits, truth in zip(binning.hits, truths):
            assert hits.tobytes() == np.bincount(idx[predicted == truth], minlength=bins).tobytes()
    # one truth stands for every rater
    shared = metrics._Binning.empty(bins, 2)
    for a, b in zip(one_bin_cuts, one_bin_cuts[1:]):
        shared.add(conf[a:b].copy(), predicted[a:b], [truths[1][a:b]])
    assert [h.tobytes() for h in shared.hits] == [results[0].hits[1].tobytes()] * 2


def _in_bin(rng, b, bins, n, dtype):
    """``n`` values of ``dtype`` in bin ``b`` by the oracles' rule, drawn with full mantissas."""
    lo, hi = b / bins, (b + 1) / bins
    values = np.empty(0, dtype=dtype)
    while values.size < n:
        draw = rng.uniform(lo, hi, 4 * n).astype(dtype)
        values = np.concatenate([values, draw[bin_of(draw, bins) == b]])
    return values[:n]


def _calibration_grid(conf: np.ndarray) -> tuple[ProbabilityVolume, LabelVolume]:
    """A prediction whose multiclass confidence is ``conf`` (channel 2, the others a third
    of it or less), in grid order, and a rater that agrees with the argmax on every other voxel."""
    dims = (4, 4, conf.size // 16)
    channels = np.empty((4, conf.size), dtype=conf.dtype)
    channels[0] = channels[1] = channels[3] = conf / 3
    channels[2] = conf
    truth = np.where(np.arange(conf.size) % 2 == 0, 2, 1).astype(np.uint8)
    g = GridGeometry(dims, (1.0, 1.0, 1.0))
    return ProbabilityVolume(g, channels.reshape(4, *dims)), LabelVolume(g, truth.reshape(dims))


@pytest.mark.parametrize("bins", [10, 15, 100])
def test_float32_one_bin_chunks_in_exact_bins_match_the_oracle_without_cumsum(bins):
    # chunks of one bin: 1, 2 and the top bin's clamp (1.0 among them), then one mixed chunk,
    # then bin 0, which keeps its running cumsum
    rng = np.random.default_rng(bins)
    top = _in_bin(rng, bins - 1, bins, 2 * CHUNK, np.float32)
    top[::5] = 1.0
    pieces = [_in_bin(rng, 1, bins, 2 * CHUNK, np.float32), _in_bin(rng, 2, bins, 2 * CHUNK, np.float32), top,
              rng.permutation(np.concatenate([_in_bin(rng, b, bins, 4, np.float32) for b in (1, 2, bins - 1, 0)])),
              _in_bin(rng, 0, bins, CHUNK, np.float32)]
    conf = np.concatenate(pieces)
    pred, rater = _calibration_grid(conf)
    assert metrics._exact_bins(bins, conf.size)[1:] == [True] * (bins - 1)
    with chunked(CHUNK, conf.size), mock.patch.object(np, "cumsum", wraps=np.cumsum) as cumsum:
        got = cece(pred, rater, bins)
    assert cumsum.call_count == 1  # the bin-0 chunk only
    assert_same_bins(got, calibration_reference(pred, [rater], None, bins)[0])


def _chunk_sums_differ(values: np.ndarray) -> bool:
    """Whether a running total that adds np.sum of each CHUNK gives other bits than adding in order."""
    total = 0.0
    for k in range(0, values.size, CHUNK):
        total += np.sum(values[k : k + CHUNK])
    return total != np.cumsum(values)[-1]


def test_float64_one_bin_chunks_keep_their_running_cumsum():
    rng = np.random.default_rng(0)
    conf = _in_bin(rng, 5, 10, 4 * CHUNK, np.float64)
    assert _chunk_sums_differ(conf)  # np.sum would give other bits
    pred, rater = _calibration_grid(conf)
    with chunked(CHUNK, pred.geometry.n_voxels):
        got = cece(pred, rater, 10)
    assert_same_bins(got, calibration_reference(pred, [rater], None, 10)[0])


def test_one_vs_rest_one_bin_chunks_keep_their_running_cumsum():
    # float32 kidney probabilities far below 0.5: 1 - p in float64 has no floor of exact multiples
    rng = np.random.default_rng(1)
    p = rng.uniform(1e-9, 1e-7, 4 * CHUNK).astype(np.float32)
    conf = 1.0 - p.astype(np.float64)
    assert _chunk_sums_differ(conf)
    pred, rater = _calibration_grid(np.full(p.size, 0.6, dtype=np.float32))
    channels = np.array(pred.channels)
    channels[2] = p.reshape(pred.geometry.dims)
    pred = ProbabilityVolume(pred.geometry, channels)
    with chunked(CHUNK, p.size):
        got = cece_binary(pred, rater, 2, 10)
    assert_same_bins(got, calibration_reference(pred, [rater], 2, 10)[0])


def test_a_confidence_above_1_ends_the_top_bins_exact_sums():
    # an unchecked prediction: 2**30 lands in the top bin, and the confidences after it round
    rng = np.random.default_rng(2)
    conf = _in_bin(rng, 9, 10, 4 * CHUNK, np.float32)
    conf[3] = 2.0**30
    assert _chunk_sums_differ(conf.astype(np.float64))
    pred, rater = _calibration_grid(conf)
    with chunked(CHUNK, conf.size):
        got = cece(pred, rater, 10)
    assert_same_bins(got, calibration_reference(pred, [rater], None, 10)[0])


@pytest.mark.parametrize("bins", [2, 3, 10, 15, 100, 1000])
def test_exact_bins_follow_the_bound_at_its_edge(bins):
    from fractions import Fraction

    for b in range(1, bins):
        e = 0  # floor(log2(b / bins)), in exact rationals
        while Fraction(2) ** e > Fraction(b, bins):
            e -= 1
        edge = 2 ** (30 + e)
        assert metrics._exact_bins(bins, edge)[b], (b, edge)
        assert not metrics._exact_bins(bins, edge + 1)[b], (b, edge)
    assert not any(metrics._exact_bins(bins, n)[0] for n in (1, 2**20))


# --- channel-sum validation ------------------------------------------------


def _set(value):
    def put(voxel, channel):
        voxel[channel] = value

    return put


def _scale(factor):
    def put(voxel, channel):
        voxel *= factor

    return put


def _alone(value):
    def put(voxel, channel):
        voxel[:] = 0.0
        voxel[channel] = value

    return put


def _fill(fraction_of_max):
    def put(voxel, channel):
        voxel[:] = np.finfo(voxel.dtype).max * fraction_of_max

    return put


FAULTS = {
    "nan": _set(np.nan),
    "inf": _set(np.inf),
    "negative": _set(-0.25),
    "above one": _set(1.5),
    "above one, sum within tolerance": _alone(1.0 + 5e-4),
    "zero sum": _scale(0.0),
    "sum off": _scale(1.01),
    "sum within tolerance": _scale(1.0 + 5e-4),
    "sum not finite in the dtype": _fill(0.5),
}


def outcome(validate, channels, renormalize):
    try:
        out = validate(channels, renormalize=renormalize)
    except ChannelSumError as exc:
        return ("error", str(exc))
    return ("ok", out.dtype, out.shape, out.tobytes(), out is channels)


def read_in_place(channels, renormalize):
    """What a reader makes of ``channels`` as its own decoded array: checked, and renormalized in place."""
    geometry = GridGeometry(channels.shape[1:], (1.0, 1.0, 1.0))
    return _as_volume(channels.copy(), geometry, len(channels), renormalize).channels


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("renormalize", [False, True])
def test_validation_matches_the_whole_array_reference_with_faults_in_later_chunks(rng, renormalize, chunk, dtype):
    dims = (3, 4, 5)  # 60 voxels: at 7 voxels a chunk, voxels 2 and 30 lie in chunks 0 and 4
    base = random_probability_volume(rng, dims).channels.astype(dtype)
    cases = [()] + [(f,) for f in FAULTS] + [(a, b) for a in FAULTS for b in FAULTS if a != b]
    seen = set()
    with chunked(chunk, base[0].size):
        for faults in cases:
            # The later fault sits in a later chunk, in a lower or in the same channel.
            for channels_used in ((3, 0), (1, 1)):
                channels = base.copy()
                flat = channels.reshape(4, -1)
                for voxel, channel, fault in zip((2, 30), channels_used, faults):
                    FAULTS[fault](flat[:, voxel], channel)
                before = channels.tobytes()
                expected = outcome(validate_probability_sums_reference, channels, renormalize)
                assert outcome(validate_probability_sums, channels, renormalize) == expected, faults
                assert channels.tobytes() == before  # the public function leaves its input as it was
                # In place, a chunk divided before a later one fails must not change the diagnosis.
                assert outcome(read_in_place, channels, renormalize)[:4] == expected[:4], faults
                seen.add(expected[1] if expected[0] == "error" else "ok")
    assert "ok" in seen and len(seen) > 8  # the faults raise varied messages


def test_validation_of_a_float64_overflowing_sum_matches_the_reference():
    # Finite float64 channels whose sum overflows: the chunk fails, the whole-array check decides.
    channels = np.full((4, 2, 2, 2), 0.25)
    channels[:, 1, 1, 1] = np.finfo(np.float64).max
    with np.errstate(over="ignore"):
        for renormalize in (False, True):
            expected = outcome(validate_probability_sums_reference, channels, renormalize)
            assert outcome(validate_probability_sums, channels, renormalize) == expected


# --- working memory ---------------------------------------------------------


def traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pass_and_validation_work_in_a_fraction_of_the_prediction():
    spec = PhantomSpec(
        geometry=GridGeometry((64, 64, 64), (1.0, 1.0, 1.0)),
        spheres={1: Sphere((16.0, 16.0, 16.0), 7.0), 2: Sphere((45.0, 17.0, 18.0), 9.0), 3: Sphere((32.0, 46.0, 44.0), 12.0)},
        rater_deltas=(-1, 0, 1),
        prediction=PredictionModel("miscalibrated", delta=0.2),
    )
    phantom = generate(spec)
    raters, pred = list(phantom.raters), phantom.prediction
    regions = derive_regions(raters)
    budget = pred.channels.nbytes / 4
    # The pass holds one grid chunk and one gathered SUM_BLOCK-value block. Both
    # are scaled below this 64^3 grid so that the grid is many chunks and many
    # blocks long, as a CT grid is at the default sizes.
    with chunked(1 << 12, pred.geometry.n_voxels, block=1 << 14):
        for config in (
            EvalConfig(),
            EvalConfig(argmax_mode=True, ece_per_class=True, ece_exclude_dissensus=True, eq2_literal=True),
        ):
            peak = traced_peak(evaluate_case, pred, raters, config, regions=regions)
            assert peak < budget, (config, peak, budget)
        assert traced_peak(validate_probability_sums, pred.channels) < budget
        # renormalizing writes one new prediction, and needs little besides
        assert traced_peak(validate_probability_sums, pred.channels, renormalize=True) < pred.channels.nbytes + budget


def test_region_sums_hold_one_block_at_the_default_block_size():
    # Every class's background consensus spans several SUM_BLOCK-value blocks:
    # region sums that held their open blocks' values would hold up to a block
    # per region.
    dims = (128, 128, 192)
    geometry = GridGeometry(dims, (1.0, 1.0, 1.0))
    pred = ProbabilityVolume(geometry, np.random.default_rng(0).random((4, *dims), dtype=np.float32))
    labels = np.zeros(dims, dtype=np.uint8)
    for c in ORGAN_CLASSES:
        labels[..., 40 * c : 40 * c + 20] = c
    raters = [LabelVolume(geometry, np.roll(labels, shift, axis=2)) for shift in (0, 1, 2)]
    regions = derive_regions(raters)
    assert all(regions[c].bg.count() > 2 * metrics.SUM_BLOCK for c in ORGAN_CLASSES)
    block = metrics.SUM_BLOCK * pred.channels.itemsize
    chunk = grid.CHUNK_VOXELS * 32  # a few float64 and int64 temporaries per voxel of a chunk
    for config in (EvalConfig(), EvalConfig(argmax_mode=True, ece_per_class=True, ece_exclude_dissensus=True)):
        peak = traced_peak(evaluate_case, pred, raters, config, regions=regions)
        assert peak < block + chunk, (config, peak)


@pytest.mark.parametrize(
    "fault, renormalize",
    [("nan", False), ("negative", False), ("above one", False), ("sum off", False),
     ("zero sum", True), ("sum not finite in the dtype", True)],
)
def test_diagnosis_of_a_fault_in_the_last_voxel_holds_a_few_chunks(fault, renormalize):
    # A 16 MiB map, scanned to its end by every rule before the fault's.
    channels = np.full((4, 128, 128, 64), 0.25, dtype=np.float32)
    FAULTS[fault](channels[:, -1, -1, -1], 3)
    with pytest.raises(ChannelSumError) as expected:
        validate_probability_sums_reference(channels, renormalize)
    tracemalloc.start()
    try:
        with pytest.raises(ChannelSumError) as raised:
            validate_probability_sums(channels, renormalize)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == str(expected.value)
    output = channels.nbytes if renormalize else 0  # the fresh renormalized array
    assert peak - output < 4 * grid.CHUNK_VOXELS * 8  # a few chunk-sized float64 arrays
