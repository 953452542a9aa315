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
    compensated_sum,
    confidence_scores,
    crps_gaussian,
    dsc_consensus,
    evaluate_case,
    predicted_volume,
    rater_volume_distribution,
)
from voxeval.nifti import _as_probability
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
        mean_cece = sum(cece_by_class.values()) / len(cece_by_class)
    else:
        per_rater = values(None)
        mean_cece = sum(per_rater) / len(per_rater)
        cece_by_class = {c: mean_cece for c in config.classes}
    defined = [v for v in c_seg.values() if v is not None]
    return CaseMetrics(
        case_id=case_id,
        algorithm=algorithm,
        dsc=dsc,
        c_seg=c_seg,
        cece=cece_by_class,
        crps=crps,
        mean_dsc=sum(dsc.values()) / len(dsc),
        mean_c_seg=sum(defined) / len(defined) if defined else None,
        mean_cece=mean_cece,
        mean_crps=sum(crps.values()) / len(crps),
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
    n_raters=st.integers(2, 4),
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
        assert_same_case_metrics(evaluate_case(pred, raters, config, "c", "a", regions), expected)
        assert_same_case_metrics(evaluate_case(pred, raters, config, "c", "a"), expected)

        scores = confidence_scores(pred, regions)
        assert scores.c_seg == expected.c_seg and scores.mean == expected.mean_c_seg
        for c in classes:
            assert dsc_consensus(pred, regions, c, threshold, argmax_mode) == (expected.dsc[c], expected.empty_consensus_fg[c])
            reference = compensated_sum_reference(pred.channels[c], metrics.SUM_BLOCK)
            assert compensated_sum(pred.channels[c]) == reference
            assert predicted_volume(pred, c) == pred.geometry.voxel_volume_cm3 * reference


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
        assert cece_multirater(pred, raters, bins, literal, mask) == sum(expected_values) / n_raters


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    block=st.integers(1, 64),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_compensated_sum_carries_its_open_block_across_pieces(seed, n, block, dtype):
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 9, size=n)).astype(dtype)
    with mock.patch.object(metrics, "SUM_BLOCK", block):
        assert compensated_sum(values) == compensated_sum_reference(values, block)


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
    return _as_probability(channels.copy(), geometry, renormalize).channels


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
