"""Calibration error: spec'd bin arithmetic against the per-voxel oracle."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    calibration_reference,
    calibration_rows,
    cece_binary_by_voxel_loop,
    cece_by_voxel_loop,
    geom,
    label_volume,
    mean_left_to_right,
    one_hot_volume,
    random_label_array,
    random_probability_volume,
)
from voxeval.errors import ParameterError
from voxeval.grid import ProbabilityVolume
from voxeval.metrics import (
    CalibrationBins,
    EvalConfig,
    _calibrate,
    cece,
    cece_binary,
    cece_multirater,
    evaluate_case,
)


def volume_with_confidence(conf_per_voxel, winner_per_voxel, dims):
    """Winner channel gets the stated confidence, the rest split evenly.

    float64 channels keep the stated confidences exact so hand-computed
    expectations hold to ~1e-16.
    """
    channels = np.zeros((4, *dims), dtype=np.float64)
    conf = np.asarray(conf_per_voxel, dtype=np.float64).reshape(dims)
    winner = np.asarray(winner_per_voxel).reshape(dims)
    rest = (1.0 - conf) / 3.0
    for c in range(4):
        channels[c] = np.where(winner == c, conf, rest)
    return ProbabilityVolume(geom(dims), channels)


def test_one_hot_correct_predictions_score_zero(rng):
    labels = label_volume(random_label_array(rng, (6, 6, 6)))
    assert cece(one_hot_volume(labels), labels, 10).value == 0.0


def test_single_bin_example():
    # 10 voxels at confidence 0.75, 6 of them correct -> |0.6 - 0.75|
    dims = (10, 1, 1)
    pred = volume_with_confidence([0.75] * 10, [1] * 10, dims)
    truth = np.full(dims, 1, dtype=np.uint8)
    truth.reshape(-1)[6:] = 2  # 4 wrong
    result = cece(pred, label_volume(truth), 10)
    assert np.count_nonzero(result.counts) == 1
    assert math.isclose(result.value, 0.15, abs_tol=1e-9)


def test_two_bin_example():
    # 4 voxels @0.95 all correct, 6 voxels @0.55 with 3 correct -> 0.05
    dims = (10, 1, 1)
    conf = [0.95] * 4 + [0.55] * 6
    pred = volume_with_confidence(conf, [1] * 10, dims)
    truth = np.full(dims, 1, dtype=np.uint8)
    truth.reshape(-1)[4:7] = 3  # three of the low-confidence voxels wrong
    result = cece(pred, label_volume(truth), 10)
    assert np.count_nonzero(result.counts) == 2
    assert math.isclose(result.value, 0.4 * 0.05 + 0.6 * 0.05, abs_tol=1e-9)


def test_literal_weighting_uses_bin_count_denominator():
    # 20 voxels, M = 10: count/M doubles the count/N weighting
    dims = (20, 1, 1)
    pred = volume_with_confidence([0.75] * 20, [1] * 20, dims)
    truth = np.full(dims, 1, dtype=np.uint8)
    truth.reshape(-1)[12:] = 2
    standard = cece(pred, label_volume(truth), 10)
    literal = cece(pred, label_volume(truth), 10, eq2_literal=True)
    assert math.isclose(literal.value, 2.0 * standard.value, rel_tol=1e-12)


@pytest.mark.parametrize("bins", [2, 5, 10, 15])
def test_matches_brute_force_oracle(rng, bins):
    for _ in range(5):
        dims = tuple(rng.integers(2, 7, size=3))
        pred = random_probability_volume(rng, dims)
        labels = label_volume(random_label_array(rng, dims))
        got = cece(pred, labels, bins).value
        expected = cece_by_voxel_loop(pred, labels, bins)
        assert math.isclose(got, expected, abs_tol=1e-12)
        literal = cece(pred, labels, bins, eq2_literal=True).value
        assert math.isclose(literal, cece_by_voxel_loop(pred, labels, bins, literal=True), abs_tol=1e-12)


@pytest.mark.parametrize("bins", [2, 5, 10, 15])
def test_binary_matches_brute_force_oracle(rng, bins):
    for _ in range(5):
        dims = tuple(rng.integers(2, 7, size=3))
        pred = random_probability_volume(rng, dims)
        labels = label_volume(random_label_array(rng, dims))
        for c in (1, 2, 3):
            for literal in (False, True):
                got = cece_binary(pred, labels, c, bins, eq2_literal=literal).value
                expected = cece_binary_by_voxel_loop(pred, labels, c, bins, literal=literal)
                assert math.isclose(got, expected, abs_tol=1e-12)


def test_value_bounds_and_bin_bookkeeping(rng):
    pred = random_probability_volume(rng, (5, 5, 5))
    labels = label_volume(random_label_array(rng, (5, 5, 5)))
    result = cece(pred, labels, 10)
    assert 0.0 <= result.value <= 1.0
    assert result.counts.sum() == result.n_evaluated == 125
    for row in calibration_rows(result):
        assert row["lo"] <= row["conf"] <= row["hi"] or math.isclose(row["conf"], row["hi"])
        assert 0.0 <= row["acc"] <= 1.0


def test_argmax_tie_breaks_to_lowest_class_id():
    dims = (1, 1, 1)
    channels = np.full((4, 1, 1, 1), 0.25, dtype=np.float32)
    pred = ProbabilityVolume(geom(dims), channels)
    # predicted class is 0 (lowest id among the tied maxima)
    assert cece(pred, label_volume(np.zeros(dims, dtype=np.uint8)), 10).acc_mean[2] == 1.0
    assert cece(pred, label_volume(np.full(dims, 1, dtype=np.uint8)), 10).acc_mean[2] == 0.0


def test_multirater_averages_per_rater_values(rng):
    dims = (6, 6, 6)
    pred = random_probability_volume(rng, dims)
    raters = [label_volume(random_label_array(rng, dims)) for _ in range(3)]
    separate = [cece(pred, r, 10).value for r in raters]
    assert math.isclose(cece_multirater(pred, raters, 10), sum(separate) / 3, rel_tol=1e-12)
    # identical raters collapse to the single-rater value
    same = [raters[0]] * 3
    assert cece_multirater(pred, same, 10) == separate[0]


def test_mean_of_known_values():
    assert math.isclose(sum([0.0, 0.03, 0.06]) / 3, 0.03, rel_tol=1e-12)
    # and through the API: build three raters whose cECEs differ
    dims = (10, 1, 1)
    pred = volume_with_confidence([0.8] * 10, [1] * 10, dims)
    raters = []
    for wrong in (0, 1, 2):
        t = np.full(dims, 1, dtype=np.uint8)
        t.reshape(-1)[:wrong] = 2
        raters.append(label_volume(t))
    separate = [cece(pred, r, 10).value for r in raters]
    assert math.isclose(cece_multirater(pred, raters, 10), sum(separate) / 3, rel_tol=1e-12)


def test_include_mask_restricts_evaluation(rng):
    dims = (4, 4, 4)
    pred = random_probability_volume(rng, dims)
    labels = label_volume(random_label_array(rng, dims))
    include = np.zeros(dims, dtype=bool)
    include[:2] = True
    restricted = cece(pred, labels, 10, include=include)
    assert restricted.n_evaluated == 32
    full = cece(pred, labels, 10)
    assert full.n_evaluated == 64


def test_include_mask_of_any_shape_with_the_grids_size(rng):
    dims = (4, 5, 3)
    pred = random_probability_volume(rng, dims)
    raters = [label_volume(random_label_array(rng, dims)) for _ in range(2)]
    include = rng.random(dims) < 0.5
    for flat in (include.reshape(-1), include.reshape(6, 10), include.astype(np.uint8)):
        assert_same_bins(cece(pred, raters[0], 10, include=flat), cece(pred, raters[0], 10, include=include))
        assert_same_bins(cece_binary(pred, raters[0], 2, 7, include=flat), cece_binary(pred, raters[0], 2, 7, include=include))
        assert cece_multirater(pred, raters, 10, include=flat) == cece_multirater(pred, raters, 10, include=include)


def test_include_mask_of_another_size_is_rejected(rng):
    dims = (4, 4, 4)
    pred = random_probability_volume(rng, dims)
    raters = [label_volume(random_label_array(rng, dims)) for _ in range(2)]
    message = "include mask has 48 voxels, the grid 64"
    for include in (np.ones((4, 4, 3), dtype=bool), np.ones(48, dtype=bool)):
        with pytest.raises(ParameterError) as raised:
            cece(pred, raters[0], 10, include=include)
        assert str(raised.value) == message
        with pytest.raises(ParameterError, match=f"^{message}$"):
            cece_binary(pred, raters[0], 1, 10, include=include)
        with pytest.raises(ParameterError, match=f"^{message}$"):
            cece_multirater(pred, raters, 10, include=include)


def test_binary_mode_per_class(rng):
    dims = (5, 5, 5)
    labels = label_volume(random_label_array(rng, dims))
    pred = one_hot_volume(labels)
    for c in (1, 2, 3):
        assert cece_binary(pred, labels, c, 10).value == 0.0
    # an uninformative channel is maximally miscalibrated against a pure class
    uniform = ProbabilityVolume(geom(dims), np.full((4, *dims), 0.25, dtype=np.float32))
    all_bg = label_volume(np.zeros(dims, dtype=np.uint8))
    result = cece_binary(uniform, all_bg, 1, 10)
    # confidence 0.75 for "not class 1", accuracy 1.0
    assert math.isclose(result.value, 0.25, abs_tol=1e-9)


def test_bin_count_validation(rng):
    pred = random_probability_volume(rng, (2, 2, 2))
    labels = label_volume(random_label_array(rng, (2, 2, 2)))
    for bins, rule in ((1, ">= 2"), (65537, "<= 65536")):  # EvalConfig's rule and words, for --ece-bins
        with pytest.raises(ParameterError, match=f"^ece_bins must be {rule}, got {bins}$"):
            cece(pred, labels, bins)
        with pytest.raises(ParameterError, match=f"^ece_bins must be {rule}, got {bins}$"):
            EvalConfig(ece_bins=bins)


def test_sharpening_accurate_predictions_drives_cece_to_zero(rng):
    # interpolate an under-confident but argmax-correct map toward one-hot
    labels = label_volume(random_label_array(rng, (6, 6, 6)))
    hot = one_hot_volume(labels).channels.astype(np.float64)
    soft = 0.6 * hot + 0.1  # correct argmax, confidence 0.7 everywhere
    values = []
    for t in (0.0, 0.5, 0.9, 1.0):
        channels = ((1.0 - t) * soft + t * hot).astype(np.float32)
        values.append(cece(ProbabilityVolume(geom((6, 6, 6)), channels), labels, 10).value)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def edge_case_prediction(rng, dims, bins, dtype):
    """Random channels plus voxels on the awkward spots of the bin rule.

    Winner confidences sit exactly on every k/M (cycling the winning
    class, so every one-vs-rest channel gets them too), and there are
    argmax ties, one-vs-rest p = 0.5 and one-hot voxels.
    """
    raw = rng.random(size=(4, *dims)) + 1e-3
    channels = raw / raw.sum(axis=0)
    flat = channels.reshape(4, -1)
    special = [[0.25] * 4, [0.1, 0.4, 0.4, 0.1], [0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]]
    for k in range(bins + 1):
        conf = k / bins
        column = [(1.0 - conf) / 3.0] * 4
        column[k % 4] = conf
        special.append(column)
    assert len(special) <= flat.shape[1]
    flat[:, : len(special)] = np.array(special).T
    return ProbabilityVolume(geom(dims), channels.astype(dtype))


def perturbed_raters(rng, dims, n_raters, flip=0.15):
    """Raters that share a base map except for a random share of voxels."""
    base = random_label_array(rng, dims)
    out = []
    for _ in range(n_raters):
        labels = base.copy()
        flipped = rng.random(dims) < flip
        labels[flipped] = random_label_array(rng, dims)[flipped]
        out.append(label_volume(labels))
    return out


def assert_same_bins(got: CalibrationBins, expected: CalibrationBins):
    for f in dataclasses.fields(CalibrationBins):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert (a == b).all() and a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_raters", [2, 3, 9])
@pytest.mark.parametrize("bins", [2, 10, 37])
def test_shared_binning_matches_per_rater_reference(rng, bins, n_raters, dtype):
    dims = (6, 5, 4)
    pred = edge_case_prediction(rng, dims, bins, dtype)
    raters = perturbed_raters(rng, dims, n_raters)
    subset = rng.random(dims) < 0.7
    for class_id in (None, 1, 2, 3):
        for include in (None, subset):
            for literal in (False, True):
                got = _calibrate(pred, raters, class_id, bins, literal, include)
                expected = calibration_reference(pred, raters, class_id, bins, literal, include)
                assert len(got) == len(expected) == n_raters
                for g, e in zip(got, expected):
                    assert_same_bins(g, e)
                for r, e in zip(raters, expected):
                    if class_id is None:
                        assert_same_bins(cece(pred, r, bins, literal, include), e)
                    else:
                        assert_same_bins(cece_binary(pred, r, class_id, bins, literal, include), e)
                if class_id is None:
                    mean = mean_left_to_right([e.value for e in expected])
                    assert cece_multirater(pred, raters, bins, literal, include) == mean


@pytest.mark.parametrize("classes", [(1, 2, 3), (3, 1)])
@pytest.mark.parametrize("bins", [2, 10, 37])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_raters", [2, 3, 9])
def test_evaluate_case_calibration_matches_per_rater_reference(rng, n_raters, dtype, bins, classes):
    dims = (6, 5, 4)
    pred = edge_case_prediction(rng, dims, bins, dtype)
    raters = perturbed_raters(rng, dims, n_raters)
    unanimous = np.all([r.voxels == raters[0].voxels for r in raters], axis=0)
    assert unanimous.any() and not unanimous.all()

    def reference_values(class_id, literal, include):
        return [b.value for b in calibration_reference(pred, raters, class_id, bins, literal, include)]

    for per_class in (False, True):
        for exclude in (False, True):
            for literal in (False, True):
                config = EvalConfig(
                    ece_bins=bins,
                    eq2_literal=literal,
                    ece_per_class=per_class,
                    ece_exclude_dissensus=exclude,
                    classes=classes,
                )
                include = unanimous if exclude else None
                if per_class:
                    expected = {c: float(np.mean(reference_values(c, literal, include))) for c in sorted(classes)}
                    expected_mean = mean_left_to_right(expected.values())
                else:
                    values = reference_values(None, literal, include)
                    expected_mean = mean_left_to_right(values)
                    expected = {c: expected_mean for c in classes}
                got = evaluate_case(pred, raters, config)
                assert got.cece == expected
                assert list(got.cece) == sorted(classes)
                assert got.mean_cece == expected_mean
