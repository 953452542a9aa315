"""Dice, consensus confidence, and volume computations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    compensated_sum_reference,
    dsc_by_voxel_loop,
    geom,
    label_volume,
    mean_left_to_right,
    one_hot_volume,
    random_probability_volume,
)
from voxeval.consensus import derive_regions
from voxeval.errors import GeometryMismatchError, ParameterError
from voxeval.grid import GridGeometry, ProbabilityVolume
from voxeval.metrics import (
    EvalConfig,
    VolumeDistribution,
    confidence_scores,
    crps_gaussian,
    dsc_consensus,
    evaluate_case,
    predicted_volume,
    rater_volume_distribution,
)


def two_rater_fixture():
    """4x4x1 grid: fg = row y=0 of class 1, dissensus = (0,1) and (1,1)."""
    a = np.zeros((4, 4, 1), dtype=np.uint8)
    b = np.zeros((4, 4, 1), dtype=np.uint8)
    a[:, 0, 0] = 1
    b[:, 0, 0] = 1
    a[0, 1, 0] = 1
    a[1, 1, 0] = 1
    return [label_volume(a), label_volume(b)]


def prediction_with_class1(positive_voxels, dims=(4, 4, 1)):
    p1 = np.zeros(dims, dtype=np.float32)
    for v in positive_voxels:
        p1[v] = 0.9
    channels = np.zeros((4, *dims), dtype=np.float32)
    channels[1] = p1
    channels[0] = 1.0 - p1
    return ProbabilityVolume(geom(dims), channels)


def test_hand_enumerated_dsc_fixture():
    raters = two_rater_fixture()
    regions = derive_regions(raters)
    # 3 of 4 fg voxels + 1 dissensus voxel + 1 background voxel
    pred = prediction_with_class1([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0)])
    dsc, flag = dsc_consensus(pred, regions, 1)
    assert dsc == 0.75
    assert not flag
    assert dsc_by_voxel_loop(pred, [r.voxels for r in raters], 1) == 0.75


def test_perfect_consensus_match_ignores_dissensus():
    raters = two_rater_fixture()
    regions = derive_regions(raters)
    # exactly the consensus foreground, plus one dissensus voxel
    pred = prediction_with_class1([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 1, 0)])
    dsc, _ = dsc_consensus(pred, regions, 1)
    assert dsc == 1.0


def test_dissensus_fuzzing_never_changes_dsc(rng):
    raters = two_rater_fixture()
    regions = derive_regions(raters)
    base = prediction_with_class1([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 2, 0)])
    reference, _ = dsc_consensus(base, regions, 1)
    dims = base.geometry.dims
    dissensus = regions[1].dissensus.to_bool(dims)
    for _ in range(100):
        channels = base.channels.copy()
        noise = rng.random(int(dissensus.sum())).astype(np.float32)
        channels[1][dissensus] = noise
        channels[0][dissensus] = 1.0 - noise
        fuzzed = ProbabilityVolume(base.geometry, channels)
        dsc, _ = dsc_consensus(fuzzed, regions, 1)
        assert dsc == reference


def test_empty_consensus_conventions():
    raters = two_rater_fixture()  # nobody labels class 3
    regions = derive_regions(raters)
    nothing = prediction_with_class1([])
    dsc, flag = dsc_consensus(nothing, regions, 3)
    assert dsc == 1.0 and flag
    # a false positive inside the consensus background drops it to 0
    p3 = np.zeros((4, 4, 1), dtype=np.float32)
    p3[2, 2, 0] = 0.8
    channels = np.zeros((4, 4, 4, 1), dtype=np.float32)
    channels[3] = p3
    channels[0] = 1.0 - p3
    fp_pred = ProbabilityVolume(geom((4, 4, 1)), channels)
    dsc, flag = dsc_consensus(fp_pred, regions, 3)
    assert dsc == 0.0 and flag


def test_threshold_is_compared_at_the_prediction_dtype():
    # float32(0.7) is 0.69999999, below 0.7 in float64 but equal to the threshold cast to float32.
    assert float(np.float32(0.7)) < 0.7
    labels = np.array([1, 0], dtype=np.uint8).reshape(2, 1, 1)
    regions = derive_regions([label_volume(labels), label_volume(labels)])
    channels = np.zeros((4, 2, 1, 1), dtype=np.float32)
    channels[1, 0] = np.float32(0.7)
    channels[0] = 1.0 - channels[1]
    pred = ProbabilityVolume(geom((2, 1, 1)), channels)
    assert dsc_consensus(pred, regions, 1, threshold=0.7) == (1.0, False)


def test_argmax_mode_differs_from_threshold():
    raters = two_rater_fixture()
    regions = derive_regions(raters)
    # class-1 probability 0.4 on the fg row: below tau, but the argmax
    dims = (4, 4, 1)
    channels = np.zeros((4, *dims), dtype=np.float32)
    channels[1][:, 0, 0] = 0.4
    channels[0] = 1.0 - channels[1]
    channels[0][:, 0, 0] = 0.3
    channels[2][:, 0, 0] = 0.3
    pred = ProbabilityVolume(geom(dims), channels)
    by_threshold, _ = dsc_consensus(pred, regions, 1, threshold=0.5)
    by_argmax, _ = dsc_consensus(pred, regions, 1, argmax_mode=True)
    assert by_threshold == 0.0
    assert by_argmax == 1.0


def test_confidence_extremes_and_direct_substitution():
    raters = two_rater_fixture()
    regions = derive_regions(raters)
    dims = (4, 4, 1)
    fg = regions[1].fg.to_bool(dims)
    bg = regions[1].bg.to_bool(dims)

    # p = 1 on fg, 0 on bg -> c_seg exactly 1
    channels = np.zeros((4, *dims), dtype=np.float32)
    channels[1][fg] = 1.0
    channels[0] = 1.0 - channels[1]
    perfect = confidence_scores(ProbabilityVolume(geom(dims), channels), regions)
    assert perfect.c_seg[1] == 1.0

    # c_fg = 0.9, c_bg = 0.2 -> (0.8 + 0.9) / 2 = 0.85
    channels = np.zeros((4, *dims), dtype=np.float32)
    channels[1][fg] = 0.9
    channels[1][bg] = 0.2
    channels[0] = 1.0 - channels[1]
    scores = confidence_scores(ProbabilityVolume(geom(dims), channels), regions)
    assert math.isclose(scores.c_fg[1], 0.9, rel_tol=1e-6)
    assert math.isclose(scores.c_bg[1], 0.2, rel_tol=1e-6)
    assert math.isclose(scores.c_seg[1], 0.85, rel_tol=1e-6)


def test_uninformative_prediction_scores_half(rng):
    raters = two_rater_fixture()
    regions = derive_regions(raters)
    channels = np.full((4, 4, 4, 1), 0.25, dtype=np.float32)
    scores = confidence_scores(ProbabilityVolume(geom((4, 4, 1)), channels), regions)
    assert math.isclose(scores.c_seg[1], 0.5, rel_tol=1e-9)


def test_confidence_matches_mask_mean_oracle(rng):
    arrays = [rng.integers(0, 4, size=(6, 5, 4)).astype(np.uint8) for _ in range(3)]
    raters = [label_volume(a) for a in arrays]
    regions = derive_regions(raters)
    pred = random_probability_volume(rng, (6, 5, 4))
    scores = confidence_scores(pred, regions)
    dims = (6, 5, 4)
    for c in (1, 2, 3):
        fg = regions[c].fg.to_bool(dims)
        bg = regions[c].bg.to_bool(dims)
        if not fg.any() or not bg.any():
            assert scores.c_seg[c] is None
            continue
        c_f = float(np.mean(pred.channels[c][fg], dtype=np.float64))
        c_b = float(np.mean(pred.channels[c][bg], dtype=np.float64))
        assert math.isclose(scores.c_seg[c], ((1.0 - c_b) + c_f) / 2.0, abs_tol=1e-12)


def test_empty_mask_class_is_skipped_from_mean():
    # class 2 never labeled: empty fg -> c_seg[2] is None
    a = np.zeros((3, 3, 1), dtype=np.uint8)
    a[0, 0, 0] = 1
    a[1, 1, 0] = 3
    raters = [label_volume(a), label_volume(a)]
    regions = derive_regions(raters)
    scores = confidence_scores(one_hot_volume(raters[0]), regions)
    assert scores.c_seg[2] is None
    assert scores.c_seg[1] == 1.0 and scores.c_seg[3] == 1.0
    assert scores.mean == 1.0


def test_predicted_volume_unit_conversion_and_linearity():
    dims = (10, 10, 10)
    ones = np.zeros((4, *dims), dtype=np.float32)
    ones[1] = 1.0
    v = ProbabilityVolume(geom(dims), ones)
    assert math.isclose(predicted_volume(v, 1), 1.0, rel_tol=1e-12)

    halves = np.zeros((4, *dims), dtype=np.float32)
    halves[1] = 0.5
    halves[0] = 0.5
    v = ProbabilityVolume(geom(dims), halves)
    assert math.isclose(predicted_volume(v, 1), 0.5, rel_tol=1e-12)


def test_predicted_volume_matches_fsum_oracle(rng):
    pred = random_probability_volume(rng, (16, 16, 16), spacing=(0.61, 0.8, 1.1))
    got = predicted_volume(pred, 2)
    expected = pred.geometry.voxel_volume_cm3 * math.fsum(
        float(x) for x in pred.channels[2].reshape(-1)
    )
    assert math.isclose(got, expected, rel_tol=1e-9)


def test_predicted_volume_handles_large_float32():
    # 2_000_001 values of float32(0.1) in channel 1, on 1 cm^3 voxels: a full 2^20-value sum block and a partial one
    channels = np.zeros((4, 666_667, 3, 1), dtype=np.float32)
    channels[1] = 0.1
    pred = ProbabilityVolume(GridGeometry((666_667, 3, 1), (10.0, 10.0, 10.0)), channels)
    exact = 2_000_001 * float(np.float32(0.1))
    got = predicted_volume(pred, 1)
    assert math.isclose(got, exact, rel_tol=1e-12)
    assert got == compensated_sum_reference(channels[1])


def label_with_n_voxels(n, dims=(30, 30, 30), class_id=1):
    arr = np.zeros(dims, dtype=np.uint8)
    arr.reshape(-1)[:n] = class_id
    return label_volume(arr, spacing=(10.0, 10.0, 10.0))  # 1 cm^3 voxels


def test_rater_volume_distribution_conventions():
    equal = [label_with_n_voxels(10) for _ in range(3)]
    mu, sigma, vols = rater_volume_distribution(equal, 1)
    assert (mu, sigma) == (10.0, 0.0)
    assert vols == (10.0, 10.0, 10.0)

    spread = [label_with_n_voxels(n) for n in (9, 10, 11)]
    mu, sigma, _ = rater_volume_distribution(spread, 1)
    assert mu == 10.0
    assert math.isclose(sigma, math.sqrt(2.0 / 3.0), rel_tol=1e-12)  # population
    _, sample_sigma, _ = rater_volume_distribution(spread, 1, convention="sample")
    assert math.isclose(sample_sigma, 1.0, rel_tol=1e-12)

    single = [label_with_n_voxels(7)]
    mu, sigma, _ = rater_volume_distribution(single, 1)
    assert (mu, sigma) == (7.0, 0.0)


@pytest.mark.parametrize("convention", ["Sample", "bogus", ""])
def test_rater_volume_distribution_rejects_an_unknown_convention(convention):
    spread = [label_with_n_voxels(n) for n in (9, 10, 11)]
    with pytest.raises(ParameterError) as raised:
        rater_volume_distribution(spread, 1, convention=convention)
    assert str(raised.value) == f"unknown sigma convention {convention!r}"
    with pytest.raises(ParameterError) as raised_by_config:
        EvalConfig(sigma_convention=convention)
    assert str(raised_by_config.value) == str(raised.value)


def test_evaluate_case_attaches_context_on_geometry_mismatch(rng):
    raters = two_rater_fixture()
    other = ProbabilityVolume(
        GridGeometry((3, 3, 3), (1, 1, 1)), np.full((4, 3, 3, 3), 0.25, dtype=np.float32)
    )
    with pytest.raises(GeometryMismatchError, match="case 'k9'.*algorithm 'net'"):
        evaluate_case(other, raters, EvalConfig(), case_id="k9", algorithm="net")


def test_evaluate_case_composes_individual_metrics(rng):
    from voxeval.metrics import cece_multirater, crps_gaussian, VolumeDistribution

    arrays = [rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8) for _ in range(3)]
    raters = [label_volume(a) for a in arrays]
    pred = random_probability_volume(rng, (8, 8, 8))
    cm = evaluate_case(pred, raters, EvalConfig(), case_id="c", algorithm="a")
    regions = derive_regions(raters)
    for c in (1, 2, 3):
        dsc, _ = dsc_consensus(pred, regions, c)
        assert cm.dsc[c] == dsc
        mu, sigma, _ = rater_volume_distribution(raters, c)
        expected = crps_gaussian(VolumeDistribution(mu, sigma, predicted_volume(pred, c)))
        assert math.isclose(cm.crps[c], expected, rel_tol=1e-12)
    assert math.isclose(cm.mean_cece, cece_multirater(pred, raters, 10), rel_tol=1e-12)
    assert math.isclose(cm.mean_dsc, sum(cm.dsc.values()) / 3, rel_tol=1e-12)


def test_class_subset_config(rng):
    raters = two_rater_fixture()
    pred = one_hot_volume(raters[1])
    cm = evaluate_case(pred, raters, EvalConfig(classes=(1,)), case_id="c", algorithm="a")
    assert set(cm.dsc) == {1}
    assert cm.mean_dsc == cm.dsc[1]


@pytest.mark.parametrize("classes", [(1, 2, 3), (3, 1), (2,)])
def test_case_confidence_is_the_confidence_scores_record(rng, classes):
    # class 2 has no consensus foreground here, so its c_seg is None
    arrays = [rng.integers(0, 4, size=(7, 6, 5)).astype(np.uint8) for _ in range(3)]
    for a in arrays:
        a[a == 2] = 0
    raters = [label_volume(a) for a in arrays]
    pred = random_probability_volume(rng, (7, 6, 5))
    cm = evaluate_case(pred, raters, EvalConfig(classes=classes), "c", "a")
    conf = confidence_scores(pred, derive_regions(raters, classes=classes))
    expected = {c: conf.c_seg[c] for c in sorted(classes)}
    assert list(cm.c_seg) == sorted(classes)
    assert cm.c_seg == expected
    defined = [v for v in expected.values() if v is not None]
    assert cm.mean_c_seg == (mean_left_to_right(defined) if defined else None)


def test_rater_order_does_not_change_any_metric(rng):
    arrays = [rng.integers(0, 4, size=(7, 6, 5)).astype(np.uint8) for _ in range(3)]
    raters = [label_volume(a) for a in arrays]
    pred = random_probability_volume(rng, (7, 6, 5))
    forward = evaluate_case(pred, raters, EvalConfig(), "c", "a")
    reverse = evaluate_case(pred, raters[::-1], EvalConfig(), "c", "a")
    assert forward.dsc == reverse.dsc
    assert forward.c_seg == reverse.c_seg
    assert forward.crps == reverse.crps
    for c in (1, 2, 3):
        assert math.isclose(forward.cece[c], reverse.cece[c], rel_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n_raters=st.integers(2, 4),
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    threshold=st.sampled_from([0.3, 0.5, 0.7]),
    argmax_mode=st.booleans(),
    ece_bins=st.integers(2, 12),
    eq2_literal=st.booleans(),
    ece_per_class=st.booleans(),
    ece_exclude_dissensus=st.booleans(),
    sigma_convention=st.sampled_from(["population", "sample"]),
    classes=st.sampled_from([(1, 2, 3), (3, 1), (2,), (1, 3)]),
)
def test_shared_regions_give_the_same_metrics(seed, n_raters, dims, classes, **flags):
    r = np.random.default_rng(seed)
    arrays = [r.integers(0, 4, size=dims).astype(np.uint8) for _ in range(n_raters)]
    arrays[1][: dims[0] // 2] = arrays[0][: dims[0] // 2]  # some unanimous voxels
    raters = [label_volume(a) for a in arrays]
    config = EvalConfig(classes=classes, **flags)
    regions = derive_regions(raters, config.classes)
    for algorithm in ("one", "two"):  # one regions record serves every algorithm of a case
        pred = random_probability_volume(r, dims)
        shared = evaluate_case(pred, raters, config, "c", algorithm, regions=regions)
        assert shared == evaluate_case(pred, raters, config, "c", algorithm)
        # plain floats: the reports write repr(value), and np.float64 reprs as "np.float64(...)"
        assert {type(v) for v in (*shared.dsc.values(), *shared.crps.values(), shared.mean_dsc)} == {float}
        for c in classes:  # the rater volumes read from the regions match a per-pair count
            mu, sigma, _ = rater_volume_distribution(raters, c, config.sigma_convention)
            assert shared.crps[c] == crps_gaussian(VolumeDistribution(mu, sigma, predicted_volume(pred, c)))


def test_regions_for_other_classes_are_rejected(rng):
    raters = two_rater_fixture()
    pred = one_hot_volume(raters[0])
    with pytest.raises(ParameterError, match="case 'c', algorithm 'a': regions derived for classes"):
        evaluate_case(pred, raters, EvalConfig(classes=(1,)), "c", "a", regions=derive_regions(raters))


def test_classes_are_sorted_so_their_order_gives_the_same_bits():
    assert EvalConfig(classes=(3, 2, 1)).classes == (1, 2, 3)
    assert EvalConfig(classes=(3, 1, 3)).classes == (1, 3)
    r = np.random.default_rng(0)  # unsorted, the organ means of this case differed in the last bit (mean_crps)
    raters = [label_volume(r.integers(0, 4, size=(6, 6, 6)).astype(np.uint8)) for _ in range(3)]
    pred = random_probability_volume(r, (6, 6, 6))
    unsorted = evaluate_case(pred, raters, EvalConfig(classes=(3, 2, 1)))
    assert unsorted == evaluate_case(pred, raters, EvalConfig(classes=(1, 2, 3)))
    assert list(unsorted.crps) == [1, 2, 3]
    regions = derive_regions(raters, classes=(3, 2, 1))  # regions derived in any order still fit
    assert evaluate_case(pred, raters, EvalConfig(classes=(2, 3, 1)), regions=regions) == unsorted
