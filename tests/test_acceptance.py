"""Acceptance gate: the nine release criteria, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; each
criterion asserts its stated tolerance and (where given) its runtime
budget.
"""

import csv
import dataclasses
import json
import math
import time

import numpy as np

from conftest import (
    bootstrap_ranks_reference,
    cece_by_voxel_loop,
    consensus_by_voxel_loop,
    crps_by_integration,
    label_volume,
    make_case_metrics,
    mean_left_to_right,
    one_hot_volume,
    random_label_array,
    random_probability_volume,
)
from voxeval.cli import main
from voxeval.consensus import derive_regions
from voxeval.grid import GridGeometry, ProbabilityVolume
from voxeval.manifest import CaseEntry, DatasetManifest
from voxeval.metrics import (
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
from voxeval.phantom import PhantomSpec, PredictionModel, Sphere, generate
from voxeval.report import aggregate
from voxeval.stability import bootstrap_ranks

from test_cli import SEVEN_TEAM_CSV
from test_metrics import prediction_with_class1, two_rater_fixture


def verdict(number: int, description: str, started: float):
    print(f"ACCEPTANCE {number} PASS - {description} ({time.perf_counter() - started:.2f} s)")


def test_criterion_1_published_ranking_reproduction(tmp_path, capsys):
    started = time.perf_counter()
    src = tmp_path / "table.csv"
    src.write_text(SEVEN_TEAM_CSV)
    out = tmp_path / "rank"
    assert main(["rank-table", str(src), "--out", str(out)]) == 0
    elapsed = time.perf_counter() - started

    with open(out / "ranking.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    expected_order = ["MedIG", "PrAEcision", "BreizhSeg", "DLAI", "BCNAIM", "CAI4CAI", "PredictED"]
    expected_ranks = {
        "MedIG": (1, 1, 2, 1), "PrAEcision": (2, 2, 3, 3), "BreizhSeg": (4, 3, 1, 4),
        "DLAI": (3, 4, 4, 5), "BCNAIM": (5, 5, 6, 2), "CAI4CAI": (7, 7, 5, 6),
        "PredictED": (6, 6, 7, 7),
    }
    expected_composites = [1.25, 2.5, 3.0, 4.0, 4.5, 6.25, 6.5]
    assert [r["algorithm"] for r in rows] == expected_order
    for row in rows:
        got = tuple(float(row[k]) for k in ("dsc_rank", "confidence_rank", "ece_rank", "crps_rank"))
        assert got == expected_ranks[row["algorithm"]], row["algorithm"]
    assert [float(r["composite"]) for r in rows] == expected_composites
    assert elapsed < 1.0, f"rank-table took {elapsed:.3f} s (budget 1 s)"
    with capsys.disabled():
        verdict(1, "seven-team ranking reproduced exactly, final order and composites match", started)


def test_criterion_2_crps_closed_form_vs_integral():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        mu = float(rng.uniform(0.0, 2000.0))
        sigma = float(rng.uniform(1e-6, 100.0))
        y = float(rng.uniform(0.0, 2500.0))
        closed = crps_gaussian(VolumeDistribution(mu, sigma, y))
        worst = max(worst, abs(closed - crps_by_integration(mu, sigma, y)))
    assert worst < 1e-6, f"worst |closed - integral| = {worst:.3e}"
    for mu, y in ((50.0, 53.0), (0.0, 0.0), (1234.5, 0.25)):
        assert crps_gaussian(VolumeDistribution(mu, 0.0, y)) == abs(y - mu)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"{elapsed:.1f} s (budget 30 s including the oracle)"
    print(f"ACCEPTANCE 2 PASS - 1000 random triples, worst gap {worst:.2e} < 1e-6; "
          f"sigma=0 exact ({elapsed:.2f} s)")


def test_criterion_3_cece_brute_force_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 17, size=3))
        pred = random_probability_volume(rng, dims)
        labels = label_volume(random_label_array(rng, dims))
        for bins in (2, 5, 10, 15):
            got = cece(pred, labels, bins).value
            expected = cece_by_voxel_loop(pred, labels, bins)
            worst = max(worst, abs(got - expected))
            assert abs(got - expected) <= 1e-12, (dims, bins)
    # one-hot correct predictions are perfectly calibrated
    for _ in range(5):
        labels = label_volume(random_label_array(rng, (8, 8, 8)))
        assert cece(one_hot_volume(labels), labels, 10).value == 0.0
    print(f"ACCEPTANCE 3 PASS - 50 fixtures x M in (2,5,10,15) match the per-voxel "
          f"loop (worst gap {worst:.1e} <= 1e-12); one-hot-correct gives 0 "
          f"({time.perf_counter() - started:.2f} s)")


def test_criterion_4_consensus_partition_property():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    for i in range(100):
        n_raters = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(3, 7, size=3))
        arrays = [random_label_array(rng, dims) for _ in range(n_raters)]
        raters = [label_volume(a) for a in arrays]
        regions = derive_regions(raters)
        permuted = derive_regions(raters[::-1])
        n = dims[0] * dims[1] * dims[2]
        for c in (1, 2, 3):
            r = regions[c]
            assert r.fg.count() + r.bg.count() + r.dissensus.count() == n
            assert not np.any(r.fg.to_bool() & r.bg.to_bool())
            assert not np.any(r.fg.to_bool() & r.dissensus.to_bool())
            assert not np.any(r.bg.to_bool() & r.dissensus.to_bool())
            fg, bg, dis = consensus_by_voxel_loop(arrays, c)
            assert np.array_equal(r.fg.to_bool(dims), fg)
            assert np.array_equal(r.bg.to_bool(dims), bg)
            assert np.array_equal(r.dissensus.to_bool(dims), dis)
            assert np.array_equal(permuted[c].fg.to_bool(), r.fg.to_bool()) and np.array_equal(
                permuted[c].bg.to_bool(), r.bg.to_bool()
            )
            assert np.array_equal(permuted[c].dissensus.to_bool(), r.dissensus.to_bool())
    print(f"ACCEPTANCE 4 PASS - 100 random 2-4 rater fixtures: exact tri-partition, "
          f"per-voxel oracle match, rater-permutation invariance "
          f"({time.perf_counter() - started:.2f} s)")


def test_criterion_5_dsc_dissensus_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    raters = two_rater_fixture()
    regions = derive_regions(raters)
    base = prediction_with_class1([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0)])
    reference, _ = dsc_consensus(base, regions, 1)
    assert reference == 0.75  # the hand-enumerated fixture value
    dims = base.geometry.dims
    dissensus = np.zeros(dims, dtype=bool)
    dissensus |= regions[1].dissensus.to_bool(dims)
    for _ in range(100):
        channels = base.channels.copy()
        noise = rng.random(int(dissensus.sum())).astype(np.float32)
        channels[1][dissensus] = noise
        channels[0][dissensus] = 1.0 - noise
        dsc, _ = dsc_consensus(ProbabilityVolume(base.geometry, channels), regions, 1)
        assert dsc == reference
    # empty-consensus degenerate convention
    empty_dsc, flagged = dsc_consensus(prediction_with_class1([]), regions, 3)
    assert empty_dsc == 1.0 and flagged
    print(f"ACCEPTANCE 5 PASS - 100 dissensus fuzz trials leave DSC at 0.75; "
          f"empty consensus returns 1.0 with flag ({time.perf_counter() - started:.2f} s)")


def test_criterion_6_volume_and_confidence_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(4, 18, size=3))
        p = float(np.float32(rng.uniform(0.0, 1.0)))
        n = dims[0] * dims[1] * dims[2]
        channels = np.zeros((4, *dims), dtype=np.float32)
        channels[1] = p
        channels[0] = 1.0 - np.float32(p)
        vol = ProbabilityVolume(GridGeometry(dims, (1.0, 1.0, 1.0)), channels)
        expected = p * n / 1000.0
        rel = abs(predicted_volume(vol, 1) - expected) / max(expected, 1e-300)
        worst = max(worst, rel)
        assert rel < 1e-9
    # confidence extremes are exact
    raters = two_rater_fixture()
    regions = derive_regions(raters)
    dims = (4, 4, 1)
    fg = regions[1].fg.to_bool(dims)
    bg = regions[1].bg.to_bool(dims)
    hot = np.zeros((4, *dims), dtype=np.float32)
    hot[1][fg] = 1.0
    hot[0] = 1.0 - hot[1]
    assert confidence_scores(ProbabilityVolume(regions.geometry, hot), regions).c_seg[1] == 1.0
    cold = np.zeros((4, *dims), dtype=np.float32)
    cold[1][bg] = 1.0
    cold[0] = 1.0 - cold[1]
    assert confidence_scores(ProbabilityVolume(regions.geometry, cold), regions).c_seg[1] == 0.0
    print(f"ACCEPTANCE 6 PASS - uniform-probability volume identity within 1e-9 relative "
          f"(worst {worst:.1e}); confidence extremes exactly 0 and 1 "
          f"({time.perf_counter() - started:.2f} s)")


def _summary_json(summary):
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


def test_criterion_7_bootstrap_determinism_and_structure():
    rng = np.random.default_rng(7)
    cms = []
    for j in range(7):
        for i in range(60):
            cms.append(
                make_case_metrics(
                    f"case{i:02d}", f"alg{j}",
                    dsc=0.95 - 0.05 * j + 0.03 * float(rng.random()),
                    confidence=0.97 - 0.04 * j + 0.02 * float(rng.random()),
                    ece=0.002 * (j + 1) + 0.001 * float(rng.random()),
                    crps=2.0 * (j + 1) + float(rng.random()),
                )
            )
    started = time.perf_counter()
    summary = bootstrap_ranks(cms, iterations=500, seed=99)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"500 x 7 x 60 took {elapsed:.2f} s (budget 10 s)"

    again = bootstrap_ranks(cms, iterations=500, seed=99)
    reference = bootstrap_ranks_reference(cms, iterations=500, seed=99)
    assert _summary_json(summary) == _summary_json(again) == _summary_json(reference)

    for metric in summary.metrics:
        total = sum(summary.stats[metric][a].mean_rank for a in summary.algorithms)
        assert math.isclose(total, 7 * 8 / 2, rel_tol=1e-12)  # K(K+1)/2 each iteration
        for a in summary.algorithms:
            s = summary.stats[metric][a]
            assert math.isclose(sum(s.rank_frequency.values()), 1.0, rel_tol=1e-12)

    single = bootstrap_ranks(
        [make_case_metrics("only", a, 0.9 - 0.1 * i, 0.9, 0.01, 1.0) for i, a in enumerate("ab")],
        iterations=100, seed=1,
    )
    assert single.stats["dsc"]["a"].std_rank == 0.0
    assert single.stats["dsc"]["a"].rank_frequency == {1.0: 1.0}
    print(f"ACCEPTANCE 7 PASS - byte-identical across reruns and to the per-iteration reference; "
          f"rank mass conserved; single-case std 0; 500x7x60 in {elapsed:.2f} s < 10 s")


def test_criterion_8_phantom_end_to_end(tmp_path):
    spec = PhantomSpec(
        geometry=GridGeometry((128, 128, 128), (1.0, 1.0, 1.0)),
        spheres={
            1: Sphere((32.0, 32.0, 32.0), 14.0),
            2: Sphere((90.0, 34.0, 36.0), 18.0),
            3: Sphere((64.0, 92.0, 88.0), 24.0),
        },
        rater_deltas=(-1, 0, 1),
        prediction=PredictionModel("blurred", sigma=1.5),
    )
    phantom = generate(spec)
    raters = list(phantom.raters)
    started = time.perf_counter()
    cm = evaluate_case(phantom.prediction, raters, EvalConfig(), "phantom", "blurred")
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"evaluation took {elapsed:.2f} s (budget 10 s)"

    regions = derive_regions(raters)
    dims = spec.geometry.dims
    label_arrays = [r.voxels for r in raters]
    for c in (1, 2, 3):
        # consensus counts equal the generation-time exhaustive scan
        r = regions[c]
        t = phantom.truth.region_counts[c]
        assert (r.fg.count(), r.bg.count(), r.dissensus.count()) == (t["fg"], t["bg"], t["dissensus"])

        # Dice from independent boolean logic over the raw labels
        fg = np.logical_and.reduce([a == c for a in label_arrays])
        any_c = np.logical_or.reduce([a == c for a in label_arrays])
        predicted = phantom.prediction.channels[c] >= 0.5
        tp = int(np.count_nonzero(predicted & fg))
        fp = int(np.count_nonzero(predicted & ~any_c))
        fn = int(np.count_nonzero(fg)) - tp
        assert cm.dsc[c] == 2.0 * tp / (2.0 * tp + fp + fn)

        # consensus confidence from direct mask means
        c_f = float(np.mean(phantom.prediction.channels[c][fg], dtype=np.float64))
        c_b = float(np.mean(phantom.prediction.channels[c][~any_c], dtype=np.float64))
        assert math.isclose(cm.c_seg[c], ((1.0 - c_b) + c_f) / 2.0, abs_tol=1e-12)

        # volume CRPS against the analytic truth and the integration oracle
        mu, sigma, vols = rater_volume_distribution(raters, c)
        assert vols == phantom.truth.rater_volumes_cm3[c]
        assert math.isclose(mu, phantom.truth.mu_cm3[c], rel_tol=1e-12)
        assert math.isclose(sigma, phantom.truth.sigma_cm3[c], rel_tol=1e-12)
        y = predicted_volume(phantom.prediction, c)
        fsum_oracle = spec.geometry.voxel_volume_cm3 * math.fsum(
            float(v) for v in phantom.prediction.channels[c].reshape(-1)
        )
        assert math.isclose(y, fsum_oracle, rel_tol=1e-9)
        assert math.isclose(cm.crps[c], crps_gaussian(VolumeDistribution(mu, sigma, y)), rel_tol=1e-12)
        assert abs(cm.crps[c] - crps_by_integration(mu, sigma, y)) < 1e-6

    # calibration composes as the mean over raters
    expected_cece = cece_multirater(phantom.prediction, raters, 10)
    assert math.isclose(cm.mean_cece, expected_cece, rel_tol=1e-12)
    per_rater = [cece(phantom.prediction, r, 10).value for r in raters]
    assert math.isclose(expected_cece, sum(per_rater) / 3.0, rel_tol=1e-12)
    print(f"ACCEPTANCE 8 PASS - 128^3 phantom, 3 raters, blurred prediction: all four "
          f"metrics match composed oracles; evaluation {elapsed:.2f} s < 10 s")


def test_criterion_9_group_aggregation_identity(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    cms, groups = [], {}
    for i in range(30):
        case = f"case{i:02d}"
        groups[case] = "ABC"[i % 3]
        for alg in ("u", "v"):
            cms.append(
                make_case_metrics(
                    case, alg,
                    dsc=float(rng.random()),
                    confidence=float(rng.random()),
                    ece=float(rng.random()) / 20,
                    crps=float(rng.random()) * 10,
                )
            )
    manifest = DatasetManifest(
        tmp_path / "m.json",
        tuple(CaseEntry(c, g, (tmp_path,), {"u": tmp_path, "v": tmp_path}) for c, g in groups.items()),
    )
    report = aggregate(cms, manifest)
    rows = {(r.group, r.algorithm): r for r in report}
    for alg in ("u", "v"):
        values = [cm.mean_dsc for cm in cms if cm.algorithm == alg]
        # identical left-fold reduction: the identity holds exactly
        assert rows[("overall", alg)].means["dsc"] == mean_left_to_right(values)
        assert math.isclose(rows[("overall", alg)].means["dsc"], math.fsum(values) / len(values), rel_tol=1e-12)
        # the wrong aggregation (mean of group means) must differ here
        group_means = [rows[(g, alg)].means["dsc"] for g in "ABC"]
        assert rows[("overall", alg)].means["dsc"] != mean_left_to_right(group_means)
        for g in "ABC":
            per_group = [cm.mean_dsc for cm in cms if cm.algorithm == alg and groups[cm.case_id] == g]
            assert rows[(g, alg)].means["dsc"] == mean_left_to_right(per_group)
    print(f"ACCEPTANCE 9 PASS - overall equals the case-weighted mean exactly; "
          f"full-corpus table values are out of desk-scale scope by design "
          f"({time.perf_counter() - started:.2f} s)")
