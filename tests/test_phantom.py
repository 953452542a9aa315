"""Phantom generation: analytic truth, model behavior, dataset synthesis."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import apply_model_reference, rater_labels_reference, region_counts, unanimity_one_hot_reference
from voxeval.consensus import derive_regions
from voxeval.errors import ValidationError
from voxeval.grid import GridGeometry, LabelVolume, validate_probability_sums
from voxeval.manifest import load_manifest
from voxeval.metrics import EvalConfig, cece_multirater, evaluate_case, rater_volume_distribution
from voxeval.phantom import (
    PhantomSpec,
    PredictionModel,
    Sphere,
    _prediction,
    _rater_labels,
    _scan_truth,
    _unanimous_labels,
    generate,
    parse_spec_document,
    write_dataset,
)


def spec_48(deltas=(-1, 0, 1), prediction=PredictionModel("perfect")):
    return PhantomSpec(
        geometry=GridGeometry((48, 48, 48), (1.0, 1.0, 1.0)),
        spheres={
            1: Sphere((12.0, 12.0, 12.0), 6.0),
            2: Sphere((34.0, 12.0, 12.0), 7.0),
            3: Sphere((24.0, 34.0, 34.0), 9.0),
        },
        rater_deltas=deltas,
        prediction=prediction,
    )


def sphere_count(radius):
    """Voxels with integer offsets within Euclidean radius of a center."""
    r = int(math.ceil(radius))
    n = 0
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for z in range(-r, r + 1):
                if x * x + y * y + z * z <= radius * radius:
                    n += 1
    return n


def test_unanimous_phantom_has_empty_dissensus():
    ph = generate(spec_48(deltas=(0, 0, 0)))
    for c, s in ph.spec.spheres.items():
        counts = ph.truth.region_counts[c]
        assert counts["dissensus"] == 0
        assert counts["fg"] == sphere_count(s.radius)


def test_perturbed_phantom_dissensus_is_the_shell():
    ph = generate(spec_48(deltas=(-1, 0, 1)))
    for c, s in ph.spec.spheres.items():
        counts = ph.truth.region_counts[c]
        assert counts["fg"] == sphere_count(s.radius - 1)
        assert counts["fg"] + counts["dissensus"] == sphere_count(s.radius + 1)


def test_truth_matches_consensus_module():
    ph = generate(spec_48(deltas=(-1, 0, 1)))
    assert region_counts(derive_regions(list(ph.raters))) == ph.truth.region_counts


def test_truth_volumes_match_label_counts():
    ph = generate(spec_48(deltas=(-1, 0, 1)))
    vv = ph.spec.geometry.voxel_volume_cm3
    for c in ph.spec.spheres:
        for r, vol in zip(ph.raters, ph.truth.rater_volumes_cm3[c]):
            assert vol == np.count_nonzero(r.voxels == c) * vv
        vols = ph.truth.rater_volumes_cm3[c]
        assert math.isclose(ph.truth.mu_cm3[c], sum(vols) / len(vols), rel_tol=1e-12)
        assert math.isclose(ph.truth.sigma_cm3[c], float(np.std(vols)), rel_tol=1e-12)


def test_perfect_prediction_on_unanimous_phantom_is_ideal():
    ph = generate(spec_48(deltas=(0, 0, 0)))
    cm = evaluate_case(ph.prediction, list(ph.raters), EvalConfig(), "p", "perfect")
    for c in (1, 2, 3):
        assert cm.dsc[c] == 1.0
        assert cm.c_seg[c] == 1.0
        assert cm.crps[c] == 0.0  # sigma = 0 and prediction volume = mu exactly
        assert cm.sigma_zero[c]
    assert cm.mean_cece == 0.0


def test_generated_probabilities_are_valid():
    for model in (PredictionModel("blurred", sigma=1.5), PredictionModel("miscalibrated", delta=0.3)):
        ph = generate(spec_48(prediction=model))
        validate_probability_sums(ph.prediction.channels)


def test_miscalibration_strictly_increases_cece():
    base = spec_48(deltas=(-1, 0, 1))
    raters = list(generate(base).raters)
    values = []
    for delta in (0.0, 0.1, 0.2, 0.35):
        model = PredictionModel("perfect") if delta == 0.0 else PredictionModel("miscalibrated", delta=delta)
        ph = generate(spec_48(deltas=(-1, 0, 1), prediction=model))
        values.append(cece_multirater(ph.prediction, raters, 10))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_miscalibration_keeps_the_winner():
    ph = generate(spec_48(prediction=PredictionModel("miscalibrated", delta=0.4)))
    perfect = generate(spec_48())
    assert np.array_equal(
        np.argmax(ph.prediction.channels, axis=0), np.argmax(perfect.prediction.channels, axis=0)
    )


def spec_anisotropic(prediction):
    """A CT-like slab: long in-plane axes, few thick slices."""
    return PhantomSpec(
        geometry=GridGeometry((40, 34, 12), (0.8, 0.8, 2.5)),
        spheres={1: Sphere((10.0, 9.0, 6.0), 4.0), 2: Sphere((28.0, 10.0, 5.0), 3.0), 3: Sphere((20.0, 24.0, 6.0), 4.0)},
        rater_deltas=(-1, 0, 1, 1),
        prediction=prediction,
    )


def spec_corner(prediction=PredictionModel("perfect")):
    """The organs in one corner of a larger grid: their support box is a small part of it."""
    return PhantomSpec(
        geometry=GridGeometry((96, 96, 48), (1.0, 1.0, 1.0)),
        spheres={1: Sphere((8.0, 8.0, 8.0), 4.0), 2: Sphere((22.0, 8.0, 8.0), 4.0), 3: Sphere((14.0, 24.0, 12.0), 6.0)},
        rater_deltas=(-1, 0, 1),
        prediction=prediction,
    )


def spec_faces():
    """Non-integer centres, five deltas, and spheres that touch grid faces at their largest radius."""
    return PhantomSpec(
        geometry=GridGeometry((40, 30, 24), (1.0, 1.0, 1.0)),
        spheres={
            1: Sphere((9.5, 8.25, 10.0), 4.5),
            2: Sphere((10.0, 23.0, 12.0), 3.0),  # y reaches 29, the last plane
            3: Sphere((31.0, 12.0, 8.0), 5.0),  # x reaches 39 and z reaches 0
        },
        rater_deltas=(-2, -1, 0, 2, 3),
    )


@pytest.mark.parametrize(
    "spec, on_faces",
    [
        (spec_48(deltas=(-2, -1, 0, 1, 2)), []),
        (spec_anisotropic(PredictionModel("perfect")), []),
        (spec_faces(), [((10, 29, 12), 2), ((39, 12, 8), 3), ((31, 12, 0), 3)]),
    ],
    ids=["48", "anisotropic", "faces"],
)
def test_rater_labels_match_the_whole_grid_reference(spec, on_faces):
    labels = _rater_labels(spec)
    expected = rater_labels_reference(spec)
    assert [l.tobytes() for l in labels] == [e.tobytes() for e in expected]
    for index, c in on_faces:  # the widest rater's sphere touches this grid face
        assert labels[-1][index] == c


MODELS = [
    PredictionModel("perfect"),
    *(PredictionModel("miscalibrated", delta=d) for d in (-0.3, 0.0, 0.05, 0.2, 1 / 3, 0.75, 0.9)),
    # sigma 3 reaches 12 voxels, the anisotropic grid's 12 planes; sigma 10's copy would cover every grid here
    *(PredictionModel("blurred", sigma=s) for s in (0.5, 1.5, 3.0, 10.0)),
]


@pytest.mark.parametrize("make_spec", [spec_48, spec_anisotropic, spec_corner])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.kind}-{m.sigma or m.delta:g}")
def test_prediction_matches_the_one_hot_reference(make_spec, model):
    spec = make_spec(prediction=model)
    ph = generate(spec)
    expected = apply_model_reference(unanimity_one_hot_reference([r.voxels for r in ph.raters]), model)
    assert ph.prediction.channels.dtype == expected.dtype == np.float32
    assert ph.prediction.channels.tobytes() == expected.tobytes()


def test_blurred_generation_holds_about_two_predictions():
    # The prediction, its float64 channel sums and the label maps: 1.8 predictions.
    spec = spec_48(prediction=PredictionModel("blurred", sigma=1.5))
    tracemalloc.start()
    try:
        ph = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * ph.prediction.channels.nbytes


def test_rater_labels_hold_the_label_maps_and_half_a_grid():
    # One float64 distance per voxel of a sphere's box, not of the whole grid.
    spec = spec_corner()
    tracemalloc.start()
    try:
        labels = _rater_labels(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (len(labels) + 0.5) * labels[0].nbytes, peak / labels[0].nbytes


def test_blurred_prediction_of_corner_organs_holds_little_beside_itself():
    # The comparison fill holds one boolean grid; the blur a support-box copy and its float64 sums.
    import scipy.ndimage  # noqa: F401  imported before tracing, so that the peak holds no module

    unanimous = _unanimous_labels(_rater_labels(spec_corner()))
    tracemalloc.start()
    try:
        pred = _prediction(unanimous, PredictionModel("blurred", sigma=1.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * pred.nbytes, peak / pred.nbytes


def test_truth_scan_holds_three_boolean_grids():
    # Five raters: lists of per-rater compares held at least six grids at once.
    spec = spec_48(deltas=(-2, -1, 0, 1, 2))
    labels = _rater_labels(spec)
    tracemalloc.start()
    try:
        truth = _scan_truth(spec, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert truth.region_counts == region_counts(derive_regions([LabelVolume(spec.geometry, l) for l in labels]))
    grid = labels[0].size  # bytes of one boolean grid
    assert peak <= 3 * grid + (64 << 10), peak


def test_spec_validation():
    g = GridGeometry((20, 20, 20), (1.0, 1.0, 1.0))
    with pytest.raises(ValidationError, match="overlap"):
        PhantomSpec(g, {1: Sphere((8, 8, 8), 4), 2: Sphere((12, 8, 8), 4)}, (0, 0))
    with pytest.raises(ValidationError, match="leaves the grid"):
        PhantomSpec(g, {1: Sphere((2, 10, 10), 4)}, (0, 0))
    with pytest.raises(ValidationError, match="leaves the grid"):
        PhantomSpec(g, {1: Sphere((10, 10, 10), 4)}, (0, 8))
    with pytest.raises(ValidationError, match="collapses"):
        PhantomSpec(g, {1: Sphere((10, 10, 10), 2)}, (-2, 0))
    with pytest.raises(ValidationError, match="radius"):
        Sphere((5, 5, 5), 0.5)
    with pytest.raises(ValidationError, match="at least 2"):
        PhantomSpec(g, {1: Sphere((10, 10, 10), 3)}, (0,))
    with pytest.raises(ValidationError, match="model"):
        PredictionModel("fuzzy")
    with pytest.raises(ValidationError, match="delta"):
        PredictionModel("miscalibrated", delta=1.5)


DATASET_SPEC = {
    "geometry": {"dims": [28, 28, 28], "spacing_mm": [1.0, 1.0, 1.0]},
    "spheres": {
        "pancreas": {"center": [7, 7, 7], "radius": 3},
        "kidney": {"center": [20, 7, 7], "radius": 4},
        "liver": {"center": [14, 20, 20], "radius": 5},
    },
    "rater_deltas": [-1, 0, 1],
    "algorithms": {
        "alpha": {"model": "perfect"},
        "beta": {"model": "miscalibrated", "delta": 0.2},
    },
    "cases": 3,
    "radius_jitter": 1,
    "groups": ["A", "B"],
    "seed": 5,
}


def test_write_dataset_is_loadable_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    m1 = write_dataset(DATASET_SPEC, out1)
    write_dataset(DATASET_SPEC, out2)
    manifest = load_manifest(m1)
    assert tuple(c.case_id for c in manifest.cases) == ("case_001", "case_002", "case_003")
    assert [c.group for c in manifest.cases] == ["A", "B", "A"]
    assert manifest.algorithms == ("alpha", "beta")
    # byte-identical regeneration, file by file
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_dataset_truth_file_matches_volumes(tmp_path):
    manifest_path = write_dataset(DATASET_SPEC, tmp_path / "d")
    manifest = load_manifest(manifest_path)
    truth = json.loads((tmp_path / "d" / "truth.json").read_text())
    from voxeval.nifti import read_volume

    for entry in manifest.cases:
        raters = [read_volume(p) for p in entry.rater_annotations]
        counts = region_counts(derive_regions(raters))
        record = truth[entry.case_id]
        assert record["region_counts"] == {str(c): v for c, v in counts.items()}
        volumes = {str(c): rater_volume_distribution(raters, c) for c in counts}
        assert record["rater_volumes_cm3"] == {c: list(v) for c, (_, _, v) in volumes.items()}
        assert record["mu_cm3"] == {c: mu for c, (mu, _, _) in volumes.items()}
        assert record["sigma_cm3"] == {c: sigma for c, (_, sigma, _) in volumes.items()}


def test_parse_spec_document_validation():
    with pytest.raises(ValidationError, match="missing key"):
        parse_spec_document({"geometry": {"dims": [8, 8, 8], "spacing_mm": [1, 1, 1]}})
    bad = dict(DATASET_SPEC, spheres={"spleen": {"center": [4, 4, 4], "radius": 2}})
    with pytest.raises(ValidationError, match="spleen"):
        parse_spec_document(bad)
