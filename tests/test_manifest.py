import json

import numpy as np
import pytest

from conftest import label_volume, one_hot_volume
from voxeval.errors import ValidationError
from voxeval.manifest import load_manifest
from voxeval.nifti import write_nifti


def write_case_files(root, case_id, n_raters=3, algorithms=("alg_a", "alg_b")):
    rng = np.random.default_rng(ord(case_id[-1]))
    raters, preds = [], {}
    lv = label_volume(rng.integers(0, 4, size=(3, 3, 3)))
    for r in range(n_raters):
        p = root / f"{case_id}_r{r}.nii"
        write_nifti(lv, p)
        raters.append(p.name)
    for a in algorithms:
        p = root / f"{case_id}_{a}.nii"
        write_nifti(one_hot_volume(lv), p)
        preds[a] = p.name
    return {"case_id": case_id, "group": "A", "rater_annotations": raters, "algorithm_predictions": preds}


def write_manifest(tmp_path, cases):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"cases": cases}))
    return path


def test_minimal_manifest_loads(tmp_path):
    cases = [write_case_files(tmp_path, "c1")]
    m = load_manifest(write_manifest(tmp_path, cases))
    assert m.rater_count == 3
    assert m.algorithms == ("alg_a", "alg_b")
    assert tuple(c.case_id for c in m.cases) == ("c1",)


def test_unknown_group_rejected(tmp_path):
    case = write_case_files(tmp_path, "c1")
    case["group"] = "D"
    with pytest.raises(ValidationError, match="unknown group 'D'"):
        load_manifest(write_manifest(tmp_path, [case]))


def test_rater_count_mismatch_rejected(tmp_path):
    c1 = write_case_files(tmp_path, "c1", n_raters=3)
    c2 = write_case_files(tmp_path, "c2", n_raters=2)
    with pytest.raises(ValidationError, match="inconsistent rater counts"):
        load_manifest(write_manifest(tmp_path, [c1, c2]))


def test_duplicate_case_id_rejected(tmp_path):
    c1 = write_case_files(tmp_path, "c1")
    with pytest.raises(ValidationError, match="duplicate case_id"):
        load_manifest(write_manifest(tmp_path, [c1, dict(c1)]))


def test_missing_file_rejected(tmp_path):
    case = write_case_files(tmp_path, "c1")
    case["rater_annotations"][0] = "missing.nii"
    with pytest.raises(ValidationError, match="does not exist"):
        load_manifest(write_manifest(tmp_path, [case]))


def test_algorithm_set_mismatch_rejected(tmp_path):
    c1 = write_case_files(tmp_path, "c1", algorithms=("alg_a", "alg_b"))
    c2 = write_case_files(tmp_path, "c2", algorithms=("alg_a",))
    with pytest.raises(ValidationError, match="inconsistent algorithm sets"):
        load_manifest(write_manifest(tmp_path, [c1, c2]))


def test_single_rater_rejected(tmp_path):
    case = write_case_files(tmp_path, "c1", n_raters=1)
    with pytest.raises(ValidationError, match="at least 2"):
        load_manifest(write_manifest(tmp_path, [case]))


def test_paths_resolve_relative_to_manifest_dir(tmp_path):
    sub = tmp_path / "data"
    sub.mkdir()
    cases = [write_case_files(sub, "c1")]
    m = load_manifest(write_manifest(sub, cases))
    assert all(p.exists() for p in m.cases[0].rater_annotations)


def test_group_filter(tmp_path):
    c1 = write_case_files(tmp_path, "c1")
    c2 = write_case_files(tmp_path, "c2")
    c2["group"] = "C"
    m = load_manifest(write_manifest(tmp_path, [c1, c2]))
    assert tuple(c.case_id for c in m.filtered("C").cases) == ("c2",)
    assert tuple(c.case_id for c in m.filtered(None).cases) == ("c1", "c2")
    with pytest.raises(ValidationError, match="no cases in group"):
        m.filtered("B")


def test_empty_and_malformed_manifests(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{}")
    with pytest.raises(ValidationError, match="cases"):
        load_manifest(p)
    p.write_text("not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_manifest(p)
    with pytest.raises(ValidationError, match="cannot read"):
        load_manifest(tmp_path / "absent.json")
