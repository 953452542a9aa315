"""End-to-end command-line behavior, exit codes, and idempotence."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from voxeval.cli import main

PHANTOM_SPEC = {
    "geometry": {"dims": [28, 28, 28], "spacing_mm": [1.0, 1.0, 1.0]},
    "spheres": {
        "pancreas": {"center": [7, 7, 7], "radius": 3},
        "kidney": {"center": [20, 7, 7], "radius": 4},
        "liver": {"center": [14, 20, 20], "radius": 5},
    },
    "rater_deltas": [-1, 0, 1],
    # constructed quality ordering: confidence bleed grows with delta,
    # so good < mid < bad on confidence, calibration, and volume error
    "algorithms": {
        "good": {"model": "perfect"},
        "mid": {"model": "miscalibrated", "delta": 0.1},
        "bad": {"model": "miscalibrated", "delta": 0.4},
    },
    "cases": 3,
    "groups": ["A", "B", "C"],
    "seed": 11,
}


def write_spec(tmp_path, spec=PHANTOM_SPEC):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return p


def tree_hash(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def phantom_dir(tmp_path):
    assert main(["phantom", str(write_spec(tmp_path)), "--out", str(tmp_path / "data")]) == 0
    return tmp_path / "data"


def test_phantom_then_evaluate_end_to_end(phantom_dir, tmp_path, capsys):
    out = tmp_path / "report"
    code = main([
        "evaluate", str(phantom_dir / "manifest.json"),
        "--out", str(out), "--iterations", "50", "--seed", "4",
    ])
    assert code == 0
    with open(out / "ranking.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["algorithm"] for r in rows] == ["good", "mid", "bad"]
    assert [r["final_rank"] for r in rows] == ["1", "2", "3"]
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["config"]["seed"] == 4
    assert meta["manifest_sha256"]
    assert meta["skipped_cases"] == []


def test_rerun_is_byte_identical_and_inputs_untouched(phantom_dir, tmp_path):
    before = tree_hash(phantom_dir)
    out = tmp_path / "report"
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--out", str(out), "--iterations", "20"]
    assert main(args) == 0
    first = tree_hash(out)
    assert main(args) == 0
    assert tree_hash(out) == first
    assert tree_hash(phantom_dir) == before  # inputs never mutated


def test_group_filter_restricts_cases(phantom_dir, tmp_path):
    out = tmp_path / "report"
    code = main([
        "evaluate", str(phantom_dir / "manifest.json"),
        "--out", str(out), "--iterations", "10", "--group", "C",
    ])
    assert code == 0
    with open(out / "cases.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows and all(r["group"] == "C" for r in rows)
    assert {r["case_id"] for r in rows} == {"case_003"}


def test_corrupt_volume_aborts_with_exit_2(phantom_dir, tmp_path, capsys):
    victim = next((phantom_dir / "volumes").glob("case_002_rater_1*"))
    victim.write_bytes(victim.read_bytes()[:100])
    code = main(["evaluate", str(phantom_dir / "manifest.json"), "--out", str(tmp_path / "r"), "--iterations", "5"])
    assert code == 2
    assert victim.name in capsys.readouterr().err


def test_skip_bad_cases_records_the_skip(phantom_dir, tmp_path):
    victim = next((phantom_dir / "volumes").glob("case_002_rater_1*"))
    victim.write_bytes(victim.read_bytes()[:100])
    out = tmp_path / "r"
    code = main([
        "evaluate", str(phantom_dir / "manifest.json"),
        "--out", str(out), "--iterations", "5", "--skip-bad-cases",
    ])
    assert code == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert [s["case_id"] for s in meta["skipped_cases"]] == ["case_002"]
    with open(out / "cases.csv", newline="") as f:
        assert {r["case_id"] for r in csv.DictReader(f)} == {"case_001", "case_003"}


def test_parallel_evaluation_matches_serial(phantom_dir, tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    base = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "15"]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(parallel), "--parallel-cases", "3"]) == 0
    for name in ("cases.csv", "ranking.csv", "bootstrap.csv", "bubbles.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_evaluate_validation_errors(tmp_path, phantom_dir):
    assert main(["evaluate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1
    bad_config = ["evaluate", str(phantom_dir / "manifest.json"), "--out", str(tmp_path / "o")]
    assert main(bad_config + ["--threshold", "1.5"]) == 1
    assert main(bad_config + ["--ece-bins", "1"]) == 1
    assert main(bad_config + ["--iterations", "0"]) == 1
    assert main(bad_config + ["--classes", "spleen"]) == 1


SEVEN_TEAM_CSV = """algorithm,dsc,confidence,ece,crps
MedIG,94.57,97.87,1.82,8.108
PrAEcision,93.29,97.18,2.22,10.438
BreizhSeg,92.60,97.17,1.61,12.326
DLAI,92.72,96.23,3.90,12.625
BCNAIM,90.52,95.88,6.21,9.727
CAI4CAI,84.98,92.10,4.48,12.828
PredictED,85.79,92.39,6.64,25.895
"""


def test_rank_table_reproduces_seven_team_sample(tmp_path, capsys):
    src = tmp_path / "agg.csv"
    src.write_text(SEVEN_TEAM_CSV)
    out = tmp_path / "rank"
    assert main(["rank-table", str(src), "--out", str(out)]) == 0
    with open(out / "ranking.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["algorithm"] for r in rows] == [
        "MedIG", "PrAEcision", "BreizhSeg", "DLAI", "BCNAIM", "CAI4CAI", "PredictED",
    ]
    assert [float(r["composite"]) for r in rows] == [1.25, 2.5, 3.0, 4.0, 4.5, 6.25, 6.5]
    assert [float(r["ece_rank"]) for r in rows] == [2, 3, 1, 4, 6, 5, 7]
    printed = capsys.readouterr().out
    assert printed.splitlines()[1].split()[1] == "MedIG"


def test_rank_table_single_and_tied_rows(tmp_path):
    src = tmp_path / "one.csv"
    src.write_text("algorithm,dsc,confidence,ece,crps\nsolo,90,95,2,10\n")
    out = tmp_path / "o1"
    assert main(["rank-table", str(src), "--out", str(out)]) == 0
    with open(out / "ranking.csv", newline="") as f:
        row = next(csv.DictReader(f))
    assert row["final_rank"] == "1" and float(row["composite"]) == 1.0

    src.write_text(
        "algorithm,dsc,confidence,ece,crps\nbbb,90,95,2,10\naaa,90,95,2,10\n"
    )
    out = tmp_path / "o2"
    assert main(["rank-table", str(src), "--out", str(out)]) == 0
    with open(out / "ranking.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert all(float(r["dsc_rank"]) == 1.5 for r in rows)
    assert [r["algorithm"] for r in rows] == ["aaa", "bbb"]  # name breaks the tie


def test_rank_table_missing_column_is_exit_1(tmp_path, capsys):
    src = tmp_path / "agg.csv"
    src.write_text("algorithm,dsc,confidence,ece\nx,1,2,3\n")
    assert main(["rank-table", str(src), "--out", str(tmp_path / "o")]) == 1
    assert "crps" in capsys.readouterr().err


def test_validate_ok_and_failure(phantom_dir, tmp_path, capsys):
    assert main(["validate", str(phantom_dir / "manifest.json")]) == 0
    assert "OK: 3 cases" in capsys.readouterr().out
    victim = next((phantom_dir / "volumes").glob("case_001_pred_good*"))
    victim.write_bytes(b"not a volume at all")
    assert main(["validate", str(phantom_dir / "manifest.json")]) == 2


def test_validate_nan_vox_offset_is_exit_2_naming_file(phantom_dir, capsys):
    import gzip
    import struct

    victim = next((phantom_dir / "volumes").glob("case_001_pred_good*"))
    raw = bytearray(gzip.decompress(victim.read_bytes()))
    struct.pack_into("<f", raw, 108, float("nan"))
    victim.write_bytes(gzip.compress(bytes(raw)))
    assert main(["validate", str(phantom_dir / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert victim.name in err
    assert "vox_offset nan" in err


def test_phantom_bad_spec_is_exit_1(tmp_path, capsys):
    spec = dict(PHANTOM_SPEC, spheres={
        "pancreas": {"center": [7, 7, 7], "radius": 3},
        "kidney": {"center": [9, 7, 7], "radius": 3},
    })
    assert main(["phantom", str(write_spec(tmp_path, spec)), "--out", str(tmp_path / "d")]) == 1
    assert "overlap" in capsys.readouterr().err


def test_phantom_determinism(tmp_path):
    spec = write_spec(tmp_path)
    assert main(["phantom", str(spec), "--out", str(tmp_path / "d1")]) == 0
    assert main(["phantom", str(spec), "--out", str(tmp_path / "d2")]) == 0
    h1 = tree_hash(tmp_path / "d1")
    h2 = tree_hash(tmp_path / "d2")
    assert h1 == h2


def test_renormalize_flag_rescues_unnormalized_predictions(phantom_dir, tmp_path):
    import numpy as np

    from voxeval.nifti import read_volume, write_nifti
    from voxeval.grid import ProbabilityVolume

    victim = next((phantom_dir / "volumes").glob("case_001_pred_good*"))
    v = read_volume(victim)
    write_nifti(ProbabilityVolume(v.geometry, (v.channels * 1.01).astype(np.float32)), victim)
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "5"]
    assert main(args + ["--out", str(tmp_path / "strict")]) == 2
    assert main(args + ["--out", str(tmp_path / "fixed"), "--renormalize"]) == 0


def test_renormalize_zero_sum_voxel_is_exit_2_naming_file_and_voxel(phantom_dir, tmp_path, capsys):
    import numpy as np

    from voxeval.nifti import read_volume, write_nifti
    from voxeval.grid import ProbabilityVolume

    victim = next((phantom_dir / "volumes").glob("case_001_pred_good*"))
    v = read_volume(victim)
    channels = v.channels.copy()
    channels[:, 1, 2, 3] = 1.0  # sum 4, the worst voxel
    channels[:, 4, 5, 6] = 0.0  # sum 0 elsewhere
    write_nifti(ProbabilityVolume(v.geometry, channels), victim)
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "5", "--renormalize"]
    assert main(args + ["--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert victim.name in err
    assert "zero-sum voxel (4, 5, 6)" in err
