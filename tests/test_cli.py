"""End-to-end command-line behavior, exit codes, and idempotence."""

import csv
import hashlib
import inspect
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import voxeval
from voxeval import cli, errors, phantom
from voxeval.cli import RunConfig, main

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


# Prints, at exit, the loaded scipy and numpy.random modules: packages a cold start should not pay for.
COLD_START_PROBE = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print('lazy modules:', json.dumps(sorted(\n"
    "    m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in ('scipy', 'numpy.random'))))))\n"
)


def lazy_modules_at_exit(code: str, *args: str) -> tuple[int, list[str]]:
    """Run ``code`` after COLD_START_PROBE in a fresh interpreter -> (exit code, scipy and numpy.random modules)."""
    src = str(Path(voxeval.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE + code, *args], env=env, capture_output=True, text=True
    )
    report = [line for line in proc.stdout.splitlines() if line.startswith("lazy modules:")]
    assert len(report) == 1, proc.stdout + proc.stderr
    return proc.returncode, json.loads(report[0].split(":", 1)[1])


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
    assert meta["schema_version"] == 2
    # the means are the same on every version; the versions are recorded to trace a run
    assert meta["python"] == platform.python_version()
    assert meta["numpy"] == np.__version__
    assert meta["config"]["seed"] == 4
    assert meta["manifest_sha256"]
    assert meta["skipped_cases"] == []


# The config that run_meta.json echoes when no option is given, and the flags that set every
# option to a value other than its default, with the config they give.
DEFAULT_CONFIG = {
    "threshold": 0.5, "argmax_mode": False, "ece_bins": 10, "eq2_literal": False, "ece_per_class": False,
    "ece_exclude_dissensus": False, "sigma_convention": "population", "classes": [1, 2, 3],
    "renormalize": False, "iterations": 500, "seed": 0, "group": None, "skip_bad_cases": False,
    "parallel_cases": 1, "rank_per_case": False, "correlations_per_organ": False,
}
EVERY_FLAG = [
    "--threshold", "0.3", "--argmax", "--ece-bins", "7", "--eq2-literal", "--ece-per-class",
    "--ece-exclude-dissensus", "--sigma-convention", "sample", "--classes", "liver,1", "--renormalize",
    "--iterations", "7", "--seed", "5", "--group", "B", "--skip-bad-cases", "--parallel-cases", "2",
    "--rank-per-case", "--correlations-per-organ",
]
EVERY_FLAG_CONFIG = {
    "threshold": 0.3, "argmax_mode": True, "ece_bins": 7, "eq2_literal": True, "ece_per_class": True,
    "ece_exclude_dissensus": True, "sigma_convention": "sample", "classes": [1, 3],
    "renormalize": True, "iterations": 7, "seed": 5, "group": "B", "skip_bad_cases": True,
    "parallel_cases": 2, "rank_per_case": True, "correlations_per_organ": True,
}


@pytest.mark.parametrize("flags, expected", [([], DEFAULT_CONFIG), (EVERY_FLAG, EVERY_FLAG_CONFIG)], ids=["none", "every"])
def test_run_meta_config_echoes_each_option(phantom_dir, tmp_path, flags, expected):
    manifest, out = str(phantom_dir / "manifest.json"), str(tmp_path / "report")
    assert set(expected) == {f.name for f in fields(RunConfig)} - {"manifest", "out_dir"}
    assert all(EVERY_FLAG_CONFIG[k] != v for k, v in DEFAULT_CONFIG.items())
    assert main(["evaluate", manifest, "--out", out, *flags]) == 0
    config = json.loads((tmp_path / "report" / "run_meta.json").read_text())["config"]
    assert config == {"manifest": manifest, "out_dir": out, **expected}


def test_evaluate_and_package_import_load_no_scipy_or_numpy_random(phantom_dir, tmp_path):
    code, loaded = lazy_modules_at_exit(
        "import runpy; runpy.run_module('voxeval.cli', run_name='__main__')",
        "evaluate", str(phantom_dir / "manifest.json"),
        "--out", str(tmp_path / "report"), "--iterations", "20",
    )
    assert code == 0
    assert (tmp_path / "report" / "ranking.csv").is_file()
    assert loaded == []
    assert lazy_modules_at_exit("import voxeval") == (0, [])


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


def test_one_case_of_two_algorithms_writes_undefined_correlations_over_two_points(tmp_path):
    algorithms = {k: PHANTOM_SPEC["algorithms"][k] for k in ("good", "bad")}
    spec = dict(PHANTOM_SPEC, cases=1, algorithms=algorithms)
    assert main(["phantom", str(write_spec(tmp_path, spec)), "--out", str(tmp_path / "data")]) == 0
    out = tmp_path / "r"
    assert main(["evaluate", str(tmp_path / "data" / "manifest.json"), "--out", str(out), "--iterations", "5"]) == 0
    assert json.loads((out / "correlations.json").read_text()) == {
        "metrics": ["dsc", "confidence", "ece", "crps"],
        "pearson": None,
        "spearman": None,
        "n_points": 2,
        "pooling": "case",
    }


# The console-script dataset of CI with a third, blurred algorithm: its organ means round
# differently when the classes are added in another order.
SMALL_SPEC = {
    "geometry": {"dims": [16, 16, 16], "spacing_mm": [1.0, 1.0, 1.5]},
    "spheres": {
        "pancreas": {"center": [4, 4, 4], "radius": 2},
        "kidney": {"center": [11, 4, 4], "radius": 2},
        "liver": {"center": [8, 11, 10], "radius": 3},
    },
    "rater_deltas": [-1, 0, 1],
    "algorithms": {
        "good": {"model": "perfect"},
        "bad": {"model": "miscalibrated", "delta": 0.3},
        "soft": {"model": "blurred", "sigma": 1.0},
    },
    "cases": 3,
    "groups": ["A", "B", "C"],
    "seed": 1,
}


def test_classes_order_changes_only_the_echoed_config(tmp_path):
    assert main(["phantom", str(write_spec(tmp_path, SMALL_SPEC)), "--out", str(tmp_path / "data")]) == 0
    args = ["evaluate", str(tmp_path / "data" / "manifest.json"), "--iterations", "20"]
    assert main(args + ["--out", str(tmp_path / "default")]) == 0
    assert main(args + ["--out", str(tmp_path / "permuted"), "--classes", "liver,kidney,pancreas"]) == 0
    default, permuted = tree_hash(tmp_path / "default"), tree_hash(tmp_path / "permuted")
    assert default.pop("run_meta.json") != permuted.pop("run_meta.json")
    assert permuted == default
    meta = json.loads((tmp_path / "permuted" / "run_meta.json").read_text())
    assert meta["config"]["classes"] == [1, 2, 3]


@pytest.mark.parametrize("scheme", [[], ["--rank-per-case"]], ids=["means", "per-case"])
def test_undefined_case_confidence_is_exit_1_naming_metric_algorithm_and_case(tmp_path, capsys, scheme):
    # In c0 only one of the two raters marks pancreas: its foreground consensus is empty, so the
    # case has no pancreas confidence and no confidence mean under --classes pancreas.
    from conftest import label_volume, one_hot_volume
    from voxeval.nifti import write_nifti

    cases = []
    for case_id in ("c0", "c1", "c2"):
        marked = np.zeros((8, 8, 8), dtype=np.uint8)
        marked[2:5, 2:5, 2:5] = 1
        raters = [label_volume(marked), label_volume(marked if case_id != "c0" else np.zeros_like(marked))]
        paths = [tmp_path / f"{case_id}_r{i}.nii" for i in range(2)]
        for rater, path in zip(raters, paths):
            write_nifti(rater, path)
        write_nifti(one_hot_volume(raters[0]), tmp_path / f"{case_id}_a.nii")
        cases.append({"case_id": case_id, "group": "A", "rater_annotations": [p.name for p in paths],
                      "algorithm_predictions": {"a": f"{case_id}_a.nii"}})
    (tmp_path / "m.json").write_text(json.dumps({"cases": cases}))
    args = ["evaluate", str(tmp_path / "m.json"), "--out", str(tmp_path / "o"), "--classes", "pancreas", *scheme]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: non-finite confidence value for algorithm 'a', case 'c0'\n"
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize(
    "flags",
    [[], ["--ece-per-class", "--ece-exclude-dissensus", "--argmax", "--renormalize"]],
    ids=["default", "variants"],
)
def test_parallel_evaluation_matches_serial(phantom_dir, tmp_path, flags):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    base = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "15", *flags]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(parallel), "--parallel-cases", "3"]) == 0
    artifacts = {p.name for p in serial.iterdir()} - {"run_meta.json"}
    assert artifacts == {p.name for p in parallel.iterdir()} - {"run_meta.json"}
    assert len(artifacts) >= 9
    for name in sorted(artifacts):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


def test_evaluate_validation_errors(tmp_path, phantom_dir, capsys):
    assert main(["evaluate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    bad_config = ["evaluate", str(phantom_dir / "manifest.json"), "--out", str(tmp_path / "o")]
    for flags, message in [
        (["--threshold", "1.5"], "threshold must be in (0, 1), got 1.5"),
        (["--ece-bins", "1"], "ece_bins must be >= 2, got 1"),
        (["--ece-bins", "65537"], "ece_bins must be <= 65536, got 65537"),
        (["--iterations", "0"], "iterations must be >= 1, got 0"),
        (["--iterations", "4294967297"], "iterations must be <= 4294967296, got 4294967297"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--parallel-cases", "0"], "parallel-cases must be >= 1, got 0"),
        (["--classes", "spleen"], "unknown class 'spleen'; use ids (1, 2, 3) or names ['kidney', 'liver', 'pancreas']"),
    ]:
        assert main(bad_config + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


_CASE = {"case_id": "c1", "group": "A", "rater_annotations": ["r1.nii", "r2.nii"], "algorithm_predictions": {"a": "p.nii"}}
_SPHERES = PHANTOM_SPEC["spheres"]
# id -> (command, file name, file content); each document must end in exit 1 and an error line naming it.
HOSTILE_DOCUMENTS = {
    "manifest-int-rater-paths": ("evaluate", "m.json", {"cases": [dict(_CASE, rater_annotations=[1, 2])]}),
    "manifest-int-rater-paths-validate": ("validate", "m.json", {"cases": [dict(_CASE, rater_annotations=[1, 2])]}),
    "manifest-null-prediction-path": ("evaluate", "m.json", {"cases": [dict(_CASE, algorithm_predictions={"a": None})]}),
    "manifest-not-utf8": ("evaluate", "m.json", b'{"cases": ["\xff"]}'),
    "rank-table-not-utf8": ("rank-table", "agg.csv", b"algorithm,dsc,confidence,ece,crps\n\xff,1,2,3,4\n"),
    "rank-table-nan-value": ("rank-table", "agg.csv", b"algorithm,dsc,confidence,ece,crps\nx,nan,1,2,3\ny,1,2,3,4\n"),
    "spec-geometry-list": ("phantom", "spec.json", dict(PHANTOM_SPEC, geometry=[1, 2])),
    "spec-fractional-dims": (
        "phantom", "spec.json", dict(PHANTOM_SPEC, geometry={"dims": [28, 27.5, 28], "spacing_mm": [1, 1, 1]}),
    ),
    "spec-sphere-without-radius": (
        "phantom", "spec.json", dict(PHANTOM_SPEC, spheres=dict(_SPHERES, liver={"center": [14, 20, 20]})),
    ),
    "spec-radius-not-a-number": (
        "phantom", "spec.json", dict(PHANTOM_SPEC, spheres=dict(_SPHERES, liver={"center": [14, 20, 20], "radius": "x"})),
    ),
    "spec-no-groups": ("phantom", "spec.json", dict(PHANTOM_SPEC, groups=[])),
    "spec-unknown-group": ("phantom", "spec.json", dict(PHANTOM_SPEC, groups=["Z"])),
    "spec-negative-jitter": ("phantom", "spec.json", dict(PHANTOM_SPEC, radius_jitter=-1)),
    "spec-negative-seed": ("phantom", "spec.json", dict(PHANTOM_SPEC, seed=-1)),
    "spec-2d-center": ("phantom", "spec.json", dict(PHANTOM_SPEC, spheres=dict(_SPHERES, liver={"center": [14, 20], "radius": 5}))),
    "spec-nan-radius": (
        "phantom", "spec.json", dict(PHANTOM_SPEC, spheres=dict(_SPHERES, liver={"center": [14, 20, 20], "radius": math.nan})),
    ),
    "spec-infinite-sigma": ("phantom", "spec.json", dict(PHANTOM_SPEC, algorithms={"soft": {"model": "blurred", "sigma": math.inf}})),
}


@pytest.mark.parametrize("command, name, content", list(HOSTILE_DOCUMENTS.values()), ids=list(HOSTILE_DOCUMENTS))
def test_hostile_document_is_exit_1_naming_the_file(tmp_path, capsys, command, name, content):
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, str(path), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "out").exists()


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


def test_rank_table_reads_utf8_with_or_without_a_byte_order_mark(tmp_path):
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):  # as spreadsheet "CSV UTF-8" exports write it
        src = tmp_path / f"{name}.csv"
        src.write_bytes(prefix + SEVEN_TEAM_CSV.encode("utf-8"))
        assert main(["rank-table", str(src), "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "ranking.csv").read_bytes())
    assert outputs[0] == outputs[1]


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


_HEADER = "algorithm,dsc,confidence,ece,crps\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
        (_HEADER, "{path}: no data rows"),
        (_HEADER + "x,1,2,3,4\nx,5,6,7,8\n", "duplicate algorithm 'x' in {path}"),
        (_HEADER + "x,1,2,3,4\ny,1,abc,3,4\n", "{path}: bad confidence value 'abc' for 'y'"),
    ],
    ids=["missing", "header-only", "duplicate-algorithm", "non-numeric"],
)
def test_rank_table_input_errors_are_exit_1_with_their_message(tmp_path, capsys, content, message):
    src = tmp_path / "agg.csv"
    if content is not None:
        src.write_text(content)
    assert main(["rank-table", str(src), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: " + message.format(path=src) + "\n"
    assert not (tmp_path / "o").exists()


_FAMILY_EXIT_CODES = {errors.ValidationError: 1, errors.VolumeIOError: 2, errors.MetricError: 3, errors.ResourceError: 4, OSError: 2}
_ERROR_CLASSES = [
    c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, errors.VoxevalError) and c is not errors.VoxevalError
]


@pytest.mark.parametrize("error", [*_ERROR_CLASSES, OSError], ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_family_code(monkeypatch, capsys, error):
    (code,) = {code for family, code in _FAMILY_EXIT_CODES.items() if issubclass(error, family)}

    def fail(manifest_path):
        raise error("boom")

    monkeypatch.setattr(cli, "run_validate", fail)
    assert main(["validate", "manifest.json"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_validate_ok_and_failure(phantom_dir, tmp_path, capsys):
    assert main(["validate", str(phantom_dir / "manifest.json")]) == 0
    assert "OK: 3 cases" in capsys.readouterr().out
    victim = next((phantom_dir / "volumes").glob("case_001_pred_good*"))
    victim.write_bytes(b"not a volume at all")
    assert main(["validate", str(phantom_dir / "manifest.json")]) == 2


@pytest.mark.parametrize("command", ["evaluate", "validate"])
@pytest.mark.parametrize(
    "listed, named, message",
    [
        ("case_001_rater_1.nii.gz", "case_001_pred_good.nii.gz", "expected a 3D label volume, found a 4D probability map"),
        ("case_001_pred_good.nii.gz", "case_001_rater_1.nii.gz", "expected a 4D probability map, found a 3D label volume"),
    ],
    ids=["rater-names-a-prediction", "prediction-names-a-label-map"],
)
def test_a_volume_of_the_other_kind_is_exit_2_naming_the_file(phantom_dir, tmp_path, capsys, command, listed, named, message):
    manifest_path = phantom_dir / "kind.json"
    manifest_path.write_text((phantom_dir / "manifest.json").read_text().replace(listed, named))
    out = ["--out", str(tmp_path / "r")] if command == "evaluate" else []
    assert main([command, str(manifest_path), *out]) == 2
    assert capsys.readouterr().err == f"error: {phantom_dir / 'volumes' / named}: {message}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["evaluate", "validate"])
@pytest.mark.parametrize(
    "fault, victim, status, message",
    [
        (
            "off-grid",
            "case_002_rater_2.nii.gz",
            3,
            "case 'case_002': grid mismatch (rater 0 vs rater 1): dims (28, 28, 28) vs (28, 28, 27), "
            "spacing (1.0, 1.0, 1.0) vs (1.0, 1.0, 1.0)",
        ),
        (
            "off-grid",
            "case_002_pred_mid.nii.gz",
            3,
            "case 'case_002', algorithm 'mid': grid mismatch (prediction vs consensus regions): "
            "dims (28, 28, 27) vs (28, 28, 28), spacing (1.0, 1.0, 1.0) vs (1.0, 1.0, 1.0)",
        ),
        ("truncated", "case_002_pred_mid.nii.gz", 2, "{path}: payload truncated: need 351232 bytes at offset 352, file has 100"),
        ("MemoryError", "case_002_rater_2.nii.gz", 4, "case 'case_002': out of memory reading or evaluating {path}"),
        ("MemoryError", "case_002_pred_mid.nii.gz", 4, "case 'case_002', algorithm 'mid': out of memory reading or evaluating {path}"),
        (
            "IndexError",
            "case_002_pred_mid.nii.gz",
            3,
            "case 'case_002', algorithm 'mid': unexpected IndexError reading or evaluating {path}: a fault of the program",
        ),
    ],
    ids=["rater-off-grid", "prediction-off-grid", "truncated", "rater-MemoryError", "prediction-MemoryError", "IndexError"],
)
def test_a_fault_in_a_case_ends_validate_as_it_ends_evaluate(
    phantom_dir, tmp_path, monkeypatch, capsys, command, fault, victim, status, message
):
    import gzip

    from conftest import random_probability_volume
    from voxeval.grid import GridGeometry, LabelVolume
    from voxeval.nifti import write_nifti

    path = phantom_dir / "volumes" / victim
    if fault == "off-grid":
        if "rater" in victim:
            volume = LabelVolume(GridGeometry((28, 28, 27), (1, 1, 1)), np.zeros((28, 28, 27), np.uint8))
        else:
            volume = random_probability_volume(np.random.default_rng(0), (28, 28, 27))
        write_nifti(volume, path)
    elif fault == "truncated":
        path.write_bytes(gzip.compress(gzip.decompress(path.read_bytes())[: 352 + 100], mtime=0))
    else:
        real_read = cli.read_volume

        def read_volume(p, **kwargs):
            if Path(p) == path:
                raise MemoryError if fault == "MemoryError" else IndexError("a fault of the program")
            return real_read(p, **kwargs)

        monkeypatch.setattr(cli, "read_volume", read_volume)
    out = ["--out", str(tmp_path / "r"), "--iterations", "5"] if command == "evaluate" else []
    assert main([command, str(phantom_dir / "manifest.json"), *out]) == status
    assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"
    assert not (tmp_path / "r").exists()


def test_validate_reads_every_case_and_computes_no_metric(phantom_dir, monkeypatch, capsys):
    from voxeval import metrics

    def evaluate_case(*args, **kwargs):
        raise RuntimeError("validate computed a metric")

    for module in (cli, metrics):
        monkeypatch.setattr(module, "evaluate_case", evaluate_case)
    assert main(["validate", str(phantom_dir / "manifest.json")]) == 0
    assert capsys.readouterr().out == "OK: 3 cases, 3 raters, 3 algorithms, 18 volumes decoded\n"


@pytest.mark.parametrize("parallel_cases", ["1", "2"])
def test_skip_bad_cases_with_every_case_bad_is_exit_1_and_writes_nothing(phantom_dir, tmp_path, capsys, parallel_cases):
    for victim in (phantom_dir / "volumes").glob("case_*_rater_1*"):
        victim.write_bytes(victim.read_bytes()[:100])
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--out", str(tmp_path / "r"), "--skip-bad-cases"]
    assert main(args + ["--parallel-cases", parallel_cases]) == 1
    assert capsys.readouterr().err == "error: no cases evaluated (all skipped?)\n"
    assert not (tmp_path / "r").exists()


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


def test_validate_prediction_cut_inside_a_staged_slab_is_exit_2(phantom_dir, capsys):
    import gzip

    from conftest import random_probability_volume
    from voxeval.nifti import BAND_ROWS, write_nifti

    # y-rows of two bands and more, so that channels 0-2 are staged with their bands in channel 3
    dims = (6, 2 * BAND_ROWS + 3, 20)
    victim = next((phantom_dir / "volumes").glob("case_001_pred_good*"))
    write_nifti(random_probability_volume(np.random.default_rng(2), dims), victim)
    raw = gzip.decompress(victim.read_bytes())
    plane = dims[0] * dims[1] * 4
    kept = dims[2] * plane + 3 * plane + 5  # inside channel 1's first slab
    victim.write_bytes(gzip.compress(raw[: 352 + kept], mtime=0))
    assert main(["validate", str(phantom_dir / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {victim}: payload truncated: need {4 * dims[0] * dims[1] * dims[2] * 4} bytes "
        f"at offset 352, file has {kept}\n"
    )


def test_validate_desk_zero_dim_is_exit_2_naming_file(phantom_dir, capsys):
    victim = phantom_dir / "volumes" / "flat_pred.json"
    victim.write_text('{"dims": [0, 4, 4], "spacing_mm": [1, 1, 1], "dtype": "float32", "channels": 4}')
    manifest_path = phantom_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["cases"][0]["algorithm_predictions"]["good"] = "volumes/flat_pred.json"
    manifest_path.write_text(json.dumps(manifest))
    assert main(["validate", str(manifest_path)]) == 2
    err = capsys.readouterr().err
    assert victim.name in err
    assert "invalid desk header: dims must be 3 positive integers" in err


def test_phantom_bad_spec_is_exit_1(tmp_path, capsys):
    spec = dict(PHANTOM_SPEC, spheres={
        "pancreas": {"center": [7, 7, 7], "radius": 3},
        "kidney": {"center": [9, 7, 7], "radius": 3},
    })
    assert main(["phantom", str(write_spec(tmp_path, spec)), "--out", str(tmp_path / "d")]) == 1
    assert "overlap" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read phantom spec ./spec.json: [Errno 2] No such file or directory: 'spec.json'"),
        ("not json", "phantom spec ./spec.json is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["missing", "invalid-json"],
)
def test_phantom_unreadable_spec_is_exit_1_naming_the_path_as_given(tmp_path, capsys, monkeypatch, content, message):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / "spec.json").write_text(content)
    assert main(["phantom", "./spec.json", "--out", "d"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("side", [100_000, 3_000_000_000])  # 909 TiB of labels; past numpy's largest array
def test_phantom_grid_too_large_to_hold_is_exit_4_naming_spec_and_dims(tmp_path, capsys, side):
    # numpy refuses both sizes before it allocates anything
    spec = write_spec(tmp_path, dict(PHANTOM_SPEC, geometry={"dims": [side] * 3, "spacing_mm": [1, 1, 1]}))
    assert main(["phantom", str(spec), "--out", str(tmp_path / "d")]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: phantom spec {spec}: cannot hold a {side}x{side}x{side} grid")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("stage", ["_distance_sq", "_prediction"])  # before and after the rater files are written
def test_phantom_out_of_memory_partway_is_exit_4_naming_spec_and_dims(tmp_path, capsys, monkeypatch, stage):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(phantom, stage, out_of_memory)
    spec = write_spec(tmp_path)
    assert main(["phantom", str(spec), "--out", str(tmp_path / "d")]) == 4
    assert capsys.readouterr().err == f"error: phantom spec {spec}: cannot hold a 28x28x28 grid: out of memory\n"


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


def test_renormalize_overflowing_sum_is_exit_2_naming_file_and_voxel(phantom_dir, tmp_path, capsys):
    from voxeval.nifti import read_volume, write_nifti
    from voxeval.grid import ProbabilityVolume

    victim = next((phantom_dir / "volumes").glob("case_001_pred_good*"))
    v = read_volume(victim)
    channels = v.channels.copy()
    channels[:, 4, 5, 6] = 3e38  # finite float32 values whose sum is not: divided through, they would be zeros
    write_nifti(ProbabilityVolume(v.geometry, channels), victim)
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "5", "--renormalize"]
    assert main(args + ["--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert victim.name in err
    assert "cannot renormalize voxel (4, 5, 6): its channel sum 1.2e+39 is not finite in float32" in err


def test_rater_grid_mismatch_names_the_case_and_both_raters(phantom_dir, tmp_path, capsys):
    import numpy as np

    from voxeval.grid import GridGeometry, LabelVolume
    from voxeval.nifti import write_nifti

    victim = phantom_dir / "volumes" / "case_002_rater_2.nii.gz"  # rater index 1
    write_nifti(LabelVolume(GridGeometry((28, 28, 27), (1, 1, 1)), np.zeros((28, 28, 27), np.uint8)), victim)
    message = "case 'case_002': grid mismatch (rater 0 vs rater 1): dims (28, 28, 28) vs (28, 28, 27)"
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "5"]
    assert main(args + ["--out", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}, spacing ")
    assert main(args + ["--out", str(tmp_path / "s"), "--skip-bad-cases"]) == 0
    skipped = json.loads((tmp_path / "s" / "run_meta.json").read_text())["skipped_cases"]
    assert [s["case_id"] for s in skipped] == ["case_002"]
    assert skipped[0]["reason"].startswith(message)


def test_a_case_error_ends_alike_in_forked_workers(phantom_dir, tmp_path, capsys):
    from voxeval.grid import GridGeometry, LabelVolume
    from voxeval.nifti import write_nifti

    victim = phantom_dir / "volumes" / "case_002_rater_2.nii.gz"  # the rater grid mismatch above
    write_nifti(LabelVolume(GridGeometry((28, 28, 27), (1, 1, 1)), np.zeros((28, 28, 27), np.uint8)), victim)
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "5"]
    errors, skipped = [], []
    for n in ("1", "2"):
        assert main(args + ["--out", str(tmp_path / f"r{n}"), "--parallel-cases", n]) == 3
        errors.append(capsys.readouterr().err)
        assert main(args + ["--out", str(tmp_path / f"s{n}"), "--parallel-cases", n, "--skip-bad-cases"]) == 0
        skipped.append(json.loads((tmp_path / f"s{n}" / "run_meta.json").read_text())["skipped_cases"])
    assert errors[0].startswith("error: case 'case_002': grid mismatch (rater 0 vs rater 1)")
    assert errors[1] == errors[0]
    assert [s["case_id"] for s in skipped[0]] == ["case_002"]
    assert skipped[1] == skipped[0]


def test_a_case_worker_that_dies_is_exit_4_naming_the_lost_cases(phantom_dir, tmp_path, monkeypatch, capsys):
    import time

    def dying_case_metrics(entry, config):
        if entry.case_id == "case_002":
            os._exit(1)  # as the out-of-memory killer ends a worker: no exception, no result
        time.sleep(60)  # case_001 is still running when its pool breaks, and the broken pool kills its worker

    monkeypatch.setattr(cli, "_case_metrics", dying_case_metrics)  # the forked workers inherit the patch
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "5", "--parallel-cases", "2"]
    started = time.monotonic()
    assert main(args + ["--out", str(tmp_path / "r")]) == 4
    assert time.monotonic() - started < 30
    # the two workers may have started case_001 and case_002; case_003 was still queued, and is only counted
    assert capsys.readouterr().err == (
        "error: a case worker process died (killed out of memory?) in case 'case_001' or 'case_002'; "
        "1 queued case(s) lost besides\n"
    )
    assert not (tmp_path / "r").exists()


def test_under_skip_bad_cases_only_the_case_whose_worker_dies_alone_is_skipped(phantom_dir, tmp_path, monkeypatch):
    real_case_metrics = cli._case_metrics
    started = tmp_path / "started"  # a file, not a list: forked case workers do not share the parent's memory
    started.touch()

    def dying_case_metrics(entry, config):
        with open(started, "a") as f:
            f.write(entry.case_id + "\n")
        if entry.case_id == "case_002":
            os._exit(1)  # as the out-of-memory killer ends a worker: no exception, no result
        return real_case_metrics(entry, config)

    monkeypatch.setattr(cli, "_case_metrics", dying_case_metrics)
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "5", "--skip-bad-cases"]
    assert main(args + ["--out", str(tmp_path / "r"), "--parallel-cases", "2"]) == 0
    skipped = json.loads((tmp_path / "r" / "run_meta.json").read_text())["skipped_cases"]
    assert skipped == [
        {
            "case_id": "case_002",
            "reason": "case 'case_002': its worker died again, running alone (out of memory?)",
        }
    ]
    assert started.read_text().splitlines().count("case_002") == 2  # once in the pool, once alone
    with open(tmp_path / "r" / "cases.csv", newline="") as f:
        assert sorted({row["case_id"] for row in csv.DictReader(f)}) == ["case_001", "case_003"]
    # the retried cases give the bytes a run without the dead case gives
    monkeypatch.setattr(cli, "_case_metrics", real_case_metrics)
    manifest = json.loads((phantom_dir / "manifest.json").read_text())
    manifest["cases"] = [c for c in manifest["cases"] if c["case_id"] != "case_002"]
    (phantom_dir / "without.json").write_text(json.dumps(manifest))
    assert main(["evaluate", str(phantom_dir / "without.json"), "--iterations", "5", "--out", str(tmp_path / "w")]) == 0
    for name in ("cases.csv", "ranking.csv", "bootstrap.csv"):
        assert (tmp_path / "r" / name).read_bytes() == (tmp_path / "w" / name).read_bytes(), name


def test_after_a_worker_dies_only_the_cases_it_may_have_started_run_alone(tmp_path, monkeypatch):
    import concurrent.futures

    assert main(["phantom", str(write_spec(tmp_path, dict(PHANTOM_SPEC, cases=8))), "--out", str(tmp_path / "data")]) == 0
    real_case_metrics, real_pool = cli._case_metrics, concurrent.futures.ProcessPoolExecutor
    started = tmp_path / "started"  # a file, not a list: forked case workers do not share the parent's memory
    started.touch()
    pools = []

    class CountingPool(real_pool):
        def __init__(self, workers, **kwargs):
            pools.append(workers)
            super().__init__(workers, **kwargs)

    def dying_case_metrics(entry, config):
        with open(started, "a") as f:
            f.write(entry.case_id + "\n")
        if entry.case_id == "case_002":
            os._exit(1)  # as the out-of-memory killer ends a worker: no exception, no result
        return real_case_metrics(entry, config)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(cli, "_case_metrics", dying_case_metrics)
    args = ["evaluate", str(tmp_path / "data" / "manifest.json"), "--iterations", "5", "--skip-bad-cases"]
    assert main(args + ["--out", str(tmp_path / "r"), "--parallel-cases", "2"]) == 0
    # the first pool; the two cases it may have started, each alone; the six queued behind them in one pool of two
    assert pools == [2, 1, 1, 2]
    assert started.read_text().splitlines().count("case_002") == 2  # once in the pool, once alone
    skipped = json.loads((tmp_path / "r" / "run_meta.json").read_text())["skipped_cases"]
    assert skipped == [
        {
            "case_id": "case_002",
            "reason": "case 'case_002': its worker died again, running alone (out of memory?)",
        }
    ]
    # every artifact but run_meta.json is what a serial run without the dead case writes
    monkeypatch.setattr(cli, "_case_metrics", real_case_metrics)
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    manifest["cases"] = [c for c in manifest["cases"] if c["case_id"] != "case_002"]
    (tmp_path / "data" / "without.json").write_text(json.dumps(manifest))
    assert main(["evaluate", str(tmp_path / "data" / "without.json"), "--iterations", "5", "--out", str(tmp_path / "w")]) == 0
    artifacts = {p.name for p in (tmp_path / "w").iterdir()} - {"run_meta.json"}
    assert artifacts == {p.name for p in (tmp_path / "r").iterdir()} - {"run_meta.json"}
    for name in sorted(artifacts):
        assert (tmp_path / "r" / name).read_bytes() == (tmp_path / "w" / name).read_bytes(), name


def test_parallel_cases_without_fork_is_exit_1(phantom_dir, tmp_path, monkeypatch, capsys):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--out", str(tmp_path / "r")]
    assert main(args + ["--parallel-cases", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: parallel-cases 2 needs the 'fork' process start method, "
        "which this platform does not have; use --parallel-cases 1\n"
    )
    assert not (tmp_path / "r").exists()
    assert main(args + ["--parallel-cases", "1", "--iterations", "5"]) == 0


@pytest.mark.parametrize("parallel_cases", ["1", "2"])
def test_regions_are_derived_once_per_case(tmp_path, monkeypatch, parallel_cases):
    from voxeval import consensus, metrics

    assert main(["phantom", str(write_spec(tmp_path, dict(PHANTOM_SPEC, cases=2))), "--out", str(tmp_path / "data")]) == 0
    calls = tmp_path / "calls"  # a file, not a list: forked case workers do not share the parent's memory
    calls.touch()

    def counting_derive_regions(*args, **kwargs):
        with open(calls, "a") as f:
            f.write("call\n")
        return consensus.derive_regions(*args, **kwargs)

    for module in (voxeval.cli, metrics):
        monkeypatch.setattr(module, "derive_regions", counting_derive_regions, raising=False)
    out = str(tmp_path / "r")
    args = ["evaluate", str(tmp_path / "data" / "manifest.json"), "--out", out, "--iterations", "5"]
    assert main(args + ["--parallel-cases", parallel_cases]) == 0
    with open(tmp_path / "r" / "cases.csv", newline="") as f:
        assert len(list(csv.DictReader(f))) == 2 * 3  # 2 cases x 3 algorithms
    assert len(calls.read_text().splitlines()) == 2


@pytest.mark.parametrize("stage", ["rater read", "prediction read", "evaluation"])
def test_out_of_memory_is_exit_4_naming_case_and_file(phantom_dir, tmp_path, monkeypatch, capsys, stage):
    victim = {
        "rater read": "case_002_rater_2.nii.gz",
        "prediction read": "case_002_pred_mid.nii.gz",
        "evaluation": "case_002_pred_mid.nii.gz",
    }[stage]
    real_read, real_evaluate = cli.read_volume, cli.evaluate_case

    def read_volume(path, **kwargs):
        if stage != "evaluation" and Path(path).name == victim:
            raise MemoryError
        return real_read(path, **kwargs)

    def evaluate_case(pred, raters, config, case_id, algorithm, regions):
        if stage == "evaluation" and (case_id, algorithm) == ("case_002", "mid"):
            raise MemoryError
        return real_evaluate(pred, raters, config, case_id, algorithm, regions)

    monkeypatch.setattr(cli, "read_volume", read_volume)
    monkeypatch.setattr(cli, "evaluate_case", evaluate_case)
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "5"]
    assert main(args + ["--out", str(tmp_path / "r")]) == 4
    err = capsys.readouterr().err
    where = "case 'case_002'" if stage == "rater read" else "case 'case_002', algorithm 'mid'"
    assert err.startswith(f"error: {where}: out of memory reading or evaluating ")
    assert victim in err and "Traceback" not in err
    assert main(args + ["--out", str(tmp_path / "s"), "--skip-bad-cases"]) == 0
    skipped = json.loads((tmp_path / "s" / "run_meta.json").read_text())["skipped_cases"]
    assert [s["case_id"] for s in skipped] == ["case_002"]
    assert victim in skipped[0]["reason"]


@pytest.mark.parametrize("parallel_cases", ["1", "2"])
def test_an_unexpected_exception_in_a_case_is_exit_3_naming_case_algorithm_and_file(
    phantom_dir, tmp_path, monkeypatch, capsys, parallel_cases
):
    real_evaluate = cli.evaluate_case

    def evaluate_case(pred, raters, config, case_id, algorithm, regions):
        if (case_id, algorithm) == ("case_002", "mid"):
            raise RuntimeError("a fault of the program")
        return real_evaluate(pred, raters, config, case_id, algorithm, regions)

    monkeypatch.setattr(cli, "evaluate_case", evaluate_case)  # the forked workers inherit the patch
    args = ["evaluate", str(phantom_dir / "manifest.json"), "--iterations", "5", "--parallel-cases", parallel_cases]
    assert main(args + ["--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    path = phantom_dir / "volumes" / "case_002_pred_mid.nii.gz"
    assert err == (
        f"error: case 'case_002', algorithm 'mid': unexpected RuntimeError reading or evaluating {path}: "
        "a fault of the program\n"
    )
    assert not (tmp_path / "r").exists()
    assert main(args + ["--out", str(tmp_path / "s"), "--skip-bad-cases"]) == 0
    skipped = json.loads((tmp_path / "s" / "run_meta.json").read_text())["skipped_cases"]
    assert skipped == [{"case_id": "case_002", "reason": err[len("error: ") : -1]}]


@pytest.mark.parametrize(
    "target, stage", [("rank_cases", "ranking"), ("bootstrap_ranks", "the bootstrap"), ("emit", "the report")]
)
def test_out_of_memory_after_the_cases_is_exit_4_naming_the_stage(phantom_dir, tmp_path, monkeypatch, capsys, target, stage):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, target, out_of_memory)
    out = tmp_path / "r"
    assert main(["evaluate", str(phantom_dir / "manifest.json"), "--out", str(out), "--iterations", "7"]) == 4
    err = capsys.readouterr().err
    assert err == f"error: out of memory in {stage} after the cases were evaluated (--iterations 7)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "target, stage", [("rank_cases", "ranking"), ("bootstrap_ranks", "the bootstrap"), ("emit", "the report")]
)
def test_an_unexpected_exception_after_the_cases_is_exit_3_naming_the_stage(
    phantom_dir, tmp_path, monkeypatch, capsys, target, stage
):
    def fault(*args, **kwargs):
        raise RuntimeError("a fault of the program")

    monkeypatch.setattr(cli, target, fault)
    out = tmp_path / "r"
    assert main(["evaluate", str(phantom_dir / "manifest.json"), "--out", str(out), "--iterations", "7"]) == 3
    err = capsys.readouterr().err
    assert err == f"error: unexpected RuntimeError in {stage} after the cases were evaluated: a fault of the program\n"
    assert "Traceback" not in err
    assert not out.exists()


def test_a_case_holds_its_prediction_region_code_and_packed_labels(tmp_path, monkeypatch):
    # 8 raters pack into two planes; the 8 label maps are dropped once the regions are derived.
    from conftest import random_probability_volume
    from test_cece import perturbed_raters
    from voxeval import cli, grid, metrics
    from voxeval.manifest import CaseEntry
    from voxeval.nifti import SLAB_PLANES, write_nifti

    dims = (96, 96, 64)
    rng = np.random.default_rng(5)
    rater_paths = []
    for r, rater in enumerate(perturbed_raters(rng, dims, 8)):
        rater_paths.append(tmp_path / f"rater_{r}.nii")
        write_nifti(rater, rater_paths[-1])
    pred = random_probability_volume(rng, dims)
    write_nifti(pred, tmp_path / "pred.nii")
    entry = CaseEntry("c", "A", tuple(rater_paths), {"a": tmp_path / "pred.nii"})
    config = RunConfig(manifest="m.json", out_dir="out")
    # The pass holds one chunk and one gathered block: scaled down so that the grid bytes dominate.
    monkeypatch.setattr(grid, "CHUNK_VOXELS", 1 << 12)
    monkeypatch.setattr(metrics, "SUM_BLOCK", 1 << 14)
    tracemalloc.start()
    try:
        cli._case_metrics(entry, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_voxels = math.prod(dims)
    code, planes = n_voxels, 2 * n_voxels
    slab = SLAB_PLANES * dims[0] * dims[1] * pred.channels.itemsize  # 36 KiB planes: the byte cap does not bite
    # the 8 label maps kept in place of the two planes would add 6 * n_voxels (3.4 MiB)
    assert peak <= pred.channels.nbytes + code + planes + slab + (1 << 20), peak
