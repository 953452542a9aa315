"""Tests of the benchmark itself, on the smoke size of each workload.

    python3 -m pytest perfbench/tests -q

Not part of the repository's tier-1 suite (``testpaths`` is ``tests``).
"""

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import outputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {n: u for n, (u, _) in run.PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_digests_are_pinned_for_every_workload_and_size():
    pinned = json.loads((BENCH_DIR / "digests.json").read_text())
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            assert sorted(pinned[workload][size]) == sorted(outputs.ARTIFACTS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--size", "smoke", "--seed", str(outputs.PINNED_SEED),
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    expected = run.END_TO_END if trace == 0 else {n: u for n, (u, _) in run.PER_LAYER.items()}
    for name, unit in expected.items():
        assert re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}\b", proc.stdout, re.M), name
    assert re.search(r"^failed_frac = 0 \(0 failed of \d+ attempted\)$", proc.stdout, re.M)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert not (ROOT / ".perfbench_work").exists()


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """One smoke ct-gz evaluate run: (output directory, pairs, its digests)."""
    tmp = tmp_path_factory.mktemp("evaluated")
    args = argparse.Namespace(workload="ct-gz", size="smoke", seed=outputs.PINNED_SEED)
    run.build_dataset(args, tmp / "data")
    child = run.evaluate(args, tmp / "data" / "manifest.json", tmp / "out")
    assert child.code == 0, child.stderr
    pairs = workloads.pair_count("ct-gz", "smoke")
    problems, got = outputs.check_run(tmp / "out", pairs, outputs.pinned_digests("ct-gz", "smoke", args.seed))
    assert problems == []
    return tmp / "out", pairs, got


def _corrupted_copy(evaluated, tmp_path, name, edit):
    out, pairs, got = evaluated
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_text(edit(path.read_text()))
    return outputs.check_run(copy, pairs, got)[0]


def test_check_trips_on_a_non_finite_metric(evaluated, tmp_path):
    def poison(text):
        header, first, *rest = text.splitlines()
        cells = first.split(",")
        cells[3] = "nan"
        return "\n".join([header, ",".join(cells), *rest]) + "\n"

    problems = _corrupted_copy(evaluated, tmp_path, "cases.csv", poison)
    assert any("not a finite number" in p for p in problems)
    assert "cases.csv differs from the expected digest" in problems


def test_check_trips_on_a_missing_row(evaluated, tmp_path):
    problems = _corrupted_copy(evaluated, tmp_path, "cases.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n")
    assert any("rows, expected" in p for p in problems)


def test_check_trips_on_a_changed_byte(evaluated, tmp_path):
    problems = _corrupted_copy(evaluated, tmp_path, "bubbles.csv", lambda t: t.replace("1", "2", 1))
    assert problems == ["bubbles.csv differs from the expected digest"]


def test_merged_length_counts_overlap_once():
    assert run._merged_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == pytest.approx(4.0)


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ct-gz", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
