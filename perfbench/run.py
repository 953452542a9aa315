"""Benchmark runner for `voxeval evaluate`.

    python3 perfbench/run.py --workload ct-gz --seed 1 --seconds 15 --trace 0

Run from the repository root. The runner uses only the standard library and
never holds a volume, so the high-water RSS that Linux carries from parent to
child across fork+exec cannot inflate the child's ``ru_maxrss``. Every
dataset, evaluate run and trace runs in its own child process, with
``src/`` on ``PYTHONPATH``.

``--trace 0`` builds the dataset several times (``setup_s`` is the median),
then runs `voxeval evaluate` on it until ``--seconds`` have passed and at
least three runs are done, and reports medians. ``--trace 1`` builds the
dataset once and reports the per-layer metrics: see ``layer_trace.py``.

Every evaluate run is checked (see ``outputs.py``); its artifacts must match
those of the first run of the invocation and, for the pinned seed, the
digests in ``digests.json``. The last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outputs
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_EVALUATE_RUNS = 3
IMPORT_REPEATS = 3
TRACE_REPEATS = 2
MIB = 1 << 20

END_TO_END = {
    "pairs_per_s": "1/s",
    "mvox_per_s": "Mvox/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# name -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "nifti.read_volume.prob_s": ("s", "pairs_per_s on ct-gz and variants-raw"),
    "nifti.read_volume.label_s": ("s", "pairs_per_s on ct-gz and variants-raw"),
    "nifti.read_volume.prob_mib_per_s": ("MiB/s", "pairs_per_s on ct-gz and variants-raw"),
    "nifti.read_volume.prob_peak_mib": ("MiB", "peak_rss_mib on ct-gz"),
    "nifti.compression_ratio": ("ratio", "none: a workload property, for naming an inflate-only change's share"),
    "grid.validate_probability_sums_s": ("s", "pairs_per_s on ct-gz and variants-raw"),
    "consensus.derive_regions_s": ("s", "pairs_per_s on ct-gz"),
    "metrics.evaluate_case_s": ("s", "pairs_per_s on ct-gz and variants-raw"),
    "metrics.evaluate_case_mvox_per_s": ("Mvox/s", "pairs_per_s on ct-gz and variants-raw"),
    "metrics.evaluate_case_peak_mib": ("MiB", "peak_rss_mib on ct-gz"),
    "metrics.cece_s": ("s", "pairs_per_s on ct-gz and variants-raw"),
    "metrics.dsc_s": ("s", "pairs_per_s on variants-raw"),
    "metrics.confidence_s": ("s", "pairs_per_s on ct-gz"),
    "metrics.crps_s": ("s", "pairs_per_s on ct-gz"),
    "metrics.shared_ratio": ("ratio", "stays near 1 until work is shared across families; then below 1 on ct-gz"),
    "manifest.load_manifest_s": ("s", "pairs_per_s on leaderboard"),
    "ranking.rank_cases_s": ("s", "pairs_per_s on leaderboard"),
    "stability.bootstrap_ranks_s": ("s", "pairs_per_s on leaderboard; no change on ct-gz"),
    "stability.bootstrap_iters_per_s": ("1/s", "pairs_per_s on leaderboard; no change on ct-gz"),
    "stability.bubble_export_s": ("s", "pairs_per_s on leaderboard"),
    "report.aggregate_s": ("s", "pairs_per_s on leaderboard"),
    "report.correlations_s": ("s", "pairs_per_s on leaderboard"),
    "report.emit_s": ("s", "pairs_per_s on leaderboard"),
    "report.emit_bytes": ("B", "pairs_per_s on leaderboard"),
    "cli.import_s": ("s", "pairs_per_s on leaderboard"),
    "cli.unattributed_s": ("s", "pairs_per_s on leaderboard: thread pool and orchestration"),
    "trace.overhead_frac": ("ratio", "none: the cost of tracing"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (e.g. the program is missing)."""


class Child:
    """One finished child process: wall time, exit code, peak RSS, output."""

    def __init__(self, argv: list[str], log_dir: Path):
        log_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(log_dir / "stdout", "w+") as out, open(log_dir / "stderr", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            # wait4 reaps the child and returns its own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            self.rss_mib = usage.ru_maxrss * 1024 / MIB  # ru_maxrss is KiB on Linux
            out.seek(0)
            err.seek(0)
            self.stdout, self.stderr = out.read(), err.read()

    def last_json(self) -> dict:
        if self.code != 0:
            raise BenchError(f"child exited {self.code}: {self.stderr.strip()[-2000:]}")
        return json.loads(self.stdout.strip().splitlines()[-1])


def build_dataset(args, dest: Path) -> Child:
    child = Child(
        [sys.executable, str(HERE / "gen_dataset.py"), "--workload", args.workload, "--size", args.size,
         "--seed", str(args.seed), "--out", str(dest)],
        dest.with_name(dest.name + ".log"),
    )
    if child.code != 0:
        raise BenchError(f"dataset generation failed ({child.code}): {child.stderr.strip()[-2000:]}")
    return child


def evaluate(args, manifest: Path, out: Path) -> Child:
    flags = workloads.evaluate_flags(workloads.run_options(args.workload, args.size))
    return Child(
        [sys.executable, "-m", "voxeval.cli", "evaluate", str(manifest), "--out", str(out),
         "--seed", str(args.seed), *flags],
        out.with_name(out.name + ".log"),
    )


class Checker:
    """Checks every run against the first run and the pinned digests."""

    def __init__(self, args):
        self.pairs = workloads.pair_count(args.workload, args.size)
        self.expected = outputs.pinned_digests(args.workload, args.size, args.seed)
        self.attempted = self.failed = 0
        self.digests = None

    def __call__(self, child: Child, out: Path) -> None:
        self.attempted += 1
        if child.code != 0:
            problems = [f"exit code {child.code}: {child.stderr.strip()[-500:]}"]
        else:
            problems, got = outputs.check_run(out, self.pairs, self.expected)
            if self.expected is None and not problems:
                self.expected = got
            self.digests = self.digests or got
        if problems:
            self.failed += 1
            print(f"check failed for {out.name}: " + "; ".join(problems))


def byte_totals(manifest: Path, voxels: int) -> tuple[int, int]:
    """(decoded, on-disk) bytes of every volume: uint8 labels, float32 x4 predictions."""
    doc = json.loads(manifest.read_text())
    decoded = disk = 0
    for case in doc["cases"]:
        for rel in case["rater_annotations"]:
            decoded += voxels
            disk += (manifest.parent / rel).stat().st_size
        for rel in case["algorithm_predictions"].values():
            decoded += 16 * voxels
            disk += (manifest.parent / rel).stat().st_size
    return decoded, disk


def commit_id() -> str:
    """HEAD read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def properties(args, manifest: Path) -> dict:
    decoded, disk = byte_totals(manifest, workloads.voxels_per_pair(args.workload, args.size))
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "pairs": workloads.pair_count(args.workload, args.size),
        "voxels_per_pair": workloads.voxels_per_pair(args.workload, args.size),
        "nifti.compression_ratio": decoded / disk,
        "iterations": workloads.iterations(args.workload, args.size),
        "parallel_cases": workloads.parallel_cases(args.workload, args.size),
        "commit": commit_id(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def end_to_end(args, work: Path, check: Checker) -> tuple[Path, dict]:
    """Alternate set-up and evaluate runs until ``--seconds`` of evaluate time.

    Interleaving spreads the timed runs over the whole invocation, so one
    slow stretch of a shared machine weighs on fewer of them. Every set-up
    builds the same dataset, and every run's artifacts must be identical.
    """
    pairs = workloads.pair_count(args.workload, args.size)
    mvox = pairs * workloads.voxels_per_pair(args.workload, args.size) / 1e6
    setups, walls, rss = [], [], []
    manifest = None
    while len(setups) < SETUP_REPEATS or len(walls) < MIN_EVALUATE_RUNS or sum(walls) < args.seconds:
        if len(setups) < SETUP_REPEATS:
            data = work / f"data{len(setups)}"
            setups.append(build_dataset(args, data).wall_s)
            if manifest is not None:
                shutil.rmtree(manifest.parent)
            manifest = data / "manifest.json"
        out = work / f"out{len(walls)}"
        child = evaluate(args, manifest, out)
        check(child, out)
        shutil.rmtree(out, ignore_errors=True)
        walls.append(child.wall_s)
        rss.append(child.rss_mib)
    print(f"setup runs: {len(setups)}, wall s: " + ", ".join(f"{s:.3f}" for s in setups))
    print(f"evaluate runs: {len(walls)}, wall s: " + ", ".join(f"{w:.3f}" for w in walls))
    wall = statistics.median(walls)
    return manifest, {
        "pairs_per_s": pairs / wall,
        "mvox_per_s": mvox / wall,
        "peak_rss_mib": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }


def _merged_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def per_layer(args, work: Path, check: Checker, props: dict, manifest: Path) -> dict:
    """Untraced evaluate and mirror runs in turn, fresh-interpreter imports, the probe.

    Per-call figures are medians over the calls of every mirror run (the
    real call sequence) or of the probe (the first case taken apart); a
    figure from a single call is the median over the mirror runs. Each
    mirror's artifacts must equal the untraced runs'. ``cli.unattributed_s``
    is taken within each traced run, so run-to-run noise does not enter it:
    its wall time less the import time and the union of its spans (the pool
    runs spans concurrently).
    """
    common = ["--workload", args.workload, "--size", args.size, "--seed", str(args.seed), "--manifest", str(manifest)]
    untraced, mirrors = [], []
    for i in range(TRACE_REPEATS):
        out = work / f"untraced{i}"
        untraced.append(evaluate(args, manifest, out))
        check(untraced[-1], out)
        out = work / f"mirror{i}"
        mirrors.append(Child([sys.executable, str(HERE / "layer_trace.py"), "mirror", *common, "--out", str(out)],
                             work / f"mirror{i}.log"))
        check(mirrors[-1], out)
    runs = [m.last_json()["spans"] for m in mirrors]
    spans = [s for run_spans in runs for s in run_spans]
    import_s = statistics.median(
        Child([sys.executable, "-c", "import voxeval.cli"], work / f"import{i}.log").wall_s
        for i in range(IMPORT_REPEATS)
    )
    probe = Child([sys.executable, str(HERE / "layer_trace.py"), "probe", *common], work / "probe.log")
    pairs = probe.last_json()["pairs"]

    def per_call(name):
        return statistics.median(s["end"] - s["start"] for s in spans if s["name"] == name)

    def probed(key):
        return statistics.median(p[key] for p in pairs)

    families = ("derive_s", "dsc_s", "confidence_s", "crps_s", "cece_s")
    case_s = per_call("metrics.evaluate_case")
    bootstrap_s = per_call("stability.bootstrap_ranks")
    untraced_s = statistics.median(u.wall_s for u in untraced)
    return {
        "nifti.read_volume.prob_s": per_call("nifti.read_volume.prob"),
        "nifti.read_volume.label_s": per_call("nifti.read_volume.label"),
        "nifti.read_volume.prob_mib_per_s": statistics.median(
            s["bytes"] / MIB / (s["end"] - s["start"]) for s in spans if s["name"] == "nifti.read_volume.prob"
        ),
        "nifti.read_volume.prob_peak_mib": max(p["prob_peak_mib"] for p in pairs),
        "nifti.compression_ratio": props["nifti.compression_ratio"],
        "grid.validate_probability_sums_s": probed("validate_s"),
        "consensus.derive_regions_s": probed("derive_s"),
        "metrics.evaluate_case_s": case_s,
        "metrics.evaluate_case_mvox_per_s": props["voxels_per_pair"] / 1e6 / case_s,
        "metrics.evaluate_case_peak_mib": max(p["evaluate_case_peak_mib"] for p in pairs),
        "metrics.cece_s": probed("cece_s"),
        "metrics.dsc_s": probed("dsc_s"),
        "metrics.confidence_s": probed("confidence_s"),
        "metrics.crps_s": probed("crps_s"),
        "metrics.shared_ratio": statistics.median(p["evaluate_case_s"] / sum(p[f] for f in families) for p in pairs),
        "manifest.load_manifest_s": per_call("manifest.load_manifest"),
        "ranking.rank_cases_s": per_call("ranking.rank_cases"),
        "stability.bootstrap_ranks_s": bootstrap_s,
        "stability.bootstrap_iters_per_s": props["iterations"] / bootstrap_s,
        "stability.bubble_export_s": per_call("stability.bubble_export"),
        "report.aggregate_s": per_call("report.aggregate"),
        "report.correlations_s": per_call("report.correlations"),
        "report.emit_s": per_call("report.emit"),
        "report.emit_bytes": statistics.median(s["bytes"] for s in spans if s["name"] == "report.emit"),
        "cli.import_s": import_s,
        "cli.unattributed_s": statistics.median(
            m.wall_s - import_s - _merged_length((s["start"], s["end"]) for s in run_spans)
            for m, run_spans in zip(mirrors, runs)
        ),
        "trace.overhead_frac": (statistics.median(m.wall_s for m in mirrors) - untraced_s) / untraced_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=outputs.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full", help="smoke: tiny inputs for tests")
    args = parser.parse_args()

    if not (SRC / "voxeval" / "cli.py").is_file():
        print(f"error: voxeval sources not found under {SRC}", file=sys.stderr)
        return 2
    check = Checker(args)
    work = WORK / f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            build_dataset(args, work / "data")
            manifest = work / "data" / "manifest.json"
            props = properties(args, manifest)
            metrics = per_layer(args, work, check, props, manifest)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            manifest, metrics = end_to_end(args, work, check)
            props = properties(args, manifest)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print("properties: " + json.dumps(props, sort_keys=True))
    print("digests: " + json.dumps(check.digests, sort_keys=True))
    for name, value in metrics.items():
        moves = f"  (should move: {PER_LAYER[name][1]})" if args.trace else ""
        print(f"{name} = {value:.6g} {units[name]}{moves}")
    print(f"failed_frac = {check.failed / check.attempted:.6g} ({check.failed} failed of {check.attempted} attempted)")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
