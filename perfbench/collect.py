"""Run the benchmark over several seeds and write a BENCH_<label>.json record.

    python3 perfbench/collect.py --label seed --seeds 1-10 --out perfbench/results/BENCH_seed.json

For each workload: one `run.py --trace 0` per seed, then one `--trace 1`
run on the first seed. The record keeps every run's metrics plus, per
end-to-end metric, the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, check=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    (props,) = (json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("properties: "))
    result = json.loads(lines[-1])
    return {"seed": seed, "elapsed_s": elapsed, "properties": props, **result}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seeds = _seeds(args.seeds)
    record = {"label": args.label, "run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            runs.append(_run(workload, seed, trace=0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed} ({runs[-1]['elapsed_s']:.0f} s): {json.dumps(values)}", flush=True)
        summary = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs]) for m in BENCHMARK["end_to_end"]
        }
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['median']:.6g}, spread {s['spread']:.2%}", flush=True)
        traced = _run(workload, seeds[0], trace=1)
        record["workloads"][workload] = {
            "properties": runs[0]["properties"],
            "end_to_end": summary,
            "runs": runs,
            "per_layer": {"seed": seeds[0], **traced},
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
