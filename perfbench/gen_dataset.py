"""Build one workload's input dataset with the phantom layer.

Run as its own process so that the benchmark runner never holds a volume:

    PYTHONPATH=src python3 perfbench/gen_dataset.py --workload ct-gz --size full --seed 0 --out DIR

Uncompressed workloads are converted from the phantom writer's gzip output
to plain ``.nii`` here, so the conversion counts as set-up.
"""

import argparse
import gzip
import json
from pathlib import Path

from voxeval.phantom import write_dataset

import workloads


def _to_raw(manifest_path: Path) -> None:
    doc = json.loads(manifest_path.read_text())
    base = manifest_path.parent
    for case in doc["cases"]:
        paths = case["rater_annotations"] + list(case["algorithm_predictions"].values())
        for rel in paths:
            src = base / rel
            src.with_suffix("").write_bytes(gzip.decompress(src.read_bytes()))
            src.unlink()
        case["rater_annotations"] = [p.removesuffix(".gz") for p in case["rater_annotations"]]
        case["algorithm_predictions"] = {k: p.removesuffix(".gz") for k, p in case["algorithm_predictions"].items()}
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", required=True, choices=workloads.SIZES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    manifest_path = write_dataset(workloads.phantom_spec(args.workload, args.size, args.seed), args.out)
    if not workloads.WORKLOADS[args.workload]["compressed"]:
        _to_raw(manifest_path)


if __name__ == "__main__":
    main()
