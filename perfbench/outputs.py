"""Output check for one `voxeval evaluate` run (stdlib only).

A run passes when ``cases.csv`` holds one row per (case, algorithm) pair,
every metric cell in it is a finite number, and the deterministic artifacts
hash to the expected digests. ``run_meta.json`` is never hashed because it
echoes ``--out``; ``correlations.json`` is left out as well.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

ARTIFACTS = (
    "cases.csv",
    "cases.json",
    "ranking.csv",
    "ranking.json",
    "groups.csv",
    "groups.json",
    "bootstrap.csv",
    "bootstrap.json",
    "bubbles.csv",
)
# cases.csv columns that are labels, not metric values.
_LABEL_COLUMNS = ("case_id", "algorithm", "group", "flags")

#: The seed whose artifact digests are pinned in ``digests.json``.
PINNED_SEED = 0
_PINNED = Path(__file__).resolve().parent / "digests.json"


def digests(out_dir) -> dict[str, str | None]:
    """SHA-256 of each deterministic artifact; None for a missing file."""
    out = {}
    for name in ARTIFACTS:
        path = Path(out_dir) / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


def pinned_digests(workload: str, size: str, seed: int) -> dict[str, str] | None:
    """Digests recorded for this workload and size, or None for other seeds."""
    if seed != PINNED_SEED:
        return None
    return json.loads(_PINNED.read_text())[workload][size]


def check_cases(out_dir, pairs: int) -> list[str]:
    """Problems found in cases.csv: row count, duplicate pairs, non-finite metrics."""
    path = Path(out_dir) / "cases.csv"
    if not path.is_file():
        return [f"{path.name} missing"]
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    problems = []
    if len(rows) != pairs:
        problems.append(f"cases.csv has {len(rows)} rows, expected {pairs}")
    keys = {(r.get("case_id"), r.get("algorithm")) for r in rows}
    if len(keys) != len(rows):
        problems.append("cases.csv repeats a (case, algorithm) pair")
    for i, row in enumerate(rows, start=1):
        for column, cell in row.items():
            if column in _LABEL_COLUMNS:
                continue
            try:
                finite = math.isfinite(float(cell))
            except (TypeError, ValueError):
                finite = False
            if not finite:
                problems.append(f"cases.csv row {i}, column {column}: {cell!r} is not a finite number")
    return problems


def check_run(out_dir, pairs: int, expected: dict[str, str] | None) -> tuple[list[str], dict[str, str | None]]:
    """-> (problems, digests). ``expected`` holds the digests to match, if any."""
    problems = check_cases(out_dir, pairs)
    got = digests(out_dir)
    problems += [f"{name} missing" for name, d in got.items() if d is None and name != "cases.csv"]
    if expected is not None:
        problems += [
            f"{name} differs from the expected digest"
            for name in ARTIFACTS
            if got[name] is not None and got[name] != expected.get(name)
        ]
    return problems, got
