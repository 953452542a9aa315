"""Aggregation into group tables, metric correlations, and file emission.

CSV tables carry display units matching the usual leaderboard
convention (Dice and confidence as percentages, calibration error
x 10^-3); the JSON twins always store raw unscaled values. The pinned
ranking.csv schema (algorithm, dsc, dsc_rank, ..., composite,
final_rank) keeps values in whatever units they were supplied in.

Everything written here is byte-deterministic for fixed inputs: sorted
JSON keys, repr-formatted floats, no timestamps.
"""

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .grid import CLASS_NAMES, ORGAN_CLASSES
from .manifest import DatasetManifest
from .metrics import FLAG_NAMES, METRIC_NAMES, CaseMetrics, mean_in_order
from .ranking import RankingTable, average_ranks
from .stability import BootstrapSummary

SCHEMA_VERSION = 2

#: Per metric: its cases.json key, and its CSV header suffix and display factor.
#: Per flag: its short name in the CSV tables.
_DISPLAY = {
    "dsc": ("dsc", "pct", 100.0),
    "confidence": ("c_seg", "pct", 100.0),
    "ece": ("cece", "x1e3", 1000.0),
    "crps": ("crps_cm3", "cm3", 1.0),
    "empty_consensus_fg": "empty_fg",
    "empty_consensus_bg": "empty_bg",
    "sigma_zero": "sigma_zero",
}


@dataclass(frozen=True)
class GroupRow:
    group: str  # A | B | C | overall
    algorithm: str
    n_cases: int
    means: dict[str, float | None]
    flag_counts: dict[str, int]


def _case_group_index(manifest: DatasetManifest) -> dict[str, str]:
    return {c.case_id: c.group for c in manifest.cases}


def aggregate(case_metrics: list[CaseMetrics], manifest: DatasetManifest) -> tuple[GroupRow, ...]:
    """Per-group and overall case-weighted metric means per algorithm.

    The overall row averages over all included cases directly (never a
    mean of group means). Classes skipped by flags already contributed
    their remaining-class means at the case level; flag totals are
    carried along so the skipping is visible.
    """
    groups = _case_group_index(manifest)
    for cm in case_metrics:
        if cm.case_id not in groups:
            raise ValidationError(f"case {cm.case_id!r} not present in manifest")

    by_key: dict[tuple[str, str], list[CaseMetrics]] = {}
    for cm in case_metrics:
        by_key.setdefault((groups[cm.case_id], cm.algorithm), []).append(cm)
        by_key.setdefault(("overall", cm.algorithm), []).append(cm)

    rows = []
    for (group, algorithm), items in sorted(by_key.items()):
        means: dict[str, float | None] = {}
        for m in METRIC_NAMES:
            vals = [v for v in (cm.metric_mean(m) for cm in items) if not math.isnan(v)]
            means[m] = float(mean_in_order(vals)) if vals else None
        flags = {f: sum(len(cm.flagged(f)) for cm in items) for f in FLAG_NAMES}
        rows.append(GroupRow(group, algorithm, len(items), means, flags))
    return tuple(rows)


@dataclass(frozen=True)
class CorrelationMatrix:
    metrics: tuple[str, ...]
    pearson: list[list[float | None]] | None  # None below 3 points
    spearman: list[list[float | None]] | None
    n_points: int
    pooling: str  # "case" | "case-organ"


def _corr_from_columns(columns: np.ndarray) -> list[list[float | None]]:
    k = columns.shape[0]
    degenerate = [bool(np.ptp(columns[i]) == 0) for i in range(k)]
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = np.corrcoef(columns)
    out: list[list[float | None]] = [[None] * k for _ in range(k)]
    for i in range(k):
        out[i][i] = 1.0
        for j in range(i + 1, k):
            if not (degenerate[i] or degenerate[j]):
                # mirror one triangle: corrcoef is only symmetric up to rounding
                out[i][j] = out[j][i] = float(raw[i, j])
    return out


def correlations(case_metrics: list[CaseMetrics], per_organ: bool = False) -> CorrelationMatrix:
    """Pearson and Spearman between the four metrics, pooled across
    (case, algorithm) points (or per-organ points with ``per_organ``).

    A metric with zero variance gets None off-diagonal entries instead
    of propagating NaN; diagonals are 1 by definition. With fewer than 3
    pooled points the correlations are undefined and both matrices are
    None.
    """
    points: list[list[float]] = []
    if per_organ:
        for cm in case_metrics:
            for c in ORGAN_CLASSES:
                row = [cm.per_class(m).get(c) for m in METRIC_NAMES]
                if all(v is not None for v in row):
                    points.append([float(v) for v in row])
    else:
        for cm in case_metrics:
            row = [cm.metric_mean(m) for m in METRIC_NAMES]
            if all(not math.isnan(v) for v in row):
                points.append(row)
    pearson = spearman = None
    if len(points) >= 3:
        columns = np.array(points, dtype=np.float64).T  # (4, n)
        pearson = _corr_from_columns(columns)
        spearman = _corr_from_columns(average_ranks(columns, axis=1))
    return CorrelationMatrix(
        metrics=METRIC_NAMES,
        pearson=pearson,
        spearman=spearman,
        n_points=len(points),
        pooling="case-organ" if per_organ else "case",
    )


# --- serialization -------------------------------------------------------


def _scaled(metric: str, value: float | None) -> float | None:
    return None if value is None else value * _DISPLAY[metric][2]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # numpy float64 too: its repr would be "np.float64(...)"
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _class_columns(metric: str) -> list[str]:
    suffix = _DISPLAY[metric][1]
    return [f"{metric}_{suffix}_{CLASS_NAMES[c]}" for c in ORGAN_CLASSES] + [f"{metric}_{suffix}_mean"]


def case_record(cm: CaseMetrics, group: str) -> dict:
    """Raw-valued JSON record for one (case, algorithm) pair."""

    def by_name(d):
        return {CLASS_NAMES[c]: d[c] for c in sorted(d)}

    record = {"case_id": cm.case_id, "algorithm": cm.algorithm, "group": group}
    for m in METRIC_NAMES:
        key = _DISPLAY[m][0]
        record[key] = by_name(cm.per_class(m))
        record[f"mean_{key}"] = cm.mean(m)
    record["flags"] = {f: [CLASS_NAMES[c] for c in cm.flagged(f)] for f in FLAG_NAMES}
    return record


def _case_rows(case_metrics: list[CaseMetrics], groups: dict[str, str]):
    header = ["case_id", "algorithm", "group"]
    for m in METRIC_NAMES:
        header += _class_columns(m)
    header.append("flags")
    rows = []
    for cm in sorted(case_metrics, key=lambda x: (x.case_id, x.algorithm)):
        row: list = [cm.case_id, cm.algorithm, groups[cm.case_id]]
        for m in METRIC_NAMES:
            per_class = cm.per_class(m)
            row += [_scaled(m, per_class.get(c)) for c in ORGAN_CLASSES] + [_scaled(m, cm.mean(m))]
        flags = [f"{CLASS_NAMES[c]}:{_DISPLAY[f]}" for c in ORGAN_CLASSES for f in FLAG_NAMES if c in cm.flagged(f)]
        row.append(";".join(flags))
        rows.append(row)
    return header, rows


def ranking_records(table: RankingTable) -> list[dict]:
    records = []
    for r in table.rows:
        rec = {"algorithm": r.algorithm}
        for m in METRIC_NAMES:
            rec[m] = r.values[m]
            rec[f"{m}_rank"] = r.ranks[m]
        rec["composite"] = r.composite
        rec["final_rank"] = r.final_rank
        records.append(rec)
    return records


RANKING_COLUMNS = ["algorithm", *(c for m in METRIC_NAMES for c in (m, f"{m}_rank")), "composite", "final_rank"]


def write_ranking(out: Path, table: RankingTable) -> list[Path]:
    """Write ``ranking.csv`` and ``ranking.json`` into the existing directory ``out``."""
    records = ranking_records(table)
    paths = [out / "ranking.csv", out / "ranking.json"]
    _write_csv(paths[0], RANKING_COLUMNS, [[r[c] for c in RANKING_COLUMNS] for r in records])
    _write_json(paths[1], records)
    return paths


def bootstrap_records(summary: BootstrapSummary) -> list[dict]:
    records = []
    for metric in summary.metrics:
        for a in summary.algorithms:
            s = summary.stats[metric][a]
            # repr keys, which json sorts as text ("10.0" before "2.0"), not as numbers as it would floats
            frequency = {repr(k): v for k, v in sorted(s.rank_frequency.items())}
            records.append({"metric": metric, "algorithm": a, **asdict(s), "rank_frequency": frequency})
    return records


def manifest_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def emit(
    out_dir,
    *,
    case_metrics: list[CaseMetrics],
    manifest: DatasetManifest,
    ranking: RankingTable,
    bootstrap: BootstrapSummary,
    bubbles: list[dict],
    groups: tuple[GroupRow, ...],
    correlation: CorrelationMatrix,
    run_meta: dict,
) -> list[Path]:
    """Write the full artifact set; returns the created paths.

    Fails fast (before creating any file) if there is nothing to report.
    """
    if not case_metrics or not ranking.rows:
        raise ValidationError("refusing to emit an empty report: no algorithms/cases evaluated")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    group_of = _case_group_index(manifest)
    written: list[Path] = []

    def csv_path(name, header, rows):
        p = out / name
        _write_csv(p, header, rows)
        written.append(p)

    def json_path(name, payload):
        p = out / name
        _write_json(p, payload)
        written.append(p)

    header, rows = _case_rows(case_metrics, group_of)
    csv_path("cases.csv", header, rows)
    json_path(
        "cases.json",
        [case_record(cm, group_of[cm.case_id]) for cm in sorted(case_metrics, key=lambda x: (x.case_id, x.algorithm))],
    )

    written += write_ranking(out, ranking)

    group_header = ["group", "algorithm", "n_cases"]
    group_header += [f"{m}_{_DISPLAY[m][1]}_mean" for m in METRIC_NAMES]
    group_header += [f"flags_{_DISPLAY[f]}" for f in FLAG_NAMES]
    group_rows = []
    for g in groups:
        row = [g.group, g.algorithm, g.n_cases]
        row += [_scaled(m, g.means[m]) for m in METRIC_NAMES]
        row += [g.flag_counts[f] for f in FLAG_NAMES]
        group_rows.append(row)
    csv_path("groups.csv", group_header, group_rows)
    json_path("groups.json", [asdict(g) for g in groups])

    boot_records = bootstrap_records(bootstrap)
    boot_cols = ["metric", "algorithm", "mean_rank", "std_rank", "median_rank", "ci_low", "ci_high"]
    csv_path("bootstrap.csv", boot_cols, [[r[c] for c in boot_cols] for r in boot_records])
    json_path(
        "bootstrap.json",
        {
            "iterations": bootstrap.iterations,
            "rng_seed": bootstrap.rng_seed,
            "rng": "numpy PCG64, stream i seeded with SeedSequence((seed, i))",
            "records": boot_records,
        },
    )

    bubble_cols = ["metric", "algorithm", "x_order", "rank", "frequency_pct", "median_rank", "ci_low", "ci_high"]
    csv_path("bubbles.csv", bubble_cols, [[b[c] for c in bubble_cols] for b in bubbles])

    json_path("correlations.json", asdict(correlation))

    json_path("run_meta.json", {"schema_version": SCHEMA_VERSION, **run_meta})
    return written
