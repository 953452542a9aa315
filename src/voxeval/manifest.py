"""Dataset manifest: which raters and predictions belong to which case.

The manifest is a JSON document::

    {
      "cases": [
        {
          "case_id": "case_001",
          "group": "A",
          "rater_annotations": ["raters/case_001_r1.nii.gz", ...],
          "algorithm_predictions": {"teamX": "preds/teamX/case_001.nii.gz", ...}
        },
        ...
      ]
    }

All paths are resolved relative to the manifest's directory. Group
labels are restricted to A/B/C; every case must list the same number of
raters and the same set of algorithms. Referenced files must exist at
load time; volume geometry agreement is checked lazily at evaluation
time.
"""

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError

GROUPS = ("A", "B", "C")


@dataclass(frozen=True)
class CaseEntry:
    case_id: str
    group: str
    rater_annotations: tuple[Path, ...]
    algorithm_predictions: dict[str, Path]


@dataclass(frozen=True)
class DatasetManifest:
    path: Path
    cases: tuple[CaseEntry, ...]

    @property
    def rater_count(self) -> int:
        return len(self.cases[0].rater_annotations)

    @property
    def algorithms(self) -> tuple[str, ...]:
        return tuple(sorted(self.cases[0].algorithm_predictions))

    def filtered(self, group: str | None) -> "DatasetManifest":
        if group is None:
            return self
        if group not in GROUPS:
            raise ValidationError(f"unknown group filter {group!r}; expected one of {GROUPS}")
        kept = tuple(c for c in self.cases if c.group == group)
        if not kept:
            raise ValidationError(f"no cases in group {group}")
        return DatasetManifest(self.path, kept)


def _require(condition: bool, message: str):
    if not condition:
        raise ValidationError(message)


def read_json(path, what: str):
    """The UTF-8 JSON document at ``path``; a ValidationError naming ``what`` and
    ``path``, as passed, if it cannot be read or is not valid JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a manifest file.

    Raises ValidationError naming the file, with a specific message for
    duplicate case ids, unknown groups, non-string or missing files,
    inconsistent rater counts, and inconsistent algorithm sets.
    """
    path = Path(path)
    doc = read_json(path, "manifest")
    try:
        return DatasetManifest(path, _parse_cases(doc, path.parent))
    except ValidationError as exc:
        raise ValidationError(f"manifest {path}: {exc}") from exc


def _is_path(value) -> bool:
    return isinstance(value, str) and value != ""


def _parse_cases(doc, base: Path) -> tuple[CaseEntry, ...]:
    _require(isinstance(doc, dict) and "cases" in doc, "must be an object with a 'cases' list")
    raw_cases = doc["cases"]
    _require(isinstance(raw_cases, list) and raw_cases, "'cases' must be a non-empty list")

    cases: list[CaseEntry] = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(raw_cases):
        where = f"case #{i}"
        _require(isinstance(entry, dict), f"{where} must be an object")
        for key in ("case_id", "group", "rater_annotations", "algorithm_predictions"):
            _require(key in entry, f"{where} missing key {key!r}")
        case_id = entry["case_id"]
        _require(isinstance(case_id, str) and case_id, f"{where}: case_id must be a non-empty string")
        _require(case_id not in seen_ids, f"duplicate case_id {case_id!r}")
        seen_ids.add(case_id)
        group = entry["group"]
        _require(group in GROUPS, f"case {case_id}: unknown group {group!r}; expected one of {GROUPS}")
        raters = entry["rater_annotations"]
        _require(isinstance(raters, list) and len(raters) >= 2, f"case {case_id}: need at least 2 rater annotations")
        _require(all(map(_is_path, raters)), f"case {case_id}: rater annotations must be path strings, got {raters!r}")
        preds = entry["algorithm_predictions"]
        _require(isinstance(preds, dict) and preds, f"case {case_id}: algorithm_predictions must be a non-empty map")
        _require(all(map(_is_path, preds.values())), f"case {case_id}: prediction paths must be strings, got {preds!r}")

        rater_paths = tuple((base / p) for p in raters)
        pred_paths = {name: base / p for name, p in sorted(preds.items())}
        for p in list(rater_paths) + list(pred_paths.values()):
            _require(p.exists(), f"case {case_id}: referenced file does not exist: {p}")
        cases.append(CaseEntry(case_id, group, rater_paths, pred_paths))

    rater_counts = {len(c.rater_annotations) for c in cases}
    _require(
        len(rater_counts) == 1,
        f"inconsistent rater counts across cases: {sorted(rater_counts)} "
        f"(case {cases[0].case_id} has {len(cases[0].rater_annotations)})",
    )
    algo_sets = {tuple(sorted(c.algorithm_predictions)) for c in cases}
    _require(
        len(algo_sets) == 1,
        f"inconsistent algorithm sets across cases: {sorted(algo_sets)}",
    )
    return tuple(cases)
