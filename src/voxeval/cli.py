"""Command-line entry point.

Subcommands:

* ``evaluate``   - run the full pipeline over a manifest: per-case
                   metrics, ranking, bootstrap stability, group tables,
                   correlations, all written to an output directory;
* ``phantom``    - synthesize an evaluable phantom dataset from a spec;
* ``rank-table`` - rank a CSV of pre-aggregated metric values (no
                   volumes involved);
* ``validate``   - manifest and volume checks only.

Exit codes: 0 success, 1 validation error, 2 volume/file I/O error,
3 metric computation error. Input files are never modified.
"""

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .errors import (
    MetricError,
    ParameterError,
    ShapeError,
    ValidationError,
    VolumeIOError,
    VoxevalError,
)
from .grid import CLASS_NAMES, ORGAN_CLASSES, LabelVolume, ProbabilityVolume
from .manifest import load_manifest
from .metrics import METRIC_NAMES, CaseMetrics, EvalConfig, evaluate_case
from .nifti import read_volume
from .phantom import write_dataset
from .ranking import composite_ranking, rank_cases
from .report import (
    RANKING_COLUMNS,
    aggregate,
    correlations,
    emit,
    manifest_sha256,
    ranking_records,
)
from .stability import bootstrap_ranks, bubble_export

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_METRIC = 3


@dataclass(frozen=True)
class RunConfig:
    manifest: str
    out_dir: str
    threshold: float = 0.5
    argmax_mode: bool = False
    ece_bins: int = 10
    eq2_literal: bool = False
    ece_per_class: bool = False
    ece_exclude_dissensus: bool = False
    sigma_convention: str = "population"
    renormalize: bool = False
    iterations: int = 500
    seed: int = 0
    group: str | None = None
    classes: tuple[int, ...] = ORGAN_CLASSES
    skip_bad_cases: bool = False
    parallel_cases: int = 1
    rank_per_case: bool = False
    correlations_per_organ: bool = False

    def eval_config(self) -> EvalConfig:
        return EvalConfig(
            threshold=self.threshold,
            argmax_mode=self.argmax_mode,
            ece_bins=self.ece_bins,
            eq2_literal=self.eq2_literal,
            ece_per_class=self.ece_per_class,
            ece_exclude_dissensus=self.ece_exclude_dissensus,
            sigma_convention=self.sigma_convention,
            classes=self.classes,
        )

    def __post_init__(self):
        if self.iterations < 1:
            raise ValidationError(f"iterations must be >= 1, got {self.iterations}")
        if self.parallel_cases < 1:
            raise ValidationError(f"parallel-cases must be >= 1, got {self.parallel_cases}")
        try:
            self.eval_config()
        except ParameterError as exc:
            raise ValidationError(str(exc)) from exc


def _parse_classes(text: str) -> tuple[int, ...]:
    ids_by_name = {CLASS_NAMES[c]: c for c in ORGAN_CLASSES}
    out = []
    for token in text.split(","):
        token = token.strip()
        if token in ids_by_name:
            out.append(ids_by_name[token])
        elif token.isdigit() and int(token) in ORGAN_CLASSES:
            out.append(int(token))
        else:
            raise ValidationError(
                f"unknown class {token!r}; use ids {ORGAN_CLASSES} or names {sorted(ids_by_name)}"
            )
    return tuple(dict.fromkeys(out))


def _load_label(path) -> LabelVolume:
    v = read_volume(path)
    if not isinstance(v, LabelVolume):
        raise ShapeError(f"{path}: expected a 3D label volume, found a 4D probability map")
    return v


def _load_probability(path, renormalize: bool) -> ProbabilityVolume:
    v = read_volume(path, renormalize=renormalize)
    if not isinstance(v, ProbabilityVolume):
        raise ShapeError(f"{path}: expected a 4D probability map, found a 3D label volume")
    return v


def _evaluate_one_case(entry, config: RunConfig, eval_cfg: EvalConfig):
    """-> ("ok", [CaseMetrics]) or ("skip", case_id, message)."""
    try:
        raters = [_load_label(p) for p in entry.rater_annotations]
        out = []
        for name in sorted(entry.algorithm_predictions):
            pred = _load_probability(entry.algorithm_predictions[name], config.renormalize)
            out.append(evaluate_case(pred, raters, eval_cfg, case_id=entry.case_id, algorithm=name))
            del pred  # free this prediction before the next one is decoded
        return ("ok", out)
    except VoxevalError as exc:
        if config.skip_bad_cases:
            return ("skip", entry.case_id, str(exc))
        raise


def run_evaluate(config: RunConfig) -> int:
    manifest = load_manifest(config.manifest).filtered(config.group)
    eval_cfg = config.eval_config()

    results = []
    if config.parallel_cases > 1:
        with ThreadPoolExecutor(max_workers=config.parallel_cases) as pool:
            results = list(pool.map(lambda e: _evaluate_one_case(e, config, eval_cfg), manifest.cases))
    else:
        results = [_evaluate_one_case(e, config, eval_cfg) for e in manifest.cases]

    case_metrics: list[CaseMetrics] = []
    skipped: list[dict] = []
    for res in results:
        if res[0] == "ok":
            case_metrics.extend(res[1])
        else:
            skipped.append({"case_id": res[1], "reason": res[2]})
    if not case_metrics:
        raise ValidationError("no cases evaluated (all skipped?)")
    case_metrics.sort(key=lambda m: (m.case_id, m.algorithm))

    ranking = rank_cases(case_metrics, per_case_ranks=config.rank_per_case)
    bootstrap = bootstrap_ranks(case_metrics, iterations=config.iterations, seed=config.seed)
    bubbles = bubble_export(bootstrap)
    groups = aggregate(case_metrics, manifest)
    try:
        correlation = correlations(case_metrics, per_organ=config.correlations_per_organ)
    except ValidationError:
        correlation = None

    run_meta = {
        "tool": "voxeval",
        "version": __version__,
        "config": asdict(config),
        "manifest_sha256": manifest_sha256(config.manifest),
        "skipped_cases": skipped,
        "rng": "numpy PCG64; bootstrap iteration i uses SeedSequence((seed, i))",
    }
    emit(
        config.out_dir,
        case_metrics=case_metrics,
        manifest=manifest,
        ranking=ranking,
        bootstrap=bootstrap,
        bubbles=bubbles,
        groups=groups,
        correlation=correlation,
        run_meta=run_meta,
    )
    print(f"evaluated {len({m.case_id for m in case_metrics})} cases x {len(ranking.rows)} algorithms")
    for row in ranking.rows:
        print(f"  {row.final_rank}. {row.algorithm} (composite {row.composite:g})")
    if skipped:
        print(f"skipped {len(skipped)} case(s); see run_meta.json")
    print(f"artifacts written to {config.out_dir}")
    return EXIT_OK


def run_phantom(spec_path, out_dir) -> int:
    try:
        doc = json.loads(Path(spec_path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read phantom spec {spec_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"phantom spec {spec_path} is not valid JSON: {exc}") from exc
    manifest_path = write_dataset(doc, out_dir)
    print(f"phantom dataset written; manifest at {manifest_path}")
    return EXIT_OK


def run_rank_table(csv_path, out_dir) -> int:
    try:
        with open(csv_path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            rows = list(reader)
            fields = reader.fieldnames or []
    except OSError as exc:
        raise ValidationError(f"cannot read {csv_path}: {exc}") from exc
    missing = [c for c in ("algorithm", *METRIC_NAMES) if c not in fields]
    if missing:
        raise ValidationError(f"{csv_path}: missing required columns {missing}")
    if not rows:
        raise ValidationError(f"{csv_path}: no data rows")

    values: dict[str, dict[str, float]] = {m: {} for m in METRIC_NAMES}
    for row in rows:
        name = row["algorithm"]
        if name in values[METRIC_NAMES[0]]:
            raise ValidationError(f"duplicate algorithm {name!r} in {csv_path}")
        for m in METRIC_NAMES:
            try:
                values[m][name] = float(row[m])
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad {m} value {row[m]!r} for {name!r}") from exc

    table = composite_ranking(values)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = ranking_records(table)
    with open(out / "ranking.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(RANKING_COLUMNS)
        for r in records:
            writer.writerow([r[c] for c in RANKING_COLUMNS])
    (out / "ranking.json").write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")

    width = max(len(r.algorithm) for r in table.rows)
    header = f"{'rank':>4}  {'algorithm':<{width}}  " + "  ".join(f"{m + '(rk)':>16}" for m in METRIC_NAMES) + "  composite"
    print(header)
    for r in table.rows:
        cells = "  ".join(f"{r.values[m]:>11.4f} ({r.ranks[m]:g})" for m in METRIC_NAMES)
        print(f"{r.final_rank:>4}  {r.algorithm:<{width}}  {cells}  {r.composite:g}")
    return EXIT_OK


def run_validate(manifest_path) -> int:
    manifest = load_manifest(manifest_path)
    n_volumes = 0
    for entry in manifest.cases:
        geometry = None
        for p in entry.rater_annotations:
            v = _load_label(p)
            n_volumes += 1
            if geometry is None:
                geometry = v.geometry
            elif not geometry.matches(v.geometry):
                raise ValidationError(f"case {entry.case_id}: geometry mismatch at {p}")
        for name, p in entry.algorithm_predictions.items():
            v = _load_probability(p, renormalize=False)
            n_volumes += 1
            if not geometry.matches(v.geometry):
                raise ValidationError(f"case {entry.case_id}, algorithm {name}: geometry mismatch at {p}")
    print(
        f"OK: {len(manifest.cases)} cases, {manifest.rater_count} raters, "
        f"{len(manifest.algorithms)} algorithms, {n_volumes} volumes decoded"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxeval", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"voxeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="evaluate a manifest end to end")
    ev.add_argument("manifest")
    ev.add_argument("--out", required=True, help="output directory for report artifacts")
    ev.add_argument("--threshold", type=float, default=0.5, help="Dice binarization threshold (default 0.5)")
    ev.add_argument("--argmax", action="store_true", help="binarize by winning channel instead of threshold")
    ev.add_argument("--ece-bins", type=int, default=10, help="calibration bin count (default 10)")
    ev.add_argument("--eq2-literal", action="store_true", help="weight calibration bins by count/M instead of count/N")
    ev.add_argument("--ece-per-class", action="store_true", help="one-vs-rest calibration per organ instead of multiclass")
    ev.add_argument("--ece-exclude-dissensus", action="store_true", help="restrict calibration to rater-unanimous voxels")
    ev.add_argument("--sigma-convention", choices=["population", "sample"], default="population")
    ev.add_argument("--renormalize", action="store_true", help="renormalize probability voxels instead of rejecting bad sums")
    ev.add_argument("--iterations", type=int, default=500, help="bootstrap iterations (default 500)")
    ev.add_argument("--seed", type=int, default=0, help="bootstrap RNG seed (default 0)")
    ev.add_argument("--group", choices=["A", "B", "C"], help="restrict to one clinical group")
    ev.add_argument("--classes", default="pancreas,kidney,liver", help="comma-separated organ subset")
    ev.add_argument("--skip-bad-cases", action="store_true", help="skip unreadable cases instead of aborting")
    ev.add_argument("--parallel-cases", type=int, default=1, metavar="N", help="evaluate N cases concurrently")
    ev.add_argument("--rank-per-case", action="store_true", help="average within-case ranks instead of ranking case means")
    ev.add_argument("--correlations-per-organ", action="store_true", help="pool per-organ points for the correlation matrix")

    ph = sub.add_parser("phantom", help="generate a synthetic dataset from a spec JSON")
    ph.add_argument("spec")
    ph.add_argument("--out", required=True)

    rt = sub.add_parser("rank-table", help="rank a CSV of aggregated metrics (columns: algorithm,dsc,confidence,ece,crps)")
    rt.add_argument("csv")
    rt.add_argument("--out", required=True)

    va = sub.add_parser("validate", help="check a manifest and its referenced volumes")
    va.add_argument("manifest")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "evaluate":
            config = RunConfig(
                manifest=args.manifest,
                out_dir=args.out,
                threshold=args.threshold,
                argmax_mode=args.argmax,
                ece_bins=args.ece_bins,
                eq2_literal=args.eq2_literal,
                ece_per_class=args.ece_per_class,
                ece_exclude_dissensus=args.ece_exclude_dissensus,
                sigma_convention=args.sigma_convention,
                renormalize=args.renormalize,
                iterations=args.iterations,
                seed=args.seed,
                group=args.group,
                classes=_parse_classes(args.classes),
                skip_bad_cases=args.skip_bad_cases,
                parallel_cases=args.parallel_cases,
                rank_per_case=args.rank_per_case,
                correlations_per_organ=args.correlations_per_organ,
            )
            return run_evaluate(config)
        if args.command == "phantom":
            return run_phantom(args.spec, args.out)
        if args.command == "rank-table":
            return run_rank_table(args.csv, args.out)
        if args.command == "validate":
            return run_validate(args.manifest)
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (VolumeIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METRIC


if __name__ == "__main__":
    sys.exit(main())
