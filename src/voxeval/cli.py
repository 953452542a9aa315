"""Command-line entry point.

Subcommands:

* ``evaluate``   - run the full pipeline over a manifest: per-case
                   metrics, ranking, bootstrap stability, group tables,
                   correlations, all written to an output directory;
* ``phantom``    - synthesize an evaluable phantom dataset from a spec;
* ``rank-table`` - rank a CSV of pre-aggregated metric values (no
                   volumes involved);
* ``validate``   - read every case as ``evaluate`` does and stop before
                   the metrics: a fault in a case ends it with
                   ``evaluate``'s exit code and message.

Exit code 0 is success; each error family in :mod:`voxeval.errors` carries
its own code, and any other file error is 2. Input files are never modified.
"""

import argparse
import csv
import platform
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .consensus import derive_regions
from .errors import (
    MetricError,
    ParameterError,
    ResourceError,
    ShapeError,
    ValidationError,
    VolumeIOError,
    VoxevalError,
)
from .grid import ORGAN_CLASSES, ORGAN_IDS, LabelVolume, ProbabilityVolume, require_same_grid
from .manifest import GROUPS, load_manifest, read_json
from .metrics import METRIC_NAMES, CaseMetrics, EvalConfig, evaluate_case
from .nifti import read_volume
from .phantom import write_dataset
from .ranking import composite_ranking, rank_cases
from .report import aggregate, correlations, emit, manifest_sha256, write_ranking
from .stability import bootstrap_ranks, bubble_export, require_iterations_and_seed

EXIT_OK = 0


@dataclass(frozen=True, kw_only=True)
class RunConfig(EvalConfig):
    """One `evaluate` run: the per-pair metric options it inherits plus the run-level ones."""

    manifest: str
    out_dir: str
    renormalize: bool = False
    iterations: int = 500
    seed: int = 0
    group: str | None = None
    skip_bad_cases: bool = False
    parallel_cases: int = 1
    rank_per_case: bool = False
    correlations_per_organ: bool = False

    def eval_config(self) -> EvalConfig:
        return EvalConfig(**{f.name: getattr(self, f.name) for f in fields(EvalConfig)})

    def __post_init__(self):
        try:
            require_iterations_and_seed(self.iterations, self.seed)
            if self.parallel_cases < 1:
                raise ValidationError(f"parallel-cases must be >= 1, got {self.parallel_cases}")
            if self.parallel_cases > 1:
                import multiprocessing  # here, like the pool: a serial run loads no process machinery

                if "fork" not in multiprocessing.get_all_start_methods():
                    raise ValidationError(
                        f"parallel-cases {self.parallel_cases} needs the 'fork' process start method, "
                        "which this platform does not have; use --parallel-cases 1"
                    )
            super().__post_init__()
        except ParameterError as exc:
            raise ValidationError(str(exc)) from exc


def _parse_classes(text: str) -> tuple[int, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if token in ORGAN_IDS:
            out.append(ORGAN_IDS[token])
        elif token.isdigit() and int(token) in ORGAN_CLASSES:
            out.append(int(token))
        else:
            raise ValidationError(
                f"unknown class {token!r}; use ids {ORGAN_CLASSES} or names {sorted(ORGAN_IDS)}"
            )
    return tuple(out)


_KIND = {LabelVolume: "a 3D label volume", ProbabilityVolume: "a 4D probability map"}


def _load(path, kind, renormalize: bool = False):
    """The volume at ``path``, which must be of ``kind``: LabelVolume or ProbabilityVolume."""
    v = read_volume(path, renormalize=renormalize)
    if not isinstance(v, kind):
        raise ShapeError(f"{path}: expected {_KIND[kind]}, found {_KIND[type(v)]}")
    return v


def _evaluate_one_case(entry, config: RunConfig) -> list[CaseMetrics] | dict:
    """The case's metrics, or under ``skip_bad_cases`` its run_meta.json skip record."""
    try:
        return _case_metrics(entry, config)
    except VoxevalError as exc:
        if config.skip_bad_cases:
            return {"case_id": entry.case_id, "reason": str(exc)}
        raise


def _case_metrics(entry, config: RunConfig, score: bool = True) -> list[CaseMetrics]:
    """Every algorithm's metrics for one case; running out of memory is a ResourceError,
    and any other exception that is not a VoxevalError a MetricError naming the case, the
    algorithm and the path, so that serial runs and forked workers end alike. Without
    ``score`` the case is read and checked as for its metrics, and none are computed."""
    where, path = f"case {entry.case_id!r}", None
    try:
        raters = []
        for path in entry.rater_annotations:
            raters.append(_load(path, LabelVolume))
        path = ", ".join(str(p) for p in entry.rater_annotations)
        try:  # the regions depend on the raters only, so every algorithm of the case shares them
            regions = derive_regions(raters, classes=config.classes)
        except MetricError as exc:
            raise type(exc)(f"{where}: {exc}") from exc
        del raters  # the regions hold the labels, packed: drop the label maps before any prediction is decoded
        out = []
        for name in sorted(entry.algorithm_predictions):
            where, path = f"case {entry.case_id!r}, algorithm {name!r}", entry.algorithm_predictions[name]
            pred = _load(path, ProbabilityVolume, config.renormalize)
            try:  # evaluate_case checks this too, in the same words; validate stops before it
                require_same_grid(pred.geometry, regions.geometry, "prediction vs consensus regions")
            except MetricError as exc:
                raise type(exc)(f"{where}: {exc}") from exc
            if score:
                out.append(evaluate_case(pred, (), config, entry.case_id, name, regions))
            del pred  # free this prediction before the next one is decoded
        return out
    except MemoryError as exc:
        raise ResourceError(f"{where}: out of memory reading or evaluating {path}") from exc
    except VoxevalError:
        raise
    except Exception as exc:  # a fault of the program, not of the input: an error line, not a traceback
        raise MetricError(f"{where}: unexpected {type(exc).__name__} reading or evaluating {path}: {exc}") from exc


def _evaluate_cases(cases, config: RunConfig, workers: int) -> list:
    """_evaluate_one_case of every case, in case order, on ``workers`` forked processes.

    Each holds one case at a time. A VoxevalError keeps its type and message,
    and the first in case order is raised, as serially. A worker that dies
    (the out-of-memory killer, a crash) breaks the pool and loses every case
    not yet returned. The workers take cases in submission order, so the
    cases they had started lead the lost ones, at most ``workers`` of them.
    Without ``skip_bad_cases`` that is a ResourceError naming those as the
    suspects and counting the queued rest. Under ``skip_bad_cases`` each
    suspect runs again alone in a fresh one-worker pool and is skipped only
    if that worker dies too, and the rest run again in one fresh pool of
    ``workers``, under the same rule.
    """
    import multiprocessing  # imported here so that a serial run loads no process machinery (about 1 MiB)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a worker starts without importing numpy again. The only
    # other threads are OpenBLAS's idle pool, which its own fork handler stops.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        with warnings.catch_warnings():  # Python >= 3.12 warns on fork with any other thread alive
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
            futures = [pool.submit(_evaluate_one_case, e, config) for e in cases]
        try:
            return [f.result() for f in futures]
        except BrokenProcessPool as exc:
            lost = [isinstance(f.exception(), BrokenProcessPool) for f in futures]
            lost_cases = [e for e, gone in zip(cases, lost) if gone]
            if not config.skip_bad_cases:
                suspects = " or ".join(repr(e.case_id) for e in lost_cases[:workers])
                queued = f"; {len(lost_cases) - workers} queued case(s) lost besides" if lost_cases[workers:] else ""
                raise ResourceError(f"a case worker process died (killed out of memory?) in case {suspects}{queued}") from exc
    finally:
        pool.shutdown(cancel_futures=True)  # after an error, start no case still queued
    if workers == 1:  # the one case, run again alone, killed its worker too
        reason = f"case {cases[0].case_id!r}: its worker died again, running alone (out of memory?)"
        return [{"case_id": cases[0].case_id, "reason": reason}]
    rerun = [_evaluate_cases([e], config, 1)[0] for e in lost_cases[:workers]]
    if lost_cases[workers:]:
        rerun += _evaluate_cases(lost_cases[workers:], config, workers)
    reruns = iter(rerun)
    return [next(reruns) if gone else f.result() for f, gone in zip(futures, lost)]


def run_evaluate(config: RunConfig) -> int:
    manifest = load_manifest(config.manifest).filtered(config.group)
    workers = min(config.parallel_cases, len(manifest.cases))
    if workers > 1:
        results = _evaluate_cases(manifest.cases, config, workers)
    else:
        results = [_evaluate_one_case(e, config) for e in manifest.cases]

    skipped = [r for r in results if isinstance(r, dict)]
    case_metrics = [m for r in results if isinstance(r, list) for m in r]
    if not case_metrics:
        raise ValidationError("no cases evaluated (all skipped?)")
    case_metrics.sort(key=lambda m: (m.case_id, m.algorithm))

    run_meta = {
        "tool": "voxeval",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": asdict(config),
        "manifest_sha256": manifest_sha256(config.manifest),
        "skipped_cases": skipped,
        "rng": "numpy PCG64; bootstrap iteration i uses SeedSequence((seed, i))",
    }
    stage = "ranking"
    try:
        ranking = rank_cases(case_metrics, per_case_ranks=config.rank_per_case)
        stage = "the bootstrap"
        bootstrap = bootstrap_ranks(case_metrics, iterations=config.iterations, seed=config.seed)
        bubbles = bubble_export(bootstrap)
        stage = "the report"
        groups = aggregate(case_metrics, manifest)
        correlation = correlations(case_metrics, per_organ=config.correlations_per_organ)
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
    except MemoryError as exc:
        raise ResourceError(f"out of memory in {stage} after the cases were evaluated (--iterations {config.iterations})") from exc
    except (VoxevalError, OSError):
        raise
    except Exception as exc:  # a fault of the program, not of the input: an error line, not a traceback
        raise MetricError(f"unexpected {type(exc).__name__} in {stage} after the cases were evaluated: {exc}") from exc
    print(f"evaluated {len({m.case_id for m in case_metrics})} cases x {len(ranking.rows)} algorithms")
    for row in ranking.rows:
        print(f"  {row.final_rank}. {row.algorithm} (composite {row.composite:g})")
    if skipped:
        print(f"skipped {len(skipped)} case(s); see run_meta.json")
    print(f"artifacts written to {config.out_dir}")
    return EXIT_OK


def run_phantom(spec_path, out_dir) -> int:
    doc = read_json(spec_path, "phantom spec")
    try:
        manifest_path = write_dataset(doc, out_dir)
    except (ValidationError, ResourceError) as exc:
        raise type(exc)(f"phantom spec {spec_path}: {exc}") from exc
    print(f"phantom dataset written; manifest at {manifest_path}")
    return EXIT_OK


def run_rank_table(csv_path, out_dir) -> int:
    try:
        with open(csv_path, newline="", encoding="utf-8-sig") as f:  # with or without a byte-order mark
            reader = csv.DictReader(f)
            rows = list(reader)
            columns = reader.fieldnames or []
    except OSError as exc:
        raise ValidationError(f"cannot read {csv_path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{csv_path} is not a UTF-8 CSV file: {exc}") from exc
    missing = [c for c in ("algorithm", *METRIC_NAMES) if c not in columns]
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
                raise ValidationError(f"{csv_path}: bad {m} value {row[m]!r} for {name!r}") from exc

    try:
        table = composite_ranking(values)
    except ValidationError as exc:
        raise ValidationError(f"{csv_path}: {exc}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ranking(out, table)

    width = max(len(r.algorithm) for r in table.rows)
    header = f"{'rank':>4}  {'algorithm':<{width}}  " + "  ".join(f"{m + '(rk)':>16}" for m in METRIC_NAMES) + "  composite"
    print(header)
    for r in table.rows:
        cells = "  ".join(f"{r.values[m]:>11.4f} ({r.ranks[m]:g})" for m in METRIC_NAMES)
        print(f"{r.final_rank:>4}  {r.algorithm:<{width}}  {cells}  {r.composite:g}")
    return EXIT_OK


def run_validate(manifest_path) -> int:
    manifest = load_manifest(manifest_path)
    config = RunConfig(manifest=manifest_path, out_dir="")  # evaluate's defaults; nothing is written
    for entry in manifest.cases:
        _case_metrics(entry, config, score=False)
    n_volumes = sum(len(e.rater_annotations) + len(e.algorithm_predictions) for e in manifest.cases)
    print(
        f"OK: {len(manifest.cases)} cases, {manifest.rater_count} raters, "
        f"{len(manifest.algorithms)} algorithms, {n_volumes} volumes decoded"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxeval", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"voxeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # No defaults here: an option left out keeps RunConfig's default, and each dest is a RunConfig field.
    ev = sub.add_parser("evaluate", help="evaluate a manifest end to end", argument_default=argparse.SUPPRESS)
    ev.add_argument("manifest")
    ev.add_argument("--out", dest="out_dir", metavar="OUT", required=True, help="output directory for report artifacts")
    ev.add_argument("--threshold", type=float, help="Dice binarization threshold (default 0.5)")
    ev.add_argument("--argmax", dest="argmax_mode", action="store_true", help="binarize by winning channel instead of threshold")
    ev.add_argument("--ece-bins", type=int, help="calibration bin count (default 10)")
    ev.add_argument("--eq2-literal", action="store_true", help="weight calibration bins by count/M instead of count/N")
    ev.add_argument("--ece-per-class", action="store_true", help="one-vs-rest calibration per organ instead of multiclass")
    ev.add_argument("--ece-exclude-dissensus", action="store_true", help="restrict calibration to rater-unanimous voxels")
    ev.add_argument("--sigma-convention", choices=["population", "sample"])
    ev.add_argument("--renormalize", action="store_true", help="renormalize probability voxels instead of rejecting bad sums")
    ev.add_argument("--iterations", type=int, help="bootstrap iterations (default 500)")
    ev.add_argument("--seed", type=int, help="bootstrap RNG seed (default 0)")
    ev.add_argument("--group", choices=GROUPS, help="restrict to one clinical group")
    ev.add_argument("--classes", help="comma-separated organ subset")
    ev.add_argument("--skip-bad-cases", action="store_true", help="skip unreadable cases instead of aborting")
    ev.add_argument("--parallel-cases", type=int, metavar="N", help="evaluate N cases at once, in forked worker processes")
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
            options = {k: v for k, v in vars(args).items() if k != "command"}
            if "classes" in options:
                options["classes"] = _parse_classes(options["classes"])
            return run_evaluate(RunConfig(**options))
        if args.command == "phantom":
            return run_phantom(args.spec, args.out)
        if args.command == "rank-table":
            return run_rank_table(args.csv, args.out)
        if args.command == "validate":
            return run_validate(args.manifest)
        raise ValidationError(f"unknown command {args.command!r}")
    except (ValidationError, VolumeIOError, MetricError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", VolumeIOError.exit_code)  # an OSError is a file error


if __name__ == "__main__":
    sys.exit(main())
