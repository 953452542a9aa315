"""Per-layer timing of the `voxeval evaluate` pipeline, taken from outside.

Nothing inside ``voxeval`` is wrapped or patched: this runner calls each
module's public functions itself and times the calls.

* ``mirror`` makes the calls ``cli.run_evaluate`` makes, in the same order
  and with the same case parallelism, and writes the same artifacts, so its
  wall time against an untraced run is the cost of tracing. One span per
  call.
* ``probe`` takes the first case apart: it times channel-sum validation,
  consensus derivation, each metric family and the whole of
  ``evaluate_case`` separately, and records the tracemalloc peak of
  ``read_volume`` and ``evaluate_case`` per prediction.

    PYTHONPATH=src python3 perfbench/layer_trace.py mirror --workload ct-gz --size full --seed 0 \\
        --manifest DATA/manifest.json --out OUT
    PYTHONPATH=src python3 perfbench/layer_trace.py probe --workload ct-gz --size full --seed 0 \\
        --manifest DATA/manifest.json

Prints one JSON line: ``{"spans": [...]}`` or ``{"pairs": [...]}``.
"""

import argparse
import json
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict

from voxeval import __version__
from voxeval.cli import RunConfig
from voxeval.consensus import derive_regions
from voxeval.errors import ValidationError
from voxeval.grid import validate_probability_sums
from voxeval.manifest import load_manifest
from voxeval.metrics import (
    VolumeDistribution,
    cece_binary,
    cece_multirater,
    confidence_scores,
    crps_gaussian,
    dsc_consensus,
    evaluate_case,
    predicted_volume,
    rater_volume_distribution,
)
from voxeval.nifti import read_volume
from voxeval.ranking import rank_cases
from voxeval.report import aggregate, correlations, emit, manifest_sha256
from voxeval.stability import bootstrap_ranks, bubble_export

import workloads

MIB = 1 << 20


class Spans:
    """Span records kept in memory; safe to append from pool threads."""

    def __init__(self):
        self.records: list[dict] = []

    @contextmanager
    def span(self, name: str, **tags):
        record = {"name": name, **tags}
        start = time.perf_counter()
        try:
            yield record
        finally:
            record["start"], record["end"] = start, time.perf_counter()
            self.records.append(record)


def mirror(config: RunConfig) -> list[dict]:
    spans = Spans()
    with spans.span("manifest.load_manifest"):
        manifest = load_manifest(config.manifest).filtered(config.group)
    eval_cfg = config.eval_config()

    def one_case(entry):
        raters = []
        for path in entry.rater_annotations:
            with spans.span("nifti.read_volume.label", case=entry.case_id):
                raters.append(read_volume(path))
        out = []
        for name in sorted(entry.algorithm_predictions):
            with spans.span("nifti.read_volume.prob", case=entry.case_id, algorithm=name) as record:
                pred = read_volume(entry.algorithm_predictions[name], renormalize=config.renormalize)
            record["bytes"] = pred.channels.nbytes
            with spans.span("metrics.evaluate_case", case=entry.case_id, algorithm=name):
                out.append(evaluate_case(pred, raters, eval_cfg, case_id=entry.case_id, algorithm=name))
        return out

    if config.parallel_cases > 1:
        with ThreadPoolExecutor(max_workers=config.parallel_cases) as pool:
            results = list(pool.map(one_case, manifest.cases))
    else:
        results = [one_case(e) for e in manifest.cases]
    case_metrics = sorted((m for r in results for m in r), key=lambda m: (m.case_id, m.algorithm))

    with spans.span("ranking.rank_cases"):
        ranking = rank_cases(case_metrics, per_case_ranks=config.rank_per_case)
    with spans.span("stability.bootstrap_ranks"):
        bootstrap = bootstrap_ranks(case_metrics, iterations=config.iterations, seed=config.seed)
    with spans.span("stability.bubble_export"):
        bubbles = bubble_export(bootstrap)
    with spans.span("report.aggregate"):
        groups = aggregate(case_metrics, manifest)
    with spans.span("report.correlations"):
        try:
            correlation = correlations(case_metrics, per_organ=config.correlations_per_organ)
        except ValidationError:
            correlation = None
    run_meta = {
        "tool": "voxeval",
        "version": __version__,
        "config": asdict(config),
        "manifest_sha256": manifest_sha256(config.manifest),
        "skipped_cases": [],
        "rng": "numpy PCG64; bootstrap iteration i uses SeedSequence((seed, i))",
    }
    with spans.span("report.emit") as record:
        written = emit(
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
    record["bytes"] = sum(p.stat().st_size for p in written)
    return spans.records


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def _traced_peak_mib(fn, *args, **kwargs):
    """-> (result, tracemalloc peak in MiB of allocations made during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / MIB


def probe(config: RunConfig) -> list[dict]:
    entry = load_manifest(config.manifest).cases[0]
    cfg = config.eval_config()
    raters = [read_volume(p) for p in entry.rater_annotations]

    def dsc(pred, regions):
        for c in cfg.classes:
            dsc_consensus(pred, regions, c, cfg.threshold, cfg.argmax_mode)

    def crps(pred):
        for c in cfg.classes:
            mu, sigma, _ = rater_volume_distribution(raters, c, cfg.sigma_convention)
            crps_gaussian(VolumeDistribution(mu, sigma, predicted_volume(pred, c)))

    def cece(pred, regions):
        include = regions.unanimous.to_bool(pred.geometry.dims) if cfg.ece_exclude_dissensus else None
        if cfg.ece_per_class:
            for c in cfg.classes:
                for r in raters:
                    cece_binary(pred, r, c, cfg.ece_bins, cfg.eq2_literal, include)
        else:
            cece_multirater(pred, raters, cfg.ece_bins, cfg.eq2_literal, include)

    pairs = []
    for name in sorted(entry.algorithm_predictions):
        path = entry.algorithm_predictions[name]
        pred, prob_peak = _traced_peak_mib(read_volume, path, renormalize=config.renormalize)
        start = time.perf_counter()
        regions = derive_regions(raters, classes=cfg.classes)
        derive_s = time.perf_counter() - start
        _, case_peak = _traced_peak_mib(evaluate_case, pred, raters, cfg)
        # Timed again without tracemalloc, serially, as the base of metrics.shared_ratio.
        evaluate_case_s = _timed(evaluate_case, pred, raters, cfg)
        pairs.append(
            {
                "case": entry.case_id,
                "algorithm": name,
                "prob_peak_mib": prob_peak,
                "validate_s": _timed(validate_probability_sums, pred.channels, renormalize=config.renormalize),
                "derive_s": derive_s,
                "dsc_s": _timed(dsc, pred, regions),
                "confidence_s": _timed(confidence_scores, pred, regions),
                "crps_s": _timed(crps, pred),
                "cece_s": _timed(cece, pred, regions),
                "evaluate_case_s": evaluate_case_s,
                "evaluate_case_peak_mib": case_peak,
            }
        )
    return pairs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("mirror", "probe"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", required=True, choices=workloads.SIZES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", default="", help="artifact directory (mirror only)")
    args = parser.parse_args()

    config = RunConfig(
        manifest=args.manifest,
        out_dir=args.out,
        seed=args.seed,
        **workloads.run_options(args.workload, args.size),
    )
    if args.mode == "mirror":
        print(json.dumps({"spans": mirror(config)}))
    else:
        print(json.dumps({"pairs": probe(config)}))


if __name__ == "__main__":
    main()
