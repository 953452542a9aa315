"""Per-metric relative ranks and the composite final ranking.

Dice and confidence rank descending (higher is better), calibration
error and CRPS ascending. The composite score is the plain mean of the
four per-metric ranks; algorithms are ordered by ascending composite,
with ties broken by lower calibration error, then lower CRPS, then
name.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .metrics import METRIC_NAMES

METRIC_DIRECTIONS = {
    "dsc": "descending",
    "confidence": "descending",
    "ece": "ascending",
    "crps": "ascending",
}


def average_ranks(values, axis: int = -1) -> np.ndarray:
    """Tie-averaged ranks along ``axis``, 1 = smallest, for finite input.

    A stable argsort orders each line; a run of equal sorted values
    (exact ``!=``, so -0.0 ties with 0.0) spanning sorted positions
    start..end gets (start + end + 2) / 2. Every rank is a half-integer,
    so the result equals scipy.stats.rankdata(method="average") bit for
    bit.
    """
    a = np.moveaxis(np.asarray(values), axis, -1)
    order = np.argsort(a, axis=-1, kind="stable")
    ordered = np.take_along_axis(a, order, axis=-1)
    n = a.shape[-1]
    position = np.arange(n)
    new_run = np.ones(a.shape, dtype=bool)
    new_run[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    run_end = np.ones(a.shape, dtype=bool)
    run_end[..., :-1] = new_run[..., 1:]
    start = np.maximum.accumulate(np.where(new_run, position, 0), axis=-1)
    end = np.minimum.accumulate(np.where(run_end, position, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(a.shape)
    np.put_along_axis(ranks, order, (start + end + 2) / 2.0, axis=-1)
    return np.moveaxis(ranks, -1, axis)


def rank_metric(values: dict[str, float], direction: str) -> dict[str, float]:
    """Rank 1 = best; ties get the average of the ranks they span."""
    if direction not in ("ascending", "descending"):
        raise ValidationError(f"direction must be ascending|descending, got {direction!r}")
    if not values:
        raise ValidationError("cannot rank an empty value map")
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValidationError(f"non-finite value {v!r} for algorithm {name!r}")
    names = sorted(values)
    keys = [values[n] if direction == "ascending" else -values[n] for n in names]
    ranks = average_ranks(keys)
    return {n: float(r) for n, r in zip(names, ranks)}


@dataclass(frozen=True)
class RankingRow:
    algorithm: str
    values: dict[str, float]
    ranks: dict[str, float]
    composite: float
    final_rank: int


@dataclass(frozen=True)
class RankingTable:
    rows: tuple[RankingRow, ...]  # sorted by final_rank

    @property
    def final_order(self) -> tuple[str, ...]:
        return tuple(r.algorithm for r in self.rows)


def composite_ranking(
    metric_values: dict[str, dict[str, float]],
    metric_ranks: dict[str, dict[str, float]] | None = None,
) -> RankingTable:
    """Build the full table from per-metric aggregated values.

    ``metric_values`` maps each of dsc/confidence/ece/crps to a map
    algorithm -> value; every algorithm must appear under all four.
    Pass ``metric_ranks`` to rank on something other than the values
    themselves (the per-case-rank-then-average mode does this).
    """
    missing = [m for m in METRIC_NAMES if m not in metric_values]
    if missing:
        raise ValidationError(f"missing metrics: {missing}")
    algorithms = set(metric_values[METRIC_NAMES[0]])
    for m in METRIC_NAMES:
        if set(metric_values[m]) != algorithms:
            raise ValidationError(
                f"metric {m!r} covers {sorted(metric_values[m])}, expected {sorted(algorithms)}"
            )

    if metric_ranks is None:
        ranks = {m: rank_metric(metric_values[m], METRIC_DIRECTIONS[m]) for m in METRIC_NAMES}
    else:
        ranks = metric_ranks
    composites = {
        a: sum(ranks[m][a] for m in METRIC_NAMES) / len(METRIC_NAMES) for a in algorithms
    }
    order = sorted(
        algorithms,
        key=lambda a: (composites[a], metric_values["ece"][a], metric_values["crps"][a], a),
    )
    rows = tuple(
        RankingRow(
            algorithm=a,
            values={m: metric_values[m][a] for m in METRIC_NAMES},
            ranks={m: ranks[m][a] for m in METRIC_NAMES},
            composite=composites[a],
            final_rank=i + 1,
        )
        for i, a in enumerate(order)
    )
    return RankingTable(rows)


def aggregate_case_means(case_metrics) -> dict[str, dict[str, float]]:
    """metric -> algorithm -> mean over cases (the Table-style aggregate)."""
    by_alg: dict[str, list] = {}
    for cm in case_metrics:
        by_alg.setdefault(cm.algorithm, []).append(cm)
    out: dict[str, dict[str, float]] = {m: {} for m in METRIC_NAMES}
    for a, items in by_alg.items():
        for m in METRIC_NAMES:
            vals = [cm.metric_mean(m) for cm in items]
            out[m][a] = sum(vals) / len(vals)
    return out


def per_case_average_ranks(case_metrics) -> dict[str, dict[str, float]]:
    """Alternative aggregation: rank within each case, then average ranks."""
    by_case: dict[str, list] = {}
    for cm in case_metrics:
        by_case.setdefault(cm.case_id, []).append(cm)
    all_algorithms = {cm.algorithm for cm in case_metrics}
    for case_id, items in by_case.items():
        if {cm.algorithm for cm in items} != all_algorithms:
            raise ValidationError(f"case {case_id!r} does not cover every algorithm")
    sums: dict[str, dict[str, float]] = {m: {} for m in METRIC_NAMES}
    n_cases = len(by_case)
    for items in by_case.values():
        for m in METRIC_NAMES:
            ranks = rank_metric(
                {cm.algorithm: cm.metric_mean(m) for cm in items}, METRIC_DIRECTIONS[m]
            )
            for a, r in ranks.items():
                sums[m][a] = sums[m].get(a, 0.0) + r
    return {m: {a: s / n_cases for a, s in per_alg.items()} for m, per_alg in sums.items()}


def rank_cases(case_metrics, per_case_ranks: bool = False) -> RankingTable:
    """Rank algorithms from per-case metrics.

    Default ranks the per-algorithm case means; the alternative averages
    within-case ranks instead.
    """
    values = aggregate_case_means(case_metrics)
    ranks = per_case_average_ranks(case_metrics) if per_case_ranks else None
    return composite_ranking(values, ranks)
