"""Per-metric relative ranks and the composite final ranking.

Dice and confidence rank descending (higher is better), calibration
error and CRPS ascending. The composite score is the plain mean of the
four per-metric ranks; algorithms are ordered by ascending composite,
with ties broken by lower calibration error, then lower CRPS, then
name.

``rank_cases`` ranks from ``case_table``: one validated (case, algorithm)
table per metric, which ``stability.bootstrap_ranks`` resamples too. By
default it ranks the case means; with ``per_case_ranks`` it ranks each
case's row and averages those ranks. Every mean is
``metrics.mean_in_order``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .metrics import METRIC_NAMES, mean_in_order

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
    # averaged per-case ranks are not half-integers, so their sum can round
    composites = {a: float(mean_in_order([ranks[m][a] for m in METRIC_NAMES])) for a in algorithms}
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


def case_table(case_metrics) -> tuple[list[str], list[str], np.ndarray]:
    """-> (algorithms, case_ids, values): the validated table of case metrics.

    Algorithms and case ids are sorted; ``values[k]`` is the float64
    (n_cases, n_algorithms) array of metric ``METRIC_NAMES[k]``. Raises
    ValidationError on a duplicate (case, algorithm) pair, on an
    algorithm with no metrics for some case, or on a non-finite value,
    naming the first by metric, then algorithm, then case.
    """
    case_ids = sorted({m.case_id for m in case_metrics})
    algorithms = sorted({m.algorithm for m in case_metrics})
    index = {}
    for m in case_metrics:
        key = (m.case_id, m.algorithm)
        if key in index:
            raise ValidationError(f"duplicate metrics for case {m.case_id!r}, algorithm {m.algorithm!r}")
        index[key] = m
    values = np.empty((len(METRIC_NAMES), len(case_ids), len(algorithms)))
    for i, a in enumerate(algorithms):
        for j, c in enumerate(case_ids):
            m = index.get((c, a))
            if m is None:
                raise ValidationError(f"algorithm {a!r} has no metrics for case {c!r}")
            values[:, j, i] = [m.metric_mean(metric) for metric in METRIC_NAMES]
    finite = np.isfinite(values.transpose(0, 2, 1))
    if not finite.all():
        k, i, j = np.unravel_index(int(np.argmin(finite)), finite.shape)
        raise ValidationError(
            f"non-finite {METRIC_NAMES[k]} value for algorithm {algorithms[i]!r}, case {case_ids[j]!r}"
        )
    return algorithms, case_ids, values


def rank_cases(case_metrics, per_case_ranks: bool = False) -> RankingTable:
    """Rank algorithms from per-case metrics.

    Default ranks the per-algorithm case means; ``per_case_ranks`` ranks
    each case on its own and averages those ranks instead. Both add the
    cases in sorted order.
    """
    algorithms, _, values = case_table(case_metrics)
    means = {m: dict(zip(algorithms, mean_in_order(values[k]).tolist())) for k, m in enumerate(METRIC_NAMES)}
    if not per_case_ranks:
        return composite_ranking(means)
    ranks = {}
    for k, m in enumerate(METRIC_NAMES):
        sign = -1.0 if METRIC_DIRECTIONS[m] == "descending" else 1.0
        ranks[m] = dict(zip(algorithms, mean_in_order(average_ranks(sign * values[k], axis=1)).tolist()))
    return composite_ranking(means, ranks)
