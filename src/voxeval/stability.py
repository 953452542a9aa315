"""Bootstrap analysis of ranking stability.

Cases are resampled with replacement (a case carries every algorithm's
metrics with it); each iteration recomputes per-algorithm mean metrics,
ranks them, and the rank tallies are summarized per (algorithm, metric)
as mean/std/median rank, a +-1.96 sigma interval, and the
rank-frequency distribution behind bubble plots.

Reproducibility: iteration i draws its indices from numpy's PCG64
seeded with SeedSequence((seed, i)), so any other implementation of the
same scheme can match the numbers exactly.

Design: the bootstrap resamples the rows of ``ranking.case_table``, the
same validated table ``rank_cases`` ranks, built once per call. The
resample indices of all iterations are drawn first into one
(iterations, n_cases) matrix. Iterations are then ranked BLOCK_ITERATIONS
at a time: per block and metric, one gather and mean, then one row-wise
``ranking.average_ranks`` call, which gives each iteration the ranks
``rank_metric`` would give its means alone. Each mean is
``metrics.mean_in_order`` over the resampled cases in draw order, the
rule ``rank_cases`` follows in sorted case order, so no output byte depends
on the block size, and a resample that draws every case once in order
gives the published means. The block bounds the gather buffer to
BLOCK_ITERATIONS x n_cases x n_algorithms floats.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .metrics import METRIC_NAMES, CaseMetrics, mean_in_order
from .ranking import METRIC_DIRECTIONS, average_ranks, case_table

#: Iterations ranked per vectorized step.
BLOCK_ITERATIONS = 256


@dataclass(frozen=True)
class RankStats:
    mean_rank: float
    std_rank: float
    median_rank: float
    ci_low: float
    ci_high: float
    rank_frequency: dict[float, float]  # occupied rank -> fraction of iterations


@dataclass(frozen=True)
class BootstrapSummary:
    iterations: int
    rng_seed: int
    algorithms: tuple[str, ...]
    metrics: tuple[str, ...]
    stats: dict[str, dict[str, RankStats]]  # metric -> algorithm -> stats


def _resample_indices(n_cases: int, iterations: int, seed: int) -> np.ndarray:
    """-> (iterations, n_cases) case indices; row i from SeedSequence((seed, i))."""
    idx = np.empty((iterations, n_cases), dtype=np.int64)
    for i in range(iterations):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        idx[i] = rng.integers(0, n_cases, size=n_cases)
    return idx


def _block_ranks(values: np.ndarray, idx: np.ndarray, direction: str) -> np.ndarray:
    """-> (iterations, n_alg) tie-averaged ranks of the resampled means, 1 = best.

    ``values`` is one metric's (n_cases, n_alg) table, and
    ``values[block.T]`` the (n_cases, block, n_alg) resampled cases, in
    draw order along the leading axis. ``average_ranks`` ranks each row of
    signed means on its own, so an iteration's ranks equal those
    ``rank_metric`` gives for the same means.
    """
    sign = -1.0 if direction == "descending" else 1.0
    ranks = np.empty((len(idx), values.shape[1]))
    for start in range(0, len(idx), BLOCK_ITERATIONS):
        block = idx[start : start + BLOCK_ITERATIONS]
        means = mean_in_order(values[block.T])
        ranks[start : start + len(block)] = average_ranks(sign * means, axis=1)
    return ranks


def bootstrap_ranks(
    case_metrics: list[CaseMetrics],
    iterations: int = 500,
    seed: int = 0,
) -> BootstrapSummary:
    """Resample cases with replacement and tally the per-metric ranks.

    Deterministic for a given seed: iteration i resamples with its own
    SeedSequence((seed, i)) stream, and the result depends on neither
    BLOCK_ITERATIONS nor the caller's threading.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    if not case_metrics:
        raise ValidationError("no case metrics to bootstrap")

    algorithms, case_ids, values = case_table(case_metrics)
    idx = _resample_indices(len(case_ids), iterations, seed)

    stats: dict[str, dict[str, RankStats]] = {}
    for metric, table in zip(METRIC_NAMES, values):
        ranks = _block_ranks(table, idx, METRIC_DIRECTIONS[metric])
        stats[metric] = {}
        for j, a in enumerate(algorithms):
            column = ranks[:, j]
            mean = float(column.mean())
            std = float(column.std())
            occupied, counts = np.unique(column, return_counts=True)
            # np.median's value, without its NaN check that imports numpy.ma
            ordered = np.sort(column)
            median = (ordered[(iterations - 1) // 2] + ordered[iterations // 2]) / 2
            freq = {float(r): float(c) / iterations for r, c in zip(occupied, counts)}
            stats[metric][a] = RankStats(
                mean_rank=mean,
                std_rank=std,
                median_rank=float(median),
                ci_low=mean - 1.96 * std,
                ci_high=mean + 1.96 * std,
                rank_frequency=freq,
            )
    return BootstrapSummary(
        iterations=iterations,
        rng_seed=seed,
        algorithms=tuple(algorithms),
        metrics=METRIC_NAMES,
        stats=stats,
    )


def bubble_export(summary: BootstrapSummary) -> list[dict]:
    """Plot-ready rows: one per (metric, algorithm, occupied rank).

    Frequencies are percentages. Within each metric, algorithms are
    ordered by ascending median rank (mean rank, then name, break ties),
    so each panel of a downstream bubble plot is sorted by typical rank
    independently.
    """
    rows = []
    for metric in summary.metrics:
        per_alg = summary.stats[metric]
        order = sorted(
            summary.algorithms,
            key=lambda a: (per_alg[a].median_rank, per_alg[a].mean_rank, a),
        )
        for position, a in enumerate(order):
            s = per_alg[a]
            for rank in sorted(s.rank_frequency):
                rows.append(
                    {
                        "metric": metric,
                        "algorithm": a,
                        "x_order": position,
                        "rank": rank,
                        "frequency_pct": 100.0 * s.rank_frequency[rank],
                        "median_rank": s.median_rank,
                        "ci_low": s.ci_low,
                        "ci_high": s.ci_high,
                    }
                )
    return rows
