"""Bootstrap analysis of ranking stability.

Cases are resampled with replacement (a case carries every algorithm's
metrics with it); each iteration recomputes per-algorithm mean metrics,
ranks them, and the rank tallies are summarized per (algorithm, metric)
as mean/std/median rank, a +-1.96 sigma interval, and the
rank-frequency distribution behind bubble plots.

Reproducibility: iteration i draws its indices from numpy's PCG64
seeded with SeedSequence((seed, i)), so any other implementation of the
same scheme can match the numbers exactly.

Design: the resample indices of all iterations are drawn first into one
(iterations, n_cases) matrix. Iterations are then ranked BLOCK_ITERATIONS
at a time, one gather, mean and ``rankdata`` call per block and metric.
Each mean sums its resampled cases in draw order, exactly as a loop over
single iterations would, so no output byte depends on the block size.
The block bounds the gather buffer to BLOCK_ITERATIONS x n_cases x
n_algorithms floats.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .errors import ParameterError, ValidationError
from .metrics import METRIC_NAMES, CaseMetrics
from .ranking import METRIC_DIRECTIONS

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


def _metric_matrix(case_metrics: list[CaseMetrics], metric: str):
    """-> (algorithms, case_ids, values[algo, case]) with coverage checks."""
    case_ids = sorted({m.case_id for m in case_metrics})
    algorithms = sorted({m.algorithm for m in case_metrics})
    index: dict[tuple[str, str], CaseMetrics] = {}
    for m in case_metrics:
        key = (m.case_id, m.algorithm)
        if key in index:
            raise ValidationError(f"duplicate metrics for case {m.case_id!r}, algorithm {m.algorithm!r}")
        index[key] = m
    values = np.empty((len(algorithms), len(case_ids)))
    for i, a in enumerate(algorithms):
        for j, c in enumerate(case_ids):
            m = index.get((c, a))
            if m is None:
                raise ValidationError(f"algorithm {a!r} has no metrics for case {c!r}")
            values[i, j] = m.metric_mean(metric)
    if not np.isfinite(values).all():
        i, j = np.unravel_index(int(np.argmin(np.isfinite(values))), values.shape)
        raise ValidationError(
            f"non-finite {metric} value for algorithm {algorithms[i]!r}, case {case_ids[j]!r}"
        )
    return algorithms, case_ids, values


def _resample_indices(n_cases: int, iterations: int, seed: int) -> np.ndarray:
    """-> (iterations, n_cases) case indices; row i from SeedSequence((seed, i))."""
    idx = np.empty((iterations, n_cases), dtype=np.int64)
    for i in range(iterations):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        idx[i] = rng.integers(0, n_cases, size=n_cases)
    return idx


def _block_ranks(values: np.ndarray, idx: np.ndarray, direction: str) -> np.ndarray:
    """-> (iterations, n_alg) tie-averaged ranks of the resampled means, 1 = best.

    ``values.T[block]`` is C-ordered (block, n_cases, n_alg), so each mean
    adds its cases one at a time in draw order, algorithms on the inner
    axis: the summation numpy gives a single iteration's ``values[:, idx]``.
    """
    sign = -1.0 if direction == "descending" else 1.0
    by_case = values.T
    ranks = np.empty((len(idx), len(values)))
    for start in range(0, len(idx), BLOCK_ITERATIONS):
        block = idx[start : start + BLOCK_ITERATIONS]
        means = by_case[block].mean(axis=1)
        ranks[start : start + len(block)] = rankdata(sign * means, method="average", axis=1)
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

    matrices = {}
    for metric in METRIC_NAMES:
        algorithms, case_ids, values = _metric_matrix(case_metrics, metric)
        matrices[metric] = values
    idx = _resample_indices(len(case_ids), iterations, seed)

    stats: dict[str, dict[str, RankStats]] = {}
    for metric in METRIC_NAMES:
        ranks = _block_ranks(matrices[metric], idx, METRIC_DIRECTIONS[metric])
        stats[metric] = {}
        for j, a in enumerate(algorithms):
            column = ranks[:, j]
            mean = float(column.mean())
            std = float(column.std())
            occupied, counts = np.unique(column, return_counts=True)
            freq = {float(r): float(c) / iterations for r, c in zip(occupied, counts)}
            stats[metric][a] = RankStats(
                mean_rank=mean,
                std_rank=std,
                median_rank=float(np.median(column)),
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
