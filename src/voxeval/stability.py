"""Bootstrap analysis of ranking stability.

Cases are resampled with replacement (a case carries every algorithm's
metrics with it); each iteration recomputes per-algorithm mean metrics,
ranks them, and the rank tallies are summarized per (algorithm, metric)
as mean/std/median rank, a +-1.96 sigma interval, and the
rank-frequency distribution behind bubble plots.

Reproducibility: iteration i draws its indices from numpy's PCG64
seeded with SeedSequence((seed, i)), so any other implementation of the
same scheme can match the numbers exactly.

How the resample matrix is drawn: ``_draw_integers`` runs that scheme
in-tree, for all iterations at once, in numpy uint64 arithmetic, and gives
numpy's ``Generator`` indices bit for bit without importing
``numpy.random``. SeedSequence's hash mixing runs elementwise over the
iteration index, which is the only entropy word that differs between rows,
and yields every row's seeded PCG64 state and increment. PCG64 is a 128-bit
LCG with multiplier M: each 64-bit output steps every row once,
state = state * M + inc mod 2**128 in (hi, lo) uint64 halves, and is the
XSL-RR of the new state. Each output gives two 32-bit draws, low half
first, and ``integers(0, n)`` maps a draw u to (u * n) >> 32 (Lemire).
Where the low 32 bits of that product fall below (2**32 - n) % n, numpy
would reject the draw and draw again; that happens to about 4 in 10**9
draws at 30 cases, and such a row is redrawn through numpy's own Generator.
The iteration index is one 32-bit entropy word, so at most MAX_ITERATIONS
iterations are drawn.

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
#: The most bootstrap iterations: iteration i seeds from SeedSequence((seed, i)) with i one uint32 word.
MAX_ITERATIONS = 2**32


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


# numpy.random.SeedSequence's hash constants and PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_POOL_SIZE = 4
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _resample_indices(n_cases: int, iterations: int, seed: int) -> np.ndarray:
    """-> (iterations, n_cases) case indices; row i from SeedSequence((seed, i))."""
    return _draw_integers(n_cases, n_cases, iterations, seed)


def _draw_integers(high: int, size: int, iterations: int, seed: int) -> np.ndarray:
    """-> (iterations, size) int64 matrix whose row i is
    ``Generator(PCG64(SeedSequence((seed, i)))).integers(0, high, size=size)``.

    Needs ``1 <= high <= 2**32``, ``iterations <= MAX_ITERATIONS`` and
    ``seed >= 0``. Every row's stream is seeded at once, then stepped once per
    64-bit output, all rows together. A row in which any draw hits a Lemire
    rejection is drawn again through numpy's own Generator.
    """
    entropy = [np.full(iterations, w, dtype=np.uint32) for w in _uint32_words(seed)]
    state_hi, state_lo, inc_hi, inc_lo = _pcg64_seeds(_seed_pool(entropy + [np.arange(iterations, dtype=np.uint32)]))
    threshold = (2**32 - high) % high
    out = np.empty((iterations, size), dtype=np.int64)
    rejected = np.zeros(iterations, dtype=bool)
    for k in range(0, size, 2):  # each 64-bit output gives two 32-bit draws, low half first
        state_hi, state_lo = _pcg64_step(state_hi, state_lo, inc_hi, inc_lo)
        word = _xsl_rr(state_hi, state_lo)
        for j, draw in enumerate((word & _MASK32, word >> 32)[: size - k]):
            scaled = draw * high
            out[:, k + j] = scaled >> 32
            rejected |= (scaled & _MASK32) < threshold
    for i in np.flatnonzero(rejected):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, int(i)))))
        out[i] = rng.integers(0, high, size=size)
    return out


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's 32-bit words of a non-negative int, least significant first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's mixed 4-word entropy pool, one uint32 array element per row."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ value >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:  # entropy past the pool: a seed >= 2**96
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg64_seeds(pool: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """-> (state hi, state lo, inc hi, inc lo), each (rows,) uint64, of PCG64 seeded
    from each row's ``generate_state(4, uint64)``, whose 32-bit words pair low first."""
    hash_const = _INIT_B
    words = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ value >> 16).astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (words[2 * j] | words[2 * j + 1] << 32 for j in range(4))
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    # pcg_setseq_128_srandom_r: state = (initstate + inc) * M + inc
    return (*_pcg64_step(*_add128(s_hi, s_lo, inc_hi, inc_lo), inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_step(state_hi, state_lo, inc_hi, inc_lo):
    """(hi, lo) of PCG64's next 128-bit state, state * M + inc mod 2**128."""
    hi = _mulhi64(state_lo, _PCG_MULT_LO) + state_lo * _PCG_MULT_HI + state_hi * _PCG_MULT_LO
    return _add128(hi, state_lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _mulhi64(a, b):
    """The high 64 bits of the 128-bit products of uint64 arrays, or of an array and an int below 2**64."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    cross_ab, cross_ba = a0 * b1, a1 * b0
    carry = ((a0 * b0 >> 32) + (cross_ab & _MASK32) + (cross_ba & _MASK32)) >> 32
    return a1 * b1 + (cross_ab >> 32) + (cross_ba >> 32) + carry


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(hi, lo) of a + b mod 2**128, from broadcastable uint64 halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _xsl_rr(hi, lo):
    """PCG64's 64-bit output of each 128-bit state: XOR the halves, rotate right by the top 6 bits."""
    x = hi ^ lo
    rot = hi >> 58
    return x >> rot | x << (64 - rot & 63)


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


def require_iterations_and_seed(iterations: int, seed: int) -> None:
    """The bootstrap's parameter rule: 1 <= iterations <= MAX_ITERATIONS and seed >= 0."""
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    if iterations > MAX_ITERATIONS:
        raise ParameterError(f"iterations must be <= {MAX_ITERATIONS}, got {iterations}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


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
    require_iterations_and_seed(iterations, seed)
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
