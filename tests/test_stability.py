"""Bootstrap ranking stability: determinism, structure, and a full
re-implementation of the resample loop as oracle."""

import dataclasses
import json
import math
import statistics

import numpy as np
import pytest

from conftest import (
    average_ranks,
    bootstrap_ranks_reference,
    expected_rank_spread,
    make_case_metrics,
    rank_sum_identity,
)
from voxeval import stability
from voxeval.errors import ParameterError, ValidationError
from voxeval.metrics import METRIC_NAMES
from voxeval.stability import bootstrap_ranks, bubble_export


def synthetic_metrics(rng, n_cases=10, n_algorithms=4, spread=0.2):
    cms = []
    for j in range(n_algorithms):
        base = 0.9 - 0.1 * j
        for i in range(n_cases):
            noise = spread * float(rng.random())
            cms.append(
                make_case_metrics(
                    f"case{i:02d}",
                    f"alg{j}",
                    dsc=base + noise,
                    confidence=base + noise / 2,
                    ece=0.01 * (j + 1) + 0.01 * float(rng.random()),
                    crps=float(j + 1) + float(rng.random()),
                )
            )
    return cms


def summary_as_json(summary):
    def default(o):
        if dataclasses.is_dataclass(o):
            return dataclasses.asdict(o)
        raise TypeError(type(o))

    return json.dumps(dataclasses.asdict(summary), sort_keys=True, default=default)


def reimplemented_bootstrap(case_metrics, iterations, seed):
    """Plain-Python resample loop sharing only the RNG stream scheme."""
    case_ids = sorted({m.case_id for m in case_metrics})
    algorithms = sorted({m.algorithm for m in case_metrics})
    lookup = {(m.case_id, m.algorithm): m for m in case_metrics}
    direction_sign = {"dsc": -1.0, "confidence": -1.0, "ece": 1.0, "crps": 1.0}
    sums = {m: {a: 0.0 for a in algorithms} for m in METRIC_NAMES}
    per_iteration_rank_sums = []
    tallies = {m: {a: {} for a in algorithms} for m in METRIC_NAMES}
    for i in range(iterations):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        idx = [int(k) for k in gen.integers(0, len(case_ids), size=len(case_ids))]
        chosen = [case_ids[k] for k in idx]
        for metric in METRIC_NAMES:
            keyed = [
                direction_sign[metric]
                * statistics.fmean(lookup[(c, a)].metric_mean(metric) for c in chosen)
                for a in algorithms
            ]
            ranks = average_ranks(keyed)
            per_iteration_rank_sums.append(sum(ranks))
            for a, r in zip(algorithms, ranks):
                sums[metric][a] += r
                tallies[metric][a][r] = tallies[metric][a].get(r, 0) + 1
    means = {m: {a: sums[m][a] / iterations for a in algorithms} for m in METRIC_NAMES}
    return means, per_iteration_rank_sums, tallies


def numpy_draws(high, size, iterations, seed):
    """Row i from its own numpy Generator(PCG64(SeedSequence((seed, i))))."""
    return np.array([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i)))).integers(0, high, size=size)
        for i in range(iterations)
    ]).reshape(iterations, size)


KERNEL_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 7, 2**128 + 3]


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
@pytest.mark.parametrize("n_cases", [1, 2, 3, 7, 30, 1000])
def test_resample_indices_match_numpy_generator(n_cases, seed):
    # a row does not depend on the iteration count, so one reference serves every count
    expected = numpy_draws(n_cases, n_cases, 600, seed)
    for iterations in (1, 255, 257, 600):
        idx = stability._resample_indices(n_cases, iterations, seed)
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, expected[:iterations])


@pytest.mark.parametrize("seed", [0, 2**32, 2**96 + 7, 2**128 + 3])
def test_pcg64_seeds_match_numpy_seeding(seed):
    rows = np.array([0, 1, 2, 255, 256, 4999, 2**31, 2**32 - 1], dtype=np.uint32)
    entropy = [np.full(len(rows), w, dtype=np.uint32) for w in stability._uint32_words(seed)] + [rows]
    state_hi, state_lo, inc_hi, inc_lo = stability._pcg64_seeds(stability._seed_pool(entropy))
    for k, i in enumerate(rows):
        expected = np.random.PCG64(np.random.SeedSequence((seed, int(i)))).state["state"]
        assert int(state_hi[k]) << 64 | int(state_lo[k]) == expected["state"]
        assert int(inc_hi[k]) << 64 | int(inc_lo[k]) == expected["inc"]


@pytest.mark.parametrize("high", [2**31 + 1, 3 * 2**30])
def test_rows_with_a_lemire_rejection_are_redrawn_by_numpy(monkeypatch, high):
    # a quarter to a half of all draws are rejected here; a row without one is drawn in-tree
    expected = numpy_draws(high, 5, 300, 9)
    redrawn = []
    seed_sequence = np.random.SeedSequence

    def spy(entropy):
        redrawn.append(entropy[1])
        return seed_sequence(entropy)

    monkeypatch.setattr(np.random, "SeedSequence", spy)
    np.testing.assert_array_equal(stability._draw_integers(high, 5, 300, 9), expected)
    assert 0 < len(redrawn) < 300


@pytest.mark.parametrize("high", [2**31, 2**32])
def test_draws_without_rejections_match_numpy(high):
    np.testing.assert_array_equal(stability._draw_integers(high, 9, 260, 3), numpy_draws(high, 9, 260, 3))


def test_single_case_has_no_resampling_variance(rng):
    cms = [
        make_case_metrics("only", "a", 0.9, 0.9, 0.01, 1.0),
        make_case_metrics("only", "b", 0.8, 0.8, 0.02, 2.0),
    ]
    summary = bootstrap_ranks(cms, iterations=50, seed=1)
    for metric in METRIC_NAMES:
        s = summary.stats[metric]["a"]
        assert s.std_rank == 0.0
        assert s.rank_frequency == {1.0: 1.0}
        assert s.ci_low == s.mean_rank == s.ci_high == 1.0


def test_per_sample_dominance_concentrates_rank_one(rng):
    cms = []
    for i in range(8):
        cms.append(make_case_metrics(f"c{i}", "strong", 0.9 + 0.001 * i, 0.9, 0.01, 1.0))
        cms.append(make_case_metrics(f"c{i}", "weak", 0.5 + 0.001 * i, 0.5, 0.10, 9.0))
    summary = bootstrap_ranks(cms, iterations=200, seed=3)
    assert summary.stats["dsc"]["strong"].rank_frequency == {1.0: 1.0}
    assert summary.stats["dsc"]["weak"].rank_frequency == {2.0: 1.0}


def test_fixed_seed_is_deterministic(rng):
    cms = synthetic_metrics(rng)
    a = bootstrap_ranks(cms, iterations=120, seed=42)
    b = bootstrap_ranks(cms, iterations=120, seed=42)
    assert summary_as_json(a) == summary_as_json(b)


def tied_metrics(rng, n_cases=13, n_algorithms=5):
    """Values on a coarse grid, and alg1 a copy of alg0, so ranks tie often."""
    cms = []
    for j in range(n_algorithms):
        for i in range(n_cases):
            k = float(rng.integers(0, 3))
            if j == 1:
                cms.append(dataclasses.replace(cms[i], algorithm="alg1"))
                continue
            cms.append(make_case_metrics(f"case{i:02d}", f"alg{j}", 0.5 + 0.25 * k, 0.5, 0.1 * k, 1.0 + k))
    return cms


def near_tie_metrics(rng, n_cases=30):
    """alg1/alg2 sit one ulp above/below alg0 on every case, so whether
    their resampled means tie depends on how the summation rounds."""
    cms = []
    for i in range(n_cases):
        base = make_case_metrics(f"case{i:02d}", "alg0", *(float(v) for v in rng.random(4)))
        cms.append(base)
        for name, toward in (("alg1", math.inf), ("alg2", -math.inf)):
            cms.append(
                make_case_metrics(
                    base.case_id, name,
                    *(math.nextafter(base.metric_mean(m), toward) for m in METRIC_NAMES),
                )
            )
    return cms


REFERENCE_SHAPES = {
    "iterations-1": (synthetic_metrics, 1),
    "iterations-255": (synthetic_metrics, 255),
    "iterations-256": (synthetic_metrics, 256),
    "iterations-257": (synthetic_metrics, 257),
    "iterations-777": (lambda rng: synthetic_metrics(rng, n_cases=30, n_algorithms=12), 777),
    "tied-values": (tied_metrics, 777),
    "near-ties": (near_tie_metrics, 777),
    "single-case": (lambda rng: synthetic_metrics(rng, n_cases=1, n_algorithms=3), 300),
    "single-algorithm": (lambda rng: synthetic_metrics(rng, n_cases=9, n_algorithms=1), 300),
}


@pytest.mark.parametrize("shape", sorted(REFERENCE_SHAPES))
def test_matches_per_iteration_reference_byte_for_byte(rng, shape):
    build, iterations = REFERENCE_SHAPES[shape]
    cms = build(rng)
    block = bootstrap_ranks(cms, iterations=iterations, seed=17)
    reference = bootstrap_ranks_reference(cms, iterations=iterations, seed=17)
    assert summary_as_json(block) == summary_as_json(reference)


@pytest.mark.parametrize("block_iterations", [1, 7, 10_000])
def test_block_size_does_not_change_output(rng, monkeypatch, block_iterations):
    cms = near_tie_metrics(rng)
    expected = summary_as_json(bootstrap_ranks(cms, iterations=300, seed=5))
    monkeypatch.setattr(stability, "BLOCK_ITERATIONS", block_iterations)
    assert summary_as_json(bootstrap_ranks(cms, iterations=300, seed=5)) == expected


def test_matches_reimplemented_loop(rng):
    cms = synthetic_metrics(rng, n_cases=7, n_algorithms=3)
    iterations, seed = 60, 11
    summary = bootstrap_ranks(cms, iterations=iterations, seed=seed)
    means, rank_sums, tallies = reimplemented_bootstrap(cms, iterations, seed)
    assert all(math.isclose(s, rank_sum_identity(3), rel_tol=1e-12) for s in rank_sums)
    for metric in METRIC_NAMES:
        for a in summary.algorithms:
            s = summary.stats[metric][a]
            assert math.isclose(s.mean_rank, means[metric][a], abs_tol=1e-12)
            expected_freq = {r: n / iterations for r, n in tallies[metric][a].items()}
            assert s.rank_frequency == expected_freq
            occupied = sorted(s.rank_frequency)
            assert occupied[0] <= s.median_rank <= occupied[-1]
            assert s.ci_low <= s.mean_rank <= s.ci_high
            assert math.isclose(s.ci_high - s.mean_rank, 1.96 * s.std_rank, rel_tol=1e-12)


def test_mean_rank_mass_is_conserved(rng):
    cms = synthetic_metrics(rng, n_cases=9, n_algorithms=5)
    summary = bootstrap_ranks(cms, iterations=80, seed=5)
    for metric in METRIC_NAMES:
        total = sum(summary.stats[metric][a].mean_rank for a in summary.algorithms)
        assert math.isclose(total, rank_sum_identity(5), rel_tol=1e-12)


def test_different_seeds_stay_within_sanity_band(rng):
    cms = synthetic_metrics(rng, n_cases=20, n_algorithms=4, spread=0.02)
    a = bootstrap_ranks(cms, iterations=400, seed=1)
    b = bootstrap_ranks(cms, iterations=400, seed=2)
    for metric in METRIC_NAMES:
        for alg in a.algorithms:
            sa, sb = a.stats[metric][alg], b.stats[metric][alg]
            band = 10.0 * expected_rank_spread(max(sa.std_rank, 1e-3), 400)
            assert abs(sa.mean_rank - sb.mean_rank) <= band


def test_validation_errors(rng):
    cms = synthetic_metrics(rng, n_cases=2, n_algorithms=2)
    with pytest.raises(ParameterError):
        bootstrap_ranks(cms, iterations=0)
    # the iteration index is one uint32 entropy word: iteration 2**32 would repeat iteration 0's stream
    with pytest.raises(ParameterError, match="iterations must be <= 4294967296, got 4294967297"):
        bootstrap_ranks(cms, iterations=2**32 + 1)
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        bootstrap_ranks(cms, seed=-1)
    with pytest.raises(ValidationError, match="no metrics for case"):
        bootstrap_ranks(cms[:-1])  # drop one (case, algorithm) pair
    with pytest.raises(ValidationError, match="no case metrics"):
        bootstrap_ranks([])


def test_bubble_export_rows(rng):
    cms = [
        make_case_metrics("only", "a", 0.9, 0.9, 0.01, 1.0),
        make_case_metrics("only", "b", 0.8, 0.8, 0.02, 2.0),
    ]
    rows = bubble_export(bootstrap_ranks(cms, iterations=30, seed=2))
    dsc_rows = [r for r in rows if r["metric"] == "dsc"]
    assert len(dsc_rows) == 2  # one occupied rank per algorithm
    assert all(r["frequency_pct"] == 100.0 for r in dsc_rows)
    assert dsc_rows[0]["algorithm"] == "a" and dsc_rows[0]["x_order"] == 0


def test_bubble_export_matches_tally_oracle(rng):
    cms = synthetic_metrics(rng, n_cases=6, n_algorithms=3, spread=0.35)
    iterations, seed = 90, 13
    rows = bubble_export(bootstrap_ranks(cms, iterations=iterations, seed=seed))
    _, _, tallies = reimplemented_bootstrap(cms, iterations, seed)
    for row in rows:
        expected = 100.0 * tallies[row["metric"]][row["algorithm"]][row["rank"]] / iterations
        assert math.isclose(row["frequency_pct"], expected, rel_tol=1e-12)
    # row count equals total occupied (metric, algorithm, rank) triples
    n_occupied = sum(len(t) for per_alg in tallies.values() for t in per_alg.values())
    assert len(rows) == n_occupied


def test_bubble_x_ordering_follows_median_rank(rng):
    cms = synthetic_metrics(rng, n_cases=12, n_algorithms=4, spread=0.3)
    summary = bootstrap_ranks(cms, iterations=100, seed=9)
    rows = bubble_export(summary)
    for metric in METRIC_NAMES:
        seen = {}
        for r in rows:
            if r["metric"] == metric:
                seen.setdefault(r["x_order"], r["algorithm"])
        medians = [summary.stats[metric][seen[i]].median_rank for i in sorted(seen)]
        assert medians == sorted(medians)
