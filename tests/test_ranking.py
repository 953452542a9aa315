"""Per-metric ranks, tie handling, and the composite ordering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from conftest import (
    aggregate_case_means_reference,
    average_ranks,
    make_case_metrics,
    mean_left_to_right,
    per_case_average_ranks_reference,
)
from voxeval import ranking
from voxeval.errors import ValidationError
from voxeval.metrics import METRIC_NAMES
from voxeval.ranking import (
    composite_ranking,
    rank_cases,
    rank_metric,
)
from voxeval.stability import bootstrap_ranks

# Published seven-team leaderboard sample: means of the four metrics
# (dice %, confidence %, calibration error x1e-3, volume CRPS cm^3).
SEVEN_TEAMS = {
    "MedIG": (94.57, 97.87, 1.82, 8.108),
    "PrAEcision": (93.29, 97.18, 2.22, 10.438),
    "BreizhSeg": (92.60, 97.17, 1.61, 12.326),
    "DLAI": (92.72, 96.23, 3.90, 12.625),
    "BCNAIM": (90.52, 95.88, 6.21, 9.727),
    "CAI4CAI": (84.98, 92.10, 4.48, 12.828),
    "PredictED": (85.79, 92.39, 6.64, 25.895),
}
SEVEN_TEAM_VALUES = {
    metric: {team: row[i] for team, row in SEVEN_TEAMS.items()}
    for i, metric in enumerate(("dsc", "confidence", "ece", "crps"))
}
EXPECTED_PER_METRIC_RANKS = {
    "dsc": {"MedIG": 1, "PrAEcision": 2, "BreizhSeg": 4, "DLAI": 3, "BCNAIM": 5, "CAI4CAI": 7, "PredictED": 6},
    "confidence": {"MedIG": 1, "PrAEcision": 2, "BreizhSeg": 3, "DLAI": 4, "BCNAIM": 5, "CAI4CAI": 7, "PredictED": 6},
    "ece": {"MedIG": 2, "PrAEcision": 3, "BreizhSeg": 1, "DLAI": 4, "BCNAIM": 6, "CAI4CAI": 5, "PredictED": 7},
    "crps": {"MedIG": 1, "PrAEcision": 3, "BreizhSeg": 4, "DLAI": 5, "BCNAIM": 2, "CAI4CAI": 6, "PredictED": 7},
}
EXPECTED_COMPOSITES = {
    "MedIG": 1.25,
    "PrAEcision": 2.5,
    "BreizhSeg": 3.0,
    "DLAI": 4.0,
    "BCNAIM": 4.5,
    "CAI4CAI": 6.25,
    "PredictED": 6.5,
}
EXPECTED_ORDER = ("MedIG", "PrAEcision", "BreizhSeg", "DLAI", "BCNAIM", "CAI4CAI", "PredictED")


def test_seven_team_per_metric_ranks():
    got = rank_metric(SEVEN_TEAM_VALUES["dsc"], "descending")
    assert got == EXPECTED_PER_METRIC_RANKS["dsc"]


def test_seven_team_composite_table():
    table = composite_ranking(SEVEN_TEAM_VALUES)
    assert tuple(r.algorithm for r in table.rows) == EXPECTED_ORDER
    for row in table.rows:
        assert row.composite == EXPECTED_COMPOSITES[row.algorithm]
        for metric, expected in EXPECTED_PER_METRIC_RANKS.items():
            assert row.ranks[metric] == expected[row.algorithm]


def test_tie_averaging():
    assert rank_metric({"a": 1.0, "b": 1.0}, "ascending") == {"a": 1.5, "b": 1.5}
    assert rank_metric({"a": 2.0, "b": 1.0, "c": 1.0}, "ascending") == {"a": 3.0, "b": 1.5, "c": 1.5}


def test_single_algorithm():
    assert rank_metric({"only": 0.7}, "descending") == {"only": 1.0}


def test_nan_value_names_the_algorithm():
    with pytest.raises(ValidationError, match="'bad'"):
        rank_metric({"ok": 1.0, "bad": float("nan")}, "ascending")


def test_full_tie_composites():
    values = {m: {a: 0.5 for a in "abcde"} for m in ("dsc", "confidence", "ece", "crps")}
    table = composite_ranking(values)
    for row in table.rows:
        assert row.composite == 3.0  # (K + 1) / 2 with K = 5
    # deterministic final order by name when everything ties
    assert tuple(r.algorithm for r in table.rows) == ("a", "b", "c", "d", "e")


def test_dominance_gives_integer_composites():
    values = {
        "dsc": {"win": 0.9, "lose": 0.5},
        "confidence": {"win": 0.95, "lose": 0.6},
        "ece": {"win": 0.01, "lose": 0.2},
        "crps": {"win": 1.0, "lose": 5.0},
    }
    table = composite_ranking(values)
    assert [r.composite for r in table.rows] == [1.0, 2.0]
    assert tuple(r.algorithm for r in table.rows) == ("win", "lose")


def test_composite_tie_break_prefers_lower_ece_then_crps():
    # symmetric composites: a wins dsc+confidence, b wins ece+crps
    values = {
        "dsc": {"a": 0.9, "b": 0.8},
        "confidence": {"a": 0.9, "b": 0.8},
        "ece": {"a": 0.2, "b": 0.1},
        "crps": {"a": 5.0, "b": 4.0},
    }
    table = composite_ranking(values)
    assert table.rows[0].composite == table.rows[1].composite == 1.5
    assert tuple(r.algorithm for r in table.rows) == ("b", "a")  # lower calibration error wins the tie


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
def test_rank_mass_is_conserved(values):
    named = {f"a{i}": v for i, v in enumerate(values)}
    k = len(named)
    for direction in ("ascending", "descending"):
        ranks = rank_metric(named, direction)
        assert math.isclose(sum(ranks.values()), k * (k + 1) / 2, rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=2, max_size=9, unique=True))
def test_scale_invariance_under_monotone_transforms(eighths):
    # dyadic, well-separated values: the transforms stay injective in float64
    named = {f"a{i}": k / 8.0 for i, k in enumerate(eighths)}
    base = rank_metric(named, "ascending")
    for transform in (lambda v: 2.0 * v + 5.0, math.log, lambda v: v**3):
        assert rank_metric({k: transform(v) for k, v in named.items()}, "ascending") == base


# Finite keys that stress tie detection: signed zeros, one-ulp neighbours,
# subnormals and extremes, mixed with arbitrary finite floats.
ONE_ULP = [0.3, float(np.nextafter(0.3, 1.0)), float(np.nextafter(0.3, -1.0))]
TIE_POOL = [0.0, -0.0, 1.0, -1.0, *ONE_ULP, 5e-324, -5e-324, 1.7e308, -1.7e308]
RANK_KEYS = st.one_of(st.sampled_from(TIE_POOL), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def key_matrices(draw):
    """(rows, cols) keys; some rows are made all-equal."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    keys = np.array(draw(st.lists(st.lists(RANK_KEYS, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
    flat = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    keys[flat] = keys[flat, :1]
    return keys


def assert_same_bytes(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(RANK_KEYS, min_size=1, max_size=20))
def test_average_ranks_matches_scipy_1d(values):
    for keys in (values, [-v for v in values]):  # ascending and descending metrics
        assert_same_bytes(ranking.average_ranks(keys), rankdata(keys, method="average"))


@settings(max_examples=200, deadline=None)
@given(key_matrices())
def test_average_ranks_matches_scipy_rowwise(keys):
    for signed in (keys, -keys):
        assert_same_bytes(ranking.average_ranks(signed, axis=1), rankdata(signed, method="average", axis=1))


@pytest.mark.parametrize(
    "keys",
    [[2.5], [0.0, -0.0, 0.0], ONE_ULP, [[7.0, 7.0, 7.0], [1.0, -0.0, 0.0]], [[3.0], [1.0]]],
    ids=["length-1", "signed-zeros", "one-ulp", "all-equal-row", "one-column"],
)
def test_average_ranks_edge_cases_match_scipy(keys):
    axis = np.ndim(keys) - 1
    assert_same_bytes(ranking.average_ranks(keys, axis=axis), rankdata(keys, method="average", axis=axis))


def test_ranks_match_direct_enumeration(rng):
    values = list(rng.integers(0, 5, size=8).astype(float))  # plenty of ties
    named = {f"a{i}": v for i, v in enumerate(values)}
    expected = average_ranks(values)
    got = rank_metric(named, "ascending")
    assert [got[f"a{i}"] for i in range(8)] == expected


def test_improving_one_metric_never_worsens_composite(rng):
    for _ in range(30):
        values = {
            m: {f"a{i}": float(rng.random()) for i in range(5)}
            for m in ("dsc", "confidence", "ece", "crps")
        }
        before = {r.algorithm: r.composite for r in composite_ranking(values).rows}
        improved = {m: dict(v) for m, v in values.items()}
        improved["dsc"]["a0"] = 2.0  # strictly best, no tie crossings
        after = {r.algorithm: r.composite for r in composite_ranking(improved).rows}
        assert after["a0"] <= before["a0"]


def test_missing_metric_rejected():
    with pytest.raises(ValidationError, match="missing metrics"):
        composite_ranking({"dsc": {"a": 1.0}})


def test_inconsistent_coverage_rejected():
    values = {m: {"a": 1.0, "b": 2.0} for m in ("dsc", "confidence", "ece")}
    values["crps"] = {"a": 1.0}
    with pytest.raises(ValidationError, match="crps"):
        composite_ranking(values)


def test_rank_cases_aggregates_means_then_ranks():
    cms = [
        make_case_metrics("c1", "x", dsc=0.9, confidence=0.9, ece=0.01, crps=1.0),
        make_case_metrics("c2", "x", dsc=0.7, confidence=0.8, ece=0.03, crps=3.0),
        make_case_metrics("c1", "y", dsc=0.6, confidence=0.7, ece=0.05, crps=4.0),
        make_case_metrics("c2", "y", dsc=0.5, confidence=0.6, ece=0.07, crps=6.0),
    ]
    table = rank_cases(cms)
    by_alg = {r.algorithm: r for r in table.rows}
    assert math.isclose(by_alg["x"].values["dsc"], 0.8, rel_tol=1e-12)
    assert by_alg["x"].final_rank == 1 and by_alg["y"].final_rank == 2


def test_per_case_rank_mode_differs_when_outlier_dominates():
    # y wins one case by a mile, x wins two cases narrowly:
    # mean-then-rank favors y on this metric, rank-then-average favors x
    cms = [
        make_case_metrics("c1", "x", dsc=0.61, confidence=0.5, ece=0.1, crps=1.0),
        make_case_metrics("c1", "y", dsc=0.60, confidence=0.5, ece=0.1, crps=1.0),
        make_case_metrics("c2", "x", dsc=0.61, confidence=0.5, ece=0.1, crps=1.0),
        make_case_metrics("c2", "y", dsc=0.60, confidence=0.5, ece=0.1, crps=1.0),
        make_case_metrics("c3", "x", dsc=0.10, confidence=0.5, ece=0.1, crps=1.0),
        make_case_metrics("c3", "y", dsc=0.90, confidence=0.5, ece=0.1, crps=1.0),
    ]
    mean_then_rank = rank_cases(cms)
    rank_then_mean = rank_cases(cms, per_case_ranks=True)
    assert {r.algorithm: r.ranks["dsc"] for r in mean_then_rank.rows} == {"x": 2.0, "y": 1.0}
    assert {r.algorithm: r.ranks["dsc"] for r in rank_then_mean.rows} == {
        "x": (1 + 1 + 2) / 3,
        "y": (2 + 2 + 1) / 3,
    }


def case_grid(n_cases, n_algorithms, draw):
    """Sorted (case, algorithm) metrics; ``draw()`` gives each pair's four values."""
    return [
        make_case_metrics(f"c{j:02d}", f"a{i}", *map(float, draw()))
        for j in range(n_cases)
        for i in range(n_algorithms)
    ]


def rank_cases_reference(case_metrics, per_case_ranks):
    values = aggregate_case_means_reference(case_metrics)
    ranks = per_case_average_ranks_reference(case_metrics) if per_case_ranks else None
    return composite_ranking(values, ranks)


@pytest.mark.parametrize("per_case_ranks", [False, True], ids=["means", "per-case"])
def test_rank_cases_is_bit_identical_to_the_dict_reference(per_case_ranks):
    rng = np.random.default_rng(15)
    grids = [
        case_grid(n_cases, n_algorithms, lambda: rng.random(4))
        for n_cases, n_algorithms in ((1, 1), (3, 2), (9, 5), (17, 7))
    ]
    grids += [case_grid(12, 6, lambda: rng.choice([0.25, 0.5, 0.75], 4))]  # exact ties
    # one algorithm over 16 cases: a pairwise sum of the column rounds differently
    single = case_grid(16, 1, lambda: rng.random(4))
    columns = [[cm.metric_mean(m) for cm in single] for m in METRIC_NAMES]
    assert any(np.array(c)[:, None].mean(axis=0)[0] != mean_left_to_right(c) for c in columns)
    for cms in grids + [single]:
        assert rank_cases(cms, per_case_ranks).rows == rank_cases_reference(cms, per_case_ranks).rows
    shuffled = list(grids[3])
    rng.shuffle(shuffled)
    assert rank_cases(shuffled, per_case_ranks) == rank_cases(grids[3], per_case_ranks)


@pytest.mark.parametrize("per_case_ranks", [False, True], ids=["means", "per-case"])
@pytest.mark.parametrize(
    "faults, named",
    [
        ([("c01", "a1", "confidence", math.nan)], ("confidence", "a1", "c01")),
        # both schemes and the bootstrap name the first fault by metric, then algorithm, then case
        ([("c02", "a0", "confidence", math.nan), ("c01", "a2", "crps", math.inf)], ("confidence", "a0", "c02")),
        (
            [("c02", "a0", "confidence", math.nan), ("c01", "a2", "crps", math.inf),
             ("c00", "a1", "confidence", -math.inf)],
            ("confidence", "a0", "c02"),
        ),
    ],
    ids=["one", "two", "three"],
)
def test_non_finite_value_is_reported_like_the_dict_reference(per_case_ranks, faults, named):
    cms = case_grid(3, 3, lambda: (0.5, 0.5, 0.1, 1.0))
    for case_id, algorithm, metric, value in faults:
        k = next(i for i, cm in enumerate(cms) if (cm.case_id, cm.algorithm) == (case_id, algorithm))
        row = dict(zip(METRIC_NAMES, (0.5, 0.5, 0.1, 1.0)), **{metric: value})
        cms[k] = make_case_metrics(case_id, algorithm, *row.values())
    with pytest.raises(ValidationError):
        rank_cases_reference(cms, per_case_ranks)
    message = "non-finite {} value for algorithm {!r}, case {!r}".format(*named)
    with pytest.raises(ValidationError) as got:
        rank_cases(cms, per_case_ranks)
    assert str(got.value) == message
    with pytest.raises(ValidationError) as got:
        bootstrap_ranks(cms, iterations=3)
    assert str(got.value) == message


@pytest.mark.parametrize("per_case_ranks", [False, True], ids=["means", "per-case"])
def test_rank_cases_rejects_duplicate_pairs_and_gaps(per_case_ranks):
    cms = case_grid(2, 2, lambda: (0.5, 0.5, 0.1, 1.0))
    with pytest.raises(ValidationError, match="^duplicate metrics for case 'c00', algorithm 'a1'$"):
        rank_cases(cms + [cms[1]], per_case_ranks)
    with pytest.raises(ValidationError, match="^algorithm 'a1' has no metrics for case 'c01'$"):
        rank_cases(cms[:-1], per_case_ranks)
