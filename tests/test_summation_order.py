"""Every published mean adds its terms in one order on every Python version.

From Python 3.12 the built-in ``sum`` of floats is compensated (Neumaier
1974); up to 3.11 it adds left to right. ``metrics.mean_in_order`` adds
left to right everywhere, and the bootstrap takes its resample means the
same way. ``sum_312`` below ports CPython 3.12's float loop, so these tests
show on any Python that no result depends on which ``sum`` is in use.
"""

import math

import numpy as np
import pytest
from conftest import make_case_metrics, mean_left_to_right, one_hot_volume, probability_volume
from test_cece import perturbed_raters

from voxeval import metrics, ranking, report, stability
from voxeval.manifest import CaseEntry, DatasetManifest
from voxeval.metrics import METRIC_NAMES, EvalConfig, evaluate_case, mean_in_order
from voxeval.ranking import METRIC_DIRECTIONS, rank_cases
from voxeval.report import aggregate
from voxeval.stability import bootstrap_ranks


def sum_312(iterable, start=0):
    """CPython 3.12's built-in ``sum`` for ints and floats.

    Ints add exactly until the first float joins by a plain ``+``; from
    then on each float is added with Neumaier's compensation, an int
    without, and the compensation is added back once at the end when it
    is nonzero and finite.
    """
    items = iter(iterable)
    total = start
    for x in items:
        total = total + x
        if isinstance(x, float):
            break
    else:
        return total
    compensation = 0.0
    for x in items:
        if not isinstance(x, float):
            total += float(x)
            continue
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_mean_in_order_adds_left_to_right_from_zero():
    assert mean_in_order([1e16, 1.0, -1e16]) == 0.0
    assert sum_312([1e16, 1.0, -1e16]) == 1.0
    negative_zero = float(mean_in_order([-0.0]))
    assert negative_zero == 0.0 and math.copysign(1.0, negative_zero) == 1.0
    rows = np.random.default_rng(16).random((17, 5)) * 10.0 ** np.arange(-2, 3)
    assert mean_in_order(rows).tolist() == [mean_left_to_right(column) for column in rows.T.tolist()]


def evaluated_cases(n_cases, n_algorithms, config):
    """Leaderboard-like case metrics: three raters that mostly agree, and
    predictions that lean to the first rater's labels, on small random grids."""
    rng = np.random.default_rng(1612)
    dims = (8, 7, 6)
    cms = []
    for j in range(n_cases):
        raters = perturbed_raters(rng, dims, 3)
        for i in range(n_algorithms):
            raw = rng.random((4, *dims)) + 2.0 * one_hot_volume(raters[0]).channels
            pred = probability_volume(raw / raw.sum(axis=0))
            cms.append(evaluate_case(pred, raters, config, f"c{j:02d}", f"a{i}"))
    return cms


def published(cms, tmp_path):
    groups = {cm.case_id: "ABC"[int(cm.case_id[1:]) % 3] for cm in cms}
    manifest = DatasetManifest(
        tmp_path / "m.json",
        tuple(CaseEntry(c, g, (tmp_path,), {}) for c, g in sorted(groups.items())),
    )
    return (
        rank_cases(cms),
        rank_cases(cms, per_case_ranks=True),
        aggregate(cms, manifest),
        bootstrap_ranks(cms, iterations=40, seed=3),
    )


@pytest.mark.parametrize("ece_per_class", [False, True], ids=["multiclass-ece", "per-class-ece"])
def test_published_results_do_not_depend_on_the_python_sum(monkeypatch, tmp_path, ece_per_class):
    config = EvalConfig(ece_per_class=ece_per_class)
    cms = evaluated_cases(9, 4, config)
    want = published(cms, tmp_path)

    # the data tell the two sums apart, in the organ means and in the case means
    def differs(values):
        return sum_312(values) / len(values) != mean_left_to_right(values)

    for field in ("dsc", "c_seg", "crps"):
        assert any(differs([v for v in getattr(cm, field).values() if v is not None]) for cm in cms)
    columns = [[cm.metric_mean(m) for cm in cms if cm.algorithm == a] for m in METRIC_NAMES for a in ("a0", "a1")]
    assert any(differs(c) for c in columns)

    with monkeypatch.context() as patched:
        for module in (metrics, ranking, report, stability):
            patched.setattr(module, "sum", sum_312, raising=False)
        got_cms = evaluated_cases(9, 4, config)
        got = published(got_cms, tmp_path)
    assert got_cms == cms
    for g, w in zip(got, want):
        assert g == w


@pytest.mark.parametrize("n_algorithms", [1, 5])
def test_a_resample_of_every_case_in_order_gives_the_published_means(monkeypatch, n_algorithms):
    rng = np.random.default_rng(17)
    cms = [
        make_case_metrics(f"c{j:02d}", f"a{i}", *map(float, rng.random(4) * [1.0, 1.0, 0.1, 30.0]))
        for j in range(17)
        for i in range(n_algorithms)
    ]
    if n_algorithms == 1:  # numpy's pairwise mean of one column rounds differently here
        columns = [[cm.metric_mean(m) for cm in cms] for m in METRIC_NAMES]
        assert any(np.mean(c) != mean_left_to_right(c) for c in columns)

    seen = []  # the signed means each metric's block is ranked on
    stability_ranks = stability.average_ranks

    def record(signed, axis):
        seen.append(signed.copy())
        return stability_ranks(signed, axis)

    def every_case_in_order(n_cases, iterations, seed):
        return np.tile(np.arange(n_cases), (iterations, 1))

    monkeypatch.setattr(stability, "average_ranks", record)
    monkeypatch.setattr(stability, "_resample_indices", every_case_in_order)
    bootstrap_ranks(cms, iterations=2)

    table = rank_cases(cms)
    for metric, signed in zip(METRIC_NAMES, seen, strict=True):
        sign = -1.0 if METRIC_DIRECTIONS[metric] == "descending" else 1.0
        expected = [row.values[metric] for row in sorted(table.rows, key=lambda r: r.algorithm)]
        for means in sign * signed:
            assert means.tolist() == expected
