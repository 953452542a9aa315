"""Group aggregation, correlations, and deterministic file emission."""

import csv
import json
import math

import pytest

from conftest import make_case_metrics, pearson_by_formula, average_ranks
from voxeval.errors import ValidationError
from voxeval.manifest import CaseEntry, DatasetManifest
from voxeval.metrics import METRIC_NAMES, CaseMetrics
from voxeval.ranking import rank_cases
from voxeval.report import aggregate, correlations, emit
from voxeval.stability import bootstrap_ranks, bubble_export


def manifest_stub(tmp_path, groups_by_case):
    cases = tuple(
        CaseEntry(case_id, group, (tmp_path / "r.nii",), {"alg": tmp_path / "p.nii"})
        for case_id, group in groups_by_case.items()
    )
    return DatasetManifest(tmp_path / "manifest.json", cases)


def test_single_group_overall_equals_group_row(tmp_path):
    cms = [
        make_case_metrics("c1", "alg", 0.9, 0.9, 0.01, 1.0),
        make_case_metrics("c2", "alg", 0.7, 0.8, 0.03, 3.0),
    ]
    report = aggregate(cms, manifest_stub(tmp_path, {"c1": "B", "c2": "B"}))
    rows = {(r.group, r.algorithm): r for r in report}
    assert rows[("B", "alg")].means == rows[("overall", "alg")].means
    assert rows[("overall", "alg")].n_cases == 2


def test_overall_is_case_weighted_mean(tmp_path):
    # group A: 2 cases of dsc 0.9; group C: 3 cases of dsc 0.6
    cms = [make_case_metrics(f"a{i}", "alg", 0.9, 0.9, 0.01, 1.0) for i in range(2)]
    cms += [make_case_metrics(f"c{i}", "alg", 0.6, 0.7, 0.02, 2.0) for i in range(3)]
    groups = {f"a{i}": "A" for i in range(2)} | {f"c{i}": "C" for i in range(3)}
    report = aggregate(cms, manifest_stub(tmp_path, groups))
    rows = {(r.group, r.algorithm): r for r in report}
    expected = (2 * 0.9 + 3 * 0.6) / 5  # not the mean of group means (0.75)
    assert math.isclose(rows[("overall", "alg")].means["dsc"], expected, rel_tol=1e-12)
    assert rows[("A", "alg")].means["dsc"] == 0.9
    assert math.isclose(rows[("C", "alg")].means["dsc"], 0.6, rel_tol=1e-12)


def test_aggregate_matches_independent_tabulation(tmp_path, rng):
    cms, groups = [], {}
    for i in range(12):
        case = f"c{i:02d}"
        groups[case] = "ABC"[i % 3]
        for alg in ("x", "y"):
            cms.append(
                make_case_metrics(
                    case, alg,
                    dsc=float(rng.random()),
                    confidence=float(rng.random()),
                    ece=float(rng.random()) / 10,
                    crps=float(rng.random()) * 5,
                )
            )
    report = aggregate(cms, manifest_stub(tmp_path, groups))
    # spreadsheet-style oracle: plain dict accumulation
    sums, ns = {}, {}
    for cm in cms:
        for g in (groups[cm.case_id], "overall"):
            key = (g, cm.algorithm)
            ns[key] = ns.get(key, 0) + 1
            for m in METRIC_NAMES:
                sums[(key, m)] = sums.get((key, m), 0.0) + cm.metric_mean(m)
    for row in report:
        key = (row.group, row.algorithm)
        assert row.n_cases == ns[key]
        for m in METRIC_NAMES:
            assert math.isclose(row.means[m], sums[(key, m)] / ns[key], rel_tol=1e-12)


def test_unknown_case_rejected(tmp_path):
    cms = [make_case_metrics("ghost", "alg", 0.9, 0.9, 0.01, 1.0)]
    with pytest.raises(ValidationError, match="ghost"):
        aggregate(cms, manifest_stub(tmp_path, {"c1": "A"}))


def corr_fixture(rng, n=20):
    cms = []
    for i in range(n):
        dsc = float(rng.random())
        cms.append(
            make_case_metrics(
                f"c{i}", "alg",
                dsc=dsc,
                confidence=dsc,  # duplicated metric
                ece=1.0 - dsc,  # exact negation (up to affine shift)
                crps=float(rng.random()),
            )
        )
    return cms


def test_correlation_extremes(rng):
    cm = correlations(corr_fixture(rng))
    i_dsc, i_conf, i_ece = 0, 1, 2
    assert math.isclose(cm.pearson[i_dsc][i_conf], 1.0, abs_tol=1e-12)
    assert math.isclose(cm.pearson[i_dsc][i_ece], -1.0, abs_tol=1e-12)
    assert math.isclose(cm.spearman[i_dsc][i_conf], 1.0, abs_tol=1e-12)
    for i in range(4):
        assert cm.pearson[i][i] == 1.0


def test_correlations_match_textbook_formulas(rng):
    cms = [
        make_case_metrics(
            f"c{i}", "alg",
            dsc=float(rng.random()),
            confidence=float(rng.random()),
            ece=float(rng.random()),
            crps=float(rng.random()),
        )
        for i in range(20)
    ]
    cm = correlations(cms)
    columns = {
        0: [m.mean_dsc for m in cms],
        1: [m.mean_c_seg for m in cms],
        2: [m.mean_cece for m in cms],
        3: [m.mean_crps for m in cms],
    }
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            assert math.isclose(cm.pearson[i][j], pearson_by_formula(columns[i], columns[j]), abs_tol=1e-12)
            assert math.isclose(
                cm.spearman[i][j],
                pearson_by_formula(average_ranks(columns[i]), average_ranks(columns[j])),
                abs_tol=1e-12,
            )
    assert cm.n_points == 20
    # symmetry and range
    for i in range(4):
        for j in range(4):
            assert cm.pearson[i][j] == cm.pearson[j][i]
            assert -1.0 - 1e-12 <= cm.pearson[i][j] <= 1.0 + 1e-12


def test_zero_variance_metric_marked_undefined(rng):
    cms = [
        make_case_metrics(f"c{i}", "alg", dsc=float(rng.random()), confidence=0.5, ece=float(rng.random()), crps=1.0)
        for i in range(5)
    ]
    cm = correlations(cms)
    i_conf = 1
    assert cm.pearson[i_conf][i_conf] == 1.0
    assert all(cm.pearson[i_conf][j] is None for j in range(4) if j != i_conf)
    assert all(cm.pearson[j][i_conf] is None for j in range(4) if j != i_conf)


def test_per_organ_pooling_triples_the_points(rng):
    cms = [
        make_case_metrics(f"c{i}", "alg", float(rng.random()), float(rng.random()), float(rng.random()), float(rng.random()))
        for i in range(4)
    ]
    assert correlations(cms, per_organ=True).n_points == 12


def test_too_few_points_give_undefined_correlations():
    cms = [make_case_metrics("c1", alg, 0.5, 0.5, 0.1, 1.0) for alg in ("x", "y")]
    cm = correlations(cms)
    assert cm.pearson is None and cm.spearman is None
    assert (cm.n_points, cm.pooling) == (2, "case")


def full_artifact_inputs(tmp_path, rng):
    cms, groups = [], {}
    for i in range(6):
        case = f"c{i}"
        groups[case] = "AB"[i % 2]
        for j, alg in enumerate(("x", "y", "z")):
            cms.append(
                make_case_metrics(
                    case, alg,
                    dsc=0.9 - 0.1 * j + 0.01 * float(rng.random()),
                    confidence=0.9 - 0.05 * j,
                    ece=0.01 * (j + 1),
                    crps=1.0 + j + 0.1 * float(rng.random()),
                )
            )
    manifest = manifest_stub(tmp_path, groups)
    boot = bootstrap_ranks(cms, iterations=40, seed=7)
    return dict(
        case_metrics=cms,
        manifest=manifest,
        ranking=rank_cases(cms),
        bootstrap=boot,
        bubbles=bubble_export(boot),
        groups=aggregate(cms, manifest),
        correlation=correlations(cms),
        run_meta={"tool": "voxeval", "version": "test", "config": {"seed": 7}},
    )


EXPECTED_FILES = {
    "cases.csv", "cases.json", "ranking.csv", "ranking.json", "groups.csv", "groups.json",
    "bootstrap.csv", "bootstrap.json", "bubbles.csv", "correlations.json", "run_meta.json",
}


def test_emit_writes_deterministic_artifact_set(tmp_path, rng):
    inputs = full_artifact_inputs(tmp_path, rng)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    written = emit(out1, **inputs)
    emit(out2, **inputs)
    assert {p.name for p in written} == EXPECTED_FILES
    for name in sorted(EXPECTED_FILES):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cases_csv_round_trips_raw_values(tmp_path, rng):
    inputs = full_artifact_inputs(tmp_path, rng)
    out = tmp_path / "o"
    emit(out, **inputs)
    with open(out / "cases.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    by_key = {(cm.case_id, cm.algorithm): cm for cm in inputs["case_metrics"]}
    assert len(rows) == len(by_key)
    for row in rows:
        cm = by_key[(row["case_id"], row["algorithm"])]
        assert math.isclose(float(row["dsc_pct_mean"]) / 100.0, cm.mean_dsc, rel_tol=1e-9)
        assert math.isclose(float(row["ece_x1e3_mean"]) / 1000.0, cm.mean_cece, rel_tol=1e-9)
        assert math.isclose(float(row["crps_cm3_mean"]), cm.mean_crps, rel_tol=1e-9)
    # JSON twin stores raw values exactly
    records = json.loads((out / "cases.json").read_text())
    for rec in records:
        cm = by_key[(rec["case_id"], rec["algorithm"])]
        assert rec["mean_dsc"] == cm.mean_dsc


def test_cases_csv_writes_numpy_floats_as_plain_numbers(tmp_path):
    import numpy as np

    def emitted(out, number):
        cms = [
            make_case_metrics(case, alg, number(0.9 - 0.1 * j), number(0.8), number(0.01 * (j + 1)), number(1.5 + j))
            for case in ("c1", "c2")
            for j, alg in enumerate(("x", "y"))
        ]
        manifest = manifest_stub(tmp_path, {"c1": "A", "c2": "B"})
        boot = bootstrap_ranks(cms, iterations=5, seed=0)
        emit(out, case_metrics=cms, manifest=manifest, ranking=rank_cases(cms), bootstrap=boot,
             bubbles=bubble_export(boot), groups=aggregate(cms, manifest), correlation=correlations(cms),
             run_meta={"tool": "voxeval"})
        return (out / "cases.csv").read_bytes()

    text = emitted(tmp_path / "np", np.float64)
    rows = list(csv.DictReader(text.decode().splitlines()))
    metric_columns = [k for k in rows[0] if k not in ("case_id", "algorithm", "group", "flags")]
    assert len(metric_columns) == 16
    for row in rows:
        for column in metric_columns:
            assert math.isfinite(float(row[column])), (column, row[column])
    assert text == emitted(tmp_path / "py", float)  # Python floats keep their exact bytes


def test_groups_csv_unit_scaling(tmp_path, rng):
    inputs = full_artifact_inputs(tmp_path, rng)
    out = tmp_path / "o"
    emit(out, **inputs)
    with open(out / "groups.csv", newline="") as f:
        rows = {(r["group"], r["algorithm"]): r for r in csv.DictReader(f)}
    g = {(row.group, row.algorithm): row for row in inputs["groups"]}
    for key, row in rows.items():
        assert math.isclose(float(row["dsc_pct_mean"]), g[key].means["dsc"] * 100.0, rel_tol=1e-9)
        assert math.isclose(float(row["ece_x1e3_mean"]), g[key].means["ece"] * 1000.0, rel_tol=1e-9)


def test_emit_fails_fast_on_empty_input(tmp_path, rng):
    inputs = full_artifact_inputs(tmp_path, rng)
    inputs["case_metrics"] = []
    out = tmp_path / "never"
    with pytest.raises(ValidationError, match="refusing to emit"):
        emit(out, **inputs)
    assert not out.exists()


def flagged_pairs() -> list[CaseMetrics]:
    """Two cases of two algorithms: every flag set on some class, undefined confidences, and a
    case scored on pancreas only, as under ``--classes pancreas``."""

    def pair(case_id, algorithm, classes, dsc, c_seg, mean_c_seg, cece, crps, flags=()):
        per_class = lambda values: dict(zip(classes, values))  # noqa: E731
        return CaseMetrics(
            case_id=case_id,
            algorithm=algorithm,
            dsc=per_class(dsc),
            c_seg=per_class(c_seg),
            cece=per_class(cece),
            crps=per_class(crps),
            mean_dsc=sum(dsc) / len(dsc),
            mean_c_seg=mean_c_seg,
            mean_cece=sum(cece) / len(cece),
            mean_crps=sum(crps) / len(crps),
            empty_consensus_fg={c: (c, "empty_consensus_fg") in flags for c in classes},
            empty_consensus_bg={c: (c, "empty_consensus_bg") in flags for c in classes},
            sigma_zero={c: (c, "sigma_zero") in flags for c in classes},
        )

    return [
        pair("c1", "x", (1, 2, 3), (0.5, 0.75, 1.0), (None, 0.5, 1.0), 0.75, (0.25,) * 3, (1.5, 2.5, 0.5),
             flags=((1, "empty_consensus_fg"), (3, "sigma_zero"))),
        pair("c1", "y", (1, 2, 3), (0.25, 0.5, 0.75), (0.5,) * 3, 0.5, (0.125,) * 3, (1.0, 2.0, 3.0),
             flags=((2, "empty_consensus_bg"),)),
        pair("c2", "x", (1,), (0.5,), (None,), None, (0.5,), (4.0,),
             flags=((1, "empty_consensus_fg"), (1, "sigma_zero"))),
        pair("c2", "y", (1,), (1.0,), (0.75,), 0.75, (0.0625,), (0.25,)),
    ]


def test_flags_and_class_subsets_are_emitted_as_pinned(tmp_path):
    cms = flagged_pairs()
    manifest = manifest_stub(tmp_path, {"c1": "A", "c2": "B"})
    # the ranking and the bootstrap need finite case means: they are not under test here
    finite = [make_case_metrics(cm.case_id, cm.algorithm, 0.5, 0.5, 0.1, 1.0) for cm in cms]
    boot = bootstrap_ranks(finite, iterations=5, seed=0)
    out = tmp_path / "o"
    emit(out, case_metrics=cms, manifest=manifest, ranking=rank_cases(finite), bootstrap=boot,
         bubbles=bubble_export(boot), groups=aggregate(cms, manifest), correlation=correlations(cms),
         run_meta={"tool": "voxeval"})
    assert (out / "cases.csv").read_text() == PINNED_CASES_CSV
    assert (out / "groups.csv").read_text() == PINNED_GROUPS_CSV
    for name, records in (("cases.json", PINNED_CASES), ("groups.json", PINNED_GROUPS)):
        assert (out / name).read_text() == json.dumps(records, indent=2, sort_keys=True) + "\n"


PINNED_CASES_CSV = """\
case_id,algorithm,group,dsc_pct_pancreas,dsc_pct_kidney,dsc_pct_liver,dsc_pct_mean,\
confidence_pct_pancreas,confidence_pct_kidney,confidence_pct_liver,confidence_pct_mean,\
ece_x1e3_pancreas,ece_x1e3_kidney,ece_x1e3_liver,ece_x1e3_mean,\
crps_cm3_pancreas,crps_cm3_kidney,crps_cm3_liver,crps_cm3_mean,flags
c1,x,A,50.0,75.0,100.0,75.0,,50.0,100.0,75.0,250.0,250.0,250.0,250.0,1.5,2.5,0.5,1.5,pancreas:empty_fg;liver:sigma_zero
c1,y,A,25.0,50.0,75.0,50.0,50.0,50.0,50.0,50.0,125.0,125.0,125.0,125.0,1.0,2.0,3.0,2.0,kidney:empty_bg
c2,x,B,50.0,,,50.0,,,,,500.0,,,500.0,4.0,,,4.0,pancreas:empty_fg;pancreas:sigma_zero
c2,y,B,100.0,,,100.0,75.0,,,75.0,62.5,,,62.5,0.25,,,0.25,
"""

PINNED_GROUPS_CSV = """\
group,algorithm,n_cases,dsc_pct_mean,confidence_pct_mean,ece_x1e3_mean,crps_cm3_mean,\
flags_empty_fg,flags_empty_bg,flags_sigma_zero
A,x,1,75.0,75.0,250.0,1.5,1,0,1
A,y,1,50.0,50.0,125.0,2.0,0,1,0
B,x,1,50.0,,500.0,4.0,1,0,1
B,y,1,100.0,75.0,62.5,0.25,0,0,0
overall,x,2,62.5,75.0,375.0,2.75,2,0,2
overall,y,2,75.0,62.5,93.75,1.125,0,1,0
"""


def _case(case_id, algorithm, group, dsc, c_seg, cece, crps, means, fg=(), bg=(), sigma_zero=()):
    names = ("pancreas", "kidney", "liver")
    by_name = lambda values: dict(zip(names, values))  # noqa: E731
    record = {"case_id": case_id, "algorithm": algorithm, "group": group}
    record |= {"dsc": by_name(dsc), "c_seg": by_name(c_seg), "cece": by_name(cece), "crps_cm3": by_name(crps)}
    record |= dict(zip(("mean_dsc", "mean_c_seg", "mean_cece", "mean_crps_cm3"), means))
    record["flags"] = {"empty_consensus_fg": list(fg), "empty_consensus_bg": list(bg), "sigma_zero": list(sigma_zero)}
    return record


PINNED_CASES = [
    _case("c1", "x", "A", (0.5, 0.75, 1.0), (None, 0.5, 1.0), (0.25,) * 3, (1.5, 2.5, 0.5), (0.75, 0.75, 0.25, 1.5),
          fg=["pancreas"], sigma_zero=["liver"]),
    _case("c1", "y", "A", (0.25, 0.5, 0.75), (0.5,) * 3, (0.125,) * 3, (1.0, 2.0, 3.0), (0.5, 0.5, 0.125, 2.0),
          bg=["kidney"]),
    _case("c2", "x", "B", (0.5,), (None,), (0.5,), (4.0,), (0.5, None, 0.5, 4.0),
          fg=["pancreas"], sigma_zero=["pancreas"]),
    _case("c2", "y", "B", (1.0,), (0.75,), (0.0625,), (0.25,), (1.0, 0.75, 0.0625, 0.25)),
]


def _group(group, algorithm, n_cases, means, flag_counts):
    return {
        "group": group,
        "algorithm": algorithm,
        "n_cases": n_cases,
        "means": dict(zip(("dsc", "confidence", "ece", "crps"), means)),
        "flag_counts": dict(zip(("empty_consensus_fg", "empty_consensus_bg", "sigma_zero"), flag_counts)),
    }


PINNED_GROUPS = [
    _group("A", "x", 1, (0.75, 0.75, 0.25, 1.5), (1, 0, 1)),
    _group("A", "y", 1, (0.5, 0.5, 0.125, 2.0), (0, 1, 0)),
    _group("B", "x", 1, (0.5, None, 0.5, 4.0), (1, 0, 1)),
    _group("B", "y", 1, (1.0, 0.75, 0.0625, 0.25), (0, 0, 0)),
    _group("overall", "x", 2, (0.625, 0.75, 0.375, 2.75), (2, 0, 2)),
    _group("overall", "y", 2, (0.75, 0.625, 0.09375, 1.125), (0, 1, 0)),
]
