"""Workload definitions for the voxeval benchmark (stdlib only).

A workload fixes the grid shape, the phantom spec and the `voxeval
evaluate` flags. Each has a ``full`` size, measured by the benchmark, and a
``smoke`` size of the same shape class for the benchmark's own tests.
The seed is fed both to the phantom spec (radius jitter) and to
`evaluate --seed` (bootstrap streams).
"""

# RunConfig field -> evaluate flag. Boolean fields become bare switches.
FLAGS = {
    "argmax_mode": "--argmax",
    "ece_per_class": "--ece-per-class",
    "ece_exclude_dissensus": "--ece-exclude-dissensus",
    "renormalize": "--renormalize",
    "rank_per_case": "--rank-per-case",
    "correlations_per_organ": "--correlations-per-organ",
    "sigma_convention": "--sigma-convention",
    "iterations": "--iterations",
    "parallel_cases": "--parallel-cases",
}

# Defaults of the RunConfig fields above that the properties line reports.
_DEFAULT_ITERATIONS = 500
_DEFAULT_PARALLEL = 1
# Smoke sizes keep the flags but bootstrap briefly.
_SMOKE_ITERATIONS = 50

_CT_SPHERES = {
    "pancreas": {"center": [200, 260, 16], "radius": 9},
    "kidney": {"center": [340, 220, 15], "radius": 11},
    "liver": {"center": [170, 170, 16], "radius": 12},
}
_CT_SMOKE_SPHERES = {
    "pancreas": {"center": [14, 14, 8], "radius": 3},
    "kidney": {"center": [44, 16, 8], "radius": 4},
    "liver": {"center": [30, 44, 8], "radius": 5},
}
_CUBE_SPHERES = {
    "pancreas": {"center": [32, 32, 32], "radius": 14},
    "kidney": {"center": [90, 34, 36], "radius": 18},
    "liver": {"center": [64, 92, 88], "radius": 24},
}
_SMALL_SPHERES = {
    "pancreas": {"center": [6, 6, 6], "radius": 3},
    "kidney": {"center": [17, 7, 8], "radius": 3},
    "liver": {"center": [12, 16, 15], "radius": 4},
}
_THREE_MODELS = {
    "perfect": {"model": "perfect"},
    "blurred": {"model": "blurred", "sigma": 1.5},
    "miscalibrated": {"model": "miscalibrated", "delta": 0.2},
}
# Twelve distinct algorithms so the leaderboard has a non-trivial ranking.
_TWELVE_MODELS = {
    "perfect": {"model": "perfect"},
    **{f"blur_{i}": {"model": "blurred", "sigma": s} for i, s in enumerate((0.5, 0.8, 1.1, 1.4, 1.7, 2.0))},
    **{f"miscal_{i}": {"model": "miscalibrated", "delta": d} for i, d in enumerate((0.05, 0.12, 0.2, 0.3, 0.4))},
}


def _spec(dims, spacing, spheres, algorithms, cases, groups):
    return {
        "geometry": {"dims": dims, "spacing_mm": spacing},
        "spheres": spheres,
        "rater_deltas": [-1, 0, 1],
        "algorithms": algorithms,
        "cases": cases,
        "radius_jitter": 1,
        "groups": groups,
    }


WORKLOADS = {
    # Volume layers dominate: inflate + decode, channel-sum validation and
    # cECE over a CT-shaped anisotropic grid; per-pair peak memory shows.
    "ct-gz": {
        "compressed": True,
        "options": {},
        "full": _spec(
            [512, 512, 32],
            [0.8, 0.8, 2.5],
            _CT_SPHERES,
            {k: _THREE_MODELS[k] for k in ("blurred", "miscalibrated")},
            cases=1,
            groups=["A"],
        ),
        "smoke": _spec(
            [64, 64, 16],
            [0.8, 0.8, 2.5],
            _CT_SMOKE_SPHERES,
            {k: _THREE_MODELS[k] for k in ("blurred", "miscalibrated")},
            cases=1,
            groups=["A"],
        ),
    },
    # The same layers used differently: no inflate, a renormalize pass,
    # 9 one-vs-rest binning passes per pair and argmax binarization.
    "variants-raw": {
        "compressed": False,
        "options": {
            "ece_per_class": True,
            "ece_exclude_dissensus": True,
            "argmax_mode": True,
            "renormalize": True,
            "sigma_convention": "sample",
            "rank_per_case": True,
            "correlations_per_organ": True,
        },
        "full": _spec([128, 128, 128], [1.0, 1.0, 1.0], _CUBE_SPHERES, _THREE_MODELS, cases=1, groups=["A"]),
        "smoke": _spec([24, 24, 24], [1.0, 1.0, 1.0], _SMALL_SPHERES, _THREE_MODELS, cases=2, groups=["A", "B"]),
    },
    # Voxel kernels do little: per-pair overhead, the thread pool,
    # bootstrap, ranking, report emission and start-up dominate.
    "leaderboard": {
        "compressed": True,
        "options": {"iterations": 5000, "parallel_cases": 2},
        "full": _spec([24, 24, 24], [1.0, 1.0, 1.0], _SMALL_SPHERES, _TWELVE_MODELS, cases=30, groups=["A", "B", "C"]),
        "smoke": _spec([24, 24, 24], [1.0, 1.0, 1.0], _SMALL_SPHERES, _TWELVE_MODELS, cases=4, groups=["A", "B", "C"]),
    },
}

SIZES = ("full", "smoke")


def phantom_spec(workload: str, size: str, seed: int) -> dict:
    """The `voxeval phantom` spec document for one workload, size and seed."""
    return {**WORKLOADS[workload][size], "seed": seed}


def run_options(workload: str, size: str) -> dict:
    """RunConfig fields (besides manifest, out_dir and seed) for evaluate."""
    options = dict(WORKLOADS[workload]["options"])
    if size == "smoke":
        options["iterations"] = _SMOKE_ITERATIONS
    return options


def evaluate_flags(options: dict) -> list[str]:
    out = []
    for field, value in sorted(options.items()):
        if value is True:
            out.append(FLAGS[field])
        else:
            out += [FLAGS[field], str(value)]
    return out


def pair_count(workload: str, size: str) -> int:
    spec = WORKLOADS[workload][size]
    return spec["cases"] * len(spec["algorithms"])


def voxels_per_pair(workload: str, size: str) -> int:
    x, y, z = WORKLOADS[workload][size]["geometry"]["dims"]
    return x * y * z


def iterations(workload: str, size: str) -> int:
    return run_options(workload, size).get("iterations", _DEFAULT_ITERATIONS)


def parallel_cases(workload: str, size: str) -> int:
    return run_options(workload, size).get("parallel_cases", _DEFAULT_PARALLEL)
