"""Synthetic multi-rater phantoms with analytically known metric inputs.

Each organ class is a sphere; rater r sees the sphere inflated or
deflated by an integer radius delta, so the dissensus region is an
exactly known shell. Membership is voxel-center (no anti-aliasing), and
every ground-truth quantity is recomputed at generation time by an
exhaustive vectorized scan of the generated label maps; that scan is
the oracle the evaluation modules are checked against.

Prediction models:

* ``perfect``      - one-hot encoding of the unanimity map (voxels where
                     the raters disagree become background);
* ``blurred``      - the one-hot map convolved with a separable Gaussian
                     and renormalized per voxel;
* ``miscalibrated``- the winning channel's probability reduced by delta
                     (the removed mass spread over the other channels),
                     i.e. positive offsets bleed confidence away from
                     the winner while keeping it the argmax for
                     delta < 0.75; delta <= 0 leaves the one-hot
                     prediction unchanged, as a one-hot winner cannot
                     gain mass.

Each model is built from the unanimity label map alone, in place in its
float32 output (see ``_prediction``).
"""

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ResourceError, ValidationError
from .grid import (
    N_CHANNELS,
    ORGAN_CLASSES,
    ORGAN_IDS,
    GridGeometry,
    LabelVolume,
    ProbabilityVolume,
)
from .manifest import GROUPS
from .nifti import write_nifti


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        if not self.radius >= 1:  # NaN fails too
            raise ValidationError(f"sphere radius must be >= 1, got {self.radius}")


@dataclass(frozen=True)
class PredictionModel:
    kind: str  # perfect | blurred | miscalibrated
    sigma: float = 0.0  # blurred: kernel sigma in voxels
    delta: float = 0.0  # miscalibrated: confidence offset

    def __post_init__(self):
        if self.kind not in ("perfect", "blurred", "miscalibrated"):
            raise ValidationError(f"unknown prediction model {self.kind!r}")
        if self.kind == "blurred" and not 0 < self.sigma < math.inf:
            raise ValidationError(f"blurred model needs a finite sigma > 0, got {self.sigma}")
        if self.kind == "miscalibrated" and not -1.0 < self.delta < 1.0:
            raise ValidationError(f"miscalibrated delta must be in (-1, 1), got {self.delta}")


@dataclass(frozen=True)
class PhantomSpec:
    geometry: GridGeometry
    spheres: dict[int, Sphere]  # organ class id -> sphere
    rater_deltas: tuple[int, ...]
    prediction: PredictionModel = PredictionModel("perfect")

    def __post_init__(self):
        if not self.spheres or any(c not in ORGAN_CLASSES for c in self.spheres):
            raise ValidationError(f"sphere classes must be a subset of {ORGAN_CLASSES}")
        if len(self.rater_deltas) < 2:
            raise ValidationError("need at least 2 rater deltas")
        dmin, dmax = min(self.rater_deltas), max(self.rater_deltas)
        for c, s in self.spheres.items():
            if s.radius + dmin < 1:
                raise ValidationError(f"class {c}: radius {s.radius} with delta {dmin} collapses the sphere")
            for axis in range(3):
                lo = s.center[axis] - (s.radius + dmax)
                hi = s.center[axis] + (s.radius + dmax)
                if lo < 0 or hi > self.geometry.dims[axis] - 1:
                    raise ValidationError(
                        f"class {c}: sphere leaves the grid on axis {axis} after maximal perturbation"
                    )
        classes = sorted(self.spheres)
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                sa, sb = self.spheres[a], self.spheres[b]
                dist = math.dist(sa.center, sb.center)
                if dist <= (sa.radius + dmax) + (sb.radius + dmax):
                    raise ValidationError(
                        f"spheres for classes {a} and {b} overlap after maximal perturbation"
                    )


@dataclass(frozen=True)
class PhantomTruth:
    """Generation-time exhaustive-scan ground truth."""

    rater_volumes_cm3: dict[int, tuple[float, ...]]
    mu_cm3: dict[int, float]
    sigma_cm3: dict[int, float]  # population convention
    region_counts: dict[int, dict[str, int]]  # fg / bg / dissensus voxel counts


@dataclass(frozen=True)
class Phantom:
    spec: PhantomSpec
    raters: tuple[LabelVolume, ...]
    prediction: ProbabilityVolume
    truth: PhantomTruth = field(repr=False)


def _distance_sq(box: tuple[slice, slice, slice], center) -> np.ndarray:
    """Float64 squared distances from ``center`` to the voxel centres of ``box``, in grid coordinates."""
    x, y, z = np.ogrid[box]
    return (
        (x - center[0]) ** 2.0 + (y - center[1]) ** 2.0 + (z - center[2]) ** 2.0
    )


def _rater_labels(spec: PhantomSpec) -> list[np.ndarray]:
    """Each rater's label map: class c wherever ``|voxel - centre| <= radius + delta``.

    A sphere is labelled inside its own box, centre +- (radius + max delta)
    rounded outward: a voxel outside it lies more than that radius from the
    centre on one axis. ``PhantomSpec`` has checked that the box lies inside
    the grid, and a voxel's squared distance is the same float64 sum as over
    the whole grid.
    """
    dims = spec.geometry.dims
    try:
        out = [np.zeros(dims, dtype=np.uint8) for _ in spec.rater_deltas]
    except ValueError as exc:  # numpy's "array is too big": a byte count past what it can address
        raise MemoryError(str(exc)) from exc
    dmax = max(spec.rater_deltas)
    # Spheres never overlap, so filling them one at a time holds one box of distances.
    for c, s in spec.spheres.items():
        box = tuple(
            slice(math.floor(s.center[a] - (s.radius + dmax)), math.ceil(s.center[a] + (s.radius + dmax)) + 1)
            for a in range(3)
        )
        dist_sq = _distance_sq(box, s.center)
        for labels, delta in zip(out, spec.rater_deltas):
            labels[box][dist_sq <= (s.radius + delta) ** 2] = c
        del dist_sq  # before the next sphere's box is built
    return out


def _unanimous_labels(labels: list[np.ndarray]) -> np.ndarray:
    """The raters' common label per voxel, background where they disagree."""
    unanimous = labels[0].copy()
    for l in labels[1:]:
        unanimous[l != labels[0]] = 0
    return unanimous


def _prediction(unanimous: np.ndarray, model: PredictionModel) -> np.ndarray:
    """The model's float32 ``[c, x, y, z]`` prediction from the unanimity label map.

    Each channel is filled with its background entry of the label table,
    then given the entry of label k = 1..3 wherever one reused boolean mask
    says ``unanimous == k``: the same bits as indexing the table, in a
    fraction of the time.

    The blurred model is then filtered with ``truncate=4.0`` pinned, so that
    r = int(4 sigma + 0.5) is scipy's kernel radius, and only on the organs'
    support box: the bounding box of ``unanimous != 0`` grown by r.
    ``_blur_support`` says why that equals filtering the whole grid.
    """
    # Before any blur a voxel's prediction depends only on its label: column
    # k of ``table`` is the prediction for label k. Positive delta moves delta
    # of the winner's mass to the other channels; a one-hot winner cannot gain mass.
    table = np.eye(N_CHANNELS, dtype=np.float32)
    if model.kind == "miscalibrated" and model.delta > 0:
        shifted = np.where(table == 1, 1.0 - model.delta, model.delta / (N_CHANNELS - 1))
        table = (shifted / shifted.sum(axis=0)).astype(np.float32)
    out = np.empty((N_CHANNELS, *unanimous.shape), dtype=np.float32)
    for c in range(N_CHANNELS):
        out[c].fill(table[c][0])
    is_k = np.empty(unanimous.shape, dtype=bool)
    for k in range(1, N_CHANNELS):
        np.equal(unanimous, k, out=is_k)
        for c in range(N_CHANNELS):
            np.copyto(out[c], table[c][k], where=is_k)
    del is_k
    if model.kind == "blurred":
        _blur_support(out, unanimous, model.sigma)
    return out


def _blur_support(out: np.ndarray, unanimous: np.ndarray, sigma: float) -> None:
    """Gaussian-filter the one-hot ``out`` and renormalize it per voxel, in place.

    ``truncate=4.0`` is pinned, so r = int(4 sigma + 0.5) is scipy's kernel
    radius. Only the support box, the bounding box of the organ voxels grown
    by r, is filtered and normalized; each channel in a copy grown by r
    again and clipped to the grid. A box voxel's output after the three
    separable passes reads input within r on each axis, so it never reaches
    the copy's edge, and where the copy is clipped it ends at the grid edge
    as the whole-grid filter does. Outside the box every such neighbourhood
    is constant, background 1 and organs 0, which filters to some c and 0
    and normalizes to c/c = 1 and 0/c = 0: the one-hot value already there.
    With no organ voxel nothing changes.
    """
    from scipy.ndimage import gaussian_filter  # imported here so that `import voxeval` needs numpy only

    reach = int(4.0 * sigma + 0.5)
    dims = unanimous.shape
    occupied = [np.flatnonzero(np.any(unanimous, axis=tuple(b for b in range(3) if b != a))) for a in range(3)]
    if occupied[0].size == 0:
        return
    box = tuple(slice(max(int(i[0]) - reach, 0), min(int(i[-1]) + 1 + reach, n)) for i, n in zip(occupied, dims))
    halo = tuple(slice(max(b.start - reach, 0), min(b.stop + reach, n)) for b, n in zip(box, dims))
    inner = tuple(slice(b.start - h.start, b.stop - h.start) for b, h in zip(box, halo))
    for c in range(N_CHANNELS):  # one channel's filtered copy at a time
        out[c][box] = gaussian_filter(out[c][halo], sigma, truncate=4.0)[inner]
    sums = out[0][box].astype(np.float64)
    for c in range(1, N_CHANNELS):
        sums += out[c][box]
    for c in range(N_CHANNELS):  # a non-negative channel over a sum that holds it: already in [0, 1]
        np.divide(out[c][box], sums, out=out[c][box], casting="same_kind")


def _scan_truth(spec: PhantomSpec, labels: list[np.ndarray]) -> PhantomTruth:
    """Truth by an exhaustive scan of the label maps, independent of the consensus module.

    Per class, each rater's compare is counted and folded into the every-
    and any-rater masks in place, so the scan holds three boolean grids.
    """
    vv = spec.geometry.voxel_volume_cm3
    volumes, mu, sigma, counts = {}, {}, {}, {}
    fg, any_c, is_c = (np.empty(spec.geometry.dims, dtype=bool) for _ in range(3))
    for c in spec.spheres:
        fg.fill(True)
        any_c.fill(False)
        voxel_counts = []
        for l in labels:
            np.equal(l, c, out=is_c)
            voxel_counts.append(int(np.count_nonzero(is_c)))
            fg &= is_c
            any_c |= is_c
        voxel_counts = np.array(voxel_counts)
        volumes[c] = tuple(float(n) * vv for n in voxel_counts)
        mu[c] = float(np.mean(voxel_counts)) * vv
        sigma[c] = float(np.std(voxel_counts)) * vv
        n_fg, n_any = int(np.count_nonzero(fg)), int(np.count_nonzero(any_c))
        counts[c] = {"fg": n_fg, "bg": fg.size - n_any, "dissensus": n_any - n_fg}  # fg lies within any_c
    return PhantomTruth(volumes, mu, sigma, counts)


def generate(spec: PhantomSpec) -> Phantom:
    """Deterministic phantom: rater label maps, a prediction, and truth."""
    labels = _rater_labels(spec)
    return Phantom(
        spec=spec,
        raters=tuple(LabelVolume(spec.geometry, l) for l in labels),
        prediction=ProbabilityVolume(spec.geometry, _prediction(_unanimous_labels(labels), spec.prediction)),
        truth=_scan_truth(spec, labels),
    )


# --- dataset synthesis for the CLI ---------------------------------------


def parse_model(doc: dict) -> PredictionModel:
    if not isinstance(doc, dict) or "model" not in doc:
        raise ValidationError(f"algorithm entry must be an object with a 'model' key, got {doc!r}")
    return PredictionModel(
        kind=doc["model"],
        sigma=float(doc.get("sigma", 0.0)),
        delta=float(doc.get("delta", 0.0)),
    )


def parse_spec_document(doc: dict) -> dict:
    """Validate the dataset spec JSON and normalize its pieces.

    Schema (classes keyed by organ name)::

        {
          "geometry": {"dims": [48,48,48], "spacing_mm": [1,1,1]},
          "spheres": {"pancreas": {"center": [12,12,12], "radius": 5}, ...},
          "rater_deltas": [-1, 0, 1],
          "algorithms": {"alpha": {"model": "perfect"},
                         "beta": {"model": "blurred", "sigma": 1.0},
                         "gamma": {"model": "miscalibrated", "delta": 0.2}},
          "cases": 4,            // optional, default 1
          "radius_jitter": 1,    // optional integer, default 0
          "groups": ["A","B"],   // optional cycle, default ["A"]
          "seed": 0              // optional
        }
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"phantom spec must be a JSON object, got {type(doc).__name__}")
    for key in ("geometry", "spheres", "rater_deltas", "algorithms"):
        if key not in doc:
            raise ValidationError(f"phantom spec missing key {key!r}")
    geometry = _parse_key(doc, "geometry", lambda g: GridGeometry(tuple(g["dims"]), tuple(g["spacing_mm"])))
    spheres = _parse_key(doc, "spheres", _parse_spheres)
    algorithms = _parse_key(doc, "algorithms", lambda a: {name: parse_model(m) for name, m in a.items()})
    if not algorithms:
        raise ValidationError("phantom spec needs at least one algorithm")
    groups = doc.get("groups", ["A"])
    if not (isinstance(groups, list) and groups and all(g in GROUPS for g in groups)):
        raise ValidationError(f"groups must be a non-empty list drawn from {GROUPS}, got {groups!r}")
    spec = {
        "geometry": geometry,
        "spheres": spheres,
        "rater_deltas": _parse_key(doc, "rater_deltas", lambda d: tuple(int(x) for x in d)),
        "algorithms": algorithms,
        "groups": groups,
        "cases": _parse_key(doc, "cases", int, 1),
        "radius_jitter": _parse_key(doc, "radius_jitter", int, 0),
        "seed": _parse_key(doc, "seed", int, 0),
    }
    for key, low in (("cases", 1), ("radius_jitter", 0), ("seed", 0)):
        if spec[key] < low:
            raise ValidationError(f"{key} must be >= {low}, got {spec[key]}")
    return spec


def _parse_key(doc: dict, key: str, parse, default=None):
    """``parse(doc[key])``, or of ``default`` if absent; a value of the wrong type or shape is a ValidationError."""
    try:
        return parse(doc.get(key, default))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {key!r} in phantom spec: {type(exc).__name__}: {exc}") from exc


def _parse_spheres(doc: dict) -> dict[int, Sphere]:
    spheres = {}
    for name, s in doc.items():
        if name not in ORGAN_IDS:
            raise ValidationError(f"unknown organ class {name!r}; expected one of {sorted(ORGAN_IDS)}")
        center = tuple(float(x) for x in s["center"])
        if len(center) != 3 or not all(map(math.isfinite, center)):
            raise ValidationError(f"sphere {name!r}: center must be 3 finite numbers, got {s['center']!r}")
        spheres[ORGAN_IDS[name]] = Sphere(center, float(s["radius"]))
    return spheres


def _case_spec(spec: dict, index: int) -> PhantomSpec:
    """Case ``index`` of a parsed spec, its sphere radii jittered from stream (seed, index)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec["seed"], index))))
    spheres = {}
    for c, s in sorted(spec["spheres"].items()):
        jitter = int(rng.integers(-spec["radius_jitter"], spec["radius_jitter"] + 1)) if spec["radius_jitter"] else 0
        spheres[c] = Sphere(s.center, s.radius + jitter)
    return PhantomSpec(geometry=spec["geometry"], spheres=spheres, rater_deltas=spec["rater_deltas"])


def write_dataset(doc: dict, out_dir) -> Path:
    """Generate a ready-to-evaluate directory: volumes + manifest + truth.

    Per-case sphere radii are jittered with the same seeded PCG64 stream
    scheme the bootstrap uses (SeedSequence((seed, case_index))), so the
    whole directory is reproducible byte-for-byte.
    """
    spec = parse_spec_document(doc)
    for i in range(spec["cases"]):  # a case that fails its checks stops the run before any file is written
        _case_spec(spec, i)
    out = Path(out_dir)
    volumes = out / "volumes"

    manifest_cases = []
    truth_records = {}
    dims = spec["geometry"].dims
    try:
        for i in range(spec["cases"]):
            case_spec = _case_spec(spec, i)
            case_id = f"case_{i + 1:03d}"
            labels = _rater_labels(case_spec)
            volumes.mkdir(parents=True, exist_ok=True)  # only once the label grids are held
            unanimous = _unanimous_labels(labels)
            truth = _scan_truth(case_spec, labels)

            rater_paths = []
            for r, arr in enumerate(labels, start=1):
                p = volumes / f"{case_id}_rater_{r}.nii.gz"
                write_nifti(LabelVolume(case_spec.geometry, arr), p)
                rater_paths.append(str(p.relative_to(out)))
            del labels, arr  # the predictions need only ``unanimous``
            pred_paths = {}
            for name, model in sorted(spec["algorithms"].items()):
                p = volumes / f"{case_id}_pred_{name}.nii.gz"
                write_nifti(ProbabilityVolume(case_spec.geometry, _prediction(unanimous, model)), p)
                pred_paths[name] = str(p.relative_to(out))

            manifest_cases.append(
                {
                    "case_id": case_id,
                    "group": spec["groups"][i % len(spec["groups"])],
                    "rater_annotations": rater_paths,
                    "algorithm_predictions": pred_paths,
                }
            )
            truth_records[case_id] = asdict(truth)  # json writes the int class keys as strings
    except MemoryError as exc:  # numpy refuses the grid, or a later allocation fails partway
        raise ResourceError(f"cannot hold a {dims[0]}x{dims[1]}x{dims[2]} grid: {str(exc) or 'out of memory'}") from exc

    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps({"cases": manifest_cases}, indent=2, sort_keys=True) + "\n")
    (out / "truth.json").write_text(json.dumps(truth_records, indent=2, sort_keys=True) + "\n")
    return manifest_path
