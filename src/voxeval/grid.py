"""In-memory grid types: geometry, label maps, and probability maps.

All volumes live on a plain axis-aligned voxel grid. Arrays are indexed
``[x, y, z]`` and probability maps are channel-first ``[c, x, y, z]``.
Affine/orientation metadata is deliberately not modelled; volumes are
compared grid-to-grid.

Full-grid sweeps walk the flat logical ``[x, y, z]`` C-order in chunks of
CHUNK_VOXELS voxels (:func:`chunk_bounds`), so their working memory does
not grow with the grid. Channel-sum validation is one such sweep: each
chunk checks its float64 channel sums, their finiteness, the channel
minimum and maximum and the worst |sum - 1|, and renormalization divides
each chunk, once checked, into an output array: a fresh one for
:func:`validate_probability_sums`, the decoded array itself for the
readers. Only when a chunk fails is the whole array rescanned, again chunk
by chunk, to name the offending channel and voxel.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError

#: Class ids in channel order. Id 0 is background.
CLASS_NAMES = ("background", "pancreas", "kidney", "liver")
ORGAN_CLASSES = (1, 2, 3)
N_CHANNELS = 4

#: Maximum allowed |sum(channels) - 1| per voxel at load time.
CHANNEL_SUM_TOLERANCE = 1e-3

#: Spacing agreement tolerance (mm) when grids are compared.
SPACING_TOLERANCE_MM = 1e-3

#: Voxels per chunk of a full-grid sweep. A module constant, not an option:
#: results do not depend on it, only time and working memory do.
CHUNK_VOXELS = 1 << 16


def chunk_bounds(n_voxels: int):
    """(start, stop) of each CHUNK_VOXELS-voxel chunk of a flat grid, in order."""
    step = CHUNK_VOXELS
    return ((start, min(start + step, n_voxels)) for start in range(0, n_voxels, step))


@dataclass(frozen=True)
class GridGeometry:
    """Voxel grid shape plus physical spacing in millimetres per voxel."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]

    def __post_init__(self):
        try:  # operator.index accepts Python and numpy integers, not 2.7 or "3"
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:
            dims = ()
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValidationError(f"dims must be 3 positive integers, got {self.dims!r}")
        if len(self.spacing) != 3 or any(not 0 < float(s) < math.inf for s in self.spacing):
            raise ValidationError(f"spacing must be 3 positive finite reals, got {self.spacing!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def voxel_volume_cm3(self) -> float:
        """Volume of one voxel in cm^3 (spacing is mm per voxel)."""
        return self.spacing[0] * self.spacing[1] * self.spacing[2] / 1000.0

    def matches(self, other: "GridGeometry") -> bool:
        """Exact dims, spacing within SPACING_TOLERANCE_MM per axis."""
        return self.dims == other.dims and all(
            abs(a - b) <= SPACING_TOLERANCE_MM for a, b in zip(self.spacing, other.spacing)
        )


def require_same_grid(a: GridGeometry, b: GridGeometry, context: str = ""):
    from .errors import GeometryMismatchError

    if not a.matches(b):
        where = f" ({context})" if context else ""
        raise GeometryMismatchError(
            f"grid mismatch{where}: dims {a.dims} vs {b.dims}, "
            f"spacing {a.spacing} vs {b.spacing}"
        )


@dataclass(frozen=True)
class LabelVolume:
    """One rater's (or one binarized prediction's) class map.

    ``voxels`` is an integer array of shape ``geometry.dims`` holding
    class ids 0..3.
    """

    geometry: GridGeometry
    voxels: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = self.voxels
        if v.shape != self.geometry.dims:
            raise ShapeError(f"label array shape {v.shape} != dims {self.geometry.dims}")
        if v.dtype.kind not in "iu":
            raise ValidationError(f"label voxels must be integer-typed, got {v.dtype}")
        if v.size and (v.min() < 0 or v.max() >= N_CHANNELS):
            bad = int(v.min()) if v.min() < 0 else int(v.max())
            raise ValidationError(f"label volume contains invalid class id {bad}")
        v.flags.writeable = False  # volumes are immutable once built


@dataclass(frozen=True)
class ProbabilityVolume:
    """Per-class probability map, channel-first: shape ``(4, *dims)``.

    Channel order follows CLASS_NAMES. Per voxel the four values must
    sum to one within CHANNEL_SUM_TOLERANCE (enforced at load time by
    the readers, or via :func:`validate_probability_sums`).
    """

    geometry: GridGeometry
    channels: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = self.channels
        if c.shape != (N_CHANNELS, *self.geometry.dims):
            raise ShapeError(
                f"probability array shape {c.shape} != (4, *{self.geometry.dims})"
            )
        if c.dtype.kind != "f":
            raise ValidationError(f"probability channels must be floating, got {c.dtype}")
        c.flags.writeable = False  # volumes are immutable once built


def validate_probability_sums(channels: np.ndarray, renormalize: bool = False) -> np.ndarray:
    """Check per-voxel channel sums; optionally divide each voxel by its sum.

    Returns ``channels`` itself, or with ``renormalize`` a new renormalized
    array (``channels`` is left unchanged). Raises ChannelSumError naming
    the worst offending voxel; renormalization is opt-in and rejects
    non-finite values, the first zero-sum voxel and the first voxel whose
    sum is not finite in the channel dtype (see :func:`check_channel_sums`).
    """
    out = np.empty(channels.shape, channels.dtype) if renormalize else None
    check_channel_sums(channels, out)
    return channels if out is None else out


def check_channel_sums(channels: np.ndarray, out: np.ndarray | None = None) -> None:
    """Check ``channels`` chunk by chunk; with ``out``, renormalize into it.

    ``out`` is a C-contiguous array of the same shape and dtype, or
    ``channels`` itself to renormalize in place. Each chunk is checked
    before it is divided, so when a chunk fails every earlier chunk, divided
    or not, still passes every check, and :func:`_diagnose_probability_sums`
    names the same first fault as it would on the undivided array.
    """
    flat = channels.reshape(channels.shape[0], -1)
    dst = None if out is None else out.reshape(flat.shape)
    sums_buffer = np.empty(min(CHUNK_VOXELS, flat.shape[1]))  # reused by every chunk
    divisors_buffer = None if dst is None else np.empty_like(sums_buffer, dtype=channels.dtype)
    for start, stop in chunk_bounds(flat.shape[1]):
        chunk, sums = flat[:, start:stop], sums_buffer[: stop - start]
        with np.errstate(over="ignore"):  # finite float64 channels may overflow their sum: failed below
            chunk.sum(axis=0, dtype=np.float64, out=sums)
        lo, hi = sums.min(), sums.max()
        # A non-finite channel value makes its voxel's float64 sum, so lo or hi, non-finite.
        failed = not (math.isfinite(lo) and math.isfinite(hi)) or chunk.min() < 0.0
        if dst is not None:
            divisors = divisors_buffer[: stop - start]
            with np.errstate(over="ignore"):  # so may a float64 sum cast to the channel dtype
                divisors[...] = sums
            failed = failed or lo <= 0 or not math.isfinite(divisors.max())
            if not failed:
                np.divide(chunk, divisors, out=dst[:, start:stop])
        else:  # |sum - 1| is largest at the smallest or the largest sum
            failed = failed or chunk.max() > 1.0 or max(hi - 1.0, 1.0 - lo) > CHANNEL_SUM_TOLERANCE
        if failed:
            _diagnose_probability_sums(channels, renormalize=dst is not None)


def _diagnose_probability_sums(channels: np.ndarray, renormalize: bool) -> None:
    """The whole-array check behind a failed chunk: raises ChannelSumError for
    the first fault in priority order (non-finite, negative, then zero sum
    and a sum not finite in the channel dtype when renormalizing, else a
    value above 1 and the worst |sum - 1|), naming its channel and voxel.
    Every chunk that fails the chunked check holds one of these faults.

    Each rule rescans the array chunk by chunk, so no grid-sized temporary
    is built: the value rules in ``[c, x, y, z]`` order, the sum rules in
    voxel order."""
    from .errors import ChannelSumError

    values, voxels = channels.reshape(-1), channels.shape[1:]
    flat = values.reshape(channels.shape[0], -1)

    def where(flat_index, shape):
        return tuple(int(i) for i in np.unravel_index(flat_index, shape))

    def sums(start, stop):
        with np.errstate(over="ignore"):  # finite float64 channels may overflow their sum
            return flat[:, start:stop].sum(axis=0, dtype=np.float64)

    def first(hits, size):  # the first index in [0, size) where hits(start, stop) holds, or None
        for start, stop in chunk_bounds(size):
            chunk = hits(start, stop)
            if chunk.any():
                return start + int(np.argmax(chunk))
        return None

    i = first(lambda a, b: ~np.isfinite(values[a:b]), values.size)
    if i is not None:
        raise ChannelSumError(f"non-finite probability at channel/voxel {where(i, channels.shape)}")
    i = first(lambda a, b: values[a:b] < 0.0, values.size)
    if i is not None:
        idx = where(i, channels.shape)
        raise ChannelSumError(f"negative probability {channels[idx]:.6g} at channel/voxel {idx}")
    if renormalize:
        i = first(lambda a, b: sums(a, b) <= 0, flat.shape[1])
        if i is not None:
            raise ChannelSumError(f"cannot renormalize zero-sum voxel {where(i, voxels)}")
        with np.errstate(over="ignore"):  # the failed chunk holds such a voxel
            i = first(lambda a, b: ~np.isfinite(sums(a, b).astype(channels.dtype)), flat.shape[1]) or 0
        raise ChannelSumError(
            f"cannot renormalize voxel {where(i, voxels)}: its channel sum {sums(i, i + 1)[0]:.6g} "
            f"is not finite in {channels.dtype}"
        )
    i = first(lambda a, b: values[a:b] > 1.0, values.size)
    if i is not None:
        idx = where(i, channels.shape)
        raise ChannelSumError(f"probability {channels[idx]:.6g} outside [0, 1] at channel/voxel {idx}")
    worst, worst_err = 0, -1.0
    for start, stop in chunk_bounds(flat.shape[1]):
        err = sums(start, stop)
        err -= 1.0
        np.abs(err, out=err)
        i = int(np.argmax(err))
        if err[i] > worst_err:  # strict: the first of equal errors wins, as in np.argmax
            worst, worst_err = start + i, float(err[i])
    raise ChannelSumError(
        f"probability channels sum to {sums(worst, worst + 1)[0]:.6f} at voxel {where(worst, voxels)} "
        f"(|sum - 1| = {worst_err:.2e} > {CHANNEL_SUM_TOLERANCE:g})"
    )
