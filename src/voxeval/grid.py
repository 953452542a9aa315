"""In-memory grid types: geometry, label maps, and probability maps.

All volumes live on a plain axis-aligned voxel grid. Arrays are indexed
``[x, y, z]`` and probability maps are channel-first ``[c, x, y, z]``.
Affine/orientation metadata is deliberately not modelled; volumes are
compared grid-to-grid.
"""

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


@dataclass(frozen=True)
class GridGeometry:
    """Voxel grid shape plus physical spacing in millimetres per voxel."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) < 1 for d in self.dims):
            raise ValidationError(f"dims must be 3 positive integers, got {self.dims!r}")
        if len(self.spacing) != 3 or any(not (float(s) > 0) for s in self.spacing):
            raise ValidationError(f"spacing must be 3 positive reals, got {self.spacing!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
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

    def class_mask(self, class_id: int) -> np.ndarray:
        return self.voxels == class_id


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


def validate_probability_sums(
    channels: np.ndarray, tolerance: float = CHANNEL_SUM_TOLERANCE, renormalize: bool = False
) -> np.ndarray:
    """Check per-voxel channel sums; optionally divide each voxel by its sum.

    Returns the (possibly renormalized) channel array. Raises
    ChannelSumError naming the worst offending voxel; renormalization is
    opt-in and rejects non-finite values and the first zero-sum voxel.
    """
    from .errors import ChannelSumError

    def where(flat_index, shape):
        return tuple(int(i) for i in np.unravel_index(int(flat_index), shape))

    if not np.isfinite(channels).all():
        idx = where(np.argmin(np.isfinite(channels)), channels.shape)
        raise ChannelSumError(f"non-finite probability at channel/voxel {idx}")
    if channels.size and channels.min() < 0.0:
        idx = where(np.argmax(channels < 0.0), channels.shape)
        raise ChannelSumError(f"negative probability {channels[idx]:.6g} at channel/voxel {idx}")
    sums = channels.sum(axis=0, dtype=np.float64)
    if renormalize:
        # division also brings >1 values back into range (p <= sum always)
        zero = sums <= 0
        if zero.any():
            idx = where(np.argmax(zero), sums.shape)
            raise ChannelSumError(f"cannot renormalize zero-sum voxel {idx}")
        out = channels / sums[np.newaxis].astype(channels.dtype)
        return out.astype(channels.dtype, copy=False)
    if channels.size and channels.max() > 1.0:
        idx = where(np.argmax(channels > 1.0), channels.shape)
        raise ChannelSumError(
            f"probability {channels[idx]:.6g} outside [0, 1] at channel/voxel {idx}"
        )
    err = np.abs(sums - 1.0)
    worst = int(np.argmax(err))
    if err.flat[worst] > tolerance:
        raise ChannelSumError(
            f"probability channels sum to {sums.flat[worst]:.6f} at voxel {where(worst, sums.shape)} "
            f"(|sum - 1| = {err.flat[worst]:.2e} > {tolerance:g})"
        )
    return channels
