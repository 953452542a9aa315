"""Packed boolean voxel masks.

Consensus regions over 512-cubed grids are kept as bit-packed arrays
(one bit per voxel, np.packbits layout) so three masks per class stay
cheap; counting uses a byte popcount table.
"""

from dataclasses import dataclass, field

import numpy as np

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class PackedMask:
    """Immutable bit-packed mask over ``n_voxels`` grid points."""

    n_voxels: int
    bits: np.ndarray = field(repr=False)  # uint8, ceil(n/8) bytes, zero padding

    @classmethod
    def from_bool(cls, mask: np.ndarray) -> "PackedMask":
        flat = np.ascontiguousarray(mask, dtype=bool).reshape(-1)
        return cls(flat.size, np.packbits(flat))

    def to_bool(self, shape=None) -> np.ndarray:
        flat = np.unpackbits(self.bits, count=self.n_voxels).astype(bool)
        return flat if shape is None else flat.reshape(shape)

    def count(self) -> int:
        return int(np.sum(_POPCOUNT[self.bits], dtype=np.int64))

    def count_and(self, other: "PackedMask") -> int:
        """Popcount of the intersection, without unpacking."""
        return int(np.sum(_POPCOUNT[self.bits & other.bits], dtype=np.int64))

    def intersects_none(self, other: "PackedMask") -> bool:
        return not np.any(self.bits & other.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PackedMask)
            and self.n_voxels == other.n_voxels
            and np.array_equal(self.bits, other.bits)
        )

