"""Per-class consensus regions derived from multiple rater label maps.

For each organ class c the grid is tri-partitioned:

* foreground consensus: every rater assigned c,
* background consensus: no rater assigned c,
* dissensus: somewhere in between.

Background consensus is defined per class in a one-vs-rest sense, so a
voxel unanimously labeled liver is background consensus for pancreas.
The construction works for any number of raters R >= 2; unanimity is
the agreement rule.

The partition is stored as one uint8 region code per voxel. Bits
2(c-1) and 2(c-1)+1 hold the state of class c (0 background consensus,
1 foreground consensus, 2 dissensus) and bit 6 marks voxels whose full
multi-class label is unanimous.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .grid import ORGAN_CLASSES, GridGeometry, LabelVolume, require_same_grid

BG, FG, DISSENSUS = 0, 1, 2
UNANIMOUS_BIT = 1 << 6


@dataclass(frozen=True)
class RegionView:
    """Voxels whose region code satisfies ``code & mask == value``; ``to_bool()``
    is their grid-shaped mask and ``count()`` their number, taken at derivation."""

    code: np.ndarray = field(repr=False)
    mask: int
    value: int
    n_voxels: int

    def selects(self, code: np.ndarray) -> np.ndarray:
        """Which of these region codes (any slice of ``code``) lie in the view."""
        return (code & self.mask) == self.value

    def to_bool(self, shape=None) -> np.ndarray:
        selected = self.selects(self.code)
        return selected if shape is None else selected.reshape(shape)

    def count(self) -> int:
        return self.n_voxels


@dataclass(frozen=True)
class ClassRegions:
    fg: RegionView
    bg: RegionView
    dissensus: RegionView


@dataclass(frozen=True)
class ConsensusRegions:
    geometry: GridGeometry
    per_class: dict[int, ClassRegions]
    #: voxels whose full multi-class label is unanimous
    unanimous: RegionView
    #: class id -> each rater's voxel count of that class, in rater order
    rater_counts: dict[int, tuple[int, ...]]

    def __getitem__(self, class_id: int) -> ClassRegions:
        return self.per_class[class_id]

    @property
    def code(self) -> np.ndarray:
        """The grid-shaped uint8 region code every view reads."""
        return self.unanimous.code


def derive_regions(raters: list[LabelVolume], classes=ORGAN_CLASSES) -> ConsensusRegions:
    """Tri-partition the grid per class from R >= 2 rater label volumes."""
    if len(raters) < 2:
        raise ParameterError(f"need at least 2 raters, got {len(raters)}")
    geometry = raters[0].geometry
    for i, r in enumerate(raters[1:], start=1):
        require_same_grid(geometry, r.geometry, f"rater 0 vs rater {i}")

    # Every step writes into these grid-sized buffers: fresh temporaries cost page faults.
    code = np.full(geometry.dims, UNANIMOUS_BIT, dtype=np.uint8)
    fg, any_c, m = (np.empty(geometry.dims, dtype=bool) for _ in range(3))
    for r in raters[1:]:
        code *= np.equal(r.voxels, raters[0].voxels, out=m)  # the unanimous bit survives where all agree
    unanimous = RegionView(code, UNANIMOUS_BIT, UNANIMOUS_BIT, int(np.count_nonzero(code)))
    per_class, rater_counts = {}, {}
    for c in classes:
        np.equal(raters[0].voxels, c, out=fg)
        np.copyto(any_c, fg)
        counts = [np.count_nonzero(fg)]
        for r in raters[1:]:
            np.equal(r.voxels, c, out=m)
            counts.append(np.count_nonzero(m))
            fg &= m
            any_c |= m
        shift = 2 * (c - 1)
        np.bitwise_or(code, np.uint8(DISSENSUS << shift), out=code, where=any_c)  # any rater assigned c ...
        np.bitwise_xor(code, np.uint8((DISSENSUS ^ FG) << shift), out=code, where=fg)  # ... every rater did
        n_fg, n_any = int(np.count_nonzero(fg)), int(np.count_nonzero(any_c))
        per_class[c] = ClassRegions(
            fg=RegionView(code, 3 << shift, FG << shift, n_fg),
            bg=RegionView(code, 3 << shift, BG << shift, code.size - n_any),
            dissensus=RegionView(code, 3 << shift, DISSENSUS << shift, n_any - n_fg),
        )
        rater_counts[c] = tuple(int(n) for n in counts)
    code.flags.writeable = False  # shared by every view and every algorithm of the case
    return ConsensusRegions(geometry, per_class, unanimous, rater_counts)
