"""Per-class consensus regions derived from multiple rater label maps.

For each organ class c the grid is tri-partitioned:

* foreground consensus: every rater assigned c,
* background consensus: no rater assigned c,
* dissensus: somewhere in between.

Background consensus is defined per class in a one-vs-rest sense, so a
voxel unanimously labeled liver is background consensus for pancreas.
The construction works for any number of raters R >= 2; unanimity is
the agreement rule.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import ORGAN_CLASSES, GridGeometry, LabelVolume, require_same_grid
from .masks import PackedMask


@dataclass(frozen=True)
class ClassRegions:
    fg: PackedMask
    bg: PackedMask
    dissensus: PackedMask


@dataclass(frozen=True)
class ConsensusRegions:
    geometry: GridGeometry
    per_class: dict[int, ClassRegions]
    #: mask of voxels whose full multi-class label is unanimous
    unanimous: PackedMask

    def __getitem__(self, class_id: int) -> ClassRegions:
        return self.per_class[class_id]


def derive_regions(raters: list[LabelVolume], classes=ORGAN_CLASSES) -> ConsensusRegions:
    """Tri-partition the grid per class from R >= 2 rater label volumes."""
    if len(raters) < 2:
        raise ParameterError(f"need at least 2 raters, got {len(raters)}")
    geometry = raters[0].geometry
    for i, r in enumerate(raters[1:], start=1):
        require_same_grid(geometry, r.geometry, f"rater 0 vs rater {i}")

    per_class: dict[int, ClassRegions] = {}
    agree_all = np.ones(geometry.dims, dtype=bool)
    for r in raters[1:]:
        agree_all &= r.voxels == raters[0].voxels
    for c in classes:
        fg = raters[0].class_mask(c)
        any_c = fg.copy()
        for r in raters[1:]:
            m = r.class_mask(c)
            fg &= m
            any_c |= m
        bg = ~any_c
        dissensus = any_c & ~fg
        per_class[c] = ClassRegions(
            fg=PackedMask.from_bool(fg),
            bg=PackedMask.from_bool(bg),
            dissensus=PackedMask.from_bool(dissensus),
        )
    return ConsensusRegions(geometry, per_class, PackedMask.from_bool(agree_all))


def region_counts(regions: ConsensusRegions) -> dict[int, dict[str, int]]:
    """Voxel counts per class; fg + bg + dissensus equals the grid size."""
    return {
        c: {"fg": r.fg.count(), "bg": r.bg.count(), "dissensus": r.dissensus.count()}
        for c, r in regions.per_class.items()
    }

