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

The raters' labels are kept beside it, packed at two bits a voxel
(:class:`PackedLabels`): the metric pass scores each rater's label
against the prediction, so a case holds one region-code byte and
ceil(R/4) label bytes per voxel once its R label maps are dropped.
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

    def selects(self, code: np.ndarray | int) -> np.ndarray | bool:
        """Which of these region codes (any slice of ``code``) lie in the view; for
        one code given as a Python int, a Python bool."""
        return (code & self.mask) == self.value

    def to_bool(self, shape=None) -> np.ndarray:
        selected = self.selects(self.code)
        return selected if shape is None else selected.reshape(shape)

    def count(self) -> int:
        return self.n_voxels


@dataclass(frozen=True)
class PackedLabels:
    """R label maps of class ids 0..3 at two bits a voxel.

    ``planes`` holds ceil(R/4) flat uint8 planes in the logical [x, y, z]
    C-order; rater r sits in bits 2(r mod 4) and 2(r mod 4) + 1 of plane
    r // 4.
    """

    planes: np.ndarray = field(repr=False)
    n_raters: int

    def rater(self, r: int, start: int, stop: int) -> np.ndarray:
        """Rater r's labels at the flat voxels [start, stop)."""
        labels = np.right_shift(self.planes[r // 4, start:stop], 2 * (r % 4))
        return np.bitwise_and(labels, 3, out=labels)


def pack_labels(raters: list[LabelVolume], scratch: np.ndarray | None = None) -> PackedLabels:
    """The raters' label maps packed at two bits a voxel (see PackedLabels).

    Each rater is shifted into ``scratch`` (a flat uint8 grid, allocated
    if not given) and ORed into its plane in place, so packing makes no
    intp or wide temporary.
    """
    n_voxels = raters[0].voxels.size if raters else 0
    planes = np.empty((-(-len(raters) // 4), n_voxels), dtype=np.uint8)
    for r, rater in enumerate(raters):
        plane, shift, voxels = planes[r // 4], 2 * (r % 4), rater.voxels.reshape(-1)
        if shift == 0:
            np.copyto(plane, voxels, casting="unsafe")  # class ids 0..3 fit any integer dtype's cast
        else:
            if scratch is None:
                scratch = np.empty(n_voxels, dtype=np.uint8)
            np.left_shift(voxels, shift, out=scratch, casting="unsafe")
            plane |= scratch
    planes.flags.writeable = False
    return PackedLabels(planes, len(raters))


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
    #: the raters' label maps, in rater order
    labels: PackedLabels

    def __getitem__(self, class_id: int) -> ClassRegions:
        return self.per_class[class_id]

    @property
    def code(self) -> np.ndarray:
        """The grid-shaped uint8 region code every view reads."""
        return self.unanimous.code


def derive_regions(raters: list[LabelVolume], classes=ORGAN_CLASSES) -> ConsensusRegions:
    """Tri-partition the grid per class from R >= 2 rater label volumes, and pack their labels."""
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
    for c in sorted(set(classes)):  # in class-id order, as EvalConfig keeps its classes
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
    labels = pack_labels(raters, scratch=m.view(np.uint8).reshape(-1))
    return ConsensusRegions(geometry, per_class, unanimous, rater_counts, labels)
