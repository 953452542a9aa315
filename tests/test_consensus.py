"""Consensus tri-partition: oracle agreement and set-theoretic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import consensus_by_voxel_loop, label_volume, regions_to_label_volume
from voxeval.consensus import derive_regions, region_counts
from voxeval.errors import GeometryMismatchError, ParameterError
from voxeval.grid import GridGeometry, LabelVolume
from voxeval.phantom import PhantomSpec, Sphere, generate


def raters_from_arrays(arrays):
    return [label_volume(a) for a in arrays]


def test_unanimous_raters_have_no_dissensus(rng):
    base = rng.integers(0, 4, size=(5, 5, 5)).astype(np.uint8)
    regions = derive_regions(raters_from_arrays([base, base, base]))
    for c in (1, 2, 3):
        r = regions[c]
        assert r.dissensus.count() == 0
        assert np.array_equal(r.fg.to_bool((5, 5, 5)), base == c)


def test_partial_agreement_is_dissensus():
    # one voxel labeled (1, 1, 0) by the three raters
    a = label_volume([[[1]]])
    b = label_volume([[[1]]])
    c = label_volume([[[0]]])
    regions = derive_regions([a, b, c])
    r1 = regions[1]
    assert r1.fg.count() == 0 and r1.bg.count() == 0
    assert r1.dissensus.count() == 1


@pytest.mark.parametrize("n_raters", [2, 3, 4])
def test_matches_per_voxel_oracle(rng, n_raters):
    arrays = [rng.integers(0, 4, size=(6, 6, 6)).astype(np.uint8) for _ in range(n_raters)]
    regions = derive_regions(raters_from_arrays(arrays))
    for c in (1, 2, 3):
        fg, bg, dis = consensus_by_voxel_loop(arrays, c)
        r = regions[c]
        assert np.array_equal(r.fg.to_bool((6, 6, 6)), fg)
        assert np.array_equal(r.bg.to_bool((6, 6, 6)), bg)
        assert np.array_equal(r.dissensus.to_bool((6, 6, 6)), dis)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n_raters=st.integers(2, 4))
def test_partition_property(seed, n_raters):
    r = np.random.default_rng(seed)
    arrays = [r.integers(0, 4, size=(4, 3, 5)).astype(np.uint8) for _ in range(n_raters)]
    regions = derive_regions(raters_from_arrays(arrays))
    n = 4 * 3 * 5
    for c in (1, 2, 3):
        reg = regions[c]
        assert reg.fg.count() + reg.bg.count() + reg.dissensus.count() == n
        assert reg.fg.intersects_none(reg.bg)
        assert reg.fg.intersects_none(reg.dissensus)
        assert reg.bg.intersects_none(reg.dissensus)


def test_adding_a_rater_shrinks_consensus(rng):
    arrays = [rng.integers(0, 4, size=(5, 5, 5)).astype(np.uint8) for _ in range(3)]
    extra = rng.integers(0, 4, size=(5, 5, 5)).astype(np.uint8)
    before = derive_regions(raters_from_arrays(arrays))
    after = derive_regions(raters_from_arrays(arrays + [extra]))
    dims = (5, 5, 5)
    for c in (1, 2, 3):
        fg_b, fg_a = before[c].fg.to_bool(dims), after[c].fg.to_bool(dims)
        bg_b, bg_a = before[c].bg.to_bool(dims), after[c].bg.to_bool(dims)
        assert np.all(fg_a <= fg_b)  # fg can only shrink
        assert np.all(bg_a <= bg_b)  # bg can only shrink
        assert after[c].dissensus.count() >= before[c].dissensus.count()


def test_rater_order_does_not_matter(rng):
    arrays = [rng.integers(0, 4, size=(4, 4, 4)).astype(np.uint8) for _ in range(3)]
    a = derive_regions(raters_from_arrays(arrays))
    b = derive_regions(raters_from_arrays(arrays[::-1]))
    for c in (1, 2, 3):
        assert a[c].fg == b[c].fg
        assert a[c].bg == b[c].bg
        assert a[c].dissensus == b[c].dissensus


def test_region_counts_partition_and_empty_class(rng):
    arrays = [rng.integers(0, 2, size=(4, 4, 4)).astype(np.uint8) for _ in range(3)]  # never class 2 or 3
    counts = region_counts(derive_regions(raters_from_arrays(arrays)))
    for c in (1, 2, 3):
        assert counts[c]["fg"] + counts[c]["bg"] + counts[c]["dissensus"] == 64
    assert counts[2] == {"fg": 0, "bg": 64, "dissensus": 0}


def test_unanimous_sphere_counts():
    spec = PhantomSpec(
        geometry=GridGeometry((10, 10, 10), (1.0, 1.0, 1.0)),
        spheres={1: Sphere((5, 5, 5), 2)},
        rater_deltas=(0, 0, 0),
    )
    counts = region_counts(derive_regions(list(generate(spec).raters)))
    assert counts[1] == {"fg": 33, "bg": 967, "dissensus": 0}


def test_geometry_mismatch_and_arity_errors(rng):
    a = label_volume(rng.integers(0, 4, size=(3, 3, 3)))
    b = LabelVolume(GridGeometry((3, 3, 2), (1, 1, 1)), rng.integers(0, 4, size=(3, 3, 2)).astype(np.uint8))
    with pytest.raises(GeometryMismatchError):
        derive_regions([a, b])
    with pytest.raises(ParameterError, match="at least 2"):
        derive_regions([a])


def test_mask_export_encoding(rng):
    arrays = [rng.integers(0, 2, size=(4, 4, 4)).astype(np.uint8) for _ in range(2)]
    regions = derive_regions(raters_from_arrays(arrays))
    exported = regions_to_label_volume(regions, 1)
    dims = (4, 4, 4)
    assert np.array_equal(exported.voxels == 2, regions[1].fg.to_bool(dims))
    assert np.array_equal(exported.voxels == 1, regions[1].dissensus.to_bool(dims))
    assert np.array_equal(exported.voxels == 0, regions[1].bg.to_bool(dims))
