"""Volume reading/writing: header subset, endianness, round trips."""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import geom, label_volume, one_hot_volume
from voxeval.errors import (
    ChannelSumError,
    FormatError,
    ShapeError,
    UnsupportedDtypeError,
    VolumeIOError,
)
from voxeval.grid import LabelVolume, ProbabilityVolume, validate_probability_sums
from voxeval.nifti import (
    read_desk,
    read_nifti,
    read_volume,
    write_desk,
    write_nifti,
)


def build_nifti(dims, datatype, payload, endian="<", dim0=None, dim4=1, spacing=(1.0, 1.0, 1.0),
                vox_offset=348.0, scl_slope=0.0, scl_inter=0.0, magic=b"n+1\x00", bitpix=None):
    """Independent fixture builder (never calls the library's writer)."""
    bits = {2: 8, 4: 16, 16: 32, 64: 64, 8: 32}.get(datatype, 8)
    if bitpix is None:
        bitpix = bits
    if dim0 is None:
        dim0 = 4 if dim4 > 1 else 3
    header = bytearray(348)
    struct.pack_into(endian + "i", header, 0, 348)
    struct.pack_into(endian + "8h", header, 40, dim0, dims[0], dims[1], dims[2], dim4, 1, 1, 1)
    struct.pack_into(endian + "h", header, 70, datatype)
    struct.pack_into(endian + "h", header, 72, bitpix)
    struct.pack_into(endian + "8f", header, 76, 1.0, *spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into(endian + "f", header, 108, vox_offset)
    struct.pack_into(endian + "f", header, 112, scl_slope)
    struct.pack_into(endian + "f", header, 116, scl_inter)
    struct.pack_into("<4s", header, 344, magic)
    pad = b"\x00" * (int(vox_offset) - 348)
    return bytes(header) + pad + payload


def test_all_zero_uint8_payload_is_background_labels(tmp_path):
    p = tmp_path / "zeros.nii"
    p.write_bytes(build_nifti((4, 4, 4), 2, b"\x00" * 64))
    v = read_nifti(p)
    assert isinstance(v, LabelVolume)
    assert v.geometry.dims == (4, 4, 4)
    assert not v.voxels.any()


def test_one_hot_background_probability_file(tmp_path):
    # 4x4x4 grid, channel 0 all ones, channels 1..3 zero
    block = np.ones(64, dtype="<f4").tobytes() + np.zeros(64 * 3, dtype="<f4").tobytes()
    p = tmp_path / "prob.nii"
    p.write_bytes(build_nifti((4, 4, 4), 16, block, dim4=4))
    v = read_nifti(p)
    assert isinstance(v, ProbabilityVolume)
    assert np.all(v.channels[0] == 1.0)
    assert not v.channels[1:].any()


def test_byte_swapped_file_decodes_identically(tmp_path, rng):
    data = rng.integers(0, 4, size=(3, 4, 5)).astype(np.uint8)
    payload_le = np.ascontiguousarray(data.transpose(2, 1, 0)).tobytes()
    le = tmp_path / "le.nii"
    be = tmp_path / "be.nii"
    le.write_bytes(build_nifti((3, 4, 5), 2, payload_le, endian="<", spacing=(0.7, 0.8, 0.9)))
    be.write_bytes(build_nifti((3, 4, 5), 2, payload_le, endian=">", spacing=(0.7, 0.8, 0.9)))
    a, b = read_nifti(le), read_nifti(be)
    assert np.array_equal(a.voxels, b.voxels)
    assert a.geometry == b.geometry
    # the swapped sizeof_hdr probe value the reader must recognize
    assert struct.unpack("<i", struct.pack(">i", 348))[0] == 1543569408


def test_byte_swapped_float_payload(tmp_path, rng):
    data = (rng.random((2, 3, 2)) * 3).astype(np.float32)
    chans = np.stack([data, 1.0 - data, np.zeros_like(data), np.zeros_like(data)])
    chans = np.clip(chans, 0.0, 1.0) / chans.sum(axis=0)
    chans = chans.astype(np.float32)
    flat = np.ascontiguousarray(chans.transpose(0, 3, 2, 1))
    le = tmp_path / "le.nii"
    be = tmp_path / "be.nii"
    le.write_bytes(build_nifti((2, 3, 2), 16, flat.astype("<f4").tobytes(), endian="<", dim4=4))
    be.write_bytes(build_nifti((2, 3, 2), 16, flat.astype(">f4").tobytes(), endian=">", dim4=4))
    a, b = read_nifti(le), read_nifti(be)
    assert np.array_equal(a.channels, b.channels)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16])
def test_label_round_trip_bit_exact(tmp_path, rng, dtype):
    arr = rng.integers(0, 4, size=(5, 3, 4)).astype(dtype)
    v = LabelVolume(geom((5, 3, 4), (0.61, 0.8, 1.25)), arr)
    path = tmp_path / "v.nii"
    write_nifti(v, path)
    back = read_nifti(path)
    assert back.voxels.dtype == arr.dtype
    assert np.array_equal(back.voxels, arr)
    assert all(abs(a - b) < 1e-6 for a, b in zip(back.geometry.spacing, v.geometry.spacing))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_probability_round_trip_bit_exact(tmp_path, rng, dtype):
    raw = rng.random((4, 3, 4, 5)) + 1e-3
    channels = (raw / raw.sum(axis=0)).astype(dtype)
    v = ProbabilityVolume(geom((3, 4, 5)), channels)
    path = tmp_path / "v.nii"
    write_nifti(v, path)
    back = read_nifti(path)
    assert back.channels.dtype == channels.dtype
    assert np.array_equal(back.channels, channels)


def test_gzip_round_trip_and_external_compression(tmp_path, rng):
    arr = rng.integers(0, 4, size=(4, 4, 4)).astype(np.uint8)
    v = LabelVolume(geom((4, 4, 4)), arr)
    gz = tmp_path / "v.nii.gz"
    write_nifti(v, gz)
    assert np.array_equal(read_nifti(gz).voxels, arr)
    # compress a plain fixture externally, read through the same entry point
    plain = tmp_path / "w.nii"
    write_nifti(v, plain)
    externally = tmp_path / "w_ext.nii.gz"
    externally.write_bytes(gzip.compress(plain.read_bytes()))
    assert np.array_equal(read_nifti(externally).voxels, arr)


def test_write_is_deterministic(tmp_path, rng):
    arr = rng.integers(0, 4, size=(6, 5, 4)).astype(np.uint8)
    v = LabelVolume(geom((6, 5, 4)), arr)
    a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    write_nifti(v, a)
    write_nifti(v, b)
    assert a.read_bytes() == b.read_bytes()


@settings(max_examples=25, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 5)] * 3),
    seed=st.integers(0, 2**31),
    dtype=st.sampled_from([np.uint8, np.int16]),
)
def test_label_round_trip_property(tmp_path_factory, dims, seed, dtype):
    r = np.random.default_rng(seed)
    arr = r.integers(0, 4, size=dims).astype(dtype)
    v = LabelVolume(geom(dims, tuple(r.uniform(0.1, 4.0, 3))), arr)
    path = tmp_path_factory.mktemp("rt") / "v.nii"
    write_nifti(v, path)
    assert np.array_equal(read_nifti(path).voxels, arr)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.nii"
    p.write_bytes(build_nifti((2, 2, 2), 2, b"\x00" * 8, magic=b"oops"))
    with pytest.raises(FormatError, match="magic"):
        read_nifti(p)


def test_bad_sizeof_hdr_rejected(tmp_path):
    p = tmp_path / "bad.nii"
    raw = bytearray(build_nifti((2, 2, 2), 2, b"\x00" * 8))
    struct.pack_into("<i", raw, 0, 999)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="sizeof_hdr"):
        read_nifti(p)


def test_unsupported_datatype_rejected(tmp_path):
    p = tmp_path / "bad.nii"
    p.write_bytes(build_nifti((2, 2, 2), 8, b"\x00" * 32))  # int32: not in subset
    with pytest.raises(UnsupportedDtypeError, match="datatype code 8"):
        read_nifti(p)


def test_wrong_channel_count_rejected(tmp_path):
    p = tmp_path / "bad.nii"
    p.write_bytes(build_nifti((2, 2, 2), 16, b"\x00" * (8 * 4 * 3), dim4=3))
    with pytest.raises(ShapeError, match="3 channels"):
        read_nifti(p)


def test_unsupported_dim0_rejected(tmp_path):
    p = tmp_path / "bad.nii"
    p.write_bytes(build_nifti((2, 2, 2), 2, b"\x00" * 8, dim0=2))
    with pytest.raises(ShapeError, match="dim\\[0\\]"):
        read_nifti(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "bad.nii"
    p.write_bytes(build_nifti((4, 4, 4), 2, b"\x00" * 10))
    with pytest.raises(FormatError, match="truncated"):
        read_nifti(p)


def test_bitpix_mismatch_rejected(tmp_path):
    p = tmp_path / "bad.nii"
    p.write_bytes(build_nifti((2, 2, 2), 2, b"\x00" * 8, bitpix=16))
    with pytest.raises(FormatError, match="bitpix"):
        read_nifti(p)


@pytest.mark.parametrize("vox_offset", [100.0, float("nan"), float("inf"), float("-inf")])
def test_vox_offset_below_header_rejected(tmp_path, vox_offset):
    p = tmp_path / "bad.nii"
    raw = bytearray(build_nifti((2, 2, 2), 2, b"\x00" * 8))
    struct.pack_into("<f", raw, 108, vox_offset)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="vox_offset"):
        read_nifti(p)
    with pytest.raises(FormatError, match="bad.nii"):
        read_volume(p)


def test_invalid_class_id_rejected(tmp_path):
    p = tmp_path / "bad.nii"
    p.write_bytes(build_nifti((2, 2, 2), 2, bytes([0, 1, 2, 3, 4, 0, 0, 0])))
    with pytest.raises(FormatError, match="class id 4"):
        read_nifti(p)


def test_scl_slope_applied_when_nonzero(tmp_path):
    payload = bytes([0, 1, 0, 1, 1, 0, 1, 0])
    p = tmp_path / "scaled.nii"
    p.write_bytes(build_nifti((2, 2, 2), 2, payload, scl_slope=3.0))
    v = read_nifti(p)
    assert set(np.unique(v.voxels)) == {0, 3}
    # slope 0 means "no scaling information", values pass through
    q = tmp_path / "raw.nii"
    q.write_bytes(build_nifti((2, 2, 2), 2, payload, scl_slope=0.0))
    assert set(np.unique(read_nifti(q).voxels)) == {0, 1}


def test_channel_sum_violation_names_worst_voxel(tmp_path):
    channels = np.full((4, 2, 2, 2), 0.25, dtype=np.float32)
    channels[0, 1, 0, 1] = 0.30  # sum 1.05 at voxel (1, 0, 1)
    flat = np.ascontiguousarray(channels.transpose(0, 3, 2, 1)).astype("<f4").tobytes()
    p = tmp_path / "bad.nii"
    p.write_bytes(build_nifti((2, 2, 2), 16, flat, dim4=4))
    with pytest.raises(ChannelSumError, match=r"\(1, 0, 1\)"):
        read_nifti(p)
    # opt-in renormalization divides the voxel through instead
    v = read_nifti(p, renormalize=True)
    s = v.channels.sum(axis=0)
    assert np.allclose(s, 1.0, atol=1e-6)


def test_renormalize_rejects_a_zero_sum_voxel_that_is_not_the_worst():
    channels = np.full((4, 4, 4, 4), 0.25, dtype=np.float32)
    channels[:, 0, 1, 2] = 1.0  # sum 4: the worst |sum - 1|
    channels[:, 3, 2, 1] = 0.0  # sum 0: cannot be divided through
    with pytest.raises(ChannelSumError, match=r"zero-sum voxel \(3, 2, 1\)"):
        validate_probability_sums(channels, renormalize=True)
    channels[:, 3, 2, 1] = 0.5
    out = validate_probability_sums(channels, renormalize=True)
    assert np.isfinite(out).all() and np.allclose(out.sum(axis=0), 1.0, atol=1e-6)


def test_desk_round_trip_label_and_probability(tmp_path, rng):
    lv = label_volume(rng.integers(0, 4, size=(3, 4, 2)), spacing=(0.5, 0.5, 2.0))
    write_desk(lv, tmp_path / "lv.json")
    back = read_desk(tmp_path / "lv.json")
    assert np.array_equal(back.voxels, lv.voxels)
    assert back.geometry == lv.geometry

    pv = one_hot_volume(lv)
    write_desk(pv, tmp_path / "pv.json")
    assert np.array_equal(read_desk(tmp_path / "pv.json").channels, pv.channels)


def test_desk_and_nifti_agree(tmp_path, rng):
    lv = label_volume(rng.integers(0, 4, size=(4, 3, 5)))
    write_desk(lv, tmp_path / "v.json")
    write_nifti(lv, tmp_path / "v.nii")
    a = read_volume(tmp_path / "v.json")
    b = read_volume(tmp_path / "v.nii")
    assert np.array_equal(a.voxels, b.voxels)


@pytest.mark.parametrize(
    "header, match",
    [
        ('{"dims": [2,2,2], "spacing_mm": [1,1,1], "dtype": "uint8"}', "channels"),
        ('{"dims": "abc", "spacing_mm": [1,1,1], "dtype": "uint8", "channels": 0}', "invalid desk header"),
        ('{"dims": [2,2,2], "spacing_mm": [1,1,1], "dtype": "uint8", "channels": "x"}', "invalid desk header"),
        ('{"dims": [2,2,2], "spacing_mm": [1,1,1], "dtype": ["uint8"], "channels": 0}', "invalid desk header"),
        ("5", "invalid desk header"),
    ],
    ids=["missing-channels", "dims-string", "channels-string", "dtype-list", "not-an-object"],
)
def test_desk_header_validation(tmp_path, header, match):
    (tmp_path / "x.json").write_text(header)
    (tmp_path / "x.raw").write_bytes(b"\x00" * 8)
    with pytest.raises(FormatError, match=match):
        read_desk(tmp_path / "x.json")
    with pytest.raises(FormatError, match="x.json"):
        read_volume(tmp_path / "x.json")


def test_desk_truncated_payload_is_format_error(tmp_path):
    (tmp_path / "x.json").write_text('{"dims": [4,4,4], "spacing_mm": [1,1,1], "dtype": "uint8", "channels": 0}')
    (tmp_path / "x.raw").write_bytes(b"\x00" * 8)
    with pytest.raises(FormatError, match="x.json: desk payload has 8 elements, expected 64"):
        read_volume(tmp_path / "x.json")


def test_read_volume_adds_path_context(tmp_path):
    p = tmp_path / "nope.nii"
    with pytest.raises(VolumeIOError, match="nope.nii"):
        read_volume(p)
