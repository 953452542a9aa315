"""Volume reading/writing: header subset, endianness, round trips."""

import gzip
import itertools
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decode_payload_reference, geom, label_volume, one_hot_volume
from voxeval.errors import (
    ChannelSumError,
    FormatError,
    ShapeError,
    UnsupportedDtypeError,
    VolumeIOError,
)
from voxeval.grid import LabelVolume, ProbabilityVolume, validate_probability_sums
from voxeval.nifti import (
    DESK_DTYPES,
    DTYPE_CODES,
    read_desk,
    read_nifti,
    SLAB_PLANES,
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


@pytest.mark.parametrize("slope, inter", [(1.0, float("inf")), (float("inf"), 1.0), (-1.0, float("-inf"))])
def test_infinite_scaled_labels_are_format_errors(tmp_path, slope, inter):
    p = tmp_path / "bad.nii"
    p.write_bytes(build_nifti((2, 2, 2), 2, bytes([1] * 8), scl_slope=slope, scl_inter=inter))
    with pytest.raises(FormatError, match="bad.nii: 3D volume holds non-integer or non-finite values"):
        read_volume(p)


def test_infinite_pixdim_is_format_error(tmp_path):
    p = tmp_path / "bad.nii"
    p.write_bytes(build_nifti((2, 2, 2), 2, bytes(8), spacing=(1.0, float("inf"), 1.0)))
    with pytest.raises(FormatError, match="non-finite pixdim"):
        read_volume(p)


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


@pytest.mark.parametrize(
    "geometry, match",
    [
        ('"dims": [0, 4, 4], "spacing_mm": [1, 1, 1], "channels": 0', "(dims|spacing) must be 3 positive"),
        ('"dims": [4, 4, 4], "spacing_mm": [0, 1, 1], "channels": 0', "(dims|spacing) must be 3 positive"),
        ('"dims": [2.7, 3, 2], "spacing_mm": [1, 1, 1], "channels": 0', r"dims must be 3 positive integers, got \(2.7, 3, 2\)"),
        ('"dims": [4.0, 4, 4], "spacing_mm": [1, 1, 1], "channels": 0', "dims must be 3 positive integers"),
        ('"dims": [2, "3", 2], "spacing_mm": [1, 1, 1], "channels": 0', "dims must be 3 positive integers"),
        ('"dims": [2, 3, 2], "spacing_mm": [1, 1, 1], "channels": 0.9', "channels must be an integer, got 0.9"),
        ('"dims": [2, 3, 2], "spacing_mm": [1, 1, 1], "channels": 4.0', "channels must be an integer, got 4.0"),
    ],
    ids=["zero-dim", "zero-spacing", "fractional-dim", "float-dim", "string-dim", "fractional-channels", "float-channels"],
)
def test_desk_bad_geometry_is_format_error_naming_file(tmp_path, geometry, match):
    (tmp_path / "x.json").write_text('{' + geometry + ', "dtype": "uint8"}')
    (tmp_path / "x.raw").write_bytes(b"\x00" * 64)
    with pytest.raises(FormatError, match="x.json: invalid desk header: " + match):
        read_volume(tmp_path / "x.json")


def test_read_volume_adds_path_context(tmp_path):
    p = tmp_path / "nope.nii"
    with pytest.raises(VolumeIOError, match="nope.nii"):
        read_volume(p)


def _write_gzip_bomb(path, declared_payload: bytes, trailing_mib: int) -> None:
    """A .nii.gz whose header declares ``declared_payload`` but whose stream runs on with zeros."""
    with gzip.GzipFile(path, "wb", mtime=0) as gz:
        gz.write(build_nifti((2, 2, 2), 2, declared_payload, vox_offset=352.0))
        zeros = bytes(1 << 20)
        for _ in range(trailing_mib):
            gz.write(zeros)


def test_gzip_inflation_is_bounded_by_the_declared_payload(tmp_path):
    import tracemalloc

    p = tmp_path / "bomb.nii.gz"
    _write_gzip_bomb(p, bytes([0, 1, 2, 3, 0, 1, 2, 3]), trailing_mib=256)
    assert p.stat().st_size < (1 << 20)
    tracemalloc.start()
    try:
        v = read_volume(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.voxels.ravel(order="F").tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
    assert peak < 16 << 20


def test_gzip_crc_mismatch_and_truncation_are_format_errors(tmp_path):
    p = tmp_path / "v.nii.gz"
    write_nifti(label_volume(np.arange(24).reshape(2, 3, 4) % 4), p)
    good = p.read_bytes()
    read_volume(p)
    flipped = bytearray(good)
    flipped[-8] ^= 0xFF  # first byte of the CRC-32 trailer
    p.write_bytes(bytes(flipped))
    with pytest.raises(FormatError, match=r"v\.nii\.gz: corrupt gzip stream"):
        read_volume(p)
    for cut in (4, 9, len(good) // 2):
        p.write_bytes(good[:-cut])
        with pytest.raises(FormatError, match="corrupt gzip stream"):
            read_volume(p)
    p.write_bytes(good + good)  # a second member still reads, and its CRC is checked too
    assert np.array_equal(read_volume(p).voxels, np.arange(24).reshape(2, 3, 4) % 4)


def test_bytes_past_the_declared_payload_are_ignored(tmp_path):
    p = tmp_path / "long.nii"
    p.write_bytes(build_nifti((2, 2, 2), 2, bytes(8) + b"\xff" * 4096))
    assert not read_volume(p).voxels.any()


def _file_payload(values: np.ndarray, dtype) -> bytes:
    """``values`` ([x,y,z] or [c,x,y,z]) as file bytes: x fastest, channel slowest."""
    order = (2, 1, 0) if values.ndim == 3 else (0, 3, 2, 1)
    return np.ascontiguousarray(values.transpose(order)).astype(dtype).tobytes()


def _readable_values(rng, base: str, dims, channels: int, scaled: bool) -> np.ndarray:
    """Values read_volume accepts after any scaling: labels 0..3, or channels summing to 1.

    Scaled labels are 0/1 for a (2, 1) scale; scaled channels sum to 4 for (0.25, 0).
    """
    if channels == 0:
        return rng.integers(0, 2 if scaled else 4, size=dims).astype(base)
    if base in ("u1", "i2"):
        counts = rng.multinomial(4 if scaled else 1, [0.25] * channels, size=dims)
        return np.moveaxis(counts, -1, 0).astype(base)
    raw = rng.random((channels, *dims)) + 1e-3
    return (raw / raw.sum(axis=0) * (4 if scaled else 1)).astype(base)


_DECODE_CASES = [
    (container, base, endian)
    for container, base, endian in itertools.product(("nii", "nii.gz", "desk"), ("u1", "i2", "f4", "f8"), "<>")
    if not (container == "desk" and endian == ">")  # desk payloads are little-endian
]


@pytest.mark.parametrize("container, base, endian", _DECODE_CASES)
def test_slab_decode_matches_whole_array_decode(tmp_path, container, base, endian):
    rng = np.random.default_rng(11)
    dtype = np.dtype(endian + base)
    code = {b: c for c, (b, _) in DTYPE_CODES.items()}[base]
    desk_name = {v: k for k, v in DESK_DTYPES.items()}[base]
    grid = itertools.product((0, 4), (1, 15, 16, 17, 40), (False, True), (352.0, 66000.0))
    for i, (channels, dz, scaled, vox_offset) in enumerate(grid):
        if container == "desk" and (scaled or vox_offset != 352.0):
            continue  # desk files have neither scaling nor a header gap
        dims = (3, 2, dz)
        payload = _file_payload(_readable_values(rng, base, dims, channels, scaled), dtype)
        scale = ((2.0, 1.0) if channels == 0 else (0.25, 0.0)) if scaled else None
        if container == "desk":
            path = tmp_path / f"v{i}.json"
            meta = {"dims": list(dims), "spacing_mm": [1.0, 1.0, 1.0], "dtype": desk_name, "channels": channels}
            path.write_text(json.dumps(meta))
            path.with_suffix(".raw").write_bytes(payload)
        else:
            slope, inter = scale or (0.0, 0.0)
            blob = build_nifti(dims, code, payload, endian=endian, dim4=max(channels, 1),
                               vox_offset=vox_offset, scl_slope=slope, scl_inter=inter)
            path = tmp_path / f"v{i}.{container}"
            path.write_bytes(gzip.compress(blob, mtime=0) if container == "nii.gz" else blob)

        expected = decode_payload_reference(payload, dtype, dims, channels, scale)
        # read_volume's conversion of the decoded array: float labels to uint8, integer channels to float32
        if channels == 0 and expected.dtype.kind == "f":
            expected = expected.astype(np.uint8)
        elif channels and expected.dtype.kind != "f":
            expected = expected.astype(np.float32)
        volume = read_volume(path)
        got = volume.channels if channels else volume.voxels
        case = (channels, dz, scaled, vox_offset)
        assert got.dtype == expected.dtype and got.shape == expected.shape, case
        assert got.flags.c_contiguous and got.tobytes() == expected.tobytes(), case


_CUT_PLANE = 3 * 2 * 4  # bytes per z-plane of one float32 channel of the 3x2x40 grid below


@pytest.mark.parametrize("compress", [False, True], ids=["nii", "nii.gz"])
@pytest.mark.parametrize(
    "kept",
    [SLAB_PLANES * _CUT_PLANE, 2 * SLAB_PLANES * _CUT_PLANE + 13, 40 * _CUT_PLANE],
    ids=["slab-boundary", "inside-slab", "channel-boundary"],
)
def test_payload_cut_is_truncated_with_exact_byte_counts(tmp_path, compress, kept):
    payload = _file_payload(np.full((4, 3, 2, 40), 0.25, dtype=np.float32), "<f4")
    blob = build_nifti((3, 2, 40), 16, payload[:kept], dim4=4, vox_offset=352.0)
    p = tmp_path / ("cut.nii.gz" if compress else "cut.nii")
    p.write_bytes(gzip.compress(blob, mtime=0) if compress else blob)
    message = f"payload truncated: need {len(payload)} bytes at offset 352, file has {kept}"
    with pytest.raises(FormatError, match=re.escape(message)):
        read_volume(p)


def _read_peak(path) -> tuple[np.ndarray, int]:
    """The array read_volume decodes from ``path`` and the tracemalloc peak of the read."""
    tracemalloc.start()
    try:
        volume = read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (volume.channels if isinstance(volume, ProbabilityVolume) else volume.voxels), peak


def _random_probability_nifti(rng, dims) -> bytes:
    """A 4D float32 NIfTI of normalized random channels: poorly compressible, as a real softmax is."""
    raw = rng.random((4, *dims), dtype=np.float32) + np.float32(1e-3)
    return build_nifti(dims, 16, _file_payload(raw / raw.sum(axis=0), "<f4"), dim4=4, vox_offset=352.0)


@pytest.mark.parametrize("kind", ["probability.nii", "probability.nii.gz", "label.nii"])
def test_read_holds_at_most_the_decoded_array_and_one_slab(tmp_path, rng, kind):
    dims = (64, 64, 40)
    if kind.startswith("label"):
        blob = build_nifti(dims, 2, _file_payload(rng.integers(0, 4, size=dims), "u1"), vox_offset=352.0)
    else:
        blob = _random_probability_nifti(rng, dims)
    p = tmp_path / kind
    p.write_bytes(gzip.compress(blob, compresslevel=1, mtime=0) if kind.endswith(".gz") else blob)
    arr, peak = _read_peak(p)
    slab = SLAB_PLANES * dims[0] * dims[1] * arr.itemsize
    assert peak <= arr.nbytes + slab + (1 << 20)


def test_incompressible_gzip_read_does_not_hold_the_compressed_file(tmp_path, rng):
    dims = (128, 128, 40)
    p = tmp_path / "softmax.nii.gz"
    p.write_bytes(gzip.compress(_random_probability_nifti(rng, dims), compresslevel=1, mtime=0))
    arr, peak = _read_peak(p)
    slab = SLAB_PLANES * dims[0] * dims[1] * arr.itemsize
    margin = 2 << 20
    assert p.stat().st_size > 2 * margin  # holding the compressed file would break the bound
    assert peak < arr.nbytes + slab + margin


# Header fields the reader honors: (offset, struct format of one element, element count, values).
_INT16 = st.integers(-(2**15), 2**15 - 1)
_FLOAT32 = st.sampled_from([0.0, 1.0, -1.0, 3.0, 3e38, float("inf"), float("-inf"), float("nan")]) | st.floats(width=32)
_HEADER_MUTATIONS = {
    "sizeof_hdr": (0, "i", 1, st.sampled_from([348, 0, 349, 0x5C010000]) | st.integers(-(2**31), 2**31 - 1)),
    "dim": (40, "h", 8, st.integers(-2, 6) | _INT16),
    "datatype": (70, "h", 1, st.sampled_from(sorted(DTYPE_CODES)) | _INT16),
    "bitpix": (72, "h", 1, st.sampled_from([8, 16, 32, 64]) | _INT16),
    "pixdim": (76, "f", 8, _FLOAT32),
    "vox_offset": (108, "f", 1, st.sampled_from([348.0, 352.0, 351.5, 1e9]) | _FLOAT32),
    "scl_slope": (112, "f", 1, _FLOAT32),
    "scl_inter": (116, "f", 1, _FLOAT32),
    "magic": (344, "4s", 1, st.sampled_from([b"n+1\x00", b"ni1\x00"]) | st.binary(min_size=4, max_size=4)),
}
_FUZZ_LABELS = np.array([0, 1, 2, 3, 3, 2, 1, 0, 1, 1, 2, 2], dtype=np.uint8)  # 2 x 3 x 2, x fastest
_FUZZ_SOURCES = {
    "label-uint8": build_nifti((2, 3, 2), 2, _FUZZ_LABELS.tobytes(), scl_slope=1.0),  # scl_inter alone rescales
    "label-int16-be": build_nifti((2, 3, 2), 4, _FUZZ_LABELS.astype(">i2").tobytes(), endian=">"),
    "probability": build_nifti(
        (2, 3, 2), 16, np.eye(4, dtype="<f4")[_FUZZ_LABELS].T.tobytes(), dim4=4, vox_offset=352.0
    ),
}


def _resized(data, blob: bytes) -> bytes:
    """``blob`` truncated, extended with random bytes, or left as it is."""
    change = data.draw(st.sampled_from(["keep", "truncate", "extend"]))
    if change == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    if change == "extend":
        return blob + data.draw(st.binary(min_size=1, max_size=64))
    return blob


@settings(max_examples=400, deadline=None)
@given(data=st.data(), source=st.sampled_from(sorted(_FUZZ_SOURCES)), compress=st.booleans())
def test_fuzzed_nifti_reads_or_raises_volume_io_error(tmp_path_factory, data, source, compress):
    raw = bytearray(_FUZZ_SOURCES[source])
    endian = "<" if source != "label-int16-be" else ">"
    for name in data.draw(st.lists(st.sampled_from(sorted(_HEADER_MUTATIONS)), max_size=3)):
        offset, fmt, count, values = _HEADER_MUTATIONS[name]
        slot = data.draw(st.integers(0, count - 1))
        struct.pack_into(endian + fmt, raw, offset + slot * struct.calcsize(fmt), data.draw(values))
    blob = _resized(data, bytes(raw))
    if compress:
        blob = _resized(data, gzip.compress(blob, mtime=0))
    path = tmp_path_factory.mktemp("fuzz") / ("v.nii.gz" if compress else "v.nii")
    path.write_bytes(blob)
    try:
        read_volume(path, renormalize=data.draw(st.booleans()))
    except VolumeIOError:
        pass


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_DESK_VALUES = {
    "dims": st.lists(st.integers(-2, 5) | st.integers(), min_size=2, max_size=4),
    "spacing_mm": st.lists(st.floats() | st.integers(-1, 3), min_size=2, max_size=4),
    "dtype": st.sampled_from(sorted(DESK_DTYPES)) | st.text(max_size=8),
    "channels": st.sampled_from([0, 4, 3, -1]) | st.integers() | st.floats(),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), probability=st.booleans())
def test_fuzzed_desk_reads_or_raises_volume_io_error(tmp_path_factory, data, probability):
    meta = {"dims": [2, 3, 2], "spacing_mm": [1.0, 1.0, 1.0], "dtype": "uint8", "channels": 0}
    payload = _FUZZ_LABELS.tobytes()
    if probability:
        meta.update(dtype="float32", channels=4)
        payload = np.eye(4, dtype="<f4")[_FUZZ_LABELS].T.tobytes()
    for key in data.draw(st.lists(st.sampled_from(sorted(meta)), max_size=3)):
        change = data.draw(st.sampled_from(["drop", "typed", "any"]))
        if change == "drop":
            meta.pop(key, None)
        else:
            meta[key] = data.draw(_DESK_VALUES[key] if change == "typed" else _JSON_VALUES)
    if data.draw(st.booleans()):
        meta = data.draw(_JSON_VALUES)  # not an object at all, most of the time
    path = tmp_path_factory.mktemp("fuzz") / "v.json"
    path.write_text(json.dumps(meta))
    path.with_suffix(".raw").write_bytes(_resized(data, payload))
    try:
        read_volume(path)
    except VolumeIOError:
        pass
