"""Reading and writing of segmentation volumes.

Two on-disk formats are supported:

* A deliberately small NIfTI-1 subset: single-file ``.nii`` (optionally
  gzip-compressed), 348-byte header, datatype codes 2/4/16/64, with only
  the fields listed in ``_HONORED_FIELDS`` honored. Byte order is probed
  via ``sizeof_hdr``. 3D files decode to :class:`LabelVolume`, 4D files
  with 4 channels to :class:`ProbabilityVolume`. Orientation fields are
  ignored on purpose; comparison is voxel-grid to voxel-grid.

* A "desk" format for hand-written fixtures: ``<name>.json`` holding
  ``{dims, spacing_mm, dtype, channels}`` next to ``<name>.raw`` with the
  little-endian payload. The library only reads it; the test suite's
  ``write_desk`` writes it.

Payload layout matches NIfTI: x varies fastest, then y, then z; for 4D
data the channel axis is slowest (one full 3D block per channel).

Reads are bounded. The header is validated before any payload byte is
read, and nothing past the payload it declares is held. Each payload is
decoded straight into its owned, native-order memory layout ([x,y,z] or
[c,x,y,z]) a slab of z-planes of one channel at a time, and a gzip file is
inflated from disk INFLATE_BYTES at a time. Every channel of a
probability map but the last is staged in the last channel's memory,
which is not decoded yet, in slabs of SLAB_PLANES planes; the last
channel and a label map are read through one reused slab of their own of
at most SLAB_PLANES planes and SLAB_BYTES (7 planes of a 512x512 float32
channel), so a read holds the decoded array plus that one slab. An
integer probability map is decoded straight to float32, and renormalized,
if asked, in that same array. A float-typed label map is checked and cast
to uint8 chunk by chunk.

Writes run the same way backwards: each slab is transposed from the
memory layout into one reused little-endian buffer and written out, so a
write holds one slab besides the volume. In both directions a slab is
transposed a band of BAND_ROWS y-rows at a time, in two passes through a
contiguous buffer beside the slab, so that each pass reads and writes
long runs (see _transpose_into).
"""

import gzip
import json
import math
import operator
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    FormatError,
    ShapeError,
    UnsupportedDtypeError,
    ValidationError,
    VolumeIOError,
)
from .grid import (
    N_CHANNELS,
    GridGeometry,
    LabelVolume,
    ProbabilityVolume,
    check_channel_sums,
    chunk_bounds,
)

HEADER_SIZE = 348
MAGIC = b"n+1\x00"
GZIP_MAGIC = b"\x1f\x8b"
#: Largest piece of a gzip stream inflated at once, and of compressed input fed to zlib at once.
INFLATE_BYTES = 1 << 16
#: Most z-planes of one channel decoded or encoded at a time: the slab of every read and write.
SLAB_PLANES = 16
#: Most bytes of a slab of its own and its band (a write, a label map, a last channel): planes larger
#: than SLAB_BYTES / SLAB_PLANES get fewer planes a slab (at least one). Staged slabs are not capped.
SLAB_BYTES = 8 << 20
#: y-rows of the bands in which a slab is transposed between file order and memory layout.
BAND_ROWS = 32

# datatype code -> (numpy base dtype, bitpix)
DTYPE_CODES = {
    2: ("u1", 8),
    4: ("i2", 16),
    16: ("f4", 32),
    64: ("f8", 64),
}
_CODE_FOR_DTYPE = {np.dtype(base).str.lstrip("<>|="): code for code, (base, _) in DTYPE_CODES.items()}

# (offset, struct format) of every header field the parser honors.
_HONORED_FIELDS = {
    "sizeof_hdr": (0, "i"),
    "dim": (40, "8h"),
    "datatype": (70, "h"),
    "bitpix": (72, "h"),
    "pixdim": (76, "8f"),
    "vox_offset": (108, "f"),
    "scl_slope": (112, "f"),
    "scl_inter": (116, "f"),
    "magic": (344, "4s"),
}


def _read_file(path: Path) -> tuple[np.ndarray, dict]:
    """The validated header fields and the decoded payload of a NIfTI file (see _read_stream).

    Nothing past the payload end the header declares is held: a plain
    file is not read further, and the rest of a gzip stream is inflated
    in INFLATE_BYTES pieces and dropped, so its CRC and length are still
    checked.
    """
    with open(path, "rb") as f:
        if f.read(2) != GZIP_MAGIC:
            f.seek(0)
            return _read_stream(f)
        f.seek(0)
        stream = _Gunzip(f)
        try:
            arr, fields = _read_stream(stream)
            stream.drain()
        except (EOFError, zlib.error) as exc:
            raise FormatError(f"corrupt gzip stream: {exc}") from exc
    return arr, fields


def _inflate(f):
    """Yield the inflated bytes of the gzip file ``f`` in pieces of at most INFLATE_BYTES.

    Compressed bytes are read INFLATE_BYTES at a time. Every member is
    read in turn, skipping zero padding after each, as gzip does. zlib
    checks each member's CRC-32 and length; a corrupt or truncated stream
    raises zlib.error or EOFError.
    """
    data = f.read(INFLATE_BYTES)
    while data:
        inflater = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)  # gzip framing
        while not inflater.eof:
            if not data:
                data = f.read(INFLATE_BYTES)
                if not data:
                    raise EOFError("compressed stream ended before the end-of-stream marker")
            yield inflater.decompress(data, INFLATE_BYTES)
            data = inflater.unconsumed_tail
        data = inflater.unused_data.lstrip(b"\x00")
        while not data and (more := f.read(INFLATE_BYTES)):
            data = more.lstrip(b"\x00")


class _Gunzip:
    """A gzip file, inflated on demand and read like a file with ``readinto``."""

    def __init__(self, f):
        self._pieces = _inflate(f)
        self._left = memoryview(b"")  # inflated bytes not yet handed out

    def readinto(self, buf) -> int:
        view, n = memoryview(buf), 0
        while n < len(view):
            if not self._left:
                piece = next(self._pieces, None)
                if piece is None:
                    break
                self._left = memoryview(piece)
            k = min(len(view) - n, len(self._left))
            view[n : n + k] = self._left[:k]
            self._left = self._left[k:]
            n += k
        return n

    def drain(self) -> None:
        """Inflate and drop the rest of the stream."""
        for _ in self._pieces:
            pass


def _read_stream(stream) -> tuple[np.ndarray, dict]:
    """Header fields and decoded payload of a NIfTI stream.

    The header is validated before any payload byte is read.
    """
    head = bytearray(HEADER_SIZE)
    head = head[: stream.readinto(head)]
    fields = _parse_header(head)
    slope, inter = float(fields["scl_slope"]), float(fields["scl_inter"])
    scale = None if slope == 0.0 or (slope == 1.0 and inter == 0.0) else (slope, inter)  # slope 0: unscaled
    got = len(head) + _skip(stream, fields["vox_offset"] - len(head))
    arr, n = _read_payload(stream, fields["dtype"], fields["geometry"].dims, fields["channels"], scale)
    got += n
    if got < fields["end"]:
        raise FormatError(
            f"payload truncated: need {fields['end'] - fields['vox_offset']} bytes at offset "
            f"{fields['vox_offset']}, file has {got - fields['vox_offset']}"
        )
    return arr, fields


def _skip(stream, n: int) -> int:
    """Read and drop up to ``n`` bytes of ``stream``, INFLATE_BYTES at a time; the number dropped."""
    buf, done = memoryview(bytearray(min(n, INFLATE_BYTES))), 0
    while done < n and (k := stream.readinto(buf[: n - done])):
        done += k
    return done


def _slab_planes(capacity: int, plane_bytes: int, band_bytes: int, dz: int) -> int:
    """z-planes of one channel, at most SLAB_PLANES and ``dz``, whose file bytes and band
    (``plane_bytes`` and ``band_bytes`` a plane) fit in ``capacity`` bytes; 0 if not one does."""
    return min(SLAB_PLANES, dz, capacity // (plane_bytes + band_bytes))


def _band_bytes(dx: int, dy: int, itemsize: int) -> int:
    """Band bytes per z-plane of a slab: BAND_ROWS y-rows of ``itemsize`` values, or none
    when a slab fits in one band and is copied in one assignment."""
    return BAND_ROWS * dx * itemsize if dy > BAND_ROWS else 0


def _split(buf: np.ndarray, planes: int, plane_bytes: int, band_bytes: int, band_dtype) -> tuple[np.ndarray, np.ndarray]:
    """The slab (``planes`` z-planes of file bytes) and the band laid out in the uint8 ``buf``.

    The band comes first: its size is a multiple of its itemsize, which is at
    least the file's, so both stay aligned.
    """
    split = planes * band_bytes
    return buf[split : split + planes * plane_bytes], buf[:split].view(band_dtype)


def _transpose_into(layout: np.ndarray, file: np.ndarray, band: np.ndarray, decode: bool) -> None:
    """``layout[...] = file.transpose(2, 1, 0)`` if ``decode``, else the reverse, one band of y-rows at a time.

    ``layout`` is a slab in memory layout [x, y, z], ``file`` the same slab in
    file order [z, y, x], and ``band`` a flat buffer of layout's dtype, of at
    least BAND_ROWS x-rows of the slab. A whole-slab assignment walks its
    destination in C order, and consecutive values along its last axis lie
    far apart in its source, so nearly every value copied touches another
    page. Each band of y-rows is instead copied in two passes: a 2D
    transpose between the file's [z, rows * x] rows, each read or written
    in long runs, and the contiguous band as [rows * x, z]; and a copy
    between the band as [x, rows, z] and the layout, whose z-runs are
    whole. Writes run the two passes backwards. The file-side pass
    converts byte order and dtype as the whole-slab assignment does, and a
    slab that fits in one band is copied in one assignment.
    """
    dx, dy, nz = layout.shape
    if dy <= BAND_ROWS:
        if decode:
            layout[...] = file.transpose(2, 1, 0)
        else:
            file[...] = layout.transpose(2, 1, 0)
        return
    for y0 in range(0, dy, BAND_ROWS):
        rows = min(BAND_ROWS, dy - y0)
        flat = file[:, y0 : y0 + rows].reshape(nz, rows * dx)  # a view: each plane's rows are contiguous
        columns = band[: rows * dx * nz].reshape(rows * dx, nz)
        sheet = columns.reshape(rows, dx, nz).transpose(1, 0, 2)
        if decode:
            columns[...] = flat.T
            layout[:, y0 : y0 + rows] = sheet
        else:
            # numpy walks an assignment in its destination's order, which here would step the
            # layout's x by a whole y-z sheet a value: read BAND_ROWS x-columns of it at a time
            for x0 in range(0, dx, BAND_ROWS):
                sheet[x0 : x0 + BAND_ROWS] = layout[x0 : x0 + BAND_ROWS, y0 : y0 + rows]
            flat.T[...] = columns


def _read_payload(stream, dtype: np.dtype, dims, channels: int, scale=None) -> tuple[np.ndarray, int]:
    """Decode an x-fastest payload straight into an owned, native-order array in memory layout.

    The array is [x,y,z] if ``channels`` is 0, else [c,x,y,z]. A ``scale``
    of (slope, inter) maps each value p to ``p * slope + inter``, with the
    dtype and the bits the whole-array expression gives. Without one the
    file's dtype is kept, except that integer channels decode to float32,
    which holds every uint8 and int16 value exactly.

    The stream is read a slab of z-planes of one channel at a time, and each
    slab is byte-swapped, transposed (see _transpose_into), cast and scaled
    into place. Every channel but the last is staged in the last channel's
    memory, not decoded yet: each slab, with its band, holds as many planes
    up to SLAB_PLANES as that memory does, whatever SLAB_BYTES allows (the
    decoded itemsize is never below the file's, so it holds at least one
    channel of file bytes). The last channel and a label map are read
    through one slab and band of their own, of at most SLAB_PLANES planes
    and SLAB_BYTES (at least one plane), so a read holds the array and that
    one buffer.

    Returns the array and the number of bytes read. Fewer than the
    payload means the stream ended first and the array is incomplete.
    """
    dx, dy, dz = dims
    native = dtype.newbyteorder("=")
    shape = (dx, dy, dz) if channels == 0 else (channels, dx, dy, dz)
    if scale is not None:
        out_dtype = np.result_type(native, scale[0])
    elif channels and native.kind != "f":
        out_dtype = np.dtype(np.float32)
    else:
        out_dtype = native
    plane, band = dy * dx * dtype.itemsize, _band_bytes(dx, dy, out_dtype.itemsize)
    own_planes = max(1, _slab_planes(SLAB_BYTES, plane, band, dz))
    try:
        # pages of a truncated stream's missing planes are never touched
        out = np.empty(shape, dtype=out_dtype)
        own = np.empty(own_planes * (plane + band), dtype=np.uint8)
    except (MemoryError, ValueError) as exc:
        n_bytes = math.prod(shape) * dtype.itemsize
        raise FormatError(f"header declares {n_bytes} payload bytes, more than can be held: {exc}") from exc
    blocks = out if channels else (out,)
    staged_planes = _slab_planes(blocks[-1].nbytes, plane, band, dz)

    got = 0
    for c, block in enumerate(blocks):
        planes, buf = own_planes, own
        if c < len(blocks) - 1 and staged_planes:
            planes, buf = staged_planes, blocks[-1].reshape(-1).view(np.uint8)
        slab, band_buf = _split(buf, planes, plane, band, out_dtype)
        for z0 in range(0, dz, planes):
            part = block[:, :, z0 : z0 + planes]
            n_bytes = part.shape[2] * plane
            n = stream.readinto(slab[:n_bytes])
            got += n
            if n < n_bytes:
                return out, got
            _transpose_into(part, slab[:n_bytes].view(dtype).reshape(-1, dy, dx), band_buf, decode=True)
            if scale is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected by the caller
                    part *= scale[0]
                    part += scale[1]
    return out, got


def _write_payload(f, arr: np.ndarray) -> None:
    """Write ``arr`` ([x,y,z] or [c,x,y,z]) to ``f`` as a little-endian x-fastest payload.

    Each slab of z-planes of one channel is transposed (see _transpose_into)
    into one reused buffer of at most SLAB_PLANES planes and SLAB_BYTES with
    its band, and written INFLATE_BYTES at a time, so a write holds one slab
    besides the array, and a gzip ``f`` compresses, and holds the output
    of, one piece at a time.
    """
    dx, dy, dz = arr.shape[-3:]
    plane, band = dy * dx * arr.itemsize, _band_bytes(dx, dy, arr.itemsize)
    planes = max(1, _slab_planes(SLAB_BYTES, plane, band, dz))
    slab, band_buf = _split(np.empty(planes * (plane + band), dtype=np.uint8), planes, plane, band, arr.dtype)
    file_dtype = arr.dtype.newbyteorder("<")
    for block in arr if arr.ndim == 4 else (arr,):
        for z0 in range(0, dz, planes):
            part = block[:, :, z0 : z0 + planes]
            data = slab[: part.shape[2] * plane]
            _transpose_into(part, data.view(file_dtype).reshape(-1, dy, dx), band_buf, decode=False)
            for start in range(0, len(data), INFLATE_BYTES):
                f.write(data[start : start + INFLATE_BYTES])


def _parse_header(raw: bytes) -> dict:
    """Honored header fields, validated, plus the payload's numpy ``dtype``,
    ``geometry``, ``channels`` (0 for a 3D volume), integer ``vox_offset``
    and ``end`` offset."""
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"file too small for a NIfTI-1 header ({len(raw)} bytes)")
    (le_probe,) = struct.unpack_from("<i", raw, 0)
    if le_probe == HEADER_SIZE:
        endian = "<"
    else:
        (be_probe,) = struct.unpack_from(">i", raw, 0)
        if be_probe != HEADER_SIZE:
            raise FormatError(
                f"sizeof_hdr is {le_probe} (LE) / {be_probe} (BE), expected {HEADER_SIZE}"
            )
        endian = ">"
    fields = {}
    for name, (offset, fmt) in _HONORED_FIELDS.items():
        values = struct.unpack_from(endian + fmt, raw, offset)
        fields[name] = values[0] if len(values) == 1 else values
    if fields["magic"] != MAGIC:
        raise FormatError(f"bad magic {fields['magic']!r}, expected {MAGIC!r}")

    code = fields["datatype"]
    if code not in DTYPE_CODES:
        raise UnsupportedDtypeError(f"datatype code {code} not in supported set {sorted(DTYPE_CODES)}")
    base, bitpix = DTYPE_CODES[code]
    if fields["bitpix"] != bitpix:
        raise FormatError(f"bitpix {fields['bitpix']} inconsistent with datatype {code}")

    dim = fields["dim"]
    ndim = dim[0]
    if ndim not in (3, 4):
        raise ShapeError(f"dim[0]={ndim}; only 3D label and 4D probability volumes are supported")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in dims):
        raise FormatError(f"non-positive spatial dims {dims}")
    channels = int(dim[4]) if ndim == 4 else 0
    if ndim == 4 and channels != N_CHANNELS:
        raise ShapeError(f"4D volume has {channels} channels, expected {N_CHANNELS}")

    spacing = tuple(float(s) for s in fields["pixdim"][1:4])
    if any(not 0 < s < math.inf for s in spacing):
        raise FormatError(f"non-positive or non-finite pixdim spacing {spacing}")
    geometry = GridGeometry(dims, spacing)

    if not HEADER_SIZE <= fields["vox_offset"] < math.inf:  # NaN fails too
        raise FormatError(f"vox_offset {fields['vox_offset']} is not a finite value >= {HEADER_SIZE}")
    vox_offset = int(fields["vox_offset"])
    dtype = np.dtype(endian + base)
    n_bytes = max(channels, 1) * geometry.n_voxels * dtype.itemsize
    return {**fields, "dtype": dtype, "geometry": geometry, "channels": channels,
            "vox_offset": vox_offset, "end": vox_offset + n_bytes}


def _as_label(arr: np.ndarray, geometry: GridGeometry) -> LabelVolume:
    """The label map of a decoded 3D volume: integer class ids 0..N_CHANNELS-1.

    A float-typed volume (a float file, or a scaled one) must hold only
    integers; it is checked and cast to uint8 chunk by chunk
    (grid.chunk_bounds) into one preallocated array, so the check makes
    no full-size temporary.
    """
    if arr.dtype.kind == "f":
        labels = np.empty(arr.shape, dtype=np.uint8)
        flat, flat_labels = arr.reshape(-1), labels.reshape(-1)
        lo = hi = flat[0]
        for start, stop in chunk_bounds(flat.size):
            chunk = flat[start:stop]
            if not (np.array_equal(np.rint(chunk), chunk) and np.isfinite(chunk).all()):
                raise FormatError("3D volume holds non-integer or non-finite values; cannot be a label map")
            lo, hi = min(lo, chunk.min()), max(hi, chunk.max())
            if 0 <= lo and hi < N_CHANNELS:  # else the range check below fails: cast nothing out of range
                flat_labels[start:stop] = chunk
    else:
        labels, lo, hi = arr, arr.min(), arr.max()
    if lo < 0 or hi >= N_CHANNELS:
        bad = int(lo) if lo < 0 else int(hi)
        raise FormatError(f"label volume contains class id {bad} outside 0..{N_CHANNELS - 1}")
    return LabelVolume(geometry, labels)


def _as_volume(arr: np.ndarray, geometry: GridGeometry, channels: int, renormalize: bool) -> LabelVolume | ProbabilityVolume:
    """The volume of a decoded array: with no channels its label map, else its probability
    map, checked, and renormalized in place if asked: the reader owns ``arr`` until
    ProbabilityVolume freezes it."""
    if channels == 0:
        return _as_label(arr, geometry)
    check_channel_sums(arr, renormalize)
    return ProbabilityVolume(geometry, arr)


def read_nifti(path, renormalize: bool = False) -> LabelVolume | ProbabilityVolume:
    """Decode a single-file NIfTI-1 volume (gzip detected by magic bytes).

    3D files become LabelVolume, 4D files ProbabilityVolume. The
    ``renormalize`` flag divides each voxel of a probability map by its
    channel sum instead of rejecting out-of-tolerance sums.
    """
    arr, fields = _read_file(Path(path))
    return _as_volume(arr, fields["geometry"], fields["channels"], renormalize)


def _nifti_dtype_code(arr: np.ndarray) -> tuple[int, int]:
    key = arr.dtype.str.lstrip("<>|=")
    if key not in _CODE_FOR_DTYPE:
        raise UnsupportedDtypeError(f"cannot encode dtype {arr.dtype} as NIfTI")
    code = _CODE_FOR_DTYPE[key]
    return code, DTYPE_CODES[code][1]


def write_nifti(volume: LabelVolume | ProbabilityVolume, path) -> None:
    """Write a volume as little-endian NIfTI-1 (gzipped iff path ends .gz).

    Output is byte-deterministic: fixed vox_offset 352, zeroed unused
    header fields, gzip mtime pinned to 0. The payload is written one slab
    at a time (see _write_payload).
    """
    path = Path(path)
    if isinstance(volume, LabelVolume):
        arr, dim0, dim4 = volume.voxels, 3, 1
    else:
        arr, dim0, dim4 = volume.channels, 4, N_CHANNELS
    code, bitpix = _nifti_dtype_code(arr)
    dx, dy, dz = volume.geometry.dims

    header = bytearray(HEADER_SIZE + 4)  # 4 zero bytes of extension flag up to vox_offset 352
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, dim0, dx, dy, dz, dim4, 1, 1, 1)
    struct.pack_into("<h", header, 70, code)
    struct.pack_into("<h", header, 72, bitpix)
    struct.pack_into("<8f", header, 76, 1.0, *volume.geometry.spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", header, 108, 352.0)
    struct.pack_into("<f", header, 112, 1.0)  # scl_slope: identity
    struct.pack_into("<f", header, 116, 0.0)
    struct.pack_into("<4s", header, 344, MAGIC)

    try:
        with open(path, "wb") as f:
            if path.suffix == ".gz":
                with gzip.GzipFile(filename="", mode="wb", fileobj=f, mtime=0) as gz:
                    gz.write(header)
                    _write_payload(gz, arr)
            else:
                f.write(header)
                _write_payload(f, arr)
    except OSError as exc:
        raise VolumeIOError(f"cannot write {path}: {exc}") from exc


DESK_DTYPES = {"uint8": "u1", "int16": "i2", "float32": "f4", "float64": "f8"}


def read_desk(path, renormalize: bool = False) -> LabelVolume | ProbabilityVolume:
    """Read the JSON-header desk format (fixture-friendly twin of read_nifti)."""
    path = Path(path)
    try:
        meta = json.loads(path.read_text())
        for key in ("dims", "spacing_mm", "dtype", "channels"):
            if key not in meta:
                raise FormatError(f"desk header missing key {key!r}")
        if meta["dtype"] not in DESK_DTYPES:
            raise UnsupportedDtypeError(f"desk dtype {meta['dtype']!r} not in {sorted(DESK_DTYPES)}")
        try:
            channels = operator.index(meta["channels"])
        except TypeError:
            raise ValidationError(f"channels must be an integer, got {meta['channels']!r}") from None
        if channels not in (0, N_CHANNELS):
            raise ShapeError(f"desk channels must be 0 (labels) or {N_CHANNELS}, got {channels}")
        geometry = GridGeometry(tuple(meta["dims"]), tuple(meta["spacing_mm"]))  # ValidationError if not positive (integer dims)
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:  # JSONDecodeError is a ValueError
        raise FormatError(f"invalid desk header: {exc}") from exc
    n_elem = max(channels, 1) * geometry.n_voxels
    dtype = np.dtype("<" + DESK_DTYPES[meta["dtype"]])
    with open(path.with_suffix(".raw"), "rb") as f:
        arr, got = _read_payload(f, dtype, geometry.dims, channels)
    if got < n_elem * dtype.itemsize:
        raise FormatError(f"desk payload has {got // dtype.itemsize} elements, expected {n_elem}")
    return _as_volume(arr, geometry, channels, renormalize)


def read_volume(path, renormalize: bool = False) -> LabelVolume | ProbabilityVolume:
    """Dispatch on extension: ``.json`` -> desk format, else NIfTI.

    All failures are re-raised with the file path in the message.
    """
    path = Path(path)
    try:
        if path.suffix == ".json":
            return read_desk(path, renormalize=renormalize)
        return read_nifti(path, renormalize=renormalize)
    except (VolumeIOError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except OSError as exc:
        raise VolumeIOError(f"{path}: {exc}") from exc
