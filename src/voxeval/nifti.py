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
  little-endian payload.

Payload layout matches NIfTI: x varies fastest, then y, then z; for 4D
data the channel axis is slowest (one full 3D block per channel).

Reads are bounded. The header is validated before any payload byte is
read, and nothing past the payload it declares is held. Each payload is
decoded straight into its owned, native-order memory layout ([x,y,z] or
[c,x,y,z]) through a reused slab of SLAB_PLANES z-planes, so a read holds
the decoded array plus one slab, and a gzip file is inflated from disk
INFLATE_BYTES at a time.
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
    validate_probability_sums,
)

HEADER_SIZE = 348
MAGIC = b"n+1\x00"
GZIP_MAGIC = b"\x1f\x8b"
#: Largest piece of a gzip stream inflated at once, and of compressed input fed to zlib at once.
INFLATE_BYTES = 1 << 16
#: z-planes of one channel decoded at a time: the staging slab of every read.
SLAB_PLANES = 16

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


def _read_payload(stream, dtype: np.dtype, dims, channels: int, scale=None) -> tuple[np.ndarray, int]:
    """Decode an x-fastest payload straight into an owned, native-order array in memory layout.

    The array is [x,y,z] if ``channels`` is 0, else [c,x,y,z]. A ``scale``
    of (slope, inter) maps each value p to ``p * slope + inter``, with the
    dtype and the bits the whole-array expression gives; without one the
    file's dtype is kept. The stream is read into one reused slab of at
    most SLAB_PLANES z-planes of one channel, and each slab is
    byte-swapped, transposed and scaled into place, so a read holds the
    array and one slab.

    Returns the array and the number of bytes read. Fewer than the
    payload means the stream ended first and the array is incomplete.
    """
    dx, dy, dz = dims
    native = dtype.newbyteorder("=")
    shape = (dx, dy, dz) if channels == 0 else (channels, dx, dy, dz)
    plane = dy * dx * dtype.itemsize
    planes = min(dz, SLAB_PLANES)
    try:
        # pages of a truncated stream's missing planes are never touched
        out = np.empty(shape, dtype=native if scale is None else np.result_type(native, scale[0]))
        slab = np.empty(planes * plane, dtype=np.uint8)
    except (MemoryError, ValueError) as exc:
        n_bytes = math.prod(shape) * dtype.itemsize
        raise FormatError(f"header declares {n_bytes} payload bytes, more than can be held: {exc}") from exc

    got = 0
    for block in out if channels else (out,):
        for z0 in range(0, dz, planes):
            nz = min(planes, dz - z0)
            n = stream.readinto(slab[: nz * plane])
            got += n
            if n < nz * plane:
                return out, got
            part = block[:, :, z0 : z0 + nz]
            part[...] = slab[: nz * plane].view(dtype).reshape(nz, dy, dx).transpose(2, 1, 0)
            if scale is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected by the caller
                    part *= scale[0]
                    part += scale[1]
    return out, got


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
    if arr.dtype.kind == "f":
        rounded = np.rint(arr)
        if not (np.array_equal(rounded, arr) and np.isfinite(arr).all()):
            raise FormatError("3D volume holds non-integer or non-finite values; cannot be a label map")
        arr = rounded
    if arr.size and (arr.min() < 0 or arr.max() >= N_CHANNELS):
        bad = int(arr.min()) if arr.min() < 0 else int(arr.max())
        raise FormatError(f"label volume contains class id {bad} outside 0..{N_CHANNELS - 1}")
    if arr.dtype.kind == "f":
        arr = arr.astype(np.uint8)
    return LabelVolume(geometry, arr)


def _as_probability(arr: np.ndarray, geometry: GridGeometry, renormalize: bool) -> ProbabilityVolume:
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float32)
    arr = validate_probability_sums(arr, renormalize=renormalize)
    return ProbabilityVolume(geometry, arr)


def read_nifti(path, renormalize: bool = False) -> LabelVolume | ProbabilityVolume:
    """Decode a single-file NIfTI-1 volume (gzip detected by magic bytes).

    3D files become LabelVolume, 4D files ProbabilityVolume. The
    ``renormalize`` flag divides each voxel of a probability map by its
    channel sum instead of rejecting out-of-tolerance sums.
    """
    arr, fields = _read_file(Path(path))
    if fields["channels"] == 0:
        return _as_label(arr, fields["geometry"])
    return _as_probability(arr, fields["geometry"], renormalize)


def _nifti_dtype_code(arr: np.ndarray) -> tuple[int, int]:
    key = arr.dtype.str.lstrip("<>|=")
    if key not in _CODE_FOR_DTYPE:
        raise UnsupportedDtypeError(f"cannot encode dtype {arr.dtype} as NIfTI")
    code = _CODE_FOR_DTYPE[key]
    return code, DTYPE_CODES[code][1]


def write_nifti(volume: LabelVolume | ProbabilityVolume, path) -> None:
    """Write a volume as little-endian NIfTI-1 (gzipped iff path ends .gz).

    Output is byte-deterministic: fixed vox_offset 352, zeroed unused
    header fields, gzip mtime pinned to 0.
    """
    path = Path(path)
    if isinstance(volume, LabelVolume):
        arr = volume.voxels
        dim0, dim4 = 3, 1
        payload = np.ascontiguousarray(arr.transpose(2, 1, 0))
    else:
        arr = volume.channels
        dim0, dim4 = 4, N_CHANNELS
        payload = np.ascontiguousarray(arr.transpose(0, 3, 2, 1))
    code, bitpix = _nifti_dtype_code(arr)
    dx, dy, dz = volume.geometry.dims

    header = bytearray(HEADER_SIZE)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, dim0, dx, dy, dz, dim4, 1, 1, 1)
    struct.pack_into("<h", header, 70, code)
    struct.pack_into("<h", header, 72, bitpix)
    struct.pack_into("<8f", header, 76, 1.0, *volume.geometry.spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", header, 108, 352.0)
    struct.pack_into("<f", header, 112, 1.0)  # scl_slope: identity
    struct.pack_into("<f", header, 116, 0.0)
    struct.pack_into("<4s", header, 344, MAGIC)

    blob = bytes(header) + b"\x00" * 4 + payload.astype(payload.dtype.newbyteorder("<")).tobytes()
    try:
        if path.suffix == ".gz":
            with open(path, "wb") as f:
                with gzip.GzipFile(filename="", mode="wb", fileobj=f, mtime=0) as gz:
                    gz.write(blob)
        else:
            path.write_bytes(blob)
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
    if channels == 0:
        return _as_label(arr, geometry)
    return _as_probability(arr, geometry, renormalize)


def write_desk(volume: LabelVolume | ProbabilityVolume, path) -> None:
    path = Path(path)
    if isinstance(volume, LabelVolume):
        arr, channels = volume.voxels, 0
        payload = np.ascontiguousarray(arr.transpose(2, 1, 0))
    else:
        arr, channels = volume.channels, N_CHANNELS
        payload = np.ascontiguousarray(arr.transpose(0, 3, 2, 1))
    name = {v: k for k, v in DESK_DTYPES.items()}[arr.dtype.str.lstrip("<>|=")]
    meta = {
        "dims": list(volume.geometry.dims),
        "spacing_mm": list(volume.geometry.spacing),
        "dtype": name,
        "channels": channels,
    }
    path.write_text(json.dumps(meta, sort_keys=True) + "\n")
    path.with_suffix(".raw").write_bytes(payload.astype(payload.dtype.newbyteorder("<")).tobytes())


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
