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


def _read_bytes(path: Path) -> tuple[np.ndarray, dict]:
    """The validated header fields and the file's bytes up to the payload end they declare.

    Nothing past that end is held: a plain file is not read further, and
    the rest of a gzip stream is inflated in INFLATE_BYTES pieces and
    dropped, so its CRC and length are still checked.
    """
    with open(path, "rb") as f:
        if f.read(2) != GZIP_MAGIC:
            f.seek(0)
            return _read_declared(f)
        f.seek(0)
        stream = _Gunzip(f.read())
    try:
        raw, fields = _read_declared(stream)
        stream.drain()
    except (EOFError, zlib.error) as exc:
        raise FormatError(f"corrupt gzip stream: {exc}") from exc
    return raw, fields


def _inflate(data: bytes):
    """Yield the inflated bytes of the gzip stream ``data`` in pieces of at most INFLATE_BYTES.

    Every member is read in turn, skipping zero padding after each, as
    gzip does. zlib checks each member's CRC-32 and length; a corrupt or
    truncated stream raises zlib.error or EOFError.
    """
    view, pos = memoryview(data), 0
    while pos < len(view):
        inflater, tail = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS), b""  # gzip framing
        while not inflater.eof:
            if not tail:
                if pos == len(view):
                    raise EOFError("compressed stream ended before the end-of-stream marker")
                tail = view[pos : pos + INFLATE_BYTES]
                pos += len(tail)
            yield inflater.decompress(tail, INFLATE_BYTES)
            tail = inflater.unconsumed_tail
        pos -= len(inflater.unused_data)
        while pos < len(view) and view[pos] == 0:
            pos += 1


class _Gunzip:
    """A gzip stream held in memory, read like a file with ``readinto``."""

    def __init__(self, data: bytes):
        self._pieces = _inflate(data)
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


def _read_declared(stream) -> tuple[np.ndarray, dict]:
    head = bytearray(HEADER_SIZE)
    head = head[: stream.readinto(head)]
    fields = _parse_header(head)
    raw = _read_upto(stream, fields["end"], head)
    if len(raw) < fields["end"]:
        raise FormatError(
            f"payload truncated: need {fields['end'] - fields['vox_offset']} bytes at offset "
            f"{fields['vox_offset']}, file has {len(raw) - fields['vox_offset']}"
        )
    return raw, fields


def _read_upto(stream, end: int, head=b"") -> np.ndarray:
    """The first ``end`` bytes of ``stream`` (fewer if it ends first), ``head`` being those already read."""
    try:
        buf = np.empty(end, dtype=np.uint8)  # pages the stream does not fill are never touched
    except (MemoryError, ValueError) as exc:
        raise FormatError(f"header declares {end} bytes, more than can be held: {exc}") from exc
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    return buf[: len(head) + stream.readinto(buf[len(head) :])]


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


def _decode_payload(raw: np.ndarray, fields: dict) -> np.ndarray:
    """The payload as an owned array in memory layout ([x,y,z] or [c,x,y,z]), scaled."""
    geometry, channels = fields["geometry"], fields["channels"]
    n_elem = max(channels, 1) * geometry.n_voxels
    arr = np.frombuffer(raw, dtype=fields["dtype"], count=n_elem, offset=fields["vox_offset"])
    arr = _to_memory_layout(arr, geometry.dims, channels)

    slope, inter = float(fields["scl_slope"]), float(fields["scl_inter"])
    if slope != 0.0 and not (slope == 1.0 and inter == 0.0):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected by the caller
            arr = arr * slope + inter
    return arr


def _to_memory_layout(flat: np.ndarray, dims, channels: int) -> np.ndarray:
    """Owned native-order copy of an x-fastest payload: [x,y,z] if channels is 0, else [c,x,y,z]."""
    dx, dy, dz = dims
    if channels == 0:
        view = flat.reshape(dz, dy, dx).transpose(2, 1, 0)
    else:
        view = flat.reshape(channels, dz, dy, dx).transpose(0, 3, 2, 1)
    return view.astype(flat.dtype.newbyteorder("="), order="C")  # cast and transpose in one copy


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
    raw, fields = _read_bytes(Path(path))
    arr = _decode_payload(raw, fields)
    del raw  # the array is an owned copy; free the file bytes before validation
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
        raw = _read_upto(f, n_elem * dtype.itemsize)
    if len(raw) < n_elem * dtype.itemsize:
        raise FormatError(f"desk payload has {len(raw) // dtype.itemsize} elements, expected {n_elem}")
    arr = np.frombuffer(raw, dtype=dtype, count=n_elem)
    arr = _to_memory_layout(arr, geometry.dims, channels)
    del raw
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
