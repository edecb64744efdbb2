"""The on-disk container: a JSON header plus aligned raw array blobs.

One ``.tzs`` file holds a named set of numpy arrays (an *array
manifest*) and a small JSON header.  The layout is append-free and
mmap-friendly::

    magic   b"TZSCHEME"                      (8 bytes)
    version uint32 LE                        (4 bytes)
    hlen    uint64 LE                        (8 bytes)  header byte length
    hcrc    uint32 LE                        (4 bytes)  crc32 of the header
    header  JSON (UTF-8), ``hlen`` bytes
    ...pad to a 64-byte boundary...
    blobs   each array's raw little-endian bytes, 64-byte aligned

The header carries, per array, ``(dtype, shape, offset, nbytes)`` with
offsets relative to the data section, plus caller metadata (``meta``),
the total data size, and a SHA-256 of the data section.  Opening a file
is therefore O(header): :func:`read_container` parses the header and
returns **views into one memory map** — no array byte is copied or even
paged in until routing touches it.  That is what makes a saved scheme
usable in milliseconds regardless of size.

The blob layout is one codec pair, :func:`pack_blobs` /
:func:`unpack_blobs`, which the serving protocol
(:mod:`repro.serve.protocol`) also uses for the arrays of its frames:
disk and wire share one layout and one validator.

Every malformed-input path raises :class:`~repro.errors.EncodingError`
(bad magic, unsupported version, header corruption, truncation, arrays
pointing outside the file, negative dims, dtypes other than
little-endian bool or numeric), so a damaged store file can never be
mistaken for a scheme.  Flipped bits *inside* array blobs are invisible
to the zero-copy open by design; pass ``verify_data=True`` (or use the
store's strict mode) to pay one sequential read and check the data
SHA-256.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import zlib
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from ..errors import EncodingError

MAGIC = b"TZSCHEME"
#: 3: scheme containers store the compiled entry and step records as the
#: native kernels read them, and each array column the records hold only
#: there.
FORMAT_VERSION = 3
#: Byte alignment of every blob, relative to the start of its data section.
BLOB_ALIGN = 64
#: dtype kinds a blob may hold: bool, signed and unsigned int, float, complex.
BLOB_KINDS = "biufc"
_PREAMBLE = len(MAGIC) + 4 + 8 + 4
_tmp_counter = itertools.count().__next__


def align(offset: int) -> int:
    """Round ``offset`` up to the 64-byte blob alignment."""
    return (offset + BLOB_ALIGN - 1) // BLOB_ALIGN * BLOB_ALIGN


def _le(array: np.ndarray) -> np.ndarray:
    """The array in little-endian byte order (no copy when already LE)."""
    dt = array.dtype.newbyteorder("<")
    return np.ascontiguousarray(array, dtype=dt)


def pack_blobs(arrays: Dict[str, np.ndarray]) -> Tuple[dict, list, int]:
    """Lay out ``arrays``, in their given order, as one blob data section.

    Returns ``(manifest, blobs, data_bytes)``: the ``{name: {dtype,
    shape, offset, nbytes}}`` manifest, one ``(offset, bytes)`` pair per
    array where ``bytes`` is a flat ``uint8`` view of the array's
    little-endian contiguous form (no copy when the array already is),
    and the length of the section.  Offsets are 64-byte aligned and
    relative to the section start.  Dtypes outside :data:`BLOB_KINDS`
    raise :class:`~repro.errors.EncodingError`.
    """
    manifest = {}
    blobs = []
    offset = 0
    for name, value in arrays.items():
        arr = _le(np.asarray(value))
        if arr.dtype.kind not in BLOB_KINDS:
            raise EncodingError(f"array {name!r} has unsupported dtype {arr.dtype}")
        offset = align(offset)
        manifest[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": int(arr.nbytes),
        }
        blobs.append((offset, arr.reshape(-1).view(np.uint8)))
        offset += arr.nbytes
    return manifest, blobs, offset


def blob_chunks(blobs: list) -> Iterator:
    """The data section of :func:`pack_blobs` as buffers: zero gaps, blobs."""
    pos = 0
    for off, blob in blobs:
        if off > pos:
            yield bytes(off - pos)
        yield blob
        pos = off + blob.nbytes


def _dim(value) -> int:
    """One manifest integer: a non-negative JSON int (never a bool)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not a non-negative integer")
    return value


def unpack_blobs(manifest: dict, data: np.ndarray) -> Dict[str, np.ndarray]:
    """Validate ``manifest`` against a ``uint8`` data section; return views.

    The inverse of :func:`pack_blobs` and the one validator for every
    blob read from outside, on disk or on the wire: each entry must name
    a little-endian dtype of a kind in :data:`BLOB_KINDS`, a shape of
    non-negative ints whose size matches ``nbytes``, and a byte range
    inside ``data``.  Anything else raises
    :class:`~repro.errors.EncodingError`.  Arrays are views into
    ``data``; nothing is copied.
    """
    if not isinstance(manifest, dict):
        raise EncodingError("array manifest is not a JSON object")
    arrays: Dict[str, np.ndarray] = {}
    for name, spec in manifest.items():
        try:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(_dim(s) for s in spec["shape"])
            off = _dim(spec["offset"])
            nbytes = _dim(spec["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise EncodingError(f"malformed manifest entry {name!r}: {exc}") from exc
        if dtype.kind not in BLOB_KINDS or dtype != dtype.newbyteorder("<"):
            raise EncodingError(
                f"array {name!r} has dtype {dtype.str}, not a little-endian "
                f"bool or numeric one"
            )
        if nbytes != dtype.itemsize * math.prod(shape) or off + nbytes > data.shape[0]:
            raise EncodingError(f"array {name!r} points outside the data section")
        arrays[name] = data[off : off + nbytes].view(dtype).reshape(shape)
    return arrays


def write_container(
    path: Union[str, Path],
    arrays: Dict[str, np.ndarray],
    meta: dict,
) -> dict:
    """Write ``arrays`` + ``meta`` to ``path``; returns the full header.

    Arrays are laid out 64-byte aligned in sorted-name order; the header
    records the manifest and a SHA-256 over the whole data section.
    Each blob is hashed and written from the same view of the array's
    memory, never copied.
    """
    manifest, blobs, data_bytes = pack_blobs({name: arrays[name] for name in sorted(arrays)})
    digest = hashlib.sha256()
    for chunk in blob_chunks(blobs):
        digest.update(chunk)

    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta,
        "arrays": manifest,
        "data_bytes": data_bytes,
        "data_sha256": digest.hexdigest(),
    }
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = align(_PREAMBLE + len(hjson))

    path = Path(path)
    # Unique per-writer tmp name: concurrent writers of the same key each
    # publish a complete file via rename; last replace wins, and no
    # reader ever maps a half-written container.
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}.{_tmp_counter()}")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(FORMAT_VERSION).tobytes())
        fh.write(np.uint64(len(hjson)).tobytes())
        fh.write(np.uint32(zlib.crc32(hjson)).tobytes())
        fh.write(hjson)
        fh.write(bytes(data_start - _PREAMBLE - len(hjson)))
        for chunk in blob_chunks(blobs):
            fh.write(chunk)
    tmp.replace(path)  # atomic: readers never observe a half-written store
    return header


def container_version(path: Union[str, Path]) -> Optional[int]:
    """The format version in ``path``'s preamble; ``None`` when there is
    no file or it does not start with the container magic."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC) + 4)
    except OSError:
        return None
    if len(head) < len(MAGIC) + 4 or head[: len(MAGIC)] != MAGIC:
        return None
    return int.from_bytes(head[len(MAGIC) :], "little")


def _fail(path: Path, why: str) -> EncodingError:
    """A uniformly-worded corruption error for ``path``."""
    return EncodingError(f"cannot open scheme store {path}: {why}")


def read_container(
    path: Union[str, Path],
    *,
    verify_data: bool = False,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Open a container; returns ``(header, {name: array})``.

    Every array is a read-only view into one shared memory map
    (zero-copy).  ``verify_data=True`` additionally checks the data
    section against the stored SHA-256 (a full sequential read).  Raises
    :class:`~repro.errors.EncodingError` on any structural damage.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise _fail(path, str(exc)) from exc
    if size < _PREAMBLE:
        raise _fail(path, f"file is {size} bytes, shorter than the preamble")
    raw = np.memmap(path, dtype=np.uint8, mode="r")

    if bytes(raw[: len(MAGIC)]) != MAGIC:
        raise _fail(path, "bad magic (not a TZ scheme store)")
    version = int.from_bytes(bytes(raw[8:12]), "little")
    if version != FORMAT_VERSION:
        raise _fail(
            path,
            f"format version {version} is not the supported {FORMAT_VERSION}",
        )
    hlen = int.from_bytes(bytes(raw[12:20]), "little")
    hcrc = int.from_bytes(bytes(raw[20:24]), "little")
    if _PREAMBLE + hlen > size:
        raise _fail(path, "truncated header")
    hjson = bytes(raw[_PREAMBLE : _PREAMBLE + hlen])
    if zlib.crc32(hjson) != hcrc:
        raise _fail(path, "header checksum mismatch (corrupted file)")
    try:
        header = json.loads(hjson.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _fail(path, f"header is not valid JSON: {exc}") from exc

    if not isinstance(header, dict):
        raise _fail(path, "header is not a JSON object")
    data_start = align(_PREAMBLE + hlen)
    data_bytes = header.get("data_bytes")
    if type(data_bytes) is not int or data_bytes < 0 or data_start + data_bytes > size:
        raise _fail(
            path,
            f"truncated data section: header promises {data_bytes} bytes "
            f"at {data_start}, file has {size}",
        )
    data = raw[data_start : data_start + data_bytes]
    if verify_data:
        digest = hashlib.sha256(data).hexdigest()
        if digest != header.get("data_sha256"):
            raise _fail(path, "data checksum mismatch (corrupted arrays)")
    try:
        arrays = unpack_blobs(header.get("arrays", {}), data)
    except EncodingError as exc:
        raise _fail(path, str(exc)) from exc
    return header, arrays
