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
the total data size, and a digest of the data section.  Opening a file
is therefore O(header): :func:`read_container` parses the header and
returns **views into one memory map** — no array byte is copied or even
paged in until routing touches it.  That is what makes a saved scheme
usable in milliseconds regardless of size.

The digest (``data_sha256``, one 64-hex string) is the SHA-256 of the
concatenated SHA-256 digests of the data section's
:data:`DIGEST_CHUNK`-byte chunks, the last one shorter.  Chunks hash
independently, so the writer hashes them on the worker pool
(:mod:`repro.pool`) while it writes the blobs, and ``verify_data``
re-hashes them there too.

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
store's strict mode) to pay one read of the data section and check
its digest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import threading
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

import numpy as np

from .. import pool
from ..errors import EncodingError

MAGIC = b"TZSCHEME"
#: 4: ``data_sha256`` is the digest of the data section's chunk digests
#: (see :data:`DIGEST_CHUNK`), not of the section itself.  3: scheme
#: containers store the compiled entry and step records as the native
#: kernels read them, and each array column the records hold only there.
FORMAT_VERSION = 4
#: Bytes per data-section chunk of ``data_sha256``; a format constant.
DIGEST_CHUNK = 4 << 20
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


def blob_chunks(blobs: list, lo: int = 0, hi: Optional[int] = None) -> Iterator:
    """Bytes ``[lo, hi)`` of the data section of :func:`pack_blobs`'
    ``blobs`` (default: all of it) as buffers: zero gaps, and the blobs
    or slices of them."""
    if hi is None:
        hi = blobs[-1][0] + blobs[-1][1].nbytes if blobs else 0
    pos = lo
    for off, blob in blobs:
        end = off + blob.nbytes
        if end <= pos:
            continue
        if off >= hi:
            break
        if off > pos:
            yield bytes(off - pos)
        yield blob[max(off, pos) - off : min(end, hi) - off]
        pos = min(end, hi)
    if pos < hi:
        yield bytes(hi - pos)


class _Digest:
    """The ``data_sha256`` of a ``size``-byte data section whose bytes
    ``[a, b)`` ``read(a, b)`` yields as buffers, hashed on the pool.

    One stepped task per worker (:func:`repro.pool.start_steps`) hashes
    the next unhashed chunk per step.  Claiming chunks, not fixed
    halves, keeps every worker busy while the writer's own thread shares
    a CPU with one of them; stepping lets a route or build pass handed to
    the pool meanwhile run between two chunks, not after the whole
    section.  Construction starts the hashing; :meth:`hexdigest` waits
    for it.
    """

    def __init__(self, read: Callable[[int, int], Iterator], size: int) -> None:
        """Start hashing on the pool."""
        self._read = read
        self._size = size
        self._digests = [b""] * -(-size // DIGEST_CHUNK)
        self._claimed = 0
        self._lock = threading.Lock()
        tasks = min(pool.size(), len(self._digests))
        self._hashing = pool.start_steps(self._step, tasks)

    def _step(self) -> bool:
        """Hash the next unclaimed chunk; False once none is left."""
        with self._lock:
            chunk = self._claimed
            self._claimed += 1
        if chunk >= len(self._digests):
            return False
        h = hashlib.sha256()
        lo = chunk * DIGEST_CHUNK
        for buf in self._read(lo, min(lo + DIGEST_CHUNK, self._size)):
            h.update(buf)
        self._digests[chunk] = h.digest()
        return True

    def hexdigest(self) -> str:
        """SHA-256 of the concatenated chunk digests, in chunk order."""
        self._hashing.wait()
        return hashlib.sha256(b"".join(self._digests)).hexdigest()


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
    records the manifest and the data section's digest.  The pool hashes
    the blobs while this thread writes them, both from the same view of
    each array's memory, never copied; the header, whose digest is
    always 64 hex digits long, goes in last.
    """
    manifest, blobs, data_bytes = pack_blobs({name: arrays[name] for name in sorted(arrays)})
    digest = _Digest(lambda lo, hi: blob_chunks(blobs, lo, hi), data_bytes)
    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta,
        "arrays": manifest,
        "data_bytes": data_bytes,
        "data_sha256": "0" * 64,
    }
    data_start = align(_PREAMBLE + len(json.dumps(header, sort_keys=True).encode("utf-8")))

    path = Path(path)
    # Unique per-writer tmp name: concurrent writers of the same key each
    # publish a complete file via rename; last replace wins, and no
    # reader ever maps a half-written container.
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}.{_tmp_counter()}")
    with open(tmp, "wb") as fh:
        fh.seek(data_start)
        for chunk in blob_chunks(blobs):
            fh.write(chunk)
        header["data_sha256"] = digest.hexdigest()
        hjson = json.dumps(header, sort_keys=True).encode("utf-8")
        fh.seek(0)
        fh.write(MAGIC)
        fh.write(np.uint32(FORMAT_VERSION).tobytes())
        fh.write(np.uint64(len(hjson)).tobytes())
        fh.write(np.uint32(zlib.crc32(hjson)).tobytes())
        fh.write(hjson)
        fh.write(bytes(data_start - _PREAMBLE - len(hjson)))
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
    section against the stored digest (a full read, hashed on the
    pool).  Raises
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
        digest = _Digest(lambda lo, hi: (data[lo:hi],), data_bytes).hexdigest()
        if digest != header.get("data_sha256"):
            raise _fail(path, "data checksum mismatch (corrupted arrays)")
    try:
        arrays = unpack_blobs(header.get("arrays", {}), data)
    except EncodingError as exc:
        raise _fail(path, str(exc)) from exc
    return header, arrays
