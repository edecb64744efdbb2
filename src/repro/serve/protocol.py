"""Wire protocol of the serving daemon (``tz-serve/v2``): length-prefixed
frames of a JSON header plus raw array blobs.

One frame is a 4-byte big-endian payload length followed by that many
payload bytes.  A message with no numpy array in it is sent as plain
UTF-8 JSON, byte for byte what ``tz-serve/v1`` sent, so any client in
any language can speak the control ops with a socket and a JSON library.
A message that carries arrays — a route request's ``pairs``, the
columns of a route answer's ``result`` — is sent as::

    header  compact UTF-8 JSON: the message without its arrays, plus an
            "arrays" manifest {name: {dtype, shape, offset, nbytes}}
    NUL     one zero byte (never valid inside JSON text)
    ...zero pad to a 64-byte boundary of the payload...
    blobs   each array's raw little-endian bytes, 64-byte aligned

The blob layout and its validator are the ones the ``.tzs`` container
uses (:func:`repro.store.format.pack_blobs` /
:func:`~repro.store.format.unpack_blobs`), so disk and wire share one
codec.  A nested array is named by its dotted path (``result.weight``).
Arrays travel in their exact dtypes, so the codec is bit-exact by
construction, and decoding copies nothing: every decoded array is a
**view into the frame's payload buffer**.

The length prefix gives the server an *a-priori* bound check: a frame
claiming more than ``max_bytes`` is rejected before a single payload
byte is read, so a hostile or broken client cannot make the daemon
allocate unbounded memory.  Any malformed payload — garbage JSON, a
non-object, a manifest that points outside the frame or names a
non-numeric dtype — raises :class:`~repro.errors.ProtocolError`.

Every response carries ``"ok"``: ``true`` with op-specific fields, or
``false`` with an ``"error"`` code (one of :data:`ERROR_CODES`) and a
human-readable ``"message"``.  The route answer carries
:class:`~repro.sim.engine.batch.BatchResult` column by column through
:func:`result_to_wire` / :func:`result_from_wire`.

Sync helpers (:func:`read_frame` / :func:`write_frame`) serve the
blocking client side (load generator, tests); the daemon reads frames
through :func:`read_frame_async` on an :class:`asyncio.StreamReader`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Dict, Optional

import numpy as np

from ..errors import EncodingError, ProtocolError
from ..sim.engine.batch import BatchResult
from ..store.format import align, blob_chunks, pack_blobs, unpack_blobs

#: Protocol revision carried in every ``ping`` response.
PROTOCOL_VERSION = 2

#: Default per-frame payload ceiling.  A route answer costs 50 bytes per
#: pair, so this admits batches of up to ~670k pairs.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LEN = struct.Struct(">I")

#: Header key of a blob frame's array manifest (reserved in messages
#: that carry arrays).
_MANIFEST = "arrays"

#: Room reserved for a route answer's JSON header (ok/op/version/key/
#: seconds/id and the eight-entry manifest), NUL and pad when sizing
#: the answer in advance.
_ANSWER_HEADER_BYTES = 4096

#: Error codes a response's ``"error"`` field may carry.
ERROR_CODES = (
    "bad-frame",      # unparseable or non-object payload
    "bad-request",    # well-formed frame but invalid fields
    "unknown-op",     # op not in the dispatch table
    "unknown-scheme", # no such lineage/key/container in the store
    "backpressure",   # request queue full; retry later
    "timeout",        # request exceeded the daemon's per-request budget
    "routing-error",  # the route itself raised
    "shutting-down",  # daemon is draining; no new work accepted
)

#: ``BatchResult`` columns in wire order, with their exact dtypes —
#: the decode side accepts precisely these, for bit-identity.
RESULT_COLUMNS = (
    ("source", np.dtype(np.int64)),
    ("dest", np.dtype(np.int64)),
    ("delivered", np.dtype(np.bool_)),
    ("weight", np.dtype(np.float64)),
    ("hops", np.dtype(np.int64)),
    ("tree", np.dtype(np.int64)),
    ("max_header_bits", np.dtype(np.int64)),
    ("failure_code", np.dtype(np.int8)),
)


def _split_arrays(obj: dict, prefix: str, arrays: dict) -> dict:
    """``obj`` without its ndarray values, which go to ``arrays`` by path."""
    out = {}
    for key, value in obj.items():
        if isinstance(value, np.ndarray):
            arrays[f"{prefix}{key}"] = value
        elif isinstance(value, dict):
            out[key] = _split_arrays(value, f"{prefix}{key}.", arrays)
        else:
            out[key] = value
    return out


def _pairs_array(obj: dict) -> dict:
    """Route pairs given as a nested list of ints, as an int array.

    Only an integer-kind conversion is taken: any other list travels as
    JSON, where the daemon rejects it with a clear ``bad-request``.
    """
    pairs = obj.get("pairs")
    if isinstance(pairs, list) and pairs:
        try:
            arr = np.asarray(pairs)
        except ValueError:  # ragged
            return obj
        if arr.dtype.kind in "iu":
            return dict(obj, pairs=arr)
    return obj


def encode_frame(obj: dict) -> bytes:
    """Serialize one message to its on-wire form (length + payload)."""
    arrays: Dict[str, np.ndarray] = {}
    header = _split_arrays(_pairs_array(obj), "", arrays)
    if not arrays:
        payload = json.dumps(obj, separators=(",", ":")).encode()
        return _LEN.pack(len(payload)) + payload
    header[_MANIFEST], blobs, data_bytes = pack_blobs(arrays)
    hjson = json.dumps(header, separators=(",", ":")).encode()
    data_start = align(len(hjson) + 1)
    # The zero run after the header is the NUL delimiter plus the pad.
    parts = [_LEN.pack(data_start + data_bytes), hjson, bytes(data_start - len(hjson))]
    parts.extend(blob_chunks(blobs))
    return b"".join(parts)


def decode_payload(payload) -> dict:
    """Parse one frame payload; raises :class:`ProtocolError` on garbage.

    ``payload`` is ``bytes`` or a ``bytearray``; decoded arrays are
    views into it (read-only for ``bytes``).
    """
    end = payload.find(b"\0")
    try:
        obj = json.loads(payload if end < 0 else payload[:end])
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(obj).__name__}"
        )
    if end < 0:
        return obj
    data = np.frombuffer(payload, dtype=np.uint8)[align(end + 1) :]
    try:
        arrays = unpack_blobs(obj.pop(_MANIFEST, None), data)
    except EncodingError as exc:
        raise ProtocolError(f"bad array manifest: {exc}") from exc
    for name, arr in arrays.items():
        *parents, leaf = name.split(".")
        node = obj
        for key in parents:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ProtocolError(f"array {name!r} sits under a non-object field")
        if leaf in node:
            raise ProtocolError(f"array {name!r} collides with a header field")
        node[leaf] = arr
    return obj


async def read_frame_async(
    reader: asyncio.StreamReader, *, max_bytes: int = MAX_FRAME_BYTES
) -> dict:
    """Read one frame from an asyncio stream.

    Raises :class:`ProtocolError` on an oversized length prefix or a
    garbage payload, and :class:`asyncio.IncompleteReadError` when the
    peer closes mid-frame (the caller treats that as a hangup, not an
    error to answer).
    """
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > max_bytes:
        exc = ProtocolError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
        # The refused payload is still on the wire: the stream is out
        # of sync and the connection must be closed after answering.
        exc.payload_consumed = False
        raise exc
    return decode_payload(await reader.readexactly(length))


def write_frame(sock: socket.socket, obj: dict) -> None:
    """Send one message over a blocking socket (client side)."""
    sock.sendall(encode_frame(obj))


def read_frame(
    sock: socket.socket, *, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[dict]:
    """Read one frame from a blocking socket (client side).

    Returns ``None`` on a clean EOF before any byte of the frame;
    raises :class:`ProtocolError` on a mid-frame hangup, an oversized
    prefix, or a garbage payload.
    """
    header = _recv_exact(sock, _LEN.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    payload = _recv_exact(sock, length, eof_ok=False)
    return decode_payload(payload)


def _recv_exact(sock: socket.socket, count: int, *, eof_ok: bool):
    """Read exactly ``count`` bytes into one new ``bytearray``.

    Returns ``None`` on immediate EOF if ``eof_ok``.
    """
    buf = bytearray(count)
    view = memoryview(buf)
    got = 0
    while got < count:
        received = sock.recv_into(view[got:])
        if not received:
            if eof_ok and got == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{count} bytes)"
            )
        got += received
    return buf


def result_to_wire(result: BatchResult) -> Dict[str, np.ndarray]:
    """A routing result's columns in their exact wire dtypes."""
    return {
        name: np.asarray(getattr(result, name), dtype=dtype)
        for name, dtype in RESULT_COLUMNS
    }


def result_from_wire(wire: Dict[str, np.ndarray]) -> BatchResult:
    """Rebuild a :class:`BatchResult` from decoded result columns.

    The inverse of :func:`result_to_wire`: every column must be a 1-D
    array of exactly its :data:`RESULT_COLUMNS` dtype and all must have
    one length, or :class:`ProtocolError` is raised.  The columns are
    used as given (views into the frame), so the result is bit-identical
    to the one encoded.
    """
    try:
        columns = {name: wire[name] for name, _ in RESULT_COLUMNS}
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"route result lacks column {exc}") from exc
    for name, dtype in RESULT_COLUMNS:
        col = columns[name]
        if not isinstance(col, np.ndarray) or col.dtype != dtype or col.ndim != 1:
            raise ProtocolError(f"route result column {name!r} is not a 1-D {dtype} array")
    if len({col.shape[0] for col in columns.values()}) > 1:
        raise ProtocolError("route result columns have different lengths")
    return BatchResult(**columns)


def route_answer_bytes(pairs: int) -> int:
    """Upper bound on the frame that answers a route request of ``pairs`` rows.

    The blobs are sized exactly (50 bytes per pair plus alignment); the
    JSON header with its NUL and pad gets a fixed allowance.
    """
    data = 0
    for _, dtype in RESULT_COLUMNS:
        data = align(data) + dtype.itemsize * pairs
    return _LEN.size + _ANSWER_HEADER_BYTES + data


def error_response(code: str, message: str, **extra) -> dict:
    """Build one ``ok: false`` response (``code`` ∈ :data:`ERROR_CODES`)."""
    assert code in ERROR_CODES, code
    return {"ok": False, "error": code, "message": message, **extra}
