"""Wire protocol of the serving daemon (``tz-serve/v3``): length-prefixed
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
Arrays travel in their exact dtypes and decoding copies nothing: every
decoded array is a **view into the frame's payload buffer**.

Columns travel at the narrowest width their values always fit, the
width rule the container's columns follow.  A route request's ``pairs``
go as int32 whenever every value fits (the daemon widens any integer
kind).  A route answer's ``source``, ``dest``, ``tree``, ``hops`` and
``max_header_bits`` go as int32 (:data:`RESULT_COLUMNS`): ids and trees
are below n < 2^31, hops below the ``ttl``, which the daemon refuses
from 2^31 up, so a row costs 30 bytes.  And an answer carries each
distinct pair once: when the router walked only a batch's distinct
pairs (it does once enough of them repeat), the columns hold their
answers, in order of first appearance, and an int32 ``result.rows`` of
one entry per requested pair names the answer of each
(:meth:`~repro.store.RouteService.route_distinct`); without ``rows`` the
columns answer the pairs in request order.
:func:`result_from_wire` checks ``rows``, expands the columns through
it and widens them back to :class:`~repro.sim.engine.batch.BatchResult`'s
dtypes, so the decoded result is bit-identical to
:meth:`~repro.store.RouteService.route`'s; :func:`delivered_from_wire`
counts an answer's delivered pairs with the same checks and no
expansion.

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
from typing import Dict, List, Optional

import numpy as np

from ..errors import EncodingError, ProtocolError
from ..sim.engine.batch import BatchResult
from ..store.format import align, blob_chunks, pack_blobs, unpack_blobs

#: Protocol revision carried in every ``ping`` response.
PROTOCOL_VERSION = 3

#: Default per-frame payload ceiling.  A route answer costs at most 34
#: bytes per pair (30 of columns and 4 of ``rows``), so this admits
#: batches of up to ~987k pairs.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LEN = struct.Struct(">I")

#: Header key of a blob frame's array manifest (reserved in messages
#: that carry arrays).
_MANIFEST = "arrays"

#: Room reserved for a route answer's JSON header (ok/op/version/key/
#: seconds/id and the manifest of up to nine arrays), NUL and pad when
#: sizing the answer in advance.
_ANSWER_HEADER_BYTES = 4096

#: The int32 range: request pairs that fit it travel as int32.
_INT32 = np.iinfo(np.int32)

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

#: ``BatchResult`` columns in wire order: each name, its wire dtype —
#: the decode side accepts precisely that one — and the dtype the
#: router makes it in, which the decode widens it back to.
RESULT_COLUMNS = (
    ("source", np.dtype(np.int32), np.dtype(np.int64)),
    ("dest", np.dtype(np.int32), np.dtype(np.int64)),
    ("delivered", np.dtype(np.bool_), np.dtype(np.bool_)),
    ("weight", np.dtype(np.float64), np.dtype(np.float64)),
    ("hops", np.dtype(np.int32), np.dtype(np.int64)),
    ("tree", np.dtype(np.int32), np.dtype(np.int64)),
    ("max_header_bits", np.dtype(np.int32), np.dtype(np.int64)),
    ("failure_code", np.dtype(np.int8), np.dtype(np.int8)),
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
    """Route pairs, given as a nested list of ints or an integer array,
    as an integer array: int32 when every value fits.

    Only an integer-kind conversion is taken: any other list travels as
    JSON, where the daemon rejects it with a clear ``bad-request``.
    """
    pairs = obj.get("pairs")
    if isinstance(pairs, list) and pairs:
        try:
            arr = np.asarray(pairs)
        except ValueError:  # ragged
            return obj
    elif isinstance(pairs, np.ndarray):
        arr = pairs
    else:
        return obj
    if arr.dtype.kind not in "iu":
        return obj
    if arr.size == 0 or (_INT32.min <= arr.min() and arr.max() <= _INT32.max):
        arr = arr.astype(np.int32, copy=False)
    return dict(obj, pairs=arr)


def frame_parts(obj: dict) -> List[memoryview]:
    """One message's on-wire form (length + payload) as buffers to send
    in order: the length and header, then the blobs and the zero gaps
    between them, each blob a view of its array (no copy is made)."""
    arrays: Dict[str, np.ndarray] = {}
    header = _split_arrays(_pairs_array(obj), "", arrays)
    if not arrays:
        payload = json.dumps(obj, separators=(",", ":")).encode()
        return [memoryview(_LEN.pack(len(payload)) + payload)]
    header[_MANIFEST], blobs, data_bytes = pack_blobs(arrays)
    hjson = json.dumps(header, separators=(",", ":")).encode()
    data_start = align(len(hjson) + 1)
    # The zero run after the header is the NUL delimiter plus the pad.
    head = _LEN.pack(data_start + data_bytes) + hjson + bytes(data_start - len(hjson))
    return [memoryview(head)] + [memoryview(part) for part in blob_chunks(blobs)]


def encode_frame(obj: dict) -> bytes:
    """Serialize one message to its on-wire form (length + payload)."""
    return b"".join(frame_parts(obj))


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
    for part in frame_parts(obj):
        sock.sendall(part)


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


def _answer_blob_bytes(pairs: int) -> int:
    """Most bytes a route answer's blobs take for ``pairs`` requested
    pairs: the :data:`RESULT_COLUMNS` of ``pairs`` answers plus an int32
    ``rows`` of ``pairs`` entries, each blob 64-byte aligned."""
    data = 0
    for _, wire, _ in RESULT_COLUMNS:
        data = align(data) + wire.itemsize * pairs
    return align(data) + 4 * pairs


def result_to_wire(
    result: BatchResult, rows: Optional[np.ndarray] = None
) -> Dict[str, np.ndarray]:
    """A routing result's columns at their wire widths.

    ``(result, rows)`` is :meth:`~repro.store.RouteService.route_distinct`'s
    answer: with ``rows``, ``result`` answers the distinct pairs and
    ``rows`` (sent as int32) names each requested pair's answer.
    """
    wire = {
        name: np.asarray(getattr(result, name), dtype=dtype)
        for name, dtype, _ in RESULT_COLUMNS
    }
    if rows is not None:
        wire["rows"] = np.asarray(rows, dtype=np.int32)
    return wire


def _checked_result(wire: Dict[str, np.ndarray]):
    """``(columns, rows)`` of decoded result columns, checked as
    :func:`result_from_wire` documents; ``rows`` is None when absent."""
    try:
        columns = {name: wire[name] for name, _, _ in RESULT_COLUMNS}
        rows = wire.get("rows")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ProtocolError(f"route result lacks column {exc}") from exc
    for name, dtype, _ in RESULT_COLUMNS:
        col = columns[name]
        if not isinstance(col, np.ndarray) or col.dtype != dtype or col.ndim != 1:
            raise ProtocolError(f"route result column {name!r} is not a 1-D {dtype} array")
    if len({col.shape[0] for col in columns.values()}) > 1:
        raise ProtocolError("route result columns have different lengths")
    if rows is not None:
        if not isinstance(rows, np.ndarray) or rows.dtype != np.int32 or rows.ndim != 1:
            raise ProtocolError("route result rows is not a 1-D int32 array")
        answers = columns["source"].shape[0]
        if rows.size and (rows.min() < 0 or rows.max() >= answers):
            raise ProtocolError(f"route result rows name answers outside [0, {answers})")
    return columns, rows


def result_from_wire(wire: Dict[str, np.ndarray]) -> BatchResult:
    """Rebuild a :class:`BatchResult` from decoded result columns.

    The inverse of :func:`result_to_wire`: every column must be a 1-D
    array of exactly its :data:`RESULT_COLUMNS` dtype and all must have
    one length ``U``; a ``rows`` must be a 1-D int32 array with every
    value in ``[0, U)``, or :class:`ProtocolError` is raised.  The
    columns are expanded through ``rows`` when it is there and widened
    to the router's dtypes, so the result is bit-identical to the one
    :meth:`~repro.store.RouteService.route` returns.
    """
    columns, rows = _checked_result(wire)
    if rows is not None:
        rows = rows.astype(np.intp)
    out = {}
    for name, _, wide in RESULT_COLUMNS:
        col = columns[name]
        if col.dtype != wide:
            col = col.astype(wide)
        out[name] = col if rows is None else np.take(col, rows)
    return BatchResult(**out)


def delivered_from_wire(wire: Dict[str, np.ndarray]) -> int:
    """``result_from_wire(wire).delivered_count``, counted on the answer
    as it came: the same checks, then the ``delivered`` column counted
    through ``rows``, with no column widened or expanded."""
    columns, rows = _checked_result(wire)
    delivered = columns["delivered"]
    if rows is not None:
        delivered = np.take(delivered, rows.astype(np.intp))
    return int(np.count_nonzero(delivered))


def route_answer_bytes(pairs: int) -> int:
    """Upper bound on the frame that answers a route request of ``pairs`` rows.

    An answer holds at most one row of columns per pair (30 bytes) and,
    with a ``rows`` index, 4 bytes more per pair: 34 bytes per pair plus
    alignment bound it, whichever rows the router walked.  The JSON
    header with its NUL and pad gets a fixed allowance.
    """
    return _LEN.size + _ANSWER_HEADER_BYTES + _answer_blob_bytes(pairs)


def error_response(code: str, message: str, **extra) -> dict:
    """Build one ``ok: false`` response (``code`` ∈ :data:`ERROR_CODES`)."""
    assert code in ERROR_CODES, code
    return {"ok": False, "error": code, "message": message, **extra}
