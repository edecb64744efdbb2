"""Manifests: ``SchemeArrays``/``CompiledScheme`` <-> named array dicts.

Both scheme forms are already columnar dataclasses, so persistence is a
field walk: every ndarray field becomes one named blob in the container
(prefixed ``arr_`` for the canonical :class:`SchemeArrays` form,
``cs_`` for the port-resolved :class:`CompiledScheme` form), scalars
ride in the JSON header, and the hierarchy's ragged level sets flatten
into one ``(data, indptr)`` CSR pair.  The compiled form's two record
columns (``ent`` and ``step``) are stored as plain little-endian int64
blobs, one row of 8 or 2 words per 64- or 16-byte record, so the blob
codec and its dtype validator see only plain numeric arrays; loading
views the rows as the record dtypes again.  Loading reverses the walk
over memory-mapped views — the reconstructed objects are backed by the
file, byte for byte, with nothing copied.

A scheme container (format 9) stores each fact once: the ``arr_``
blobs, except the :data:`~repro.sim.engine.compile.ARRAYS_IN_RECORD`
columns the ``ent`` records hold (the member excepted: the kernels
search its dense column) and the
:data:`~repro.core.build.arrays.DERIVED_COLUMNS` a load derives, plus
only the :data:`~repro.sim.engine.compile.DERIVED` compiled columns as
``cs_`` blobs.  Loading binds the compiled form's
:data:`~repro.sim.engine.compile.ARRAY_BOUND` columns to the loaded
arrays and the arrays' record-held columns to fields of the loaded
records, so both forms view one region of the map; it reads no entry
and derives nothing (each derived column is computed the first time a
caller reads it).  Backend containers hold no arrays and keep the full
compiled manifest.

Field sets are validated both ways: a container that is missing a field
(or carries an unknown one) raises
:class:`~repro.errors.EncodingError` instead of building a half-formed
scheme, and so does a column whose dtype (the width rule of
:data:`~repro.core.build.arrays.COLUMN_DTYPES`, and for the light ports
the width the stored graph's degrees call for,
:func:`~repro.core.build.arrays.light_port_dtype`), width or length
disagrees with the scheme's shape.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from ..core.build.arrays import (
    COLUMN_DTYPES,
    DERIVED_COLUMNS,
    LIGHT_PORT_DTYPES,
    SchemeArrays,
)
from ..core.landmarks import Hierarchy
from ..errors import EncodingError
from ..sim.engine.compile import (
    ARRAYS_IN_RECORD,
    COLUMNS,
    DERIVED,
    RECORDS,
    CompiledScheme,
    array_columns,
)

ARRAYS_PREFIX = "arr_"
COMPILED_PREFIX = "cs_"
BACKEND_PREFIX = "bk_"
_HIERARCHY_FIELDS = ("h_dist", "h_pivot", "h_level_of", "h_levels_data", "h_levels_indptr")


def _ndarray_fields(cls) -> tuple:
    """Names of the ndarray-typed fields of a columnar dataclass."""
    return tuple(
        f.name for f in dataclasses.fields(cls) if f.type in ("np.ndarray", np.ndarray)
    )


ARRAYS_FIELDS = _ndarray_fields(SchemeArrays)
#: The array columns only the ``ent`` records hold: the member is also
#: a stored column of its own, the dense one slice searches read.
RECORD_ONLY = tuple(name for name in ARRAYS_IN_RECORD if name != "ent_member")
#: The array columns a scheme container stores as ``arr_`` blobs.
STORED_ARRAYS_FIELDS = tuple(
    name for name in ARRAYS_FIELDS if name not in RECORD_ONLY and name not in DERIVED_COLUMNS
)


def _strip(blobs: Dict[str, np.ndarray], prefix: str) -> Dict[str, np.ndarray]:
    """The ``prefix``-named blobs, keyed without the prefix."""
    return {
        name[len(prefix) :]: blob for name, blob in blobs.items() if name.startswith(prefix)
    }


def _check_fields(found, expected, what: str) -> None:
    """Raise :class:`EncodingError` unless the field sets match exactly."""
    missing = sorted(set(expected) - set(found))
    unknown = sorted(set(found) - set(expected))
    if missing or unknown:
        raise EncodingError(
            f"stored {what} does not match this build: "
            f"missing fields {missing}, unknown fields {unknown}"
        )


def hierarchy_to_manifest(hierarchy: Hierarchy) -> Dict[str, np.ndarray]:
    """Flatten a hierarchy (ragged level sets included) into named blobs."""
    levels = [np.asarray(a, dtype=np.int64) for a in hierarchy.levels]
    indptr = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum([a.size for a in levels], out=indptr[1:])
    data = (
        np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64)
    )
    return {
        "h_dist": hierarchy.dist,
        "h_pivot": hierarchy.pivot,
        "h_level_of": hierarchy.level_of,
        "h_levels_data": data,
        "h_levels_indptr": indptr,
    }


def hierarchy_from_manifest(blobs: Dict[str, np.ndarray]) -> Hierarchy:
    """Rebuild a hierarchy from its manifest blobs (zero-copy views)."""
    indptr = blobs["h_levels_indptr"]
    data = blobs["h_levels_data"]
    k = indptr.shape[0] - 1
    levels = [data[indptr[i] : indptr[i + 1]] for i in range(k)]
    return Hierarchy(
        k=k,
        levels=levels,
        dist=blobs["h_dist"],
        pivot=blobs["h_pivot"],
        level_of=blobs["h_level_of"],
    )


def arrays_to_manifest(arrays: SchemeArrays) -> Dict[str, np.ndarray]:
    """The ``arr_``-prefixed blobs of the canonical scheme-array form:
    every column but the ones only the compiled ``ent`` records hold and
    the derived ones (none of which this reads)."""
    out = {ARRAYS_PREFIX + name: getattr(arrays, name) for name in STORED_ARRAYS_FIELDS}
    for name, blob in hierarchy_to_manifest(arrays.hierarchy).items():
        out[ARRAYS_PREFIX + name] = blob
    return out


def arrays_from_manifest(
    blobs: Dict[str, np.ndarray], n: int, k: int, ent: np.ndarray
) -> SchemeArrays:
    """Rebuild :class:`SchemeArrays` from container blobs, validated; its
    record-held columns are fields of the loaded ``ent`` records, and its
    :data:`~repro.core.build.arrays.DERIVED_COLUMNS` are derived from
    them on first read."""
    found = _strip(blobs, ARRAYS_PREFIX)
    _check_fields(found, STORED_ARRAYS_FIELDS + _HIERARCHY_FIELDS, "SchemeArrays")
    hierarchy = hierarchy_from_manifest(found)
    if hierarchy.k != k or hierarchy.n != n:
        raise EncodingError(
            f"stored hierarchy is ({hierarchy.n}, k={hierarchy.k}), "
            f"header says ({n}, k={k})"
        )
    if found["lab_epos"].shape != (k, n):
        raise EncodingError(
            f"stored label positions have shape {found['lab_epos'].shape}, "
            f"expected ({k}, {n})"
        )
    _check_array_columns(found, n, ent.shape[0])
    kwargs = {name: found[name] for name in STORED_ARRAYS_FIELDS}
    kwargs.update({name: ent[ARRAYS_IN_RECORD[name]] for name in RECORD_ONLY})
    kwargs.update(dict.fromkeys(DERIVED_COLUMNS))
    arrays = SchemeArrays(n=n, k=k, hierarchy=hierarchy, **kwargs)
    arrays._records = ent
    return arrays


def _check_array_columns(found: Dict[str, np.ndarray], n: int, entries: int) -> None:
    """Every stored array column has its width-rule dtype (for the light
    ports one of the two light-port widths: which one the graph calls
    for, the compiled form's construction checks against its
    ``g_indptr``), and every per-entry one ``entries`` rows (``n + 1``
    for the tree offsets, any length for the light ports); else
    :class:`EncodingError`."""
    rows = {
        "cl_indptr": (n + 1,),
        "lp_data": found["lp_data"].shape[:1],
        "lab_epos": found["lab_epos"].shape,
    }
    bad = [
        name
        for name in STORED_ARRAYS_FIELDS
        if (
            found[name].dtype not in LIGHT_PORT_DTYPES
            if name == "lp_data"
            else found[name].dtype != COLUMN_DTYPES[name]
        )
        or found[name].shape != rows.get(name, (entries,))
    ]
    if bad:
        raise EncodingError(
            f"stored array columns {bad} do not have the dtype or length "
            f"of their width rule (n={n}, {entries} entries)"
        )


def backend_to_blobs(blobs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Prefix a backend's named serialize() arrays for the container.

    Backends choose their own blob names (the protocol does not fix a
    field set the way the scheme forms do), so the prefix is the only
    container-level convention; the name list is recorded in the header
    and validated back on load.
    """
    return {
        BACKEND_PREFIX + name: np.ascontiguousarray(blob)
        for name, blob in blobs.items()
    }


def backend_from_blobs(
    blobs: Dict[str, np.ndarray], expected: tuple
) -> Dict[str, np.ndarray]:
    """Strip the backend prefix, validated against the header's name list."""
    found = _strip(blobs, BACKEND_PREFIX)
    _check_fields(found, expected, "backend manifest")
    return found


def _to_blob(col: np.ndarray) -> np.ndarray:
    """A compiled column as a container blob: a record column becomes
    its plain int64 rows (a view, nothing copied)."""
    if col.dtype.names is None:
        return col
    return col.view(np.int64).reshape(col.shape[0], col.dtype.itemsize // 8)


def _from_blobs(found: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Compiled columns from stored blobs: each record column's int64
    rows viewed as its record dtype again (:data:`RECORDS`)."""
    out = dict(found)
    for name, dtype in RECORDS.items():
        rows = out[name]
        width = dtype.itemsize // 8
        if rows.dtype != np.int64 or rows.ndim != 2 or rows.shape[1] != width:
            raise EncodingError(
                f"stored {name!r} records are {rows.dtype} of shape {rows.shape}, "
                f"not rows of {width} int64"
            )
        out[name] = np.ascontiguousarray(rows).view(dtype).reshape(rows.shape[0])
    return out


def compiled_to_manifest(compiled: CompiledScheme) -> Dict[str, np.ndarray]:
    """All ``cs_``-prefixed blobs of the port-resolved engine form."""
    return {COMPILED_PREFIX + name: _to_blob(col) for name, col in compiled.columns().items()}


def compiled_from_manifest(
    blobs: Dict[str, np.ndarray], n: int, k: int, handshake: bool
) -> CompiledScheme:
    """Rebuild a routable :class:`CompiledScheme` from a full ``cs_``
    manifest (a backend container's), validated."""
    found = _strip(blobs, COMPILED_PREFIX)
    _check_fields(found, COLUMNS, "CompiledScheme")
    return CompiledScheme(n=n, k=k, handshake=handshake, **_from_blobs(found))


def scheme_to_manifest(
    arrays: SchemeArrays, compiled: CompiledScheme
) -> Dict[str, np.ndarray]:
    """The blobs of one scheme container: ``arrays`` (but for the
    record-held columns), plus only the
    :data:`~repro.sim.engine.compile.DERIVED` columns of ``compiled``.

    Refuses a ``compiled`` whose array-bound columns or record fields
    are not ``arrays``' own (the same objects, else equal arrays): the
    container stores those columns once, so they must be one and the
    same.  A record field is compared only when ``compiled`` was not
    written from that very column object
    (:attr:`~repro.sim.engine.compile.CompiledScheme.written_from`):
    columns are append-only once assembled, so a compile of these arrays
    holds their values, and any other compile, a copy's included, is
    compared value by value.
    """
    shared = [
        (name, getattr(compiled, name), col) for name, col in array_columns(arrays).items()
    ]
    written = compiled.written_from or {}
    for name, field in ARRAYS_IN_RECORD.items():
        col = getattr(arrays, name)
        ref = written.get(name)
        if ref is None or ref() is not col:
            shared.append((name, compiled.ent[field], col))
    for name, mine, col in shared:
        if mine is not col and not np.array_equal(mine, col):
            raise EncodingError(
                f"compiled column {name!r} is not the given arrays' own: "
                "save a compile of these arrays (compile_from_arrays)"
            )
    blobs = arrays_to_manifest(arrays)
    blobs.update({COMPILED_PREFIX + name: _to_blob(getattr(compiled, name)) for name in DERIVED})
    return blobs


def scheme_from_manifest(
    blobs: Dict[str, np.ndarray], n: int, k: int, handshake: bool
) -> Tuple[SchemeArrays, CompiledScheme]:
    """Rebuild both forms of a scheme container, validated; the
    compiled form's :data:`~repro.sim.engine.compile.ARRAY_BOUND`
    columns are the loaded arrays' own, and the arrays'
    :data:`~repro.sim.engine.compile.ARRAYS_IN_RECORD` columns are
    fields of the loaded ``ent`` records."""
    found = _strip(blobs, COMPILED_PREFIX)
    _check_fields(found, DERIVED, "CompiledScheme")
    found = _from_blobs(found)
    arrays = arrays_from_manifest(blobs, n, k, found["ent"])
    found.update(array_columns(arrays))
    return arrays, CompiledScheme(n=n, k=k, handshake=handshake, **found)
