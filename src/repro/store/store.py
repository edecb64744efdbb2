"""A persistent, content-addressed cache of compiled TZ schemes.

The Thorup–Zwick value proposition is *preprocess once, answer
forever* — so the preprocessing result must outlive the process.
:class:`SchemeStore` is a directory of ``.tzs`` containers keyed by the
SHA-256 of everything the scheme is a pure function of::

    key = H(graph content, k, seed, port assignment, format version)

``get_or_build(graph, k, seed)`` therefore behaves like a memo table
over construction itself: a hit opens the file and returns a
memory-mapped :class:`StoredScheme` in milliseconds; a miss runs the
vectorized builder, compiles the batch-engine form, saves both, and
re-opens the file (so the returned object is always file-backed, hit or
miss).

Each container holds one scheme representation, each column once:

* the canonical :class:`~repro.core.build.arrays.SchemeArrays` — what
  both builders emit and the differential suite compares; enough to
  re-materialize the dict-based scheme or re-resolve against a
  different port assignment;
* the columns the port-resolved
  :class:`~repro.sim.engine.compile.CompiledScheme` adds to them: the
  entry records (tree-record fields with resolved next hops, weights,
  edges and entry links), label bits and the step records, stored as
  the native kernels read them.  The records hold eight of the array
  columns — the SPT parents and both entry links among them, which a
  compile through the build's own ports resolves to the same values —
  and those are stored there only.  Loading binds the compiled form's
  other seven columns to the loaded arrays and those eight array
  columns to the loaded records' fields, so the compiled form is
  exactly what :class:`~repro.sim.engine.batch.BatchRouter` routes on,
  ready to serve with no further work.

Strict-verify mode (``strict=True``) closes the loop against the
package's independent bit-exact codec: at save time the dict scheme is
materialized from the arrays and every vertex table is serialized
through :mod:`repro.core.serialize`; the SHA-256 of that bit stream is
recorded in the header.  At load time the same replay runs over the
*memory-mapped* arrays and must reproduce the digest bit for bit — any
disagreement between the array form and the bitstream form (or any
silent corruption of the blobs) raises
:class:`~repro.errors.EncodingError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..core.build import build_arrays
from ..core.build.arrays import SchemeArrays, scheme_from_arrays
from ..errors import EncodingError
from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph, assign_ports
from ..obs import TELEMETRY
from ..sim.engine.compile import CompiledScheme, compile_from_arrays
from .format import (
    FORMAT_VERSION,
    _tmp_counter,
    blob_bytes,
    container_version,
    read_container,
    read_header,
    write_container,
)
from .schemes import (
    backend_from_blobs,
    backend_to_blobs,
    scheme_from_manifest,
    scheme_to_manifest,
)

STORE_SUFFIX = ".tzs"
POINTER_SUFFIX = ".current"


def graph_content_hash(graph: Graph) -> str:
    """SHA-256 of the graph's content (vertices, edges, weights)."""
    h = hashlib.sha256()
    h.update(f"graph:{graph.n}:{graph.m}:".encode())
    h.update(np.ascontiguousarray(graph.edges, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(graph.edge_weights, dtype=np.float64).tobytes())
    return h.hexdigest()


def port_hash(ported: PortedGraph) -> str:
    """SHA-256 of the port assignment (the fixed-port adversary's choice)."""
    h = hashlib.sha256()
    h.update(b"ports:")
    h.update(np.ascontiguousarray(ported.port_of_arc, dtype=np.int64).tobytes())
    return h.hexdigest()


def scheme_key(
    graph_sha: str,
    k: int,
    seed: Optional[int],
    port_sha: str,
    *,
    handshake: bool = False,
) -> str:
    """The content address of one scheme build (see module docstring).

    ``handshake`` is part of the address: the §4 handshake variant
    selects different trees than the plain 4k−5 scheme, so the two must
    never share a store entry.
    """
    payload = json.dumps(
        {
            "format": FORMAT_VERSION,
            "graph": graph_sha,
            "k": int(k),
            "seed": None if seed is None else int(seed),
            "ports": port_sha,
            "handshake": bool(handshake),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:40]


def serialize_digest(graph: Graph, ported: PortedGraph, arrays: SchemeArrays) -> str:
    """SHA-256 of the scheme's bit-exact serialization.

    Replays the :mod:`repro.core.serialize` codec over the dict scheme
    materialized from ``arrays``: every vertex table becomes an actual
    bit stream, and the streams are hashed in vertex order with
    self-delimiting length prefixes.  Two array forms digest equal iff
    the codec encodes them to identical bits.
    """
    from ..core.serialize import serialize_scheme

    scheme = scheme_from_arrays(graph, ported, arrays)
    blobs = serialize_scheme(scheme)
    h = hashlib.sha256()
    for u in range(scheme.n):
        blob = blobs[u]
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


@dataclass
class StoredScheme:
    """A scheme opened from (or just written to) the store.

    ``compiled`` and ``arrays`` are backed by one shared memory map of
    ``path``, and every column both forms hold is one view of it (the
    compiled form's array-bound columns, the arrays' record-held
    columns) — dropping all references releases the mapping.
    """

    path: Path
    meta: dict
    compiled: CompiledScheme
    arrays: SchemeArrays

    @property
    def key(self) -> str:
        """The scheme's content address in the store."""
        return self.meta["key"]

    def router(self, ported: Optional[PortedGraph] = None):
        """A :class:`~repro.sim.engine.batch.BatchRouter` over this
        scheme.  ``ported`` is only needed for dead-edge simulation."""
        from ..sim.engine.batch import BatchRouter

        return BatchRouter.from_compiled(self.compiled, ported)

    def scheme(self, graph: Graph, ported: PortedGraph):
        """Materialize the dict-based scheme (reference-simulator world);
        it carries the stored arrays, so its batch compile reads them."""
        return scheme_from_arrays(graph, ported, self.arrays)


class SchemeStore:
    """Directory-backed scheme cache (see module docstring)."""

    def __init__(self, root: Union[str, Path]) -> None:
        """Open (creating if needed) the store directory at ``root``."""
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Container path of content address ``key``."""
        return self.root / f"{key}{STORE_SUFFIX}"

    def key_for(
        self,
        graph: Graph,
        k: int,
        seed: Optional[int],
        ported: PortedGraph,
        *,
        handshake: bool = False,
    ) -> str:
        """Content address of ``(graph, k, seed, ported)`` (see :func:`scheme_key`)."""
        return scheme_key(
            graph_content_hash(graph), k, seed, port_hash(ported), handshake=handshake
        )

    def __contains__(self, key: str) -> bool:
        """Whether a container for content address ``key`` exists."""
        return self.path_for(key).exists()

    def keys(self):
        """Sorted content addresses of every stored scheme."""
        return sorted(p.stem for p in self.root.glob(f"*{STORE_SUFFIX}"))

    # ------------------------------------------------------------------
    def save(
        self,
        graph: Graph,
        ported: PortedGraph,
        arrays: SchemeArrays,
        *,
        seed: Optional[int] = None,
        compiled: Optional[CompiledScheme] = None,
        strict: bool = False,
        builder: str = "vectorized",
        extra_meta: Optional[dict] = None,
    ) -> Path:
        """Persist one built scheme; returns the container path.

        ``compiled`` defaults to ``compile_from_arrays(arrays, ported)``;
        a given one must be a compile of ``arrays`` (its array-bound
        columns the arrays' own, else :class:`EncodingError`), because
        the container stores those columns once.  ``strict=True``
        additionally records the bit-exact serialization digest (see
        :func:`serialize_digest`) so strict loads can replay and compare
        it.  ``extra_meta`` entries are merged into the container header
        (the version layer rides on this).
        """
        return self._save(
            graph,
            ported,
            arrays,
            seed=seed,
            compiled=compiled,
            strict=strict,
            builder=builder,
            extra_meta=extra_meta,
        )

    def _save(
        self,
        graph: Graph,
        ported: PortedGraph,
        arrays: SchemeArrays,
        *,
        seed: Optional[int],
        compiled: Optional[CompiledScheme],
        strict: bool,
        builder: str,
        extra_meta: Optional[dict],
        hashes: Optional[tuple] = None,
    ) -> Path:
        """:meth:`save`, given ``hashes``, the ``(graph_content_hash,
        port_hash)`` pair, when the caller has computed it already (a
        publish needs both for its key; each is hashed once)."""
        with TELEMETRY.span("store.save", k=int(arrays.k), n=int(arrays.n)):
            if compiled is None:
                compiled = compile_from_arrays(arrays, ported)
            graph_sha, port_sha = hashes or (graph_content_hash(graph), port_hash(ported))
            key = scheme_key(
                graph_sha, arrays.k, seed, port_sha, handshake=compiled.handshake
            )
            meta = {
                "kind": "tz-scheme",
                "key": key,
                "graph_sha256": graph_sha,
                "port_sha256": port_sha,
                "n": int(arrays.n),
                "m": int(graph.m),
                "k": int(arrays.k),
                "seed": None if seed is None else int(seed),
                "builder": builder,
                "handshake": bool(compiled.handshake),
                "entries": int(arrays.entry_count),
            }
            if strict:
                meta["serialize_sha256"] = serialize_digest(graph, ported, arrays)
            if extra_meta:
                meta.update(extra_meta)
            blobs = scheme_to_manifest(arrays, compiled)
            path = self.path_for(key)
            write_container(path, blobs, meta)
            return path

    def load(
        self,
        key_or_path: Union[str, Path],
        *,
        strict: bool = False,
        verify_data: bool = False,
        graph: Optional[Graph] = None,
        ported: Optional[PortedGraph] = None,
    ) -> StoredScheme:
        """Open a stored scheme, zero-copy.

        ``verify_data=True`` checks the data-section checksum (one
        sequential read).  ``strict=True`` implies that and additionally
        replays the bit-exact serialization codec over the loaded arrays
        (requires ``graph`` and ``ported``, which are also checked
        against the stored content hashes).  Raises
        :class:`~repro.errors.EncodingError` on any mismatch.
        """
        path = (
            Path(key_or_path)
            if isinstance(key_or_path, Path) or str(key_or_path).endswith(STORE_SUFFIX)
            else self.path_for(str(key_or_path))
        )
        with TELEMETRY.span("store.load"):
            header, blobs = read_container(path, verify_data=strict or verify_data)
            meta = header.get("meta", {})
            if meta.get("kind") != "tz-scheme":
                raise EncodingError(f"{path} is not a scheme container")
            arrays, compiled = scheme_from_manifest(
                blobs, int(meta["n"]), int(meta["k"]), bool(meta["handshake"])
            )
            stored = StoredScheme(
                path=path, meta=meta, compiled=compiled, arrays=arrays
            )
            if strict:
                self._verify_strict(stored, graph, ported)
            return stored

    def _verify_strict(
        self,
        stored: StoredScheme,
        graph: Optional[Graph],
        ported: Optional[PortedGraph],
    ) -> None:
        """Replay the bit-exact codec digest over a loaded scheme."""
        if graph is None or ported is None:
            raise EncodingError(
                "strict verification needs the graph and port assignment "
                "to replay the serialization codec"
            )
        if graph_content_hash(graph) != stored.meta["graph_sha256"]:
            raise EncodingError(
                "stored scheme was built on a different graph "
                "(content hash mismatch)"
            )
        if port_hash(ported) != stored.meta["port_sha256"]:
            raise EncodingError(
                "stored scheme was built on a different port assignment"
            )
        expect = stored.meta.get("serialize_sha256")
        if expect is None:
            raise EncodingError(
                "store file carries no serialization digest; re-save with "
                "strict=True to enable strict verification"
            )
        got = serialize_digest(graph, ported, stored.arrays)
        if got != expect:
            raise EncodingError(
                "bit-exact serialization replay disagrees with the stored "
                f"digest ({got[:12]}… != {expect[:12]}…): the array form "
                "and the bitstream form have diverged"
            )

    # ------------------------------------------------------------------
    # Versioned lineages: publish / publish_patch / current / gc
    # ------------------------------------------------------------------
    def pointer_path(self, lineage: str) -> Path:
        """The lineage's ``.current`` pointer file (atomic, text key)."""
        return self.root / f"{lineage}{POINTER_SUFFIX}"

    def set_current(self, lineage: str, key: str) -> None:
        """Atomically repoint the lineage's current version to ``key``.

        Same publish discipline as the containers themselves: a unique
        per-writer tmp name plus one ``rename``, so concurrent
        publishers race to a *complete* pointer and readers can never
        observe a half-written one.
        """
        pointer = self.pointer_path(lineage)
        tmp = pointer.with_suffix(
            pointer.suffix + f".tmp.{os.getpid()}.{_tmp_counter()}"
        )
        tmp.write_text(key + "\n")
        tmp.replace(pointer)

    def current(self, lineage: str) -> Optional[str]:
        """Key of the lineage's current version (``None`` if unpublished)."""
        pointer = self.pointer_path(lineage)
        try:
            key = pointer.read_text().strip()
        except OSError:
            return None
        return key or None

    def lineages(self) -> List[str]:
        """Sorted lineage ids that have a published pointer."""
        return sorted(p.name[: -len(POINTER_SUFFIX)] for p in self.root.glob(f"*{POINTER_SUFFIX}"))

    def publish(
        self,
        graph: Graph,
        ported: PortedGraph,
        arrays: SchemeArrays,
        *,
        seed: Optional[int] = None,
        compiled: Optional[CompiledScheme] = None,
        strict: bool = False,
        builder: str = "vectorized",
    ) -> str:
        """Save a scheme as the **root version** of a new lineage.

        The lineage id is the root's own content key; the ``.current``
        pointer is created atomically pointing at it.  Returns the key.
        The compile, the hashes, the save and the pointer write all run
        under one ``store.publish`` span, stamped with the lineage.
        """
        with TELEMETRY.span("store.publish") as span:
            if compiled is None:
                compiled = compile_from_arrays(arrays, ported)
            hashes = (graph_content_hash(graph), port_hash(ported))
            key = scheme_key(
                hashes[0], arrays.k, seed, hashes[1], handshake=compiled.handshake
            )
            span.stamp(lineage=key)
            self._save(
                graph,
                ported,
                arrays,
                seed=seed,
                compiled=compiled,
                strict=strict,
                builder=builder,
                extra_meta={
                    "lineage": key,
                    "version": 0,
                    "parent_key": None,
                    "delta_sha256": None,
                },
                hashes=hashes,
            )
            self.set_current(key, key)
        return key

    def publish_patch(
        self,
        parent: Union[str, StoredScheme],
        graph: Graph,
        ported: PortedGraph,
        arrays: SchemeArrays,
        *,
        delta,
        seed: Optional[int] = None,
        compiled: Optional[CompiledScheme] = None,
        strict: bool = False,
        builder: str = "patch",
        max_versions: Optional[int] = None,
    ) -> str:
        """Save a new version derived from ``parent`` by ``delta``.

        Writes a content-addressed container whose header links it to
        its parent (``parent_key``, the delta's SHA-256, the incremented
        ``version``), atomically repoints the lineage's ``.current``,
        and — when ``max_versions`` is given — garbage-collects older
        versions beyond that count.  Returns the new key.
        """
        parent_key = parent.key if isinstance(parent, StoredScheme) else str(parent)
        parent_path = self.path_for(parent_key)
        if not parent_path.exists():
            raise EncodingError(
                f"cannot publish a patch of {parent_key}: no such stored scheme"
            )
        with TELEMETRY.span("store.publish_patch") as span:
            parent_meta = read_header(parent_path).get("meta", {})
            lineage = parent_meta.get("lineage") or parent_key
            version = int(parent_meta.get("version", 0)) + 1
            span.stamp(lineage=lineage, version=version)
            if compiled is None:
                compiled = compile_from_arrays(arrays, ported)
            hashes = (graph_content_hash(graph), port_hash(ported))
            key = scheme_key(
                hashes[0], arrays.k, seed, hashes[1], handshake=compiled.handshake
            )
            self._save(
                graph,
                ported,
                arrays,
                seed=seed,
                compiled=compiled,
                strict=strict,
                builder=builder,
                extra_meta={
                    "lineage": lineage,
                    "version": version,
                    "parent_key": parent_key,
                    "delta_sha256": delta.digest() if delta is not None else None,
                },
                hashes=hashes,
            )
            self.set_current(lineage, key)
            if max_versions is not None:
                self.gc(lineage, max_versions)
        return key

    def versions(self, lineage: str) -> List[dict]:
        """Header meta of every stored version of ``lineage``, sorted by
        version number (legacy containers count as their own lineage).
        Reads each container's header only (:func:`read_header`)."""
        out = []
        for key in self.keys():
            meta = read_header(self.path_for(key)).get("meta", {})
            if meta.get("kind") != "tz-scheme":
                continue
            if (meta.get("lineage") or meta.get("key")) == lineage:
                out.append(meta)
        out.sort(key=lambda m: (int(m.get("version", 0)), m.get("key", "")))
        return out

    def info(self, key: str) -> dict:
        """Header meta plus file facts for one stored container: its
        size and data digest, each blob's dtype, bytes and bytes per
        entry (:func:`~repro.store.format.blob_bytes`), and the file's
        bytes per entry — all read from the header alone."""
        path = self.path_for(key)
        header = read_header(path)
        meta = dict(header.get("meta", {}))
        entries = meta.get("entries")
        meta["path"] = str(path)
        meta["file_bytes"] = int(path.stat().st_size)
        meta["data_sha256"] = header.get("data_sha256")
        meta["blobs"] = blob_bytes(header, entries)
        if entries:
            meta["bytes_per_entry"] = round(meta["file_bytes"] / entries, 4)
        return meta

    def gc(self, lineage: str, max_versions: int) -> List[str]:
        """Delete all but the newest ``max_versions`` versions of a
        lineage; the pointer target is never deleted.  Returns the
        removed keys."""
        if max_versions < 1:
            raise ValueError(f"max_versions must be >= 1, got {max_versions}")
        metas = self.versions(lineage)
        current = self.current(lineage)
        removed = []
        for meta in metas[:-max_versions] if len(metas) > max_versions else []:
            key = meta.get("key")
            if key is None or key == current:
                continue
            self.path_for(key).unlink(missing_ok=True)
            removed.append(key)
        if removed:
            TELEMETRY.count("store.gc_removed", len(removed))
        return removed

    # ------------------------------------------------------------------
    # Backend-generic persistence (the Backend protocol's store hook)
    # ------------------------------------------------------------------
    def backend_key_for(
        self, name: str, graph: Graph, k: int, seed: Optional[int]
    ) -> str:
        """Content address of one backend build (name in the key, so the
        same graph can hold every registered backend side by side)."""
        payload = json.dumps(
            {
                "format": FORMAT_VERSION,
                "backend": str(name),
                "graph": graph_content_hash(graph),
                "k": int(k),
                "seed": None if seed is None else int(seed),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:40]

    def save_backend(
        self,
        backend,
        graph: Graph,
        *,
        k: int = 2,
        seed: Optional[int] = 0,
    ) -> Path:
        """Persist any registered :class:`~repro.backends.base.Backend`.

        The backend's :meth:`serialize` manifest lands in the same
        ``.tzs`` container format as the TZ scheme itself: its named
        arrays become ``bk_``-prefixed blobs, its scalar meta rides in
        the JSON header, and :meth:`load_backend` dispatches the reverse
        through the backend registry.  Returns the container path.
        """
        backend_meta, backend_blobs = backend.serialize()
        key = self.backend_key_for(backend.backend_name, graph, k, seed)
        meta = {
            "kind": "tz-backend",
            "key": key,
            "backend": backend.backend_name,
            "graph_sha256": graph_content_hash(graph),
            "n": int(backend.n),
            "k": int(k),
            "seed": None if seed is None else int(seed),
            "backend_meta": dict(backend_meta),
            "backend_blobs": sorted(backend_blobs),
        }
        path = self.path_for(key)
        write_container(path, backend_to_blobs(backend_blobs), meta)
        return path

    def load_backend(
        self,
        key_or_path: Union[str, Path],
        *,
        verify_data: bool = False,
    ):
        """Open a stored backend, zero-copy.

        The container's ``backend`` name selects the registered class
        (:func:`repro.backends.registry.get_backend`); its
        :meth:`deserialize` must answer queries bit for bit like the
        instance that was saved (the contract suite enforces it).
        """
        from ..backends.registry import get_backend

        path = (
            Path(key_or_path)
            if isinstance(key_or_path, Path) or str(key_or_path).endswith(STORE_SUFFIX)
            else self.path_for(str(key_or_path))
        )
        header, blobs = read_container(path, verify_data=verify_data)
        meta = header.get("meta", {})
        if meta.get("kind") != "tz-backend":
            raise EncodingError(f"{path} is not a backend container")
        cls = get_backend(str(meta["backend"]))
        found = backend_from_blobs(blobs, tuple(meta["backend_blobs"]))
        return cls.deserialize(dict(meta["backend_meta"]), found)

    def get_or_build_backend(
        self,
        name: str,
        graph: Graph,
        k: int = 2,
        seed: Optional[int] = 0,
        *,
        ported: Optional[PortedGraph] = None,
    ):
        """Memo table over backend construction, like :meth:`get_or_build`.

        A hit opens the container and returns the deserialized backend;
        a miss builds through the registry, saves, and re-opens (so the
        returned instance is always the file-backed one, hit or miss).
        """
        from ..backends.registry import build_backend

        tm = TELEMETRY
        with tm.span("store.get_or_build_backend", backend=name, k=k) as span:
            key = self.backend_key_for(name, graph, k, seed)
            path = self.path_for(key)
            hit = container_version(path) == FORMAT_VERSION
            span.stamp(hit=hit)
            if tm.enabled:
                tm.count("store.backend_hits" if hit else "store.backend_misses")
            if not hit:
                backend = build_backend(name, graph, k, seed, ported=ported)
                self.save_backend(backend, graph, k=k, seed=seed)
            return self.load_backend(path)

    # ------------------------------------------------------------------
    def get_or_build(
        self,
        graph: Graph,
        k: int = 2,
        seed: Optional[int] = None,
        *,
        ported: Optional[PortedGraph] = None,
        strict: bool = False,
    ) -> StoredScheme:
        """The front door: a memo table over scheme construction.

        Returns the mmap-backed stored scheme for ``(graph, k, seed,
        ported)``, building, compiling and saving it first if the store
        has no entry.  The build threads ``seed`` through the same
        hierarchy-sampling path as :func:`repro.core.build.build_arrays`,
        so a store hit is bit-identical to what the miss would build.
        A container of an older format at the key's path is a miss: it
        is rebuilt and replaced, never served.
        """
        tm = TELEMETRY
        with tm.span("store.get_or_build", k=k) as span:
            if ported is None:
                ported = assign_ports(graph, "sorted")
            key = self.key_for(graph, k, seed, ported)
            path = self.path_for(key)
            hit = container_version(path) == FORMAT_VERSION
            span.stamp(hit=hit)
            if tm.enabled:
                tm.count("store.hits" if hit else "store.misses")
            return self._get_or_build(graph, k, seed, ported, strict, path, hit)

    def _get_or_build(self, graph, k, seed, ported, strict, path, hit) -> StoredScheme:
        """Build-save-load behind :meth:`get_or_build` (key resolved)."""
        if hit and strict:
            header = read_header(path)
            if header.get("meta", {}).get("serialize_sha256") is None:
                # Saved without a digest: upgrade in place.  The data
                # checksum (verify_data) proves the blobs are the ones
                # the original save wrote, so digesting the stored
                # arrays is equivalent to having digested at save time —
                # no rebuild needed.
                prior = self.load(path, verify_data=True)
                self.save(
                    graph,
                    ported,
                    prior.arrays,
                    seed=seed,
                    compiled=prior.compiled,
                    strict=True,
                    builder=prior.meta.get("builder", "vectorized"),
                )
        if not hit:
            arrays = build_arrays(graph, k, ported=ported, rng=seed)
            self.save(graph, ported, arrays, seed=seed, strict=strict)
        return self.load(path, strict=strict, graph=graph, ported=ported)
