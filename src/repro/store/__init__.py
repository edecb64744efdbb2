"""Persistent scheme store and zero-copy serving layer.

Preprocess once, answer forever — on disk.  This package persists a
scheme (:class:`~repro.core.build.arrays.SchemeArrays` plus the columns
the batch engine's :class:`~repro.sim.engine.compile.CompiledScheme`
derives from them, each column once) in a single mmap-friendly
container, caches it content-addressed by ``(graph, k, seed, ports)``,
and serves traffic matrices straight off the file mapping:

* :mod:`repro.store.format` — the binary container (JSON header +
  aligned array blobs, zero-copy open, strict corruption detection);
* :mod:`repro.store.store` — :class:`SchemeStore`, the
  ``get_or_build`` memo table, plus the bit-exact strict-verify replay
  against :mod:`repro.core.serialize`;
* :mod:`repro.store.service` — :class:`RouteService`, the serving
  front door, hot-swapping along a lineage's ``.current`` pointer.
"""

from .format import FORMAT_VERSION, read_container, write_container
from .service import RouteService
from .store import (
    POINTER_SUFFIX,
    STORE_SUFFIX,
    SchemeStore,
    StoredScheme,
    graph_content_hash,
    port_hash,
    scheme_key,
    serialize_digest,
)

__all__ = [
    "FORMAT_VERSION",
    "POINTER_SUFFIX",
    "RouteService",
    "STORE_SUFFIX",
    "SchemeStore",
    "StoredScheme",
    "graph_content_hash",
    "port_hash",
    "read_container",
    "scheme_key",
    "serialize_digest",
    "write_container",
]
