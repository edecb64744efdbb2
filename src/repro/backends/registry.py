"""Name-keyed registry of :class:`~repro.backends.base.Backend` classes.

Registration is what plugs a structure into the shared machinery: the
contract suite parametrizes over :func:`backend_names`, the store
dispatches :meth:`~repro.store.SchemeStore.load_backend` through
:func:`get_backend`, and ``repro frontier`` sweeps
:func:`registered_backends` — so a new structure becomes a measured
frontier point by implementing the protocol and adding one decorator::

    @register_backend
    class MyOracle(Backend):
        backend_name = "my-oracle"
        ...
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Type

import numpy as np

from ..errors import PreprocessingError
from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph
from ..obs import TELEMETRY
from .base import Backend

#: The global name -> class registry (populated by import side effects
#: of :mod:`repro.backends`; user code may add more).
BACKENDS: Dict[str, Type[Backend]] = {}


def _instrument_backend(cls: Type[Backend]) -> None:
    """Wrap ``cls.build`` / ``cls.query_many`` with telemetry spans.

    Registration-time instrumentation means every call path — direct
    ``cls.build``, :func:`build_backend`, the frontier sweep — reports
    without the backend implementations knowing telemetry exists.
    Wrappers are marked (``__obs_wrapper__``) so a subclass inheriting an
    already-wrapped method from a registered parent is not wrapped twice;
    span attributes resolve the backend name at call time, so inherited
    wrappers still report the subclass's name.
    """
    build_inner = cls.build.__func__
    if not getattr(build_inner, "__obs_wrapper__", False):

        @functools.wraps(build_inner)
        def build(klass, graph, *args, **kwargs):
            """Run the backend's ``build`` under a ``backend.build`` span."""
            k = kwargs.get("k", args[0] if args else 2)
            with TELEMETRY.span(
                "backend.build", backend=klass.backend_name, k=int(k)
            ):
                return build_inner(klass, graph, *args, **kwargs)

        build.__obs_wrapper__ = True
        cls.build = classmethod(build)

    query_inner = cls.query_many
    if not getattr(query_inner, "__obs_wrapper__", False):

        @functools.wraps(query_inner)
        def query_many(self, pairs, *args, **kwargs):
            """Run ``query_many`` under a span and count pairs queried."""
            tm = TELEMETRY
            with tm.span(
                "backend.query_many", backend=type(self).backend_name
            ):
                out = query_inner(self, pairs, *args, **kwargs)
            if tm.enabled:
                tm.count("backend.pairs_queried", int(np.asarray(out).shape[0]))
            return out

        query_many.__obs_wrapper__ = True
        cls.query_many = query_many


def register_backend(cls: Type[Backend]) -> Type[Backend]:
    """Class decorator: register ``cls`` under ``cls.backend_name``.

    Registration also instruments the class's ``build`` and
    ``query_many`` with telemetry spans (see :func:`_instrument_backend`)
    — a no-op at call time while telemetry is disabled.
    """
    name = cls.backend_name
    if not name or name == Backend.backend_name:
        raise PreprocessingError(
            f"{cls.__name__} must define a non-default backend_name"
        )
    existing = BACKENDS.get(name)
    if existing is not None and existing is not cls:
        raise PreprocessingError(
            f"backend name {name!r} already registered to {existing.__name__}"
        )
    BACKENDS[name] = cls
    _instrument_backend(cls)
    return cls


def get_backend(name: str) -> Type[Backend]:
    """The registered class for ``name`` (raises with the known names)."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise PreprocessingError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


def backend_names() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(BACKENDS)


def registered_backends() -> List[Type[Backend]]:
    """Registered classes in name order."""
    return [BACKENDS[name] for name in backend_names()]


def build_backend(
    name: str,
    graph: Graph,
    k: int = 2,
    seed: Optional[int] = 0,
    *,
    ported: Optional[PortedGraph] = None,
) -> Backend:
    """Build the named backend — the registry-dispatched front door."""
    return get_backend(name).build(graph, k, seed, ported=ported)
