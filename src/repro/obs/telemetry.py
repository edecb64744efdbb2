"""Process-local telemetry: nested spans, counters, gauges, histograms.

Every layer of the pipeline — builder, CSR kernel, batch router, scheme
store, route service, backend registry — reports through one
process-local :class:`Telemetry` registry (the module singleton
:data:`TELEMETRY`).  The design contract is **strict no-op when
disabled**: the hot paths pay one attribute check (``TELEMETRY.enabled``)
and nothing else — no span objects, no dict writes, no clock reads —
which is what lets the instrumentation live permanently inside the
routing hop loop and the builder's level sweeps (the overhead gate in
``benchmarks/bench_obs.py`` holds it to ≤2% of the 100k-pair route
bench).

Three instrument kinds, all process-local:

* **spans** — nested wall-time regions timed with
  :func:`time.perf_counter_ns` (monotonic; immune to wall-clock steps).
  ``with telemetry.span("build.clusters", level=i): ...`` records one
  :class:`Span` under the currently open span, exception-safe (an
  escaping exception still closes the span and stamps an ``error``
  attribute).
* **counters** — monotonically accumulated numbers
  (``count("route.pairs_routed", P)``): Dijkstra pops, hop-loop rounds,
  store hits/misses, pairs routed.
* **gauges / histograms** — last-value samples (``gauge``) and full
  value series with percentile summaries (``observe``), e.g. per-call
  route latency.

The open span is one process-wide slot (``_active``), so a span opened
on a second thread would nest under whatever that slot names at the
time.  Multi-threaded callers therefore record from one thread: the
batch router runs its row chunks on worker threads but opens every
span and bumps every counter on the calling thread.

Results are never touched: instrumented and uninstrumented runs return
bit-identical routing outcomes (the disabled-mode identity test pins
this on every result column).
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "Telemetry",
    "TELEMETRY",
    "TimedSpan",
    "count",
    "gauge",
    "observe",
    "span",
    "timed",
]


class Span:
    """One timed region of a trace tree.

    Created by :meth:`Telemetry.span` and driven by the ``with``
    statement: ``__enter__`` stamps the start, attaches the span under
    the registry's currently open span and makes it current;
    ``__exit__`` stamps the end and restores the parent — also when the
    body raises, in which case the exception type lands in
    ``attrs["error"]`` and the exception propagates unchanged.
    """

    __slots__ = ("name", "attrs", "start_ns", "end_ns", "children", "_tm", "_parent")

    def __init__(self, tm: "Telemetry", name: str, attrs: Dict[str, object]) -> None:
        """Internal — use :meth:`Telemetry.span` (handles disabled mode)."""
        self.name = name
        self.attrs = attrs
        self.start_ns = 0
        self.end_ns = 0
        self.children: List["Span"] = []
        self._tm = tm
        self._parent: Optional["Span"] = None

    def __enter__(self) -> "Span":
        """Open the span: attach to the current span and start the clock."""
        tm = self._tm
        self._parent = tm._active
        if self._parent is not None:
            self._parent.children.append(self)
        else:
            tm.roots.append(self)
        tm._active = self
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the span (exception-safe; exceptions propagate)."""
        self.end_ns = perf_counter_ns()
        self._tm._active = self._parent
        if exc_type is not None:
            self.attrs = dict(self.attrs, error=exc_type.__name__)
        return False

    # -- derived timings ------------------------------------------------
    @property
    def duration_ns(self) -> int:
        """Cumulative wall time in nanoseconds (0 while still open)."""
        return max(0, self.end_ns - self.start_ns)

    @property
    def seconds(self) -> float:
        """Cumulative wall time in seconds."""
        return self.duration_ns / 1e9

    @property
    def self_ns(self) -> int:
        """Own time: cumulative minus the children's cumulative time."""
        return max(0, self.duration_ns - sum(c.duration_ns for c in self.children))

    def walk(self, depth: int = 0):
        """Yield ``(span, depth)`` over this subtree, preorder."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        """Render name, wall time and attrs for debugging."""
        return f"<Span {self.name!r} {self.seconds * 1e3:.2f}ms {self.attrs}>"


class _NoopSpan:
    """The disabled-mode span: enters and exits without touching anything.

    A single shared instance (:data:`NOOP_SPAN`) is returned by every
    :meth:`Telemetry.span` call while disabled, so the hot path allocates
    nothing.
    """

    __slots__ = ()
    name = ""
    attrs: Dict[str, object] = {}
    children: List[Span] = []
    start_ns = end_ns = duration_ns = self_ns = 0
    seconds = 0.0

    def __enter__(self) -> "_NoopSpan":
        """No-op."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """No-op (exceptions propagate)."""
        return False


#: The shared disabled-mode span instance.
NOOP_SPAN = _NoopSpan()


class Telemetry:
    """Process-local registry of spans, counters, gauges and histograms.

    Starts disabled; :meth:`enable` resets nothing by itself (call
    :meth:`reset` to clear collected data).  All methods are cheap
    single-threaded operations without locks; record from one thread
    (module doc).
    """

    __slots__ = ("enabled", "counters", "gauges", "histograms", "roots", "_active")

    def __init__(self) -> None:
        """A fresh, disabled registry with no recorded data."""
        self.enabled = False
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}
        self.roots: List[Span] = []
        self._active: Optional[Span] = None

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        """Start recording (collected data is kept; see :meth:`reset`)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; every instrument becomes a strict no-op."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded spans and metrics (enabled flag unchanged)."""
        self.counters = {}
        self.gauges = {}
        self.histograms = {}
        self.roots = []
        self._active = None

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **attrs):
        """A context manager timing one named region.

        Disabled mode returns the shared no-op span.  ``attrs`` are
        free-form JSON-able labels (``level=2``, ``engine="pruned"``)
        carried into the trace export.
        """
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def spans(self):
        """Yield every recorded ``(span, depth)``, preorder across roots."""
        for root in self.roots:
            yield from root.walk()

    # -- metrics --------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter (no-op while disabled)."""
        if not self.enabled:
            return
        counters = self.counters
        counters[name] = counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value (no-op while disabled)."""
        if not self.enabled:
            return
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Append one sample to the named histogram (no-op while disabled)."""
        if not self.enabled:
            return
        self.histograms.setdefault(name, []).append(float(value))


#: The process-wide registry every instrumented layer reports to.
TELEMETRY = Telemetry()


class TimedSpan:
    """A context manager that always times, and records a span if enabled.

    This is the CLI's phase timer: commands print elapsed seconds
    whether or not telemetry is on, so the clock
    (:func:`time.perf_counter_ns`, monotonic) always runs, while the
    span only lands in the trace when the registry records.  Read
    ``.seconds`` after the ``with`` block.
    """

    __slots__ = ("name", "attrs", "start_ns", "end_ns", "_span")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        """Internal — use :func:`timed`."""
        self.name = name
        self.attrs = attrs
        self.start_ns = 0
        self.end_ns = 0
        self._span = None

    def __enter__(self) -> "TimedSpan":
        """Start the clock (and open a real span when recording)."""
        self._span = TELEMETRY.span(self.name, **self.attrs)
        self._span.__enter__()
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Stop the clock and close the inner span (exception-safe)."""
        self.end_ns = perf_counter_ns()
        return self._span.__exit__(exc_type, exc, tb)

    @property
    def seconds(self) -> float:
        """Elapsed wall seconds (monotonic clock)."""
        return max(0, self.end_ns - self.start_ns) / 1e9


def timed(name: str, **attrs) -> TimedSpan:
    """An always-timing :class:`TimedSpan` (span recorded when enabled)."""
    return TimedSpan(name, attrs)


def span(name: str, **attrs):
    """Module-level shorthand for ``TELEMETRY.span`` (same contract)."""
    return TELEMETRY.span(name, **attrs)


def count(name: str, value: float = 1) -> None:
    """Module-level shorthand for ``TELEMETRY.count``."""
    TELEMETRY.count(name, value)


def gauge(name: str, value: float) -> None:
    """Module-level shorthand for ``TELEMETRY.gauge``."""
    TELEMETRY.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Module-level shorthand for ``TELEMETRY.observe``."""
    TELEMETRY.observe(name, value)
