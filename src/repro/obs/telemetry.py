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

The open span is held per execution context (a
:class:`contextvars.ContextVar`), so every asyncio task and every
thread nests its spans under its own open span only.  A thread starts
with no open span: work handed to an executor nests under the caller's
span only when it runs in a copy of the caller's context
(``contextvars.copy_context().run``, as the serving daemon does for
each route).  Counters, gauges and histograms are plain dict updates
without locks; the batch router therefore records them, and opens its
spans, on the calling thread, never on its row-chunk threads.

Results are never touched: instrumented and uninstrumented runs return
bit-identical routing outcomes (the disabled-mode identity test pins
this on every result column).
"""

from __future__ import annotations

from contextvars import ContextVar
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
    "peak_rss_mb",
    "rss_anon_mb",
    "span",
    "timed",
]


class Span:
    """One timed region of a trace tree.

    Created by :meth:`Telemetry.span` and driven by the ``with``
    statement: ``__enter__`` stamps the start, attaches the span under
    the context's currently open span and makes it current;
    ``__exit__`` stamps the end and restores the parent — also when the
    body raises, in which case the exception type lands in
    ``attrs["error"]`` and the exception propagates unchanged.
    """

    __slots__ = (
        "name", "attrs", "start_ns", "end_ns", "children", "child_rss",
        "_tm", "_parent", "_token",
    )

    def __init__(self, tm: "Telemetry", name: str, attrs: Dict[str, object]) -> None:
        """Internal — use :meth:`Telemetry.span` (handles disabled mode)."""
        self.name = name
        self.attrs = attrs
        self.start_ns = 0
        self.end_ns = 0
        self.children: List["Span"] = []
        #: Set by :meth:`Telemetry.stamp_child_rss`: each child span then
        #: records the process's peak RSS as it closes.
        self.child_rss = False
        self._tm = tm
        self._parent: Optional["Span"] = None
        self._token = None

    def __enter__(self) -> "Span":
        """Open the span: attach to the current span and start the clock."""
        tm = self._tm
        self._parent = tm._current.get()
        if self._parent is not None:
            self._parent.children.append(self)
        else:
            tm.roots.append(self)
        self._token = tm._current.set(self)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the span (exception-safe; exceptions propagate).  The
        RSS stamps are read before the clock stops, so their cost (the
        first one imports ``resource``) is this span's own time, not an
        unspanned gap in the parent."""
        stamp = self._parent is not None and self._parent.child_rss
        if stamp:
            rss = {"maxrss_mb": peak_rss_mb()}
            anon = rss_anon_mb()
            if anon is not None:
                rss["rss_anon_mb"] = anon
        self.end_ns = perf_counter_ns()
        self._tm._current.reset(self._token)
        if exc_type is not None:
            self.attrs = dict(self.attrs, error=exc_type.__name__)
        if stamp:
            self.attrs = dict(self.attrs, **rss)
        return False

    def stamp(self, **attrs) -> None:
        """Add labels known only once the span is open."""
        self.attrs = dict(self.attrs, **attrs)

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

    def stamp(self, **attrs) -> None:
        """No-op: the shared instance keeps no labels."""


#: The shared disabled-mode span instance.
NOOP_SPAN = _NoopSpan()


class Telemetry:
    """Process-local registry of spans, counters, gauges and histograms.

    Starts disabled; :meth:`enable` resets nothing by itself (call
    :meth:`reset` to clear collected data).  All methods are cheap
    operations without locks; the open span is per context, the metric
    dicts are shared (module doc).
    """

    __slots__ = ("enabled", "counters", "gauges", "histograms", "roots", "_current")

    def __init__(self) -> None:
        """A fresh, disabled registry with no recorded data."""
        self.enabled = False
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}
        self.roots: List[Span] = []
        #: The span open in the calling context (``None`` outside any).
        self._current: ContextVar[Optional[Span]] = ContextVar("span", default=None)

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
        self._current.set(None)

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

    def stamp_child_rss(self) -> None:
        """Make each child of the span open in this context record a
        ``maxrss_mb`` attribute, :func:`peak_rss_mb` read as the child
        closes, so a profile names the phase that set the peak, and
        beside it ``rss_anon_mb``, :func:`rss_anon_mb` (where the
        platform reports it), the anonymous memory resident then (no-op
        while disabled or outside any span)."""
        span = self._current.get()
        if self.enabled and span is not None:
            span.child_rss = True

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


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (``ru_maxrss``
    of ``getrusage(RUSAGE_SELF)``, which macOS reports in bytes and Linux
    and the BSDs in KiB)."""
    import resource
    import sys

    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unit = 1.0 if sys.platform == "darwin" else 1024.0
    return round(maxrss * unit / (1 << 20), 1)


def rss_anon_mb() -> Optional[float]:
    """This process's resident anonymous memory now, in MB: ``RssAnon``
    of ``/proc/self/status`` (Linux), or None where that file or line is
    missing.  Unlike :func:`peak_rss_mb` it counts no page cache, so a
    memory-mapped container that was read does not inflate it."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"RssAnon:"):
                    return round(int(line.split()[1]) / 1024.0, 1)  # kB
    except OSError:
        pass
    return None


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
