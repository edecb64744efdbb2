"""Advance a whole traffic matrix one synchronized hop per array step.

:class:`BatchRouter` is the vectorized counterpart of
:class:`~repro.sim.network.Network`: the same per-hop forwarding rule,
applied to every in-flight message at once with numpy gathers instead of
a Python loop.  Each step it

1. retires rows that sit at their destination (delivered),
2. looks up each active row's record in its committed tree
   (``searchsorted`` on the compiled entry keys),
3. classifies the §2 forwarding rule per row — parent / heavy child /
   light-port — and gathers the next vertex, edge weight and edge id,
4. drops rows that violate a scheme invariant (no record, root exit,
   label mismatch) or try to cross a dead edge, and
5. accumulates weights and advances the survivors.

Because weights accumulate in the same per-row order as the reference
simulator, delivered/weight/hops are **bit-for-bit identical** to
:meth:`Network.route` — enforced by the equivalence suite in
``tests/test_batch_engine.py``.  Failure *reasons* are coarser (codes,
not the reference's prose), which is the only sanctioned difference.

**Trial-axis convention.**  Failure sweeps add one more array axis:
:meth:`BatchRouter.route_trials` routes the *same* pair set under ``T``
independent dead-edge masks at once.  Internally the trials are
flattened into ``T·P`` rows carrying a per-row trial index, the tree
commitment is computed once per pair and tiled (it does not depend on
the failure set), and the one hop loop advances every (trial, pair) row
together — the dead-link check simply gathers
``dead_masks[trial, edge]`` instead of ``dead_mask[edge]``.  Rows are
independent, so each trial's slice of a :class:`TrialSweepResult` is
bit-for-bit what :meth:`route_pairs` returns for that trial's dead-edge
set alone (and hence bit-for-bit the reference
:class:`~repro.sim.failures.FaultyNetwork` outcome) — enforced by
``tests/test_scenarios.py``.

**Native kernel and row chunks.**  On the native kernel — the
platform's choice whenever ``_native.c`` compiles and loads, see
:mod:`repro.kernels` — both the tree commit and the hop loop run in C
(:mod:`repro.kernels.hop`); the numpy :meth:`BatchRouter._commit` and
synchronized loop stay as the bit-for-bit references, which
``kernel="numpy"`` selects.  Both kernels read the compiled scheme's
``ent`` and ``step`` records where they lie — the C ones as structs,
numpy by field — so the first route after a load or a swap does the
same work as every later one.  Rows are independent, so
:meth:`BatchRouter.route_pairs` cuts a batch of at least
:data:`ROUTE_CHUNK_FLOOR` pairs into one contiguous row chunk per worker
of the process's pinned pool (:mod:`repro.pool`) and runs each phase's
chunks there (ctypes releases the GIL), every chunk writing its own
rows of shared output columns — the result is the one-chunk result, in
input order.  Telemetry spans and counters are recorded on the calling
thread only: the registry holds the open span per context and a pool
worker does not inherit the caller's, so a span opened there would be a
new root, and the metric dicts take no locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ... import pool
from ...core.router import RoutingScheme
from ...errors import RoutingError
from ...graphs.ports import PortedGraph
from ...kernels import resolve_kernel
from ...kernels.hop import commit_native, hop_loop_native
from ...obs import TELEMETRY
from ...trees.label_codec import tree_label_bits_array
from ..network import RouteResult
from .compile import CompiledScheme, compile_scheme

#: Failure codes recorded per undelivered row (0 = delivered / in flight).
FAIL_NONE = 0
FAIL_NO_TREE = 1  # no usable tree from source to destination
FAIL_NO_RECORD = 2  # message left its committed cluster
FAIL_ROOT_EXIT = 3  # destination DFS number outside a root record
FAIL_LABEL = 4  # light-port index beyond the destination label
FAIL_PORT = 5  # label carried a port the vertex does not have
FAIL_DEAD_LINK = 6  # next hop crosses a failed edge
FAIL_TTL = 7  # TTL exhausted (routing loop)
FAIL_CORRUPT = 8  # an index read out of the scheme is out of range

FAILURE_TEXT = {
    FAIL_NONE: None,
    FAIL_NO_TREE: "no usable tree (scheme invariant violated)",
    FAIL_NO_RECORD: "message left the cluster (scheme invariant violated)",
    FAIL_ROOT_EXIT: "destination f outside the tree of a root record",
    FAIL_LABEL: "light-port index beyond the destination label",
    FAIL_PORT: "label carried an out-of-range port",
    FAIL_DEAD_LINK: "dead link",
    FAIL_TTL: "TTL exhausted (routing loop?)",
    FAIL_CORRUPT: "scheme record index out of range (damaged container?)",
}

#: ``cur`` sentinel: the message crossed into a vertex with no record in
#: its tree (only possible when routing over a port assignment the
#: scheme was not compiled for); the landed vertex lives in ``lost_v``.
_LOST = -2

#: Smallest ``route_pairs`` batch the native kernel cuts into one row
#: chunk per pool worker; smaller batches run on the calling thread.
#: Each threaded phase (a route has two) pays one pool round trip:
#: ~0.05 ms while the workers are awake, 0.17 ms at the median after
#: an idle pause.  On Zipf batches over a gnp n=10⁴, k=3 scheme (2-CPU
#: x86-64 container, best of 7 interleaved calls, eight readings per
#: size) two chunks beat one by 1.18–1.53× at 8,192 pairs, 1.51–1.66×
#: at 16,384 and 1.64–1.80× at 32,768, but only by 0.92–1.32× at 4,096
#: (slower in three of the eight readings) and 0.76–1.01× at 2,048.
ROUTE_CHUNK_FLOOR = 8_192


def _usable_cpus() -> int:
    """Workers of the process's pool: one per CPU of its affinity mask."""
    return pool.size()


def _row_chunks(count: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` row ranges covering ``count`` rows: one
    per pool worker from :data:`ROUTE_CHUNK_FLOOR` rows up, else one."""
    return pool.even_ranges(count, _usable_cpus() if count >= ROUTE_CHUNK_FLOOR else 1)


@dataclass
class BatchResult:
    """Columnar outcome of one :meth:`BatchRouter.route_pairs` call.

    All arrays are per-pair, aligned with the input order.  ``weight``
    and ``hops`` are valid for failed rows too (the prefix walked before
    the failure), matching the reference simulator.
    """

    source: np.ndarray
    dest: np.ndarray
    delivered: np.ndarray  # bool
    weight: np.ndarray  # float64
    hops: np.ndarray  # int64
    tree: np.ndarray  # committed tree root, -1 if never committed
    max_header_bits: np.ndarray  # int64
    failure_code: np.ndarray  # int8, FAIL_* values

    @property
    def attempted(self) -> int:
        """Number of routed pairs (rows of the input matrix)."""
        return int(self.source.shape[0])

    @property
    def delivered_count(self) -> int:
        """Number of pairs that reached their destination."""
        return int(self.delivered.sum())

    def failure(self, row: int) -> Optional[str]:
        """Human-readable failure reason of one row (None if delivered)."""
        return FAILURE_TEXT[int(self.failure_code[row])]

    def to_route_results(self) -> List[RouteResult]:
        """Materialize per-pair :class:`RouteResult` objects.

        The engine does not record full vertex paths (that is the
        reference simulator's job); results carry an empty ``path`` and
        an explicit ``hop_count`` instead.
        """
        out: List[RouteResult] = []
        for i in range(self.attempted):
            out.append(
                RouteResult(
                    source=int(self.source[i]),
                    dest=int(self.dest[i]),
                    delivered=bool(self.delivered[i]),
                    path=[],
                    weight=float(self.weight[i]),
                    failure=self.failure(i),
                    max_header_bits=int(self.max_header_bits[i]),
                    hop_count=int(self.hops[i]),
                )
            )
        return out


@dataclass
class TrialSweepResult:
    """Columnar outcome of one :meth:`BatchRouter.route_trials` call.

    The trial axis comes first: every per-outcome array has shape
    ``(T, P)`` for ``T`` dead-edge trials over ``P`` pairs, while
    ``source``/``dest`` stay ``(P,)`` (the pair set is shared across
    trials).  Row ``[t, i]`` is bit-for-bit what
    :meth:`BatchRouter.route_pairs` would report for pair ``i`` under
    trial ``t``'s dead edges alone.
    """

    source: np.ndarray  # (P,)
    dest: np.ndarray  # (P,)
    delivered: np.ndarray  # (T, P) bool
    weight: np.ndarray  # (T, P) float64
    hops: np.ndarray  # (T, P) int64
    tree: np.ndarray  # (T, P) committed tree (trial-invariant)
    max_header_bits: np.ndarray  # (T, P) int64
    failure_code: np.ndarray  # (T, P) int8, FAIL_* values

    @property
    def trials(self) -> int:
        """Number of failure trials (first axis)."""
        return int(self.delivered.shape[0])

    @property
    def pair_count(self) -> int:
        """Number of routed pairs per trial (second axis)."""
        return int(self.source.shape[0])

    @property
    def delivered_per_trial(self) -> np.ndarray:
        """Delivered pair count of each trial, shape ``(T,)``."""
        return self.delivered.sum(axis=1)

    def trial(self, t: int) -> BatchResult:
        """One trial's slice as a plain :class:`BatchResult` (views)."""
        return BatchResult(
            source=self.source,
            dest=self.dest,
            delivered=self.delivered[t],
            weight=self.weight[t],
            hops=self.hops[t],
            tree=self.tree[t],
            max_header_bits=self.max_header_bits[t],
            failure_code=self.failure_code[t],
        )


def _label_bits_of(
    cs: CompiledScheme, tree: np.ndarray, lo: np.ndarray, depth: np.ndarray
) -> np.ndarray:
    """Tree-label bits of committed destinations, numpy, as ``tz_commit``
    computes them: the DFS field at the width of the committed tree's
    slice, then the light ports ``lp_data[lo : lo + depth]``
    (:func:`~repro.trees.label_codec.tree_label_bits_array` over a CSR
    of just these rows)."""
    indptr = np.zeros(depth.shape[0] + 1, dtype=np.int64)
    np.cumsum(depth, out=indptr[1:])
    at = np.arange(int(indptr[-1]), dtype=np.int64) + np.repeat(lo - indptr[:-1], depth)
    size = cs.tree_indptr[tree + 1] - cs.tree_indptr[tree]
    return tree_label_bits_array(size, indptr, cs.lp_data[at])


class BatchRouter:
    """Route traffic matrices through a compiled scheme, vectorized.

    Parameters
    ----------
    ported:
        The simulated network's port assignment (the physical links the
        messages cross — normally the one the scheme was compiled on).
    scheme:
        A compiled routing scheme.  Schemes expose their dense-array
        form through :meth:`~repro.core.router.RoutingScheme.compile_batch`;
        schemes that return ``None`` there (custom/pathological test
        schemes) cannot be batch-routed — use the reference simulator.
    kernel:
        Commit and hop-loop backend: ``"numpy"`` (the bit-for-bit
        differential reference), ``"native"`` (the compiled C kernels,
        run on the worker pool in row chunks for large batches; raises
        :class:`~repro.errors.KernelError` when no toolchain is
        available) or ``"auto"`` (native when it loads, else numpy —
        see :mod:`repro.kernels`).  Outcomes are identical either way.

    One router may serve several threads at once: routing never writes
    router or scheme state.
    """

    def __init__(
        self, ported: PortedGraph, scheme: RoutingScheme, *, kernel: str = "auto"
    ) -> None:
        """Compile ``scheme`` against ``ported`` (cached on the scheme)."""
        self.ported: Optional[PortedGraph] = ported
        self.scheme: Optional[RoutingScheme] = scheme
        compiled = scheme.compile_batch(ported)
        if compiled is None:
            compiled = compile_scheme(scheme, ported)  # raises RoutingError
        self.compiled: CompiledScheme = compiled
        self.kernel: str = resolve_kernel(kernel)

    @classmethod
    def from_compiled(
        cls,
        compiled: CompiledScheme,
        ported: Optional[PortedGraph] = None,
        *,
        kernel: str = "auto",
    ) -> "BatchRouter":
        """A router over an already-compiled (e.g. mmap-loaded) scheme.

        The compiled arrays carry the resolved step tables, so no graph
        or scheme object is needed to route; ``ported`` is only required
        for ``dead_edges`` simulation (edge ids come from the graph).
        """
        router = cls.__new__(cls)
        router.ported = ported
        router.scheme = None
        router.compiled = compiled
        router.kernel = resolve_kernel(kernel)
        return router

    # ------------------------------------------------------------------
    # Input validation / shared pieces
    # ------------------------------------------------------------------
    def _validate_pairs(self, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` columns of a checked ``(P, 2)`` pair matrix."""
        pair_arr = np.asarray(pairs, dtype=np.int64)
        if pair_arr.size == 0:
            pair_arr = pair_arr.reshape(0, 2)
        if pair_arr.ndim != 2 or pair_arr.shape[1] != 2:
            raise RoutingError("pairs must be an (m, 2) integer array")
        src = np.ascontiguousarray(pair_arr[:, 0])
        dst = np.ascontiguousarray(pair_arr[:, 1])
        n = self.compiled.n
        if src.shape[0] and (
            src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n
        ):
            raise RoutingError("pair endpoint out of range")
        return src, dst

    def _edge_mask(self, dead_edges: Iterable[Tuple[int, int]]) -> np.ndarray:
        """``(m,)`` boolean mask of the listed edges (canonical ids)."""
        from ..failures import dead_edge_mask

        if self.ported is None:
            raise RoutingError(
                "dead_edges needs the ported graph (edge ids); "
                "construct the router with one"
            )
        return dead_edge_mask(self.ported.graph, dead_edges)

    def _commit(
        self, src: np.ndarray, dst: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """Commit every pair to a tree (the 4k−5 / §4 source strategy).

        Returns the per-row routing state consumed by :meth:`_hop_loop`:
        ``(fail, tree, header, dest_f, lp_lo, lp_hi, epos_src,
        epos_dst)``.  Pure per row — the state of a pair does not depend
        on any other row, which is what lets :meth:`route_trials`
        compute it once and tile it across trials.
        """
        cs = self.compiled
        count = src.shape[0]
        fail = np.zeros(count, dtype=np.int8)
        header = np.full(count, 2 * cs.id_bits, dtype=np.int64)
        tree = np.full(count, -1, dtype=np.int64)
        dest_f = np.zeros(count, dtype=np.int64)
        lp_lo = np.zeros(count, dtype=np.int64)
        lp_hi = np.zeros(count, dtype=np.int64)
        # Routing state is entry-indexed: a message at vertex u inside
        # committed tree w is "at" the compiled entry (w, u); arrival is
        # entry equality with the destination's entry.  Trivial (s == t)
        # pairs share a sentinel so the first arrival check retires them.
        epos_src = np.full(count, -7, dtype=np.int64)
        epos_dst = np.full(count, -7, dtype=np.int64)
        nontrivial = np.flatnonzero(src != dst)
        if nontrivial.size:
            if cs.handshake:
                sel = cs.select_trees_handshake(src[nontrivial], dst[nontrivial])
            else:
                sel = cs.select_trees(src[nontrivial], dst[nontrivial])
            sel_tree, sel_epos, sel_spos, sel_ok = sel
            fail[nontrivial[~sel_ok]] = FAIL_NO_TREE
            rows = nontrivial[sel_ok]
            w, epos, spos = sel_tree[sel_ok], sel_epos[sel_ok], sel_spos[sel_ok]
            # The entry indices (a level-0 row's source entry is read out
            # of root_epos), then the destination's light-port slice, are
            # checked before use.
            E, L = cs.entry_count, cs.lp_data.shape[0]
            corrupt = (epos < 0) | (epos >= E) | (spos < 0) | (spos >= E)
            rec = cs.ent[np.where(corrupt, 0, epos)]
            lo = rec["lp_off"].astype(np.int64)
            depth = rec["light_depth"].astype(np.int64)
            corrupt |= (lo < 0) | (depth < 0) | (lo + depth > L)
            fail[rows[corrupt]] = FAIL_CORRUPT
            good = ~corrupt
            rows, w, epos, rec = rows[good], w[good], epos[good], rec[good]
            lo, depth = lo[good], depth[good]
            tree[rows] = w
            header[rows] = 2 * cs.id_bits + _label_bits_of(cs, w, lo, depth)
            dest_f[rows] = rec["f"]
            lp_lo[rows] = lo
            lp_hi[rows] = lo + depth
            epos_src[rows] = spos[good]
            epos_dst[rows] = epos
        return fail, tree, header, dest_f, lp_lo, lp_hi, epos_src, epos_dst

    def _chunks(self, count: int) -> List[Tuple[int, int]]:
        """Row chunks of one ``route_pairs`` batch (one unless native)."""
        return _row_chunks(count) if self.kernel == "native" else [(0, count)]

    def _commit_rows(
        self, src: np.ndarray, dst: np.ndarray, chunks: List[Tuple[int, int]]
    ) -> Tuple[np.ndarray, ...]:
        """:meth:`_commit`'s columns, from this router's kernel (the
        native one commits each row chunk on its own thread)."""
        if self.kernel != "native":
            return self._commit(src, dst)
        cs = self.compiled
        count = src.shape[0]
        state = (np.empty(count, dtype=np.int8),) + tuple(
            np.empty(count, dtype=np.int64) for _ in range(7)
        )

        def run(lo: int, hi: int) -> None:
            commit_native(cs, src[lo:hi], dst[lo:hi], tuple(col[lo:hi] for col in state))

        pool.run(run, chunks)
        return state

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def route_pairs(
        self,
        pairs: np.ndarray,
        *,
        ttl: Optional[int] = None,
        dead_edges: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> BatchResult:
        """Route every ``(s, t)`` row of ``pairs``; never raises per-pair.

        ``ttl`` matches the reference default (``4·n + 16`` forwarding
        decisions).  ``dead_edges`` drops any row whose next hop crosses
        a listed edge, mirroring :class:`~repro.sim.failures.FaultyNetwork`.
        On the native kernel a batch of at least
        :data:`ROUTE_CHUNK_FLOOR` pairs runs as one row chunk per pool
        worker (module doc); the result does not depend on the chunking.
        """
        tm = TELEMETRY
        with tm.span("route.route_pairs", pairs=int(np.asarray(pairs).shape[0])):
            src, dst = self._validate_pairs(pairs)
            dead_masks: Optional[np.ndarray] = None
            trial: Optional[np.ndarray] = None
            if dead_edges is not None:
                dead_list = list(dead_edges)
                if dead_list:
                    dead_masks = self._edge_mask(dead_list)[None, :]
                    trial = np.zeros(src.shape[0], dtype=np.int64)
            chunks = self._chunks(src.shape[0])
            with tm.span("route.commit"):
                state = self._commit_rows(src, dst, chunks)
            with tm.span("route.hop_loop"):
                return self._hop_loop(src, dst, state, ttl, dead_masks, trial, chunks)

    def route_trials(
        self,
        pairs: np.ndarray,
        dead_edge_masks: np.ndarray,
        *,
        ttl: Optional[int] = None,
    ) -> TrialSweepResult:
        """Route the same pairs under ``T`` dead-edge trials at once.

        ``dead_edge_masks`` is a ``(T, m)`` boolean matrix — row ``t``
        flags the canonical edge ids dead in trial ``t`` (build it with
        :func:`repro.sim.failures.failure_trials` or
        :func:`repro.sim.failures.dead_edge_mask`).  The scheme stays
        compiled once and the tree commitment is computed once per pair;
        only the hop loop carries the trial axis.  Slice ``t`` of the
        result is bit-for-bit ``route_pairs(pairs, dead_edges=<trial
        t's edges>)``.
        """
        cs = self.compiled
        src, dst = self._validate_pairs(pairs)
        masks = np.ascontiguousarray(np.asarray(dead_edge_masks, dtype=bool))
        if masks.ndim != 2:
            raise RoutingError(
                "dead_edge_masks must be a (trials, m) boolean matrix"
            )
        if self.ported is not None and masks.shape[1] != self.ported.graph.m:
            raise RoutingError(
                f"dead_edge_masks has {masks.shape[1]} edge columns, "
                f"graph has {self.ported.graph.m} edges"
            )
        # Every edge id the hop loop can gather must be in range: the
        # step tables cover all graph edges, but guard the tree-link
        # columns too for schemes compiled from foreign containers.
        for edge_ids in (cs.step["edge"], cs.ent["parent_edge"], cs.ent["heavy_edge"]):
            if edge_ids.size and masks.shape[1] <= int(edge_ids.max()):
                raise RoutingError(
                    "dead_edge_masks has fewer edge columns than the "
                    "compiled scheme's edge ids"
                )
        T = masks.shape[0]
        P = src.shape[0]
        tm = TELEMETRY
        with tm.span("route.trials", trials=T, pairs=P):
            with tm.span("route.commit"):
                state = self._commit_rows(src, dst, [(0, P)])
            tiled = tuple(np.tile(a, T) for a in state)
            with tm.span("route.hop_loop"):
                flat = self._hop_loop(
                    np.tile(src, T),
                    np.tile(dst, T),
                    tiled,
                    ttl,
                    masks,
                    np.repeat(np.arange(T, dtype=np.int64), P),
                )
        return TrialSweepResult(
            source=src,
            dest=dst,
            delivered=flat.delivered.reshape(T, P),
            weight=flat.weight.reshape(T, P),
            hops=flat.hops.reshape(T, P),
            tree=flat.tree.reshape(T, P),
            max_header_bits=flat.max_header_bits.reshape(T, P),
            failure_code=flat.failure_code.reshape(T, P),
        )

    # ------------------------------------------------------------------
    # The synchronized hop loop
    # ------------------------------------------------------------------
    def _hop_loop(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        state: Tuple[np.ndarray, ...],
        ttl: Optional[int],
        dead_masks: Optional[np.ndarray],
        trial: Optional[np.ndarray],
        chunks: Optional[List[Tuple[int, int]]] = None,
    ) -> BatchResult:
        """Advance all committed rows to their outcomes (kernel dispatch).

        ``state`` is :meth:`_commit`'s output (owned by this call — the
        ``fail`` column is mutated in place).  ``dead_masks`` is a
        ``(T, m)`` boolean matrix and ``trial`` the per-row trial index
        into it (both ``None`` when no edges are dead); plain
        single-failure-set routing passes a one-row matrix.  ``chunks``
        (default: one) are the native kernel's per-task row ranges.
        The numpy and native kernels return bit-for-bit identical
        columns.
        """
        if ttl is None:
            ttl = 4 * self.compiled.n + 16
        if chunks is None:
            chunks = [(0, src.shape[0])]
        tm = TELEMETRY
        with tm.span(
            "kernel.hop_step",
            impl=self.kernel,
            rows=int(src.shape[0]),
            threads=len(chunks),
        ):
            if self.kernel == "native":
                return self._hop_loop_c(
                    src, dst, state, ttl, dead_masks, trial, chunks
                )
            return self._hop_loop_numpy(src, dst, state, ttl, dead_masks, trial)

    def _hop_loop_c(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        state: Tuple[np.ndarray, ...],
        ttl: int,
        dead_masks: Optional[np.ndarray],
        trial: Optional[np.ndarray],
        chunks: List[Tuple[int, int]],
    ) -> BatchResult:
        """The compiled per-row walk (see :mod:`repro.kernels.hop`), one
        pool task per row chunk; ``route.hop_iterations`` is the maximum
        over chunks, which is the one-chunk round count."""
        cs = self.compiled
        count = src.shape[0]
        out = (
            np.zeros(count, dtype=np.uint8),
            np.zeros(count, dtype=np.float64),
            np.zeros(count, dtype=np.int64),
        )

        def run(lo: int, hi: int) -> int:
            return hop_loop_native(
                cs,
                dst[lo:hi],
                tuple(col[lo:hi] for col in state),
                ttl,
                dead_masks,
                None if trial is None else trial[lo:hi],
                tuple(col[lo:hi] for col in out),
            )

        rounds = max(pool.run(run, chunks))
        delivered, weight, hops = out[0].view(np.bool_), out[1], out[2]
        fail, tree, header = state[:3]
        tm = TELEMETRY
        if tm.enabled:
            tm.count("route.hop_iterations", rounds)
            tm.count("route.pairs_routed", int(src.shape[0]))
            tm.count("route.delivered", int(delivered.sum()))
        return BatchResult(
            source=src,
            dest=dst,
            delivered=delivered,
            weight=weight,
            hops=hops,
            tree=tree,
            max_header_bits=header,
            failure_code=fail,
        )

    def _step_next(self, vertex: np.ndarray, port: np.ndarray) -> np.ndarray:
        """The neighbor behind ``port`` at ``vertex``, through the step
        rows; -1 where the vertex, the port or the neighbor is out of
        range (a damaged record), as ``lost_neighbour`` in ``_native.c``."""
        cs = self.compiled
        n = cs.n
        v = vertex.astype(np.int64)
        port = port.astype(np.int64)
        ok = (v >= 0) & (v < n)
        v = np.where(ok, v, 0)
        ok &= (port >= 1) & (port <= cs.g_indptr[v + 1] - cs.g_indptr[v])
        if not cs.step.shape[0]:
            return np.full(v.shape[0], -1, dtype=np.int64)
        nxt = cs.step["next"][np.where(ok, cs.g_indptr[v] + port - 1, 0)].astype(np.int64)
        ok &= (nxt >= 0) & (nxt < n)
        return np.where(ok, nxt, -1)

    def _hop_loop_numpy(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        state: Tuple[np.ndarray, ...],
        ttl: int,
        dead_masks: Optional[np.ndarray],
        trial: Optional[np.ndarray],
    ) -> BatchResult:
        """The synchronized numpy reference loop (one hop per array step)."""
        cs = self.compiled
        ent = cs.ent
        n, E = cs.n, cs.entry_count
        count = src.shape[0]
        fail, tree, header, dest_f, lp_lo, lp_hi, epos_src, epos_dst = state
        delivered = np.zeros(count, dtype=bool)
        weight = np.zeros(count)
        hops = np.zeros(count, dtype=np.int64)

        # --- synchronized hop stepping (state compacted as rows retire) -
        rows = np.flatnonzero(fail == FAIL_NONE)
        cur = epos_src[rows]
        dst_e = epos_dst[rows]
        dsts = dst[rows]
        target_f = dest_f[rows]
        trees = tree[rows]
        lo = lp_lo[rows]
        hi = lp_hi[rows]
        lost_v = np.full(rows.shape[0], -1, dtype=np.int64)
        tri = trial[rows] if trial is not None else None

        def _compact(keep: np.ndarray) -> None:
            """Drop retired rows from every live state column."""
            nonlocal rows, cur, dst_e, dsts, target_f, trees, lo, hi, lost_v, tri
            rows = rows[keep]
            cur = cur[keep]
            dst_e = dst_e[keep]
            dsts = dsts[keep]
            target_f = target_f[keep]
            trees = trees[keep]
            lo = lo[keep]
            hi = hi[keep]
            lost_v = lost_v[keep]
            if tri is not None:
                tri = tri[keep]

        rounds = 0
        for _ in range(ttl):
            if rows.size == 0:
                break
            rounds += 1
            # Arrival is checked before anything else (as in the
            # reference decide): entry equality, or — for messages that
            # crossed into a recordless vertex — landing on the
            # destination itself, which needs no record to terminate.
            lost = cur == _LOST
            arrived = (cur == dst_e) | (lost & (lost_v == dsts))
            if arrived.any():
                delivered[rows[arrived]] = True
                _compact(~arrived)
                lost = lost[~arrived]
                if rows.size == 0:
                    break
            if lost.any():
                fail[rows[lost]] = FAIL_NO_RECORD
                _compact(~lost)
                if rows.size == 0:
                    break
            rec_f = ent["f"][cur]
            # §2 forwarding rule.  target_f == rec_f would mean arrival
            # (DFS numbers are unique per tree) and was handled above.
            outside = (target_f < rec_f) | (target_f > ent["finish"][cur])
            heavy = ~outside & (target_f >= rec_f + 1)
            heavy &= target_f <= ent["heavy_finish"][cur]
            light = ~(outside | heavy)

            nxt = np.empty(rows.shape[0], dtype=np.int64)
            wts = np.empty(rows.shape[0])
            edge = np.full(rows.shape[0], -1, dtype=np.int64)
            code = np.zeros(rows.shape[0], dtype=np.int8)
            new_lost = np.full(rows.shape[0], -1, dtype=np.int64)

            pe = cur[outside]
            nxt[outside] = ent["parent_epos"][pe]
            wts[outside] = ent["parent_wt"][pe]
            if dead_masks is not None:
                edge[outside] = ent["parent_edge"][pe]
            he = cur[heavy]
            nxt[heavy] = ent["heavy_epos"][he]
            wts[heavy] = ent["heavy_wt"][he]
            if dead_masks is not None:
                edge[heavy] = ent["heavy_edge"][he]
            code[outside & (nxt == -1)] = FAIL_ROOT_EXIT
            # heavy with no heavy child (-1) means a corrupted record
            # (heavy_finish > f on a leaf); the reference hits PortError
            # stepping on port 0, before crossing — match that.
            code[heavy & (nxt == -1)] = FAIL_PORT
            moved = outside | heavy
            code[moved & ((nxt < _LOST) | (nxt >= E))] = FAIL_CORRUPT
            # A _LOST transition still crosses the physical edge (the
            # reference only discovers the missing record at the next
            # decide); resolve the landed vertex through the move's port
            # and keep the row moving.
            went_lost = np.flatnonzero(moved & (nxt == _LOST))
            if went_lost.size:
                at = cur[went_lost]
                port = np.where(
                    outside[went_lost], ent["parent_port"][at], ent["heavy_port"][at]
                )
                landed = self._step_next(ent["vertex"][at], port)
                new_lost[went_lost] = landed
                code[went_lost[landed < 0]] = FAIL_CORRUPT

            if light.any():
                li = np.flatnonzero(light)
                depth = ent["light_depth"][cur[li]].astype(np.int64)
                code[li[depth < 0]] = FAIL_CORRUPT
                lp_pos = lo[li] + depth
                in_label = (depth >= 0) & (lp_pos < hi[li])
                code[li[(depth >= 0) & ~in_label]] = FAIL_LABEL
                li = li[in_label]
                lp_pos = lp_pos[in_label]
                at = ent["vertex"][cur[li]].astype(np.int64)
                at_ok = (at >= 0) & (at < n)
                code[li[~at_ok]] = FAIL_CORRUPT
                li, lp_pos, at = li[at_ok], lp_pos[at_ok], at[at_ok]
                if li.size:
                    port = cs.lp_data[lp_pos].astype(np.int64)  # uint8 - 1 would wrap
                    step = cs.g_indptr[at] + port - 1
                    port_ok = (port >= 1) & (step < cs.g_indptr[at + 1])
                    code[li[~port_ok]] = FAIL_PORT
                    li = li[port_ok]
                    hop = cs.step[step[port_ok]]
                    # Light hops cross a physical port; resolve the
                    # landed vertex back to its entry in the tree.
                    landed_v = hop["next"].astype(np.int64)
                    landed_ok = (landed_v >= 0) & (landed_v < n)
                    code[li[~landed_ok]] = FAIL_CORRUPT
                    li, hop, landed_v = li[landed_ok], hop[landed_ok], landed_v[landed_ok]
                    landed, found = cs.entry_pos(trees[li], landed_v)
                    nxt[li] = np.where(found, landed, _LOST)
                    new_lost[li] = np.where(found, -1, landed_v)
                    wts[li] = hop["wt"]
                    if dead_masks is not None:
                        edge[li] = hop["edge"]

            if dead_masks is not None:
                crossing = (code == FAIL_NONE) & (edge >= 0)
                outside_mask = crossing & (edge >= dead_masks.shape[1])
                code[outside_mask] = FAIL_CORRUPT
                crossing &= ~outside_mask
                dead_hit = crossing & dead_masks[tri, np.where(crossing, edge, 0)]
                code[dead_hit] = FAIL_DEAD_LINK

            bad = code != FAIL_NONE
            if bad.any():
                fail[rows[bad]] = code[bad]
                keep = ~bad
                moving = rows[keep]
                weight[moving] += wts[keep]
                hops[moving] += 1
                cur = nxt
                lost_v = new_lost
                _compact(keep)
            else:
                weight[rows] += wts
                hops[rows] += 1
                cur = nxt
                lost_v = new_lost

        fail[rows] = FAIL_TTL

        tm = TELEMETRY
        if tm.enabled:
            tm.count("route.hop_iterations", rounds)
            tm.count("route.pairs_routed", count)
            tm.count("route.delivered", int(delivered.sum()))
        return BatchResult(
            source=src,
            dest=dst,
            delivered=delivered,
            weight=weight,
            hops=hops,
            tree=tree,
            max_header_bits=header,
            failure_code=fail,
        )
