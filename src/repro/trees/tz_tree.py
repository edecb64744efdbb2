"""The Thorup–Zwick tree-routing scheme (SPAA'01 §2).

Each vertex keeps an **O(1)-word local record** per tree it participates
in; the destination's **label** carries everything else.  A forwarding
decision is a constant number of integer comparisons:

at vertex ``u`` with record ``R`` and destination label ``L``::

    if L.f == R.f:                       arrived
    elif L.f outside [R.f, R.finish]:    port to parent  (t not below u)
    elif L.f in heavy child's interval:  port to heavy child
    else:                                L.light_ports[R.light_depth]

The last case is the heart of the scheme: since ``u`` lies on the
root→``t`` path, the light edges above ``u`` on that path are exactly the
light edges on root→``u``; hence the *next* light edge out of ``u`` is
entry ``light_depth(u)`` of the destination's light-port sequence.

The same machinery serves two deployments:

* a standalone tree network (experiment F2) with either designer or
  fixed ports, and
* the cluster/landmark trees inside the general TZ schemes (§3–§4),
  where ports come from the shared fixed-port graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..bitio import uint_cost
from ..errors import LabelError, RoutingError
from ..graphs.ports import PortedGraph
from ..graphs.trees import RootedTree
from .label_codec import TreeLabel, tree_label_bits


@dataclass(frozen=True)
class TreeLocalRecord:
    """The O(1) words a vertex stores for one tree.

    ``heavy_finish`` is the end of the heavy child's DFS interval, which
    starts at ``f + 1`` because the heavy-first DFS visits it immediately
    after its parent; for leaves it equals ``f`` so the heavy-interval
    test is vacuously false.  ``parent_port`` is 0 at the root (never
    used: every in-tree destination lies inside the root's interval).
    """

    f: int
    finish: int
    parent_port: int
    heavy_port: int
    heavy_finish: int
    light_depth: int

    def size_bits(self, tree_size: int, max_port: int) -> int:
        """Measured size of this record with fixed-width fields."""
        fw = (max(tree_size - 1, 0)).bit_length()
        pw = max(1, max_port.bit_length())
        return (
            uint_cost(self.f, fw)
            + uint_cost(self.finish, fw)
            + uint_cost(self.heavy_finish, fw)
            + uint_cost(self.parent_port, pw)
            + uint_cost(self.heavy_port, pw)
            + uint_cost(self.light_depth, fw)
        )


class TreeRouter:
    """A compiled tree-routing instance: records + labels for one tree.

    ``decide`` implements the forwarding rule; the simulator calls it at
    every hop.  ``records``/``labels`` are keyed by graph vertex id.
    """

    __slots__ = ("tree_size", "records", "labels", "root")

    def __init__(
        self,
        root: int,
        tree_size: int,
        records: Dict[int, TreeLocalRecord],
        labels: Dict[int, TreeLabel],
    ) -> None:
        self.root = root
        self.tree_size = tree_size
        self.records = records
        self.labels = labels

    def decide(self, u: int, target: TreeLabel) -> Optional[int]:
        """Port to forward on at ``u``, or ``None`` when ``u`` is the
        destination.  Raises :class:`RoutingError` if ``u`` has no record
        (it is not in this tree)."""
        record = self.records.get(u)
        if record is None:
            raise RoutingError(f"vertex {u} is not in the tree rooted at {self.root}")
        return decide_from_record(record, target)

    def label_bits(self, v: int) -> int:
        return tree_label_bits(self.labels[v], self.tree_size)

    def max_label_bits(self) -> int:
        return max(self.label_bits(v) for v in self.labels)

    def record_bits(self, v: int, max_port: int) -> int:
        return self.records[v].size_bits(self.tree_size, max_port)


def decide_from_record(record: TreeLocalRecord, target: TreeLabel) -> Optional[int]:
    """The O(1) forwarding rule shared by all deployments."""
    tf = target.f
    if tf == record.f:
        return None  # arrived
    if not (record.f <= tf <= record.finish):
        if record.parent_port == 0:
            raise RoutingError(
                f"destination f={tf} outside the tree of a root record"
            )
        return record.parent_port
    if record.f + 1 <= tf <= record.heavy_finish:
        return record.heavy_port
    # t lies in a light subtree below u: the next light edge on the
    # root->t path leaves u and is entry light_depth(u) of the sequence.
    idx = record.light_depth
    if idx >= len(target.light_ports):
        raise LabelError(
            f"label carries {len(target.light_ports)} light ports, "
            f"need index {idx}: label/tree mismatch"
        )
    return target.light_ports[idx]


def records_to_arrays(
    records: Sequence[TreeLocalRecord],
) -> Dict[str, np.ndarray]:
    """Columnar export of tree records for the batch routing engine.

    Returns one int32 array per :class:`TreeLocalRecord` field, aligned
    with the input order, so the §2 forwarding rule can run as array
    comparisons over every in-flight message at once (see
    :mod:`repro.sim.engine.compile`).
    """
    count = len(records)
    return {
        "f": np.fromiter((r.f for r in records), np.int32, count),
        "finish": np.fromiter((r.finish for r in records), np.int32, count),
        "parent_port": np.fromiter(
            (r.parent_port for r in records), np.int32, count
        ),
        "heavy_port": np.fromiter(
            (r.heavy_port for r in records), np.int32, count
        ),
        "heavy_finish": np.fromiter(
            (r.heavy_finish for r in records), np.int32, count
        ),
        "light_depth": np.fromiter(
            (r.light_depth for r in records), np.int32, count
        ),
    }


def build_tree_router(
    tree: RootedTree,
    ported: PortedGraph,
    *,
    port_model: str = "fixed",
) -> TreeRouter:
    """Compile records and labels for ``tree`` over ``ported``.

    ``port_model`` selects how light-edge ports enter the labels:

    * ``"fixed"`` — physical port numbers from ``ported`` (arbitrary;
      labels cost up to O(log² n) bits).  Required when the tree shares
      its ports with other trees, i.e. inside the general TZ schemes.
    * ``"designer"`` — asserts that the physical port of each light edge
      equals the child rank (as produced by
      :func:`repro.graphs.ports.designer_ports_for_tree`), which is what
      yields (1+o(1))·log n-bit labels.
    """
    if port_model not in ("fixed", "designer"):
        raise LabelError(f"unknown port model {port_model!r}")
    records: Dict[int, TreeLocalRecord] = {}
    labels: Dict[int, TreeLabel] = {}
    light_ports_of: Dict[int, Tuple[int, ...]] = {}
    for v in tree.order:  # DFS pre-order: parents before children
        parent = tree.parent[v]
        if parent == -1:
            parent_port = 0
            light_ports_of[v] = ()
        else:
            parent_port = ported.port(v, parent)
            down_port = ported.port(parent, v)
            if tree.heavy[parent] == v:
                light_ports_of[v] = light_ports_of[parent]
            else:
                if port_model == "designer" and down_port != tree.child_rank[v]:
                    raise LabelError(
                        "designer model requires port==rank at light edge "
                        f"({parent},{v}): port {down_port}, rank {tree.child_rank[v]}"
                    )
                light_ports_of[v] = light_ports_of[parent] + (down_port,)
        heavy = tree.heavy[v]
        if heavy == -1:
            heavy_port = 0
            heavy_finish = tree.dfs[v]
        else:
            heavy_port = ported.port(v, heavy)
            heavy_finish = tree.finish[heavy]
        records[v] = TreeLocalRecord(
            f=tree.dfs[v],
            finish=tree.finish[v],
            parent_port=parent_port,
            heavy_port=heavy_port,
            heavy_finish=heavy_finish,
            light_depth=tree.light_depth[v],
        )
        labels[v] = TreeLabel(tree.dfs[v], light_ports_of[v])
    return TreeRouter(tree.root, len(tree), records, labels)
