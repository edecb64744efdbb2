"""Bit-exact encoding of TZ tree-routing labels.

A tree label (§2 of the paper) identifies a destination ``t`` inside one
rooted tree by:

* ``f`` — ``t``'s DFS number in the heavy-first numbering, and
* ``light_ports`` — for every *light* edge on the root→``t`` path, the
  port taken (root-to-leaf order).

In the **designer-port** model the port at a light edge equals the child
rank ``r >= 2``, and ranks along a root path multiply to at most the tree
size, so the Elias-gamma-coded sequence costs at most
``2·log2(size) + light_depth`` bits; with ``f`` that gives labels of
``(1 + o(1))·c·log n`` bits for a small constant ``c`` — we *measure* the
constant (experiment F2) rather than replicate the paper's word-RAM
encoding tricks (DESIGN.md §2.5, substitution 1).

In the **fixed-port** model ports are arbitrary numbers up to the degree,
so each costs up to ``2·log2(deg)`` gamma bits and the label degrades to
``O(log² n)`` — exactly the asymptotic separation the paper proves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..bitio import BitReader, BitWriter, delta_cost, gamma_cost, uint_cost
from ..errors import LabelError


@dataclass(frozen=True)
class TreeLabel:
    """Routing label of one vertex within one rooted tree."""

    f: int
    light_ports: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.f < 0:
            raise LabelError(f"DFS number must be non-negative, got {self.f}")
        for p in self.light_ports:
            if p < 1:
                raise LabelError(f"ports are 1-based, got {p}")


def _f_width(tree_size: int) -> int:
    """Fixed width used for the DFS number: ``ceil(log2(tree_size))``.

    A single-vertex tree needs 0 bits — its only DFS number is 0.
    """
    if tree_size < 1:
        raise LabelError(f"tree size must be positive, got {tree_size}")
    return (tree_size - 1).bit_length()


def encode_tree_label(label: TreeLabel, tree_size: int) -> BitWriter:
    """Encode ``label`` prefix-free given the tree size (shared context)."""
    if label.f >= tree_size:
        raise LabelError(f"DFS number {label.f} out of range for size {tree_size}")
    w = BitWriter()
    w.write_uint(label.f, _f_width(tree_size))
    w.write_delta0(len(label.light_ports))
    for p in label.light_ports:
        w.write_gamma(p)
    return w


def decode_tree_label(reader: BitReader, tree_size: int) -> TreeLabel:
    """Inverse of :func:`encode_tree_label`."""
    f = reader.read_uint(_f_width(tree_size))
    count = reader.read_delta0()
    ports = tuple(reader.read_gamma() for _ in range(count))
    return TreeLabel(f, ports)


def tree_label_bits(label: TreeLabel, tree_size: int) -> int:
    """Exact bit size of the encoded label (without materializing it)."""
    return (
        uint_cost(label.f, _f_width(tree_size))
        + delta_cost(len(label.light_ports) + 1)
        + sum(gamma_cost(p) for p in label.light_ports)
    )


def _bit_length_array(a: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for positive int64 (< 2^53)."""
    return np.frexp(a.astype(np.float64))[1].astype(np.int64)


def f_width_array(tree_size: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_f_width`: the DFS field's width per tree size
    (0 bits for a single-vertex tree), int64."""
    return _bit_length_array(np.asarray(tree_size, dtype=np.int64) - 1)


def tree_label_bits_array(
    tree_size: np.ndarray, lp_indptr: np.ndarray, lp_data: np.ndarray
) -> np.ndarray:
    """Batched :func:`tree_label_bits` over a light-port CSR, int64.

    ``tree_size[e]`` is the size of entry ``e``'s tree, which fixes its
    DFS field's width (:func:`f_width_array`); the formula mirrors the
    scalar one exactly: Elias-delta coded ``len(light_ports) + 1``, then
    one Elias-gamma code per port (``delta_cost(c + 1) =
    gamma_cost(bl) + bl - 1`` with ``bl = bit_length(c + 1)``).
    """
    counts = np.diff(lp_indptr)
    bl = _bit_length_array(counts + 1)
    delta = (2 * (_bit_length_array(bl) - 1) + 1) + bl - 1
    gamma = 2 * (_bit_length_array(lp_data) - 1) + 1
    gsum = np.concatenate(([0], np.cumsum(gamma)))
    return f_width_array(tree_size) + delta + gsum[lp_indptr[1:]] - gsum[lp_indptr[:-1]]
