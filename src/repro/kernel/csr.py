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
container for the interpreted inner loops — but serialize to a compact
``array('i')``-packed byte string (:meth:`CompiledCircuit.to_bytes`),
which is what the serve circuit store keeps on disk
(:mod:`repro.serve.store`) so a load adopts the kernel without
recompiling.

Instances are cached on the circuit (:meth:`SeqCircuit.compiled
<repro.netlist.graph.SeqCircuit.compiled>`) and invalidated by any
structural mutation, like the existing ``fanin_pairs`` mirror.
"""

from __future__ import annotations

import struct
from array import array
from typing import Dict, List, Sequence, Tuple, Union

from repro.netlist.graph import NodeKind, SeqCircuit

#: Node-kind codes of the ``kinds`` array (stable across serialization).
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

#: Serialization header: magic, format version, node count, pin count,
#: pack shift.
_MAGIC = b"RCSR"
_HEADER = struct.Struct("<4sBiii")
_FORMAT_VERSION = 1


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

    # ------------------------------------------------------------------
    # Delta patching (incremental remapping)
    # ------------------------------------------------------------------
    def splice_pins(self, u: int, pins: Sequence[Tuple[int, int]]) -> None:
        """Replace node ``u``'s fanin pins in place (delta CSR patch).

        ``pins`` must already be deduplicated exactly as
        :func:`compile_circuit` dedups (first-occurrence order) — the
        incremental patcher applies the same ``dict.fromkeys`` pass —
        so a patched array is indistinguishable from a fresh compile.
        A pin-count change shifts every later node's offset by the
        delta: O(pins + n) worst case, O(pins) when the count is
        unchanged (the common rewire).
        """
        lo, hi = self.offsets[u], self.offsets[u + 1]
        self.srcs[lo:hi] = [src for src, _w in pins]
        self.weights[lo:hi] = [w for _src, w in pins]
        delta = len(pins) - (hi - lo)
        if delta:
            offsets = self.offsets
            for i in range(u + 1, len(offsets)):
                offsets[i] += delta

    def append_node(self, kind: int, pins: Sequence[Tuple[int, int]]) -> None:
        """Append node ``n`` with the given kind code and (deduped) pins.

        Raises :class:`ValueError` when growing the id space would
        change :func:`pack_shift` — packed copies embedded in caller
        state would silently decode wrong, so the patcher must fall
        back to a full recompile at such boundaries.
        """
        if pack_shift(self.n + 1) != self.shift:
            raise ValueError(
                f"append crosses the pack-shift boundary at n={self.n}: "
                "recompile required"
            )
        self.kinds.append(kind)
        for src, w in pins:
            self.srcs.append(src)
            self.weights.append(w)
        self.offsets.append(len(self.srcs))
        self.n += 1

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Compact byte serialization (header + packed int arrays).

        The payload is platform-independent little-endian ``int32``;
        node counts and edge weights far exceeding ``2^31`` are not
        representable, which no realizable circuit approaches.
        """
        header = _HEADER.pack(
            _MAGIC, _FORMAT_VERSION, self.n, len(self.srcs), self.shift
        )
        return b"".join(
            (
                header,
                array("b", self.kinds).tobytes(),
                array("i", self.offsets).tobytes(),
                array("i", self.srcs).tobytes(),
                array("i", self.weights).tobytes(),
            )
        )

    @classmethod
    def from_bytes(cls, data: Union[bytes, memoryview]) -> "CompiledCircuit":
        """Rebuild a compiled circuit from :meth:`to_bytes` output.

        Accepts any buffer (``bytes``, ``memoryview``); the arrays are
        unpacked into plain lists, the layout the interpreted hot loops
        index fastest.
        """
        view = memoryview(data)
        magic, version, n, n_pins, shift = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ValueError("not a compiled-circuit payload (bad magic)")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported compiled-circuit format version {version}"
            )
        pos = _HEADER.size
        kinds = array("b")
        kinds.frombytes(view[pos : pos + n])
        pos += n
        offsets = array("i")
        offsets.frombytes(view[pos : pos + 4 * (n + 1)])
        pos += 4 * (n + 1)
        srcs = array("i")
        srcs.frombytes(view[pos : pos + 4 * n_pins])
        pos += 4 * n_pins
        weights = array("i")
        weights.frombytes(view[pos : pos + 4 * n_pins])
        return cls(
            n, shift, list(kinds), list(offsets), list(srcs), list(weights)
        )


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
