"""ISCAS'89-like sequential datapath generators.

The paper's test set includes four ISCAS'89 circuits (register-rich
sequential logic rather than encoded controllers).  This module generates
structurally comparable netlists from classical datapath blocks, all as
2-bounded gate networks over the retiming-graph representation:

* :func:`lfsr` — Fibonacci linear feedback shift register (long loops,
  one register per stage: MDR ratio near 1 but wide XOR feedback);
* :func:`ripple_counter` — synchronous counter (AND carry chain feeding
  every bit's toggle: deep loops through a single register level);
* :func:`accumulator` — ripple-carry adder accumulating an input bus
  (the classic hard retiming loop: carry chain + state feedback);
* :func:`fir_taps` — feed-forward multiply-accumulate-ish tap network
  over delayed inputs (pipelinable I/O paths, no loops);
* :func:`datapath_circuit` — a seeded composition of the blocks sized to
  a target gate count, used by the benchmark suite.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.boolfn.truthtable import TruthTable
from repro.netlist.graph import SeqCircuit
from repro.rng import default_rng

AND2 = TruthTable.from_function(2, lambda a, b: a and b)
OR2 = TruthTable.from_function(2, lambda a, b: a or b)
XOR2 = TruthTable.from_function(2, lambda a, b: a != b)
NOT1 = TruthTable.from_function(1, lambda a: not a)
MUX_AND = TruthTable.from_function(2, lambda s, a: s and a)
MUX_NAND = TruthTable.from_function(2, lambda s, a: (not s) and a)


class _Builder:
    """Thin helper with fresh-name gate constructors."""

    def __init__(self, circuit: SeqCircuit, prefix: str) -> None:
        self.c = circuit
        self.prefix = prefix
        self._counter = 0

    def _name(self, tag: str) -> str:
        self._counter += 1
        return f"{self.prefix}.{tag}{self._counter}"

    def gate(self, func: TruthTable, pins: List[Tuple[int, int]], tag: str = "g") -> int:
        return self.c.add_gate(self._name(tag), func, pins)

    def placeholder(self, func: TruthTable, tag: str = "g") -> int:
        return self.c.add_gate_placeholder(self._name(tag), func)

    def mux(self, sel: Tuple[int, int], a: Tuple[int, int], b: Tuple[int, int]) -> int:
        """2:1 mux from 2-input gates: sel ? b : a."""
        hi = self.gate(MUX_AND, [sel, b], "mxh")
        lo = self.gate(MUX_NAND, [sel, a], "mxl")
        return self.gate(OR2, [(hi, 0), (lo, 0)], "mxo")


def lfsr(
    circuit: SeqCircuit,
    prefix: str,
    width: int,
    taps: Sequence[int],
    enable: Tuple[int, int],
) -> List[int]:
    """An enabled Fibonacci LFSR; returns the per-stage next-value gates.

    Stage ``i``'s current value is ``stage[i]`` read through 1 register.
    """
    if not taps or any(not 0 <= t < width for t in taps):
        raise ValueError("taps must index LFSR stages")
    b = _Builder(circuit, prefix)
    stages = [b.placeholder(OR2, tag="st") for _ in range(width)]

    # feedback = XOR of tapped stage values (each read through 1 FF).
    fb: Tuple[int, int] = (stages[taps[0]], 1)
    for t in taps[1:]:
        fb = (b.gate(XOR2, [fb, (stages[t], 1)], "fb"), 0)
    for i in range(width):
        source = fb if i == 0 else (stages[i - 1], 1)
        hold = (stages[i], 1)
        mux = b.mux(enable, hold, source)
        circuit.set_fanins(stages[i], [(mux, 0), (mux, 0)])
    return stages


def ripple_counter(
    circuit: SeqCircuit,
    prefix: str,
    width: int,
    enable: Tuple[int, int],
) -> List[int]:
    """Synchronous counter: bit i toggles when all lower bits are 1."""
    b = _Builder(circuit, prefix)
    bits = [b.placeholder(XOR2, tag="bit") for _ in range(width)]
    carry = enable
    for i in range(width):
        toggle = carry
        circuit.set_fanins(bits[i], [(bits[i], 1), toggle])
        carry = (b.gate(AND2, [carry, (bits[i], 1)], "cy"), 0)
    return bits


def accumulator(
    circuit: SeqCircuit,
    prefix: str,
    width: int,
    addend: Sequence[Tuple[int, int]],
) -> List[int]:
    """Ripple-carry accumulator: ``acc' = acc + addend`` (mod 2**width)."""
    if len(addend) != width:
        raise ValueError("addend bus width mismatch")
    b = _Builder(circuit, prefix)
    # OR2(x, x) buffers hold the register-driving sum values so that the
    # feedback reads (sums[i], 1) can be wired before the adder exists.
    sums = [b.placeholder(OR2, tag="sum") for _ in range(width)]
    carry: Optional[Tuple[int, int]] = None
    for i in range(width):
        acc_bit = (sums[i], 1)
        x = addend[i]
        half = b.gate(XOR2, [acc_bit, x], "hx")
        if carry is None:
            value = half
            carry = (b.gate(AND2, [acc_bit, x], "hc"), 0)
        else:
            value = b.gate(XOR2, [(half, 0), carry], "fx")
            gen = b.gate(AND2, [acc_bit, x], "cg")
            prop = b.gate(AND2, [(half, 0), carry], "cp")
            carry = (b.gate(OR2, [(gen, 0), (prop, 0)], "co"), 0)
        circuit.set_fanins(sums[i], [(value, 0), (value, 0)])
    return sums


def array_multiplier(
    circuit: SeqCircuit,
    prefix: str,
    a_bus: Sequence[Tuple[int, int]],
    b_bus: Sequence[Tuple[int, int]],
    pipeline_rows: bool = True,
) -> List[int]:
    """A (optionally row-pipelined) array multiplier: ``p = a * b``.

    Classic carry-save array: row ``j`` adds the partial product
    ``a & b_j`` shifted by ``j``; with ``pipeline_rows`` a register bank
    separates consecutive rows (the textbook pipelined multiplier whose
    retiming behaviour motivates much of the retiming literature).
    Returns the ``len(a)+len(b)`` product bit nodes, LSB first; bit ``i``
    is valid ``len(b)-1`` cycles after the operands when pipelined.
    """
    n, m = len(a_bus), len(b_bus)
    if n == 0 or m == 0:
        raise ValueError("operand buses must be non-empty")
    b = _Builder(circuit, prefix)
    width = n + m

    def reg(pin: Tuple[int, int], extra: int) -> Tuple[int, int]:
        return (pin[0], pin[1] + extra)

    # Running sum bits (value pins) and the delay each row's inputs need.
    total: List[Optional[Tuple[int, int]]] = [None] * width
    for j in range(m):
        delay = j if pipeline_rows else 0
        row_bits: List[Optional[Tuple[int, int]]] = [None] * width
        for i in range(n):
            pp = b.gate(
                AND2, [reg(a_bus[i], delay), reg(b_bus[j], delay)], "pp"
            )
            row_bits[i + j] = (pp, 0)
        carry: Optional[Tuple[int, int]] = None
        for pos in range(width):
            terms = [
                t
                for t in (
                    reg(total[pos], 1 if pipeline_rows else 0)
                    if total[pos] is not None
                    else None,
                    row_bits[pos],
                    carry,
                )
                if t is not None
            ]
            carry = None
            if not terms:
                continue
            if len(terms) == 1:
                value = terms[0]
            elif len(terms) == 2:
                value = (b.gate(XOR2, terms, "s2"), 0)
                carry = (b.gate(AND2, terms, "c2"), 0)
            else:
                x01 = b.gate(XOR2, terms[:2], "x01")
                value = (b.gate(XOR2, [(x01, 0), terms[2]], "s3"), 0)
                g01 = b.gate(AND2, terms[:2], "g01")
                g2 = b.gate(AND2, [(x01, 0), terms[2]], "g2")
                carry = (b.gate(OR2, [(g01, 0), (g2, 0)], "c3"), 0)
            total[pos] = value
        if carry is not None:  # pragma: no cover - absorbed by width bound
            raise AssertionError("carry escaped the product width")
    # Materialize the product bits as named gates (buffers).
    out: List[int] = []
    for pos in range(width):
        pin = total[pos] if total[pos] is not None else None
        if pin is None:
            zero = circuit.add_gate(
                f"{prefix}.p{pos}", TruthTable.const(0, False), []
            )
            out.append(zero)
        else:
            out.append(b.gate(OR2, [pin, pin], f"p{pos}"))
    return out


def fir_taps(
    circuit: SeqCircuit,
    prefix: str,
    source: Tuple[int, int],
    n_taps: int,
    coeffs: Sequence[Tuple[int, int]],
) -> int:
    """Feed-forward tap network: XOR-accumulate gated delayed samples."""
    if len(coeffs) != n_taps:
        raise ValueError("coefficient bus width mismatch")
    b = _Builder(circuit, prefix)
    src, w0 = source
    acc: Optional[Tuple[int, int]] = None
    for t in range(n_taps):
        sample = (src, w0 + t)  # the input delayed t cycles
        gated = b.gate(AND2, [sample, coeffs[t]], "tap")
        acc = (gated, 0) if acc is None else (
            b.gate(XOR2, [acc, (gated, 0)], "acc"),
            0,
        )
    return acc[0]


def datapath_circuit(
    name: str,
    width: int,
    seed: int,
    n_blocks: int = 3,
) -> SeqCircuit:
    """A seeded composition of datapath blocks around one input bus.

    Gate count grows roughly as ``n_blocks * 8 * width``; loops come from
    the accumulator carry chains, the counters and the LFSRs, giving the
    mix of loop lengths the ISCAS'89 circuits exhibit.
    """
    rng = default_rng(seed)
    c = SeqCircuit(name)
    bus = [c.add_pi(f"d{i}") for i in range(width)]
    en = c.add_pi("en")
    outputs: List[Tuple[str, int]] = []

    prev_bus: List[Tuple[int, int]] = [(x, 0) for x in bus]
    for blk in range(n_blocks):
        kind = ["acc", "lfsr", "cnt", "fir"][rng.integers(0, 4)]
        prefix = f"b{blk}_{kind}"
        if kind == "acc":
            sums = accumulator(c, prefix, width, prev_bus)
            prev_bus = [(s, 1) for s in sums]
            outputs.append((f"{prefix}.msb", sums[-1]))
        elif kind == "lfsr":
            taps = sorted(rng.choice(width, size=max(2, width // 4), replace=False))
            stages = lfsr(c, prefix, width, taps, (en, 0))
            prev_bus = [
                (
                    c.add_gate(
                        f"{prefix}.mix{i}", XOR2, [prev_bus[i], (stages[i], 1)]
                    ),
                    0,
                )
                for i in range(width)
            ]
            outputs.append((f"{prefix}.tail", stages[-1]))
        elif kind == "cnt":
            bits = ripple_counter(c, prefix, max(2, width // 2), (en, 0))
            gate_sig = bits[-1]
            prev_bus = [
                (
                    c.add_gate(
                        f"{prefix}.gate{i}", AND2, [prev_bus[i], (gate_sig, 1)]
                    ),
                    0,
                )
                for i in range(width)
            ]
            outputs.append((f"{prefix}.ovf", bits[-1]))
        else:  # fir
            n_taps = min(6, width)
            out = fir_taps(c, prefix, prev_bus[0], n_taps, prev_bus[:n_taps])
            outputs.append((f"{prefix}.y", out))
    for j, (_label, node) in enumerate(outputs):
        c.add_po(f"po{j}", node, 0)
    c.check()
    return c
