"""Cycle-accurate simulation of sequential circuits.

Registers live on edges (weight ``w`` = read the driver's value from ``w``
cycles ago), so the simulator keeps a bounded history per node: the value
of node ``u`` at cycles ``t, t-1, ..., t-maxw(u)``.  All registers
initialize to 0 (the BLIF reader records declared initial values but the
retiming theory this project reproduces is initial-state-agnostic; see
``DESIGN.md``).

Values are bit-parallel: each node value is a Python integer whose bit
``j`` is the value in simulation *lane* ``j``, so one pass simulates any
number of independent random stimulus streams at once.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.netlist.graph import NodeKind, SeqCircuit
from repro.rng import default_rng


class Simulator:
    """Bit-parallel simulator for a :class:`SeqCircuit`."""

    def __init__(self, circuit: SeqCircuit, lanes: int = 64) -> None:
        if lanes < 1:
            raise ValueError("need at least one simulation lane")
        self.circuit = circuit
        self.lanes = lanes
        self._mask = (1 << lanes) - 1
        self._order = circuit.comb_topo_order()
        # History depth per node: deepest read of that node.
        self._depth: List[int] = [0] * len(circuit)
        for dst in circuit.node_ids():
            for pin in circuit.fanins(dst):
                self._depth[pin.src] = max(self._depth[pin.src], pin.weight)
        self.reset()

    def reset(self) -> None:
        """Zero every register and history entry."""
        self._hist: List[List[int]] = [
            [0] * (self._depth[v] + 1) for v in self.circuit.node_ids()
        ]

    def _read(self, src: int, weight: int, current: List[int]) -> int:
        if weight == 0:
            return current[src]
        return self._hist[src][weight - 1]

    def step(self, pi_values: Dict[int, int]) -> Dict[int, int]:
        """Advance one cycle.

        ``pi_values`` maps PI node ids to lane-packed values; the return
        maps PO node ids to lane-packed values.
        """
        circuit = self.circuit
        current: List[int] = [0] * len(circuit)
        outputs: Dict[int, int] = {}
        for v in self._order:
            node = circuit.node(v)
            if node.kind is NodeKind.PI:
                current[v] = pi_values.get(v, 0) & self._mask
            elif node.kind is NodeKind.PO:
                pin = node.fanins[0]
                value = self._read(pin.src, pin.weight, current)
                current[v] = value
                outputs[v] = value
            else:
                value = self._eval_gate(node, v, current)
                current[v] = value
        # Shift histories.
        for v in circuit.node_ids():
            hist = self._hist[v]
            if hist:
                hist.insert(0, current[v])
                hist.pop()
        return outputs

    def _eval_gate(self, node, v: int, current: List[int]) -> int:
        ins = [
            self._read(pin.src, pin.weight, current) for pin in node.fanins
        ]
        func = node.func
        out = 0
        mask = self._mask
        for m in range(func.size):
            if not (func.bits >> m) & 1:
                continue
            term = mask
            for j, val in enumerate(ins):
                term &= val if (m >> j) & 1 else (~val & mask)
                if not term:
                    break
            out |= term
            if out == mask:
                break
        return out

    def run(
        self, stimulus: Sequence[Dict[int, int]]
    ) -> List[Dict[int, int]]:
        """Simulate a stimulus sequence; returns PO values per cycle."""
        return [self.step(values) for values in stimulus]


def random_stimulus(
    circuit: SeqCircuit, cycles: int, seed: int, lanes: int = 64
) -> List[Dict[int, int]]:
    """Uniform random lane-packed PI values for ``cycles`` steps."""
    rng = default_rng(seed)
    pis = circuit.pis
    nbytes = (lanes + 7) // 8
    mask = (1 << lanes) - 1
    stimulus = []
    for _ in range(cycles):
        stimulus.append(
            {
                pi: int.from_bytes(rng.bytes(nbytes), "little") & mask
                for pi in pis
            }
        )
    return stimulus
