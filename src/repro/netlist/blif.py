"""BLIF reader and writer for sequential circuits.

Supports the SIS BLIF subset the paper's flow relies on: ``.model``,
``.inputs``, ``.outputs``, ``.names`` (cube covers), ``.latch`` and
``.end``.  Latches are converted to retiming-graph edge weights on read
(every reader of a latch output reads the latch *input* with weight + 1;
latch chains accumulate) and materialized back into ``.latch`` statements
on write.

Latch initial values are accepted on read but not modeled: retiming does
not, in general, preserve initial states (a classical caveat of [16]), and
all verification in this project either compares steady-state behaviour or
reasons per-transformation.  The reader records the declared values in
:attr:`BlifInfo.initial_values` so callers can inspect them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.boolfn.sop import Cover, minimize_cover
from repro.boolfn.truthtable import TruthTable
from repro.netlist.graph import SeqCircuit


@dataclass
class BlifInfo:
    """Side information collected while reading a BLIF file."""

    initial_values: Dict[str, str] = field(default_factory=dict)


class BlifError(ValueError):
    """Raised on malformed BLIF input."""


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
def _logical_lines(text: str) -> Iterable[List[str]]:
    """Yield token lists, honoring ``\\`` continuations and ``#`` comments."""
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = pending + line
        pending = ""
        tokens = line.split()
        if tokens:
            yield tokens
    if pending.split():
        yield pending.split()


def read_blif(text: str) -> Tuple[SeqCircuit, BlifInfo]:
    """Parse BLIF text into a retiming graph.

    Returns the circuit and a :class:`BlifInfo` with latch initial values.
    """
    model = "blif"
    inputs: List[str] = []
    outputs: List[str] = []
    covers: Dict[str, Tuple[List[str], List[Tuple[str, str]]]] = {}
    latches: Dict[str, Tuple[str, str]] = {}  # q -> (d, init)
    current: Optional[str] = None

    for tokens in _logical_lines(text):
        head = tokens[0]
        if head == ".model":
            model = tokens[1] if len(tokens) > 1 else model
            current = None
        elif head == ".inputs":
            inputs.extend(tokens[1:])
            current = None
        elif head == ".outputs":
            outputs.extend(tokens[1:])
            current = None
        elif head == ".latch":
            if len(tokens) < 3:
                raise BlifError(".latch needs input and output")
            d, q = tokens[1], tokens[2]
            init = tokens[-1] if len(tokens) > 3 and tokens[-1] in "0123" else "3"
            if q in latches:
                raise BlifError(f"latch output {q!r} driven twice")
            latches[q] = (d, init)
            current = None
        elif head == ".names":
            if len(tokens) < 2:
                raise BlifError(".names needs at least an output")
            *fanin_names, output = tokens[1:]
            if output in covers:
                raise BlifError(f"signal {output!r} driven twice")
            covers[output] = (list(fanin_names), [])
            current = output
        elif head == ".end":
            current = None
        elif head.startswith("."):
            current = None  # unsupported directive: skip (e.g. .clock)
        else:
            if current is None:
                raise BlifError(f"cube line outside .names: {' '.join(tokens)}")
            fanin_names, cubes = covers[current]
            if fanin_names:
                if len(tokens) != 2:
                    raise BlifError(f"bad cube line: {' '.join(tokens)}")
                pattern, out = tokens
            else:
                if len(tokens) != 1:
                    raise BlifError(f"bad constant line: {' '.join(tokens)}")
                pattern, out = "", tokens[0]
            if len(pattern) != len(fanin_names) or out not in "01":
                raise BlifError(f"bad cube line: {' '.join(tokens)}")
            cubes.append((pattern, out))

    circuit = SeqCircuit(model)
    info = BlifInfo()
    for q, (_, init) in latches.items():
        info.initial_values[q] = init

    # Resolve a signal through latch chains to (driving signal, weight).
    def resolve(signal: str) -> Tuple[str, int]:
        weight = 0
        seen = set()
        while signal in latches:
            if signal in seen:
                raise BlifError(f"latch cycle through {signal!r}")
            seen.add(signal)
            signal = latches[signal][0]
            weight += 1
        return signal, weight

    # Two-phase construction: sequential feedback (a gate reading its own
    # output through a latch) is legal, so all gate nodes are created
    # before any fanin is wired.
    ids: Dict[str, int] = {}
    for name in inputs:
        ids[name] = circuit.add_pi(name)
    for signal, (fanin_names, cube_lines) in covers.items():
        if signal in ids:
            raise BlifError(f"signal {signal!r} driven twice")
        func = _cover_to_table(fanin_names, cube_lines, signal)
        ids[signal] = circuit.add_gate_placeholder(signal, func)
    for signal, (fanin_names, _) in covers.items():
        pins: List[Tuple[int, int]] = []
        for fname in fanin_names:
            base, weight = resolve(fname)
            if base not in ids:
                raise BlifError(f"undriven signal {base!r}")
            pins.append((ids[base], weight))
        circuit.set_fanins(ids[signal], pins)
    for name in outputs:
        base, weight = resolve(name)
        if base not in ids:
            raise BlifError(f"undriven signal {base!r}")
        # PO nodes need names distinct from their driving gates; the writer
        # strips the "@po" marker when regenerating ".outputs".
        po_name = name if name not in circuit else f"{name}@po"
        while po_name in circuit:
            po_name += "'"
        circuit.add_po(po_name, ids[base], weight)
    for q, (d, _) in latches.items():
        base, _w = resolve(d)
        if base not in ids:
            raise BlifError(f"undriven latch input {d!r}")

    try:
        circuit.check()
    except ValueError as exc:
        raise BlifError(str(exc)) from exc
    return circuit, info


def _cover_to_table(
    fanin_names: Sequence[str], cube_lines: Sequence[Tuple[str, str]], signal: str
) -> TruthTable:
    n = len(fanin_names)
    on_lines = [p for p, out in cube_lines if out == "1"]
    off_lines = [p for p, out in cube_lines if out == "0"]
    if on_lines and off_lines:
        raise BlifError(f"signal {signal!r} mixes on-set and off-set cubes")
    if off_lines:
        cover = Cover.from_strings(n, off_lines)
        return ~cover.to_truthtable()
    cover = Cover.from_strings(n, on_lines)
    return cover.to_truthtable()


def read_blif_file(path: str) -> Tuple[SeqCircuit, BlifInfo]:
    with open(path) as handle:
        return read_blif(handle.read())


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def write_blif(circuit: SeqCircuit) -> str:
    """Serialize a retiming graph back to BLIF.

    Edge weights become chains of ``.latch`` statements on freshly named
    signals; every signal name from the circuit is preserved.  Each
    distinct gate function is minimized once per call: a netlist
    repeats a few functions over many gates.
    """
    def po_signal_name(pid: int) -> str:
        """External name of a PO node (strip the "@po" collision marker)."""
        name = circuit.name_of(pid).rstrip("'")
        return name[: -len("@po")] if name.endswith("@po") else name

    lines: List[str] = [f".model {circuit.name}"]
    pis = [circuit.name_of(i) for i in circuit.pis]
    pos = [po_signal_name(i) for i in circuit.pos]
    lines.append(".inputs " + " ".join(pis) if pis else ".inputs")
    lines.append(".outputs " + " ".join(pos) if pos else ".outputs")

    latch_lines: List[str] = []
    delayed: Dict[Tuple[int, int], str] = {}

    def signal(src: int, weight: int) -> str:
        """Signal name carrying ``src`` delayed by ``weight`` registers."""
        base = circuit.name_of(src)
        if weight == 0:
            return base
        key = (src, weight)
        if key not in delayed:
            prev = signal(src, weight - 1)
            name = f"{base}__d{weight}"
            latch_lines.append(f".latch {prev} {name} re clk 0")
            delayed[key] = name
        return delayed[key]

    names_lines: List[str] = []
    covers: Dict[Tuple[int, int], List[str]] = {}
    for gid in circuit.gates:
        node = circuit.node(gid)
        func = node.func
        if func is None:
            raise BlifError(f"gate {node.name!r} has no function")
        fan_signals = [signal(p.src, p.weight) for p in node.fanins]
        names_lines.append(".names " + " ".join(fan_signals + [node.name]))
        key = (func.n, func.bits)
        rows = covers.get(key)
        if rows is None:
            rows = []
            if func.bits:  # constant zero has an empty cover
                for cube in minimize_cover(func).cubes:
                    text = cube.to_string(func.n)
                    rows.append((text + " 1") if text else "1")
            covers[key] = rows
        names_lines.extend(rows)

    po_lines: List[str] = []
    for pid in circuit.pos:
        node = circuit.node(pid)
        pin = node.fanins[0]
        src_signal = signal(pin.src, pin.weight)
        target = po_signal_name(pid)
        if src_signal != target:
            po_lines.append(f".names {src_signal} {target}")
            po_lines.append("1 1")

    lines.extend(latch_lines)
    lines.extend(names_lines)
    lines.extend(po_lines)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_blif_file(circuit: SeqCircuit, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(write_blif(circuit))
