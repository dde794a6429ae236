"""Mapping generation: turn converged labels into a LUT network.

After the label computation converges for the minimum feasible ``phi``,
every needed gate is realized by one LUT (or, for TurboSYN-resynthesized
nodes, a small LUT tree): its inputs are the copies ``u^w`` of a cut of
``E_v`` with height ``<= l(v)``, its function is the exact sequential cone
function between the cut and ``v``, and each input edge carries the copy's
register count ``w``.  Needed gates are discovered from the POs through
the chosen cuts (Pan-Liu / TurboMap mapping generation); the resulting
network has MDR ratio at most ``phi`` by the label invariants, which the
callers re-verify with :func:`repro.retime.mdr.min_feasible_period`.

The max-volume min-cut choice in :mod:`repro.core.kcut` plus the packing
pass of :mod:`repro.comb.pack` stand in for the paper's "label relaxation
+ low-cost K-cut + mpack/flowpack" area stage; the extra label-relaxation
move is implemented in :mod:`repro.core.area`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.expanded import (
    DEFAULT_MAX_COPIES,
    Copy,
    ExpansionOverflow,
    sequential_cone_function,
)
from repro.core.kcut import find_height_cut
from repro.core.seqdecomp import SeqResyn, find_seq_resynthesis
from repro.kernel.expand import PackedCutArena
from repro.netlist.graph import NodeKind, SeqCircuit


class MappingError(RuntimeError):
    """The converged labels admit no realization (internal inconsistency)."""


@dataclass
class Realization:
    """How one subject gate is implemented in the mapped network."""

    cut: Tuple[Copy, ...]
    resyn: Optional[SeqResyn] = None  # set when a LUT tree realizes the node


def realize_node(
    circuit: SeqCircuit,
    v: int,
    phi: int,
    labels: List[int],
    k: int,
    cmax: int,
    allow_resyn: bool,
    extra_depth: int = 0,
    threshold: Optional[int] = None,
    max_copies: int = DEFAULT_MAX_COPIES,
    arena: Optional[PackedCutArena] = None,
) -> Realization:
    """Choose the cut (or decomposition) realizing ``l(v)`` for gate ``v``.

    ``max_copies`` bounds every expansion and cone evaluation, as it
    bounded the label run that produced ``labels``.  ``arena`` is the
    mapping pass's cut arena, shared by all of its cut queries.
    """

    target = labels[v] if threshold is None else threshold
    cut = find_height_cut(
        circuit, v, phi, labels, target, max_cut=k,
        extra_depth=extra_depth, max_copies=max_copies, arena=arena,
    )
    if cut is not None:
        return Realization(cut=tuple(cut))
    if allow_resyn:
        entry = find_seq_resynthesis(
            circuit, v, phi, labels, target, k, cmax, extra_depth,
            max_copies=max_copies, arena=arena,
        )
        if entry is not None:
            return Realization(cut=entry.cut, resyn=entry)
    # The worklist label engine re-anchors recorded cut witnesses at later
    # thresholds: the witness is a structural separator, so it certifies
    # the label as long as its member heights fit — even when it lies
    # *below* the extra_depth=0 expansion frontier (heights are not
    # monotone along register-crossing paths).  Such a label is genuine
    # but invisible to the frontier query above, so retry with the floor
    # dropped to zero or below: that expansion reaches every copy a
    # witness can name, and the witness itself bounds its flow by K.
    deep = max(extra_depth + 1, -(-target // phi))
    try:
        cut = find_height_cut(
            circuit, v, phi, labels, target, max_cut=k, extra_depth=deep,
            max_copies=max_copies, arena=arena,
        )
    except ExpansionOverflow:
        cut = None
    if cut is not None:
        return Realization(cut=tuple(cut))
    raise MappingError(
        f"no realization for {circuit.name_of(v)!r} at label {target} "
        f"(phi={phi}): label computation and mapping disagree"
    )


def generate_mapping(
    circuit: SeqCircuit,
    phi: int,
    labels: List[int],
    k: int,
    cmax: int = 15,
    allow_resyn: bool = False,
    extra_depth: int = 0,
    name: Optional[str] = None,
    realizations: Optional[Dict[int, Realization]] = None,
    realizations_out: Optional[Dict[int, Realization]] = None,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> SeqCircuit:
    """Materialize the LUT network selected by the converged labels.

    ``realizations`` may pre-seed choices (the area stage uses this to
    replace resynthesized realizations with relaxed plain cuts); remaining
    nodes are realized on demand.  ``realizations_out`` (when given)
    receives the realization actually chosen for every needed gate — the
    invariant verifier uses it to tell resynthesized LUT trees from plain
    cuts.  ``max_copies`` bounds every expansion and cone evaluation
    (pass the label run's bound).
    """
    chosen: Dict[int, Realization] = dict(realizations or {})
    needed: List[int] = []
    seen = set()

    def require(src: int) -> None:
        if circuit.kind(src) is NodeKind.GATE and src not in seen:
            seen.add(src)
            needed.append(src)

    for po in circuit.pos:
        require(circuit.fanins(po)[0].src)
    arena = PackedCutArena()
    idx = 0
    while idx < len(needed):
        v = needed[idx]
        idx += 1
        if v not in chosen:
            chosen[v] = realize_node(
                circuit, v, phi, labels, k, cmax, allow_resyn, extra_depth,
                max_copies=max_copies, arena=arena,
            )
        for (u, _w) in chosen[v].cut:
            require(u)

    mapped = SeqCircuit(name or f"{circuit.name}_{'syn' if allow_resyn else 'map'}{phi}")
    new_id: Dict[int, int] = {}
    for pi in circuit.pis:
        new_id[pi] = mapped.add_pi(circuit.name_of(pi))

    # Phase 1: create all LUT nodes (placeholders allow feedback).
    tree_refs: Dict[int, List[int]] = {}
    for v in needed:
        real = chosen[v]
        base = circuit.name_of(v)
        if real.resyn is None:
            func = sequential_cone_function(
                circuit, v, list(real.cut), max_copies=max_copies
            )
            new_id[v] = mapped.add_gate_placeholder(base, func)
        else:
            refs = []
            luts = real.resyn.tree.luts
            for j, lut in enumerate(luts):
                is_root = j == len(luts) - 1
                gate_name = base if is_root else f"{base}~s{j}"
                refs.append(mapped.add_gate_placeholder(gate_name, lut.func))
            tree_refs[v] = refs
            new_id[v] = refs[-1]

    # Phase 2: wire fanins.
    for v in needed:
        real = chosen[v]
        if real.resyn is None:
            mapped.set_fanins(
                new_id[v], [(new_id[u], w) for (u, w) in real.cut]
            )
        else:
            refs = tree_refs[v]
            cut = real.resyn.cut
            for j, lut in enumerate(real.resyn.tree.luts):
                pins: List[Tuple[int, int]] = []
                for ref in lut.inputs:
                    if ref >= 0:
                        u, w = cut[ref]
                        pins.append((new_id[u], w))
                    else:
                        pins.append((refs[-1 - ref], 0))
                mapped.set_fanins(refs[j], pins)
    for po in circuit.pos:
        pin = circuit.fanins(po)[0]
        mapped.add_po(circuit.name_of(po), new_id[pin.src], pin.weight)
    mapped.check()
    if realizations_out is not None:
        realizations_out.update(chosen)
    return mapped
