"""Area stage: label relaxation + packing (paper Section "LUT reduction").

TurboSYN pays for its clock-period wins with duplicated logic (every
resynthesized node becomes a small LUT tree).  The paper lists three
recovery techniques; this module implements them on top of the recorded
realizations:

* **label relaxation** — "not using the resynthesized results of some
  nodes and increasing their labels if no positive loops will occur": a
  resynthesized node ``v`` whose consumers have slack (their cut heights
  sit strictly below their labels) may take a *higher* effective label,
  at which a plain single-LUT K-cut often exists again.  Respecting the
  per-use invariant ``l_eff(u) - phi*w + 1 <= l_eff(c)`` keeps every
  mapped cycle at ``d(C) <= phi * w(C)``, so no positive loop can appear.
* **low-cost cuts** — the max-volume min-cut choice of
  :mod:`repro.core.kcut` maximizes input sharing per LUT.
* **mpack/flow-pack** — :func:`repro.comb.pack.pack_luts` merges duplicate
  LUTs and absorbs single-fanout predecessors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.comb.pack import pack_luts
from repro.core.expanded import DEFAULT_MAX_COPIES
from repro.core.kcut import find_height_cut
from repro.core.mapping import (
    MappingError,
    Realization,
    generate_mapping,
    realize_node,
)
from repro.core.seqdecomp import DEFAULT_CMAX
from repro.netlist.graph import NodeKind, SeqCircuit

#: Relaxation never raises a label by more than this many levels (the
#: useful window is small: one or two levels usually restores a K-cut).
MAX_RELAX = 8


def relaxed_realizations(
    circuit: SeqCircuit,
    phi: int,
    labels: List[int],
    k: int,
    cmax: int = DEFAULT_CMAX,
    extra_depth: int = 0,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> Tuple[Dict[int, Realization], Dict[int, int]]:
    """Realize all needed nodes, relaxing resynthesized ones where possible.

    Returns ``(realizations, effective_labels)``; feed the realizations to
    :func:`repro.core.mapping.generate_mapping`.  ``max_copies`` bounds
    every expansion, as in the label run.
    """
    eff: List[int] = list(labels)
    chosen: Dict[int, Realization] = {}
    needed: List[int] = []
    seen = set()

    def require(src: int) -> None:
        if circuit.kind(src) is NodeKind.GATE and src not in seen:
            seen.add(src)
            needed.append(src)

    def height_fn(u: int, w: int) -> int:
        return eff[u] - phi * w + 1

    def slack_of(v: int) -> int:
        """How far ``l_eff(v)`` may rise without breaking a realized use."""
        slack = MAX_RELAX
        for c, real in chosen.items():
            for (u, w) in real.cut:
                if u == v:
                    slack = min(slack, eff[c] - (eff[v] - phi * w + 1))
                    if slack <= 0:
                        return 0
        return max(slack, 0)

    def consumers_settled(v: int) -> bool:
        """True when every potential reader of ``v`` is already realized.

        In cyclic regions the BFS can reach a producer before one of its
        consumers; raising the producer then would invalidate a cut that
        has not been accounted yet, so relaxation is limited to nodes
        whose gate fanouts are all settled (POs never constrain —
        pipelining absorbs their latency).
        """
        for dst, _w in circuit.fanouts(v):
            if circuit.kind(dst) is NodeKind.GATE and dst not in chosen:
                return False
        return True

    # Consumers are discovered (and usually finalized) before their
    # inputs, so a raise here only loosens constraints computed later;
    # ``consumers_settled`` guards the cyclic exceptions.  Self-uses stay
    # valid automatically: a self copy carries w >= 1 registers, so its
    # height grows by at most the threshold raise.
    for po in circuit.pos:
        require(circuit.fanins(po)[0].src)
    idx = 0
    while idx < len(needed):
        v = needed[idx]
        idx += 1
        real = realize_node(
            circuit, v, phi, eff, k, cmax, allow_resyn=True,
            extra_depth=extra_depth, max_copies=max_copies,
        )
        if real.resyn is not None and consumers_settled(v):
            for t in range(1, slack_of(v) + 1):
                cut = find_height_cut(
                    circuit, v, phi, height_fn, eff[v] + t, max_cut=k,
                    extra_depth=extra_depth, max_copies=max_copies,
                )
                if cut is not None:
                    eff[v] += t
                    real = Realization(cut=tuple(cut))
                    break
        chosen[v] = real
        for (u, _w) in real.cut:
            require(u)
    return chosen, {v: eff[v] for v in needed}


def map_with_area_recovery(
    circuit: SeqCircuit,
    phi: int,
    labels: List[int],
    k: int,
    cmax: int = DEFAULT_CMAX,
    extra_depth: int = 0,
    name: Optional[str] = None,
    relax: bool = True,
    pack: bool = True,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> SeqCircuit:
    """Mapping generation with the full area stage applied.

    Label relaxation is best-effort: raising a node's effective label can,
    through deep reconvergence in the expanded circuits, invalidate the
    realization of a not-yet-visited *transitive* consumer.  When that
    happens the relaxation pass is abandoned and the plain (unrelaxed)
    mapping is generated instead — never a worse clock period, only a
    missed area opportunity.  ``max_copies`` bounds every expansion and
    cone evaluation, as in the label run.
    """
    realizations = None
    if relax:
        try:
            realizations, _eff = relaxed_realizations(
                circuit, phi, labels, k, cmax, extra_depth, max_copies
            )
        except MappingError:
            realizations = None
    mapped = generate_mapping(
        circuit,
        phi,
        labels,
        k,
        cmax=cmax,
        allow_resyn=True,
        extra_depth=extra_depth,
        name=name,
        realizations=realizations,
        max_copies=max_copies,
    )
    if pack:
        mapped = pack_luts(mapped, k)
    return mapped
