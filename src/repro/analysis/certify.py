"""Independent schedule and cycle-ratio certificates (RET002 / RET003).

Checkable evidence for the Tier-1 claim ``phi >= MDR`` on a mapped
network, emitted as machine-readable blobs on the result certificate.

**Schedule certificate (RET002).**  The retiming graph is a marked
graph (Millo & de Simone, arXiv 1202.4912): edges carry ``w`` tokens
(registers), node ``v`` takes ``d(v)`` time units per firing.  A
*strictly periodic* schedule at period ``phi`` fires ``v`` at times
``s(v) + k*phi``; its activation trace is the balanced binary word
``0^{s(v)} (1 0^{phi-1})^w`` — one firing per period after an initial
delay of ``s(v)`` slots.  Such a schedule exists iff
``phi * w(C) >= d(C)`` on every cycle ``C``, i.e. iff ``phi >= MDR``,
so a valid offset vector is an *executable certificate* of the bound.
:func:`build_schedule_certificate` constructs the offsets by per-SCC
longest-path relaxation; :func:`replay_schedule` then re-checks them
two independent ways — the per-edge start constraint, and an
operational token-game replay of the marked graph over a warm-up
prefix plus one full period with a periodicity check at the end.

**Cycle-ratio certificate (RET003).**  The MDR engine
(:func:`repro.retime.mdr.max_cycle_ratio`, Howard's policy iteration)
returns the exact ratio ``a/b``, a critical cycle, and per SCC
integer potentials ``P`` with ``P(u) >= b*d(u) - a*w + P(v)`` on every
edge inside it — the dual of the periodic schedule above, scaled to
rational periods.  :func:`build_cycle_certificate` writes them into
the blob; :func:`check_cycle_certificate` verifies them in
``O(E + |C|)`` integer arithmetic, re-deriving delays and edges from
the circuit and sharing no code with the engine (the
certifying-algorithm pattern of McConnell, Mehlhorn, Naeher and
Schweitzer 2011).  The checked certificate proves the stated ratio is
the exact MDR — *respected* by every cycle (the potentials) and
*attained* by one (the witness) — and that ``phi`` is at least it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.engine import Diagnostic, Severity, rule
from repro.analysis.invariants import MappingContext
from repro.netlist.graph import SeqCircuit

#: Certificate blob schema version (both certificate kinds).
CERT_SCHEMA = 2

#: Replay budget: past this many simulated firing events the token-game
#: replay is skipped (the O(E) constraint check still certifies).
DEFAULT_MAX_EVENTS = 250_000


def _delays(circuit: SeqCircuit) -> List[int]:
    """Per-node delays under the circuit's delay model."""
    return [circuit.node(v).delay for v in circuit.node_ids()]


def _dedup_edges(circuit: SeqCircuit) -> List[Tuple[int, int, int]]:
    """Deduplicated ``(src, dst, weight)`` edges (parallel pins merged)."""
    seen = set()
    out: List[Tuple[int, int, int]] = []
    for edge in circuit.edges():
        if edge not in seen:
            seen.add(edge)
            out.append(edge)
    return out


# ----------------------------------------------------------------------
# Schedule certificates
# ----------------------------------------------------------------------
def balanced_word(offset: int, phi: int, length: int) -> str:
    """Prefix of the balanced binary activation word ``0^s (1 0^{phi-1})^w``.

    Position ``t`` is ``1`` exactly when the node fires at time ``t``
    under the strictly periodic schedule ``s + k*phi``.
    """
    return "".join(
        "1" if t >= offset and (t - offset) % phi == 0 else "0"
        for t in range(length)
    )


def build_schedule_certificate(
    circuit: SeqCircuit, phi: int
) -> Dict[str, Any]:
    """Construct the periodic-schedule certificate blob for ``phi``.

    Solves the difference constraints ``s(v) >= s(u) + d(u) - phi*w``
    by longest-path relaxation, SCC by SCC in topological order of the
    condensation (cross edges settle in one pass; an SCC of ``m`` nodes
    converges within ``m`` sweeps or proves a cycle with
    ``d(C) > phi * w(C)``, i.e. ``phi < MDR``).
    """
    n = len(circuit)
    delays = _delays(circuit)
    offsets = [0] * n
    fanin_edges: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for src, dst, weight in _dedup_edges(circuit):
        fanin_edges[dst].append((src, delays[src] - phi * weight))
    for members in circuit.sccs():
        member_set = set(members)
        # Cross edges first: predecessors outside the SCC are final.
        for v in members:
            for src, gain in fanin_edges[v]:
                if src not in member_set:
                    cand = offsets[src] + gain
                    if cand > offsets[v]:
                        offsets[v] = cand
        internal = [
            (v, src, gain)
            for v in members
            for src, gain in fanin_edges[v]
            if src in member_set
        ]
        if not internal:
            continue
        witness: Optional[int] = None
        for sweep in range(len(members) + 1):
            changed = False
            for v, src, gain in internal:
                cand = offsets[src] + gain
                if cand > offsets[v]:
                    offsets[v] = cand
                    changed = True
                    witness = v
            if not changed:
                break
        else:
            # Still relaxing after |S| sweeps: a positive cycle through
            # ``witness`` proves the period infeasible.
            return {
                "schema": CERT_SCHEMA,
                "kind": "periodic-schedule",
                "phi": phi,
                "feasible": False,
                "witness_node": circuit.name_of(witness)
                if witness is not None
                else None,
            }
    base = min(offsets) if offsets else 0
    offsets = [s - base for s in offsets]
    return {
        "schema": CERT_SCHEMA,
        "kind": "periodic-schedule",
        "phi": phi,
        "feasible": True,
        "offsets": offsets,
        "hyperperiod": phi,
        "makespan": max(offsets) if offsets else 0,
        "word": {"ones_per_period": 1, "period": phi},
    }


def replay_schedule(
    circuit: SeqCircuit,
    phi: int,
    offsets: Sequence[int],
    max_events: int = DEFAULT_MAX_EVENTS,
) -> List[str]:
    """Re-check a schedule certificate; returns violation messages.

    Two independent passes:

    1. every edge ``u -> v`` with ``w`` registers must satisfy the
       start constraint ``s(v) >= s(u) + d(u) - phi*w``;
    2. an operational token-game replay: edges start with ``w`` tokens,
       the ``k``-th firing of ``v`` (time ``s(v)+k*phi``) consumes one
       token per fanin edge, completions at ``s(u)+k*phi+d(u)`` produce
       one token per fanout edge.  The marking must never go negative
       and must return to itself one period after warm-up (periodicity
       implies the schedule runs forever at throughput ``1/phi``).

    The replay is skipped (never a violation) past ``max_events``; the
    constraint pass alone is already a complete proof.
    """
    problems: List[str] = []
    if phi < 1:
        return [f"period {phi} is not a positive integer"]
    n = len(circuit)
    if len(offsets) != n:
        return [f"offset vector has {len(offsets)} entries for {n} nodes"]
    delays = _delays(circuit)
    edges = _dedup_edges(circuit)
    for src, dst, weight in edges:
        slack = offsets[dst] - offsets[src] - delays[src] + phi * weight
        if slack < 0:
            problems.append(
                f"edge {circuit.name_of(src)!r}->{circuit.name_of(dst)!r}"
                f" (w={weight}) violates the start constraint by {-slack}"
            )
    if problems:
        return problems

    makespan = max(offsets) if offsets else 0
    horizon = makespan + 2 * phi
    n_events = sum((horizon - s) // phi + 1 for s in offsets) * 2
    if n_events > max_events:
        return problems  # replay skipped; constraint pass certified

    fires: List[List[int]] = [[] for _ in range(horizon + 1)]
    completes: List[List[int]] = [[] for _ in range(horizon + 2)]
    for v in range(n):
        for t in range(offsets[v], horizon + 1, phi):
            fires[t].append(v)
            completes[t + delays[v]].append(v)
    fanout_edges: List[List[int]] = [[] for _ in range(n)]
    fanin_edge_ids: List[List[int]] = [[] for _ in range(n)]
    tokens: List[int] = []
    for idx, (src, dst, weight) in enumerate(edges):
        fanout_edges[src].append(idx)
        fanin_edge_ids[dst].append(idx)
        tokens.append(weight)
    snapshot: Optional[List[int]] = None
    for t in range(horizon + 1):
        for u in completes[t]:
            for idx in fanout_edges[u]:
                tokens[idx] += 1
        for v in fires[t]:
            for idx in fanin_edge_ids[v]:
                tokens[idx] -= 1
                if tokens[idx] < 0:
                    src, dst, weight = edges[idx]
                    problems.append(
                        f"replay: edge {circuit.name_of(src)!r}->"
                        f"{circuit.name_of(dst)!r} runs out of tokens at"
                        f" t={t}"
                    )
                    return problems
        if t == makespan + phi:
            snapshot = list(tokens)
        elif t == makespan + 2 * phi and snapshot is not None:
            if tokens != snapshot:
                problems.append(
                    "replay: marking is not periodic one period after"
                    " warm-up"
                )
    return problems


# ----------------------------------------------------------------------
# Cycle-ratio certificates
# ----------------------------------------------------------------------
def _ratio_text(ratio: Optional[Fraction]) -> Optional[str]:
    return None if ratio is None else f"{ratio.numerator}/{ratio.denominator}"


def build_cycle_certificate(circuit: SeqCircuit, phi: int) -> Dict[str, Any]:
    """Construct the cycle-ratio certificate blob for ``phi``.

    Reads the MDR engine (:func:`repro.retime.mdr.max_cycle_ratio`):
    the exact ratio, the implied integer bound, a critical cycle on
    circuit nodes (``circuit_cycle``: ``[[name, weight_to_next], ...]``)
    and, per node, its integer potential and SCC group index, with one
    ratio per group (``None`` for a group holding no cycle).  A
    combinational cycle yields ``feasible: False`` with a reason.
    """
    from repro.retime.mdr import max_cycle_ratio

    base: Dict[str, Any] = {
        "schema": CERT_SCHEMA,
        "kind": "cycle-ratio",
        "phi": phi,
    }
    try:
        mdr = max_cycle_ratio(circuit)
    except ValueError:
        base.update(ratio=None, feasible=False, reason="combinational cycle")
        return base
    base.update(
        ratio=_ratio_text(mdr.ratio),
        bound=mdr.bound,
        feasible=mdr.ratio is None or phi >= mdr.ratio,
        circuit_cycle=[[circuit.name_of(v), w] for v, w in mdr.cycle],
        potentials=mdr.potentials,
        groups=mdr.groups,
        group_ratios=[_ratio_text(r) for r in mdr.group_ratios],
    )
    return base


def _parse_ratio(text: Any) -> Optional[Tuple[int, int]]:
    """``"a/b"`` -> ``(a, b)`` with ``a >= 0``, ``b >= 1``; ``None`` -> ``None``."""
    if text is None:
        return None
    num, den = (int(part) for part in str(text).split("/"))
    if num < 0 or den < 1:
        raise ValueError(text)
    return num, den


def _int_list(value: Any, n: int) -> bool:
    return (
        isinstance(value, list)
        and len(value) == n
        and all(type(x) is int for x in value)
    )


def check_cycle_certificate(
    circuit: SeqCircuit, phi: int, blob: Dict[str, Any]
) -> List[str]:
    """Re-check a cycle-ratio certificate; returns violation messages.

    Linear-time integer arithmetic over the circuit itself, trusting no
    field it has not verified:

    1. every edge ``u -> v`` with ``w`` registers runs forward between
       groups (``group(u) < group(v)``) or stays inside a group ``g``
       with a ratio ``a/b`` and meets ``P(u) >= b*d(u) - a*w + P(v)``;
    2. every group ratio is at most the stated ``ratio``;
    3. the witness cycle re-walks on the circuit, carries registers and
       attains ``ratio`` exactly;
    4. ``phi >= ratio``, and ``bound``/``feasible`` say so.

    A cycle never uses a forward edge, so it lies in one group; summing
    its inequalities gives ``d(C)/w(C) <= a/b <= ratio``, and a
    register-free cycle (every gate has delay 1) cannot satisfy them at
    all.  With the witness, ``ratio`` is the exact MDR.
    """
    if blob.get("schema") != CERT_SCHEMA or blob.get("kind") != "cycle-ratio":
        return [
            f"not a schema-{CERT_SCHEMA} cycle-ratio certificate"
            f" (schema {blob.get('schema')!r}, kind {blob.get('kind')!r})"
        ]
    if blob.get("phi") != phi:
        return [f"certificate is for phi={blob.get('phi')!r}, not {phi}"]
    if blob.get("reason") is not None:
        return [f"cycle certificate reports an unbounded MDR ({blob['reason']})"]
    n = len(circuit)
    potentials, groups = blob.get("potentials"), blob.get("groups")
    if not _int_list(potentials, n) or not _int_list(groups, n):
        return [f"potentials and groups must be {n} integers each"]
    try:
        ratio = _parse_ratio(blob.get("ratio"))
        group_ratios = [_parse_ratio(r) for r in blob.get("group_ratios")]
    except (TypeError, ValueError):
        return ["malformed ratio (expected 'a/b' with a >= 0, b >= 1)"]
    if any(not 0 <= g < len(group_ratios) for g in groups):
        return ["group index out of range"]
    delays = _delays(circuit)
    for src, dst, weight in circuit.edges():
        g = groups[src]
        if g < groups[dst]:
            continue
        if g > groups[dst]:
            problem = "runs backward between groups"
        elif group_ratios[g] is None:
            problem = f"lies inside group {g}, which claims no cycle"
        else:
            a, b = group_ratios[g]
            slack = potentials[src] - b * delays[src] + a * weight - potentials[dst]
            if slack >= 0:
                continue
            problem = f"violates its potential inequality by {-slack}"
        return [
            f"edge {circuit.name_of(src)!r}->{circuit.name_of(dst)!r}"
            f" (w={weight}) {problem}"
        ]
    stated = None if ratio is None else Fraction(*ratio)
    for g, group_ratio in enumerate(group_ratios):
        if group_ratio is not None and (
            stated is None or Fraction(*group_ratio) > stated
        ):
            return [f"group {g} ratio exceeds the stated ratio {stated}"]
    problems: List[str] = []
    if stated is not None:
        problems = _check_witness(circuit, delays, blob.get("circuit_cycle"), stated)
        if problems:
            return problems
        if phi < stated:
            problems.append(f"period {phi} is below the certified MDR ratio {stated}")
    bound = 1 if stated is None else max(1, math.ceil(stated))
    if blob.get("bound") != bound:
        problems.append(f"stated bound {blob.get('bound')!r}, certified bound {bound}")
    if blob.get("feasible") is not (stated is None or phi >= stated):
        problems.append(f"stated feasible={blob.get('feasible')!r} contradicts phi={phi}")
    return problems


def _check_witness(
    circuit: SeqCircuit, delays: List[int], walk: Any, ratio: Fraction
) -> List[str]:
    """Re-walk a witness cycle; it must exist and attain ``ratio``."""
    if not isinstance(walk, list) or not walk or not all(
        isinstance(step, list)
        and len(step) == 2
        and isinstance(step[0], str)
        and type(step[1]) is int
        for step in walk
    ):
        return ["cycle certificate has no well-formed witness cycle"]
    ids = {circuit.name_of(v): v for v in circuit.node_ids()}
    total_delay = 0
    total_weight = 0
    for i, (name, weight) in enumerate(walk):
        nxt_name = walk[(i + 1) % len(walk)][0]
        if name not in ids or nxt_name not in ids:
            return [f"witness cycle names unknown node {name!r}"]
        src, dst = ids[name], ids[nxt_name]
        if not any(p.src == src and p.weight == weight for p in circuit.fanins(dst)):
            return [
                f"witness cycle claims edge {name!r}->{nxt_name!r}"
                f" (w={weight}) which the circuit does not have"
            ]
        total_delay += delays[src]
        total_weight += weight
    if total_weight <= 0:
        return ["witness cycle carries no registers"]
    achieved = Fraction(total_delay, total_weight)
    if achieved != ratio:
        return [f"witness cycle achieves ratio {achieved}, certificate claims {ratio}"]
    return []


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@rule(
    "RET002",
    "schedule-certificate",
    Severity.ERROR,
    "mapping",
    "A balanced-binary-word periodic schedule at period phi must exist "
    "and replay cleanly on the mapped circuit's marked graph "
    "(independent proof of phi >= MDR).",
)
def _check_schedule_certificate(ctx: MappingContext) -> Iterator[Diagnostic]:
    blob = ctx.schedule_cert
    if blob is None:
        blob = build_schedule_certificate(ctx.mapped, ctx.phi)
    loc = ctx.loc()
    if not blob.get("feasible"):
        yield Diagnostic(
            "RET002",
            Severity.ERROR,
            "no periodic schedule exists at period "
            f"{ctx.phi} (phi < MDR); infeasibility witnessed at node "
            f"{blob.get('witness_node')!r}",
            loc,
            data={"certificate": blob},
        )
        return
    offsets = blob.get("offsets") or []
    for problem in replay_schedule(ctx.mapped, ctx.phi, offsets):
        yield Diagnostic(
            "RET002",
            Severity.ERROR,
            f"schedule certificate failed replay: {problem}",
            loc,
            data={"phi": ctx.phi},
        )


@rule(
    "RET003",
    "cycle-ratio-certificate",
    Severity.ERROR,
    "mapping",
    "The MDR engine's cycle-ratio certificate must check in linear time: "
    "every edge runs forward between SCC groups or meets its group's "
    "potential inequality, the witness cycle re-walks and attains the "
    "ratio, and phi >= ratio.",
)
def _check_cycle_certificate(ctx: MappingContext) -> Iterator[Diagnostic]:
    blob = ctx.cycle_cert
    if blob is None:
        blob = build_cycle_certificate(ctx.mapped, ctx.phi)
    for problem in check_cycle_certificate(ctx.mapped, ctx.phi, blob):
        yield Diagnostic(
            "RET003",
            Severity.ERROR,
            f"cycle-ratio certificate rejected: {problem}",
            ctx.loc(),
            data={"ratio": blob.get("ratio")},
        )
        return
