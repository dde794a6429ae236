"""Incremental rule pack: audit edit journals and dirty-region repair.

The incremental remapping layer (:mod:`repro.incremental`) trades a
full re-solve for a journal-bounded dirty region and label repair; its
correctness rests on three auditable claims, one rule each under the
``"incremental"`` scope:

========  ==============================  ========
INC001    journal-coherence               error
INC002    dirty-closure-soundness         error
INC003    witness-revalidation-complete   error
========  ==============================  ========

* **INC001** — the journal is a faithful last-writer-wins record: the
  final journaled pins of every touched node equal the circuit's
  actual fanins, and journaled ids are in range.
* **INC002** — the dirty region is sound: it contains every edited
  node and is forward-closed under fanout edges (a clean node can
  never observe a changed label), which also forces SCC homogeneity.
* **INC003** — label reuse is exact and witness revalidation covered
  the dirty region: for every dirty-seeded probe, clean gates keep
  their previous fixpoint labels verbatim, ``labels_reused`` counts
  exactly the clean gates, and ``witnesses_revalidated`` never exceeds
  the dirty gate population (a clean gate's witness must not have been
  re-queried).

:func:`audit_incremental` runs the pack; :func:`remap
<repro.incremental.session.remap>` calls it on every checked repair
and folds the findings into the result certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.engine import (
    Diagnostic,
    Location,
    Severity,
    rule,
    run_rules,
    sort_diagnostics,
)
from repro.core.labels import LabelOutcome
from repro.netlist.graph import Edit, SeqCircuit

#: How many offending nodes a single finding names.
_MAX_SHOWN = 5


@dataclass
class IncrementalContext:
    """Context of the ``"incremental"`` scope: one repair's evidence.

    ``circuit`` is the post-edit circuit; ``prev_outcomes`` /
    ``outcomes`` map probed phi to label outcomes of the previous and
    the repaired run (either may be ``None`` when a caller only wants
    the journal/dirty checks).
    """

    circuit: SeqCircuit
    edits: Sequence[Edit]
    dirty: AbstractSet[int]
    prev_outcomes: Optional[Dict[int, LabelOutcome]] = None
    outcomes: Optional[Dict[int, LabelOutcome]] = None
    file: Optional[str] = None

    def loc(self, nid: Optional[int] = None) -> Location:
        node = (
            None
            if nid is None or not 0 <= nid < len(self.circuit)
            else self.circuit.name_of(nid)
        )
        return Location(self.circuit.name, node, self.file)


def audit_incremental(
    ctx: IncrementalContext, select: Optional[Sequence[str]] = None
) -> List[Diagnostic]:
    """Run the incremental pack (or the ``select``ed rules of it) over
    one repair's evidence."""
    return sort_diagnostics(run_rules("incremental", ctx, select))


def _show(nids: Sequence[int], circuit: SeqCircuit) -> str:
    names = sorted(
        circuit.name_of(v) if 0 <= v < len(circuit) else f"#{v}"
        for v in nids
    )
    shown = ", ".join(names[:_MAX_SHOWN])
    if len(names) > _MAX_SHOWN:
        shown += f", ... ({len(names)} nodes)"
    return shown


@rule(
    "INC001",
    "journal-coherence",
    Severity.ERROR,
    "incremental",
    "The edit journal must be a faithful last-writer-wins record of "
    "the circuit's current fanins.",
)
def check_journal(ctx: IncrementalContext) -> Iterator[Diagnostic]:
    circuit = ctx.circuit
    n = len(circuit)
    last: Dict[int, Edit] = {}
    out_of_range = []
    for edit in ctx.edits:
        if not 0 <= edit.nid < n:
            out_of_range.append(edit.nid)
            continue
        last[edit.nid] = edit
    if out_of_range:
        yield Diagnostic(
            "INC001",
            Severity.ERROR,
            f"journal references node ids outside the circuit: "
            f"{sorted(set(out_of_range))[:_MAX_SHOWN]}",
            ctx.loc(),
        )
    for nid in sorted(last):
        edit = last[nid]
        actual: List[Tuple[int, int]] = [
            (p.src, p.weight) for p in circuit.fanins(nid)
        ]
        if list(edit.pins) != actual:
            yield Diagnostic(
                "INC001",
                Severity.ERROR,
                f"journal records pins {list(edit.pins)} for node "
                f"{circuit.name_of(nid)!r} but the circuit has "
                f"{actual}",
                ctx.loc(nid),
            )


@rule(
    "INC002",
    "dirty-closure-soundness",
    Severity.ERROR,
    "incremental",
    "The dirty region must contain every edited node and be forward-"
    "closed under fanouts; otherwise a 'clean' label could silently "
    "depend on a changed one.",
)
def check_dirty_closure(ctx: IncrementalContext) -> Iterator[Diagnostic]:
    circuit = ctx.circuit
    n = len(circuit)
    dirty = ctx.dirty
    missing_seeds = sorted(
        {e.nid for e in ctx.edits if 0 <= e.nid < n and e.nid not in dirty}
    )
    if missing_seeds:
        yield Diagnostic(
            "INC002",
            Severity.ERROR,
            "edited node(s) missing from the dirty region: "
            f"{_show(missing_seeds, circuit)}",
            ctx.loc(missing_seeds[0]),
            data={"missing": missing_seeds},
        )
    leaks = sorted(
        {
            dst
            for u in dirty
            if 0 <= u < n
            for dst, _w in circuit.fanouts(u)
            if dst not in dirty
        }
    )
    if leaks:
        yield Diagnostic(
            "INC002",
            Severity.ERROR,
            "dirty region is not forward-closed; clean node(s) read "
            f"dirty drivers: {_show(leaks, circuit)}",
            ctx.loc(leaks[0]),
            data={"leaks": leaks},
        )


@rule(
    "INC003",
    "witness-revalidation-complete",
    Severity.ERROR,
    "incremental",
    "Dirty-seeded probes must adopt clean labels verbatim "
    "(labels_reused = clean gates, values bit-equal to the previous "
    "fixpoint) and only revalidate witnesses inside the dirty region.",
)
def check_witness_reuse(ctx: IncrementalContext) -> Iterator[Diagnostic]:
    if ctx.prev_outcomes is None or ctx.outcomes is None:
        return
    circuit = ctx.circuit
    n = len(circuit)
    dirty = ctx.dirty
    clean_gates = [g for g in circuit.gates if g not in dirty]
    n_dirty_gates = sum(
        1 for g in circuit.gates if g in dirty
    )
    for phi in sorted(ctx.outcomes):
        outcome = ctx.outcomes[phi]
        stats = outcome.stats
        if stats.dirty_nodes == 0:
            continue  # cold or warm probe: no dirty seed was used
        prev = ctx.prev_outcomes.get(phi)
        if prev is None or not prev.feasible:
            continue  # the seed cannot have come from this phi
        drift = [
            g
            for g in clean_gates
            if g < len(prev.labels) and outcome.labels[g] != prev.labels[g]
        ]
        if drift:
            yield Diagnostic(
                "INC003",
                Severity.ERROR,
                f"probe at phi={phi} changed {len(drift)} clean "
                f"label(s): {_show(drift, circuit)}",
                ctx.loc(drift[0]),
                data={"phi": phi, "drifted": drift[:_MAX_SHOWN]},
            )
        if stats.labels_reused != len(clean_gates):
            yield Diagnostic(
                "INC003",
                Severity.ERROR,
                f"probe at phi={phi} reports {stats.labels_reused} "
                f"reused labels; the region has {len(clean_gates)} "
                "clean gates",
                ctx.loc(),
                data={"phi": phi},
            )
        if stats.witnesses_revalidated > n_dirty_gates:
            yield Diagnostic(
                "INC003",
                Severity.ERROR,
                f"probe at phi={phi} revalidated "
                f"{stats.witnesses_revalidated} witnesses for only "
                f"{n_dirty_gates} dirty gates — a clean witness was "
                "re-queried",
                ctx.loc(),
                data={"phi": phi},
            )
