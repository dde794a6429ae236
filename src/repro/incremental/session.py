"""The incremental edit-and-remap entry points.

:func:`remap` repairs a previous mapping result after a k-gate edit:
it bounds the dirty region, delta-patches the compiled CSR kernel, and
re-runs the phi search with every clean label adopted verbatim from the
previous fixpoint.  The answer — phi, labels, and the regenerated
mapped network — is **bit-identical** to a cold run on the edited
circuit; only the work drops from O(circuit) to O(cone) per probe.

:class:`IncrementalSession` packages the loop for interactive callers
(and the batch service of ROADMAP item 1): it owns the mutation
journal, the previous result, and the compiled CSR across edits, so
the caller just mutates the circuit and calls :meth:`remap`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.core.driver import SeqMapResult
from repro.core.labels import LabelOutcome
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn
from repro.incremental.dirty import dirty_region
from repro.incremental.patch import patch_compiled
from repro.kernel.csr import CompiledCircuit
from repro.netlist.graph import Edit, SeqCircuit

if TYPE_CHECKING:
    from repro.analysis import Diagnostic


def _padded(prev: SeqMapResult, n: int) -> SeqMapResult:
    """Pad the previous outcome labels to ``n`` nodes (node insertion).

    Appended nodes are edit seeds and therefore dirty, so their padded
    labels are never read — padding only satisfies the solver's length
    check.  The previous result itself is left untouched.
    """
    if all(len(o.labels) == n for o in prev.outcomes.values()):
        return prev
    outcomes: Dict[int, LabelOutcome] = {}
    for phi, o in prev.outcomes.items():
        labels: List[int] = list(o.labels)
        labels.extend([0] * (n - len(labels)))
        outcomes[phi] = LabelOutcome(
            o.feasible, labels, o.stats, list(o.failed_scc)
        )
    return dataclasses.replace(prev, outcomes=outcomes)


def remap(
    circuit: SeqCircuit,
    prev_result: SeqMapResult,
    edits: Sequence[Edit],
    k: int = 5,
    compiled: Optional[CompiledCircuit] = None,
    **mapper_kwargs: Any,
) -> SeqMapResult:
    """Re-map ``circuit`` after ``edits``, reusing ``prev_result``.

    ``circuit`` is the *post-edit* circuit; node ids must align with
    the circuit ``prev_result`` was computed on (in-place mutation
    under a journal, or :func:`repro.incremental.diff.circuit_edits`
    alignment), and ``edits`` must cover every structural mutation
    since.  ``compiled`` is the pre-edit compiled CSR (e.g. captured
    from ``circuit.compiled()`` before editing); when given it is
    delta-patched in place and adopted, so no O(circuit) recompile
    happens.  The algorithm (turbomap / turbosyn) follows
    ``prev_result.algorithm``; extra keyword arguments go to it
    verbatim and must match the previous run's configuration for the
    reuse preconditions to hold.

    Returns a result bit-identical to a cold run of the same algorithm
    on the edited circuit, with ``incremental=True`` and the repair
    counters (``dirty_nodes`` / ``labels_reused`` /
    ``witnesses_revalidated`` / ``sccs_skipped``) in its stats.
    """
    dirty = dirty_region(circuit, edits)
    if compiled is not None:
        patched, _in_place = patch_compiled(circuit, compiled, edits)
        circuit.adopt_compiled(patched)
    prev = _padded(prev_result, len(circuit))
    algorithm = prev_result.algorithm
    check = mapper_kwargs.get("check", True)
    journal_diags = (
        _audit_journal(circuit, edits, dirty, compiled, algorithm) if check else []
    )
    if algorithm == "turbomap":
        result = turbomap(circuit, k, prev_result=prev, dirty=dirty, **mapper_kwargs)
    elif algorithm == "turbosyn":
        result = turbosyn(circuit, k, prev_result=prev, dirty=dirty, **mapper_kwargs)
    else:
        raise ValueError(
            f"cannot remap a {algorithm!r} result; "
            "expected algorithm 'turbomap' or 'turbosyn'"
        )
    if check:
        _audit_repair(circuit, prev, result, edits, dirty, journal_diags)
    return result


def _audit_journal(
    circuit: SeqCircuit,
    edits: Sequence[Edit],
    dirty: "set[int] | frozenset[int]",
    compiled: Optional[CompiledCircuit],
    algorithm: str,
) -> List["Diagnostic"]:
    """INC001 and INC002 over the journal and the adopted CSR.

    Runs before the mapper reads the delta-patched CSR, so a journal
    that disagrees with the circuit is refused here as a
    :class:`~repro.analysis.VerificationError` rather than surfacing as
    a failure deep inside mapping.  Returns the (non-error) findings.
    """
    from repro.analysis import (
        IncrementalContext,
        audit_incremental,
        raise_on_errors,
    )

    ctx = IncrementalContext(
        circuit,
        edits,
        dirty,
        # The adopted kernel is the delta-patched CSR; audit that one.
        compiled=circuit.compiled() if compiled is not None else None,
    )
    diags = audit_incremental(ctx, select=("INC001", "INC002"))
    raise_on_errors(diags, circuit.name, algorithm)
    return diags


def _audit_repair(
    circuit: SeqCircuit,
    prev: SeqMapResult,
    result: SeqMapResult,
    edits: Sequence[Edit],
    dirty: "set[int] | frozenset[int]",
    journal_diags: List["Diagnostic"],
) -> None:
    """Finish the incremental rule pack over one repair's evidence.

    Adds INC003 to the journal findings of :func:`_audit_journal`,
    folds them into ``result.certificate`` (under
    ``"incremental_audit"``) and raises
    :class:`~repro.analysis.VerificationError` on any ERROR — the same
    contract as the mapping verifier, so a broken repair never reports
    success.  Only called on checked runs (``check=True``).
    """
    from repro.analysis import (
        IncrementalContext,
        audit_incremental,
        raise_on_errors,
        sort_diagnostics,
    )

    ctx = IncrementalContext(
        circuit,
        edits,
        dirty,
        prev_outcomes=prev.outcomes,
        outcomes=result.outcomes,
    )
    diags = sort_diagnostics(
        journal_diags + audit_incremental(ctx, select=("INC003",))
    )
    if result.certificate is not None:
        result.certificate["incremental_audit"] = {
            "rules": ["INC001", "INC002", "INC003"],
            "findings": [d.as_dict() for d in diags],
        }
    raise_on_errors(diags, circuit.name, result.algorithm)


class IncrementalSession:
    """An edit-and-remap loop over one circuit.

    Typical use::

        session = IncrementalSession(circuit, k=5)
        result = session.map()            # cold run
        circuit.rewire_pin(g, 0, u, 1)    # journaled automatically
        result = session.remap()          # O(cone) repair, bit-identical

    The session starts the circuit's mutation journal on construction
    and drains it on every :meth:`remap`, so any mutation made through
    the circuit's helpers between calls is accounted for.  Keyword
    arguments are forwarded to the mapper on every run and must stay
    fixed across the session (the reuse preconditions require identical
    mapper options).
    """

    def __init__(
        self,
        circuit: SeqCircuit,
        k: int = 5,
        algorithm: str = "turbomap",
        **mapper_kwargs: Any,
    ) -> None:
        if algorithm not in ("turbomap", "turbosyn"):
            raise ValueError(
                f"unknown algorithm {algorithm!r}; "
                "expected 'turbomap' or 'turbosyn'"
            )
        self.circuit = circuit
        self.k = k
        self.algorithm = algorithm
        self.mapper_kwargs = mapper_kwargs
        self.result: Optional[SeqMapResult] = None
        self._compiled: Optional[CompiledCircuit] = None
        circuit.begin_journal()

    def map(self) -> SeqMapResult:
        """Cold run; (re)establishes the baseline for later repairs."""
        self.circuit.take_journal()  # discard pre-baseline edits
        if self.algorithm == "turbomap":
            result = turbomap(self.circuit, self.k, **self.mapper_kwargs)
        else:
            result = turbosyn(self.circuit, self.k, **self.mapper_kwargs)
        self.result = result
        self._compiled = self.circuit.compiled()
        return result

    def remap(self) -> SeqMapResult:
        """Repair the mapping after the journaled edits (cold on first use)."""
        if self.result is None:
            return self.map()
        edits = self.circuit.take_journal()
        result = remap(
            self.circuit,
            self.result,
            edits,
            k=self.k,
            compiled=self._compiled,
            **self.mapper_kwargs,
        )
        self.result = result
        self._compiled = self.circuit.compiled()
        return result
