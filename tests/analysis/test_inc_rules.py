"""Incremental rule pack: seeded repair faults hit the right INC ids.

A real edit-and-remap session must audit clean (and embed the audit in
its certificate); hand-corrupted evidence must trip exactly the rule
guarding the violated claim.
"""

import pytest

from repro.analysis.engine import Severity, run_rules
from repro.analysis.increrules import IncrementalContext, audit_incremental
from repro.analysis.invariants import VerificationError
from repro.core.labels import LabelOutcome, LabelStats
from repro.incremental.session import IncrementalSession
from repro.netlist.graph import Edit, SeqCircuit
from tests.helpers import AND2, BUF, random_seq_circuit


def chain_subject():
    """a,b -> g1 -> g2 -> o; returns (circuit, g1, g2, po)."""
    c = SeqCircuit("incsubj")
    a = c.add_pi("a")
    b = c.add_pi("b")
    g1 = c.add_gate("g1", AND2, [(a, 0), (b, 0)])
    g2 = c.add_gate("g2", BUF, [(g1, 0)])
    po = c.add_po("o", g2)
    return c, g1, g2, po


def pins_of(circuit, nid):
    return tuple((p.src, p.weight) for p in circuit.fanins(nid))


def only(ctx, rule_id):
    diags = run_rules("incremental", ctx, [rule_id])
    assert all(d.rule_id == rule_id for d in diags)
    assert all(d.severity is Severity.ERROR for d in diags)
    return diags


class TestSessionAuditsClean:
    def test_remap_embeds_empty_audit(self):
        circuit = random_seq_circuit(4, 30, seed=13, name="incsess")
        session = IncrementalSession(circuit, k=5)
        cold = session.map()
        gate = circuit.gates[len(circuit.gates) // 2]
        src = circuit.fanins(gate)[0].src
        assert circuit.rewire_pin(gate, 0, src, 1)
        result = session.remap()
        audit = result.certificate["incremental_audit"]
        assert audit["rules"] == ["INC001", "INC002", "INC003"]
        assert audit["findings"] == []
        assert result.incremental
        assert result.phi >= 1 and cold.phi >= 1

    def test_corrupted_journal_fails_remap(self):
        circuit = random_seq_circuit(4, 30, seed=13, name="incsess2")
        session = IncrementalSession(circuit, k=5)
        session.map()
        gate = circuit.gates[-1]
        src = circuit.fanins(gate)[0].src
        assert circuit.rewire_pin(gate, 0, src, 1)
        # Undo behind the journal's back: the recorded pins no longer
        # match the circuit, so the journal audit (INC001) refuses the
        # repair before any clean label is adopted.
        circuit._journal = [Edit("rewire", gate, ((src, 2),))]
        with pytest.raises(VerificationError, match="INC001"):
            session.remap()


class TestInc001JournalCoherence:
    def test_out_of_range_id(self):
        c, _g1, g2, _po = chain_subject()
        ctx = IncrementalContext(
            c, [Edit("rewire", 999, ())], frozenset({g2})
        )
        diags = only(ctx, "INC001")
        assert any("outside the circuit" in d.message for d in diags)

    def test_stale_pins(self):
        c, g1, g2, _po = chain_subject()
        ctx = IncrementalContext(
            c, [Edit("rewire", g2, ((g1, 3),))], frozenset({g2})
        )
        diags = only(ctx, "INC001")
        assert any("journal records pins" in d.message for d in diags)

    def test_last_writer_wins(self):
        c, g1, g2, _po = chain_subject()
        edits = [
            Edit("rewire", g2, ((g1, 3),)),  # superseded
            Edit("rewire", g2, pins_of(c, g2)),  # final, matches
        ]
        assert only(IncrementalContext(c, edits, frozenset({g2})), "INC001") == []


class TestInc002DirtyClosure:
    def test_missing_seed(self):
        c, _g1, g2, _po = chain_subject()
        ctx = IncrementalContext(
            c, [Edit("rewire", g2, pins_of(c, g2))], frozenset()
        )
        diags = only(ctx, "INC002")
        assert any("missing from the dirty region" in d.message for d in diags)
        assert diags[0].data["missing"] == [g2]

    def test_leaking_fanout(self):
        c, g1, g2, _po = chain_subject()
        # g1 is dirty but its fanout g2 is not: the closure leaks.
        ctx = IncrementalContext(
            c, [Edit("rewire", g1, pins_of(c, g1))], frozenset({g1})
        )
        diags = only(ctx, "INC002")
        assert any("not forward-closed" in d.message for d in diags)
        assert g2 in diags[0].data["leaks"]

    def test_closed_region_clean(self):
        c, g1, g2, po = chain_subject()
        ctx = IncrementalContext(
            c,
            [Edit("rewire", g1, pins_of(c, g1))],
            frozenset({g1, g2, po}),
        )
        assert only(ctx, "INC002") == []


class TestInc003WitnessReuse:
    PHI = 2

    def evidence(self, **stat_overrides):
        """Consistent dirty-seeded evidence: g2+o dirty, g1 clean."""
        c, g1, g2, po = chain_subject()
        labels = [0] * len(c)
        labels[g1] = 1
        labels[g2] = 1
        stats = dict(dirty_nodes=2, labels_reused=1, witnesses_revalidated=1)
        stats.update(stat_overrides)
        prev = {self.PHI: LabelOutcome(True, list(labels), LabelStats())}
        new = {self.PHI: LabelOutcome(True, list(labels), LabelStats(**stats))}
        ctx = IncrementalContext(
            c,
            [Edit("rewire", g2, pins_of(c, g2))],
            frozenset({g2, po}),
            prev_outcomes=prev,
            outcomes=new,
        )
        return ctx, g1

    def test_consistent_evidence_clean(self):
        ctx, _g1 = self.evidence()
        assert audit_incremental(ctx) == []

    def test_clean_label_drift(self):
        ctx, g1 = self.evidence()
        ctx.outcomes[self.PHI].labels[g1] += 1
        diags = only(ctx, "INC003")
        assert any("clean label" in d.message for d in diags)
        assert diags[0].data["drifted"] == [g1]

    def test_wrong_reuse_count(self):
        ctx, _g1 = self.evidence(labels_reused=5)
        diags = only(ctx, "INC003")
        assert any("reused labels" in d.message for d in diags)

    def test_overcounted_witnesses(self):
        ctx, _g1 = self.evidence(witnesses_revalidated=3)
        diags = only(ctx, "INC003")
        assert any("re-queried" in d.message for d in diags)

    def test_cold_probe_skipped(self):
        # dirty_nodes == 0 marks a cold/warm probe: no reuse to audit.
        ctx, g1 = self.evidence(dirty_nodes=0, labels_reused=0)
        ctx.outcomes[self.PHI].labels[g1] += 1
        assert only(ctx, "INC003") == []

    def test_infeasible_prev_skipped(self):
        ctx, g1 = self.evidence()
        ctx.prev_outcomes[self.PHI] = LabelOutcome(
            False, list(ctx.prev_outcomes[self.PHI].labels), LabelStats()
        )
        ctx.outcomes[self.PHI].labels[g1] += 1
        assert only(ctx, "INC003") == []
