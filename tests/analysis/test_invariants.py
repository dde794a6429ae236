"""Invariant rule pack: seeded faults hit the right MAP rule ids."""

import importlib.util
import os

import pytest

from repro.analysis.engine import Severity, has_errors
from repro.analysis.invariants import (
    MappingContext,
    VerificationError,
    certificate,
    lint_retiming,
    raise_on_errors,
    verified_rule_ids,
    verify_mapping,
)
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn
from repro.netlist.graph import SeqCircuit
from repro.retime.pipeline import pipeline_and_retime
from tests.helpers import AND2, BUF, XOR2, random_seq_circuit


def load_figure1():
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, "examples", "paper_figure1.py"
    )
    spec = importlib.util.spec_from_file_location("example_paper_figure1", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_figure1_circuit()


def and_subject():
    c = SeqCircuit("subj")
    a = c.add_pi("a")
    b = c.add_pi("b")
    g = c.add_gate("g", AND2, [(a, 0), (b, 0)])
    c.add_po("o", g)
    return c


def only(diags, rule_id):
    return [d for d in diags if d.rule_id == rule_id]


class TestMap001RetimingLegality:
    def test_legal_retiming_clean(self):
        c = and_subject()
        assert lint_retiming(c, [0] * len(c)) == []

    def test_illegal_retiming_flagged(self):
        c = and_subject()
        r = [0] * len(c)
        r[c.pis[0]] = 1  # drains the (registerless) a -> g edge
        diags = lint_retiming(c, r)
        assert [d.rule_id for d in diags] == ["MAP001"]
        assert diags[0].severity is Severity.ERROR
        assert "retimed weight" in diags[0].message

    def test_wrong_length_vector_flagged(self):
        diags = lint_retiming(and_subject(), [0, 0])
        assert [d.rule_id for d in diags] == ["MAP001"]
        assert "entries" in diags[0].message


class TestMap002KFeasible:
    def test_oversized_lut_flagged(self):
        subject = and_subject()
        mapped = SeqCircuit("m")
        pis = [mapped.add_pi(f"x{i}") for i in range(6)]
        from repro.boolfn.truthtable import TruthTable

        wide = TruthTable.from_function(6, lambda *xs: all(xs))
        g = mapped.add_gate("g", wide, [(p, 0) for p in pis])
        mapped.add_po("o", g)
        diags = verify_mapping(subject, mapped, 1, [], k=5)
        assert only(diags, "MAP002")
        # The structural pass flags the same width under CIRC003.
        assert only(diags, "CIRC003")


class TestMap003LabelHeight:
    def subject_chain(self):
        c = SeqCircuit("chain")
        a = c.add_pi("a")
        b = c.add_pi("b")
        g1 = c.add_gate("g1", AND2, [(a, 0), (b, 0)])
        g2 = c.add_gate("g2", BUF, [(g1, 0)])
        c.add_po("o", g2)
        return c

    def mapped_identity(self, c):
        m = SeqCircuit("m")
        new = {}
        for pi in c.pis:
            new[pi] = m.add_pi(c.name_of(pi))
        for g in c.gates:
            m.add_gate(
                c.name_of(g),
                c.func(g),
                [(new[p.src], p.weight) for p in c.fanins(g)],
            )
            new[g] = m.id_of(c.name_of(g))
        for po in c.pos:
            pin = c.fanins(po)[0]
            m.add_po(c.name_of(po), new[pin.src], pin.weight)
        return m

    def test_consistent_labels_clean(self):
        c = self.subject_chain()
        labels = [0] * len(c)
        labels[c.id_of("g1")] = 1
        labels[c.id_of("g2")] = 2
        diags = verify_mapping(c, self.mapped_identity(c), 5, labels, k=5)
        assert not has_errors(diags)

    def test_cut_height_above_label_flagged(self):
        c = self.subject_chain()
        labels = [0] * len(c)
        labels[c.id_of("g1")] = 1
        labels[c.id_of("g2")] = 1  # too small: height(g1 cut) = 2
        diags = verify_mapping(c, self.mapped_identity(c), 1, labels, k=5)
        bad = only(diags, "MAP003")
        assert [d.location.node for d in bad] == ["g2"]
        assert bad[0].data["height"] == 2


class TestPhiMdrBound:
    """A phi below the mapped network's MDR fails verification: RET003
    rejects the cycle-ratio certificate and RET002 finds no schedule."""

    def ring(self):
        c = SeqCircuit("ring")
        g1 = c.add_gate_placeholder("g1", BUF)
        g2 = c.add_gate_placeholder("g2", BUF)
        c.set_fanins(g1, [(g2, 1)])
        c.set_fanins(g2, [(g1, 0)])
        c.add_po("o", g2)
        return c

    def test_phi_below_bound_flagged(self):
        c = self.ring()  # the loop has d(C)=2, w(C)=1: MDR bound 2
        diags = verify_mapping(c, c, 1, [], k=5)
        bad = only(diags, "RET003")
        assert len(bad) == 1
        assert "below the certified MDR ratio 2" in bad[0].message
        assert len(only(diags, "RET002")) == 1

    def test_phi_at_bound_clean(self):
        c = self.ring()
        assert not has_errors(verify_mapping(c, c, 2, [], k=5))


class TestMap005ConeFunction:
    def test_wrong_lut_function_flagged(self):
        subject = and_subject()
        mapped = SeqCircuit("m")
        a = mapped.add_pi("a")
        b = mapped.add_pi("b")
        g = mapped.add_gate("g", XOR2, [(a, 0), (b, 0)])  # should be AND
        mapped.add_po("o", g)
        diags = verify_mapping(subject, mapped, 1, [], k=5)
        bad = only(diags, "MAP005")
        assert [d.location.node for d in bad] == ["g"]
        assert "differs from the sequential cone function" in bad[0].message

    def non_covering_mapped(self):
        mapped = SeqCircuit("m")
        a = mapped.add_pi("a")
        mapped.add_pi("b")
        g = mapped.add_gate("g", BUF, [(a, 0)])  # cut misses subject pin b
        mapped.add_po("o", g)
        return mapped

    def test_non_covering_cut_is_info_without_provenance(self):
        diags = verify_mapping(and_subject(), self.non_covering_mapped(), 1, [], k=5)
        bad = only(diags, "MAP005")
        assert len(bad) == 1
        assert bad[0].severity is Severity.INFO
        assert "possible resynthesized LUT" in bad[0].message

    def test_non_covering_cut_is_error_with_provenance(self):
        diags = verify_mapping(
            and_subject(),
            self.non_covering_mapped(),
            1,
            [],
            k=5,
            resyn_roots=frozenset(),
        )
        bad = only(diags, "MAP005")
        assert len(bad) == 1
        assert bad[0].severity is Severity.ERROR

    def test_known_resyn_root_skipped(self):
        diags = verify_mapping(
            and_subject(),
            self.non_covering_mapped(),
            1,
            [],
            k=5,
            resyn_roots=frozenset({"g"}),
        )
        assert only(diags, "MAP005") == []

    def test_tree_members_skipped_by_name(self):
        ctx = MappingContext(and_subject(), self.non_covering_mapped(), 1, [], 5)
        # Rename the LUT to a resynthesis-internal name: skipped.
        ctx.mapped.node(ctx.mapped.id_of("g")).name = "g~s0"
        assert list(ctx.plain_luts()) == []


class TestMap006LabelDomain:
    def test_shape_and_domain_violations(self):
        c = and_subject()
        diags = verify_mapping(c, c, 1, [0, 0], k=5)
        assert only(diags, "MAP006")

        labels = [0] * len(c)
        labels[c.pis[0]] = 3  # PI labels must be 0
        labels[c.id_of("g")] = 0  # gate labels must be >= 1
        diags = verify_mapping(c, c, 1, labels, k=5)
        nodes = {d.location.node for d in only(diags, "MAP006")}
        assert nodes == {"a", "g"}


class TestVerifyEndToEnd:
    def test_turbomap_on_random_circuit_certifies(self):
        circuit = random_seq_circuit(4, 24, seed=7, feedback=3)
        result = turbomap(circuit, k=4)
        assert result.certificate is not None
        assert result.certificate["verified"] is True
        assert result.certificate["errors"] == 0
        assert result.t_verify > 0.0

    def test_certificate_summary_fields(self):
        cert = certificate([], phi=3, algorithm="turbomap", t_verify=0.5)
        assert cert["schema"] == 1
        assert cert["verified"] is True
        assert cert["phi"] == 3
        assert cert["rules"] == sorted(verified_rule_ids())
        assert cert["t_verify"] == 0.5

    def test_raise_on_errors_carries_diagnostics(self):
        c = and_subject()
        mapped = SeqCircuit("m")
        a = mapped.add_pi("a")
        b = mapped.add_pi("b")
        mapped.add_po("o", mapped.add_gate("g", XOR2, [(a, 0), (b, 0)]))
        diags = verify_mapping(c, mapped, 1, [], k=5)
        with pytest.raises(VerificationError) as err:
            raise_on_errors(diags, c.name, "turbomap")
        assert "MAP005" in str(err.value)
        assert err.value.diagnostics == diags

    def test_raise_on_errors_ignores_warnings(self):
        raise_on_errors([], "c")  # no error findings: no raise


class TestFigure1EndToEnd:
    """The paper's Figure 1 loop: map, verify, retime — zero diagnostics."""

    @pytest.mark.parametrize("mapper", [turbomap, turbosyn])
    def test_map_verify_retime_clean(self, mapper):
        circuit = load_figure1()
        result = mapper(circuit, k=5)  # check=True verifies (raises if bad)
        cert = result.certificate
        assert cert["verified"] is True
        assert cert["errors"] == 0 and cert["warnings"] == 0
        assert cert["findings"] == []

        pipe = pipeline_and_retime(result.mapped)
        assert pipe.circuit.clock_period() == result.phi
        assert lint_retiming(result.mapped, pipe.retiming.r) == []

    def test_turbosyn_beats_turbomap_on_figure1(self):
        circuit = load_figure1()
        assert turbosyn(circuit, k=5).phi == 1
        assert turbomap(circuit, k=5).phi > 1
