"""Kernel rule pack: seeded CSR corruptions hit the right KERN rule ids.

Each test corrupts one field of a freshly compiled
:class:`CompiledCircuit` and audits with ``select`` isolating the rule
under test (a single corruption legitimately trips several rules — the
cross-checks overlap by design).
"""

from repro.analysis.engine import Severity
from repro.analysis.kernelrules import audit_compiled
from repro.kernel.csr import KIND_GATE, KIND_PI, compile_circuit
from tests.helpers import lfsr, random_seq_circuit, xor_chain


def subject():
    return random_seq_circuit(4, 20, seed=9, name="kernsubj")


def audit(circuit, compiled, rule_id):
    diags = audit_compiled(circuit, compiled, select=[rule_id])
    assert all(d.rule_id == rule_id for d in diags)
    assert all(d.severity is Severity.ERROR for d in diags)
    return diags


class TestCleanCircuits:
    def test_no_findings(self):
        for circuit in (
            xor_chain(6),
            lfsr(8, [0, 3]),
            random_seq_circuit(4, 40, seed=2),
        ):
            assert audit_compiled(circuit) == [], circuit.name


class TestKern001IndptrSorted:
    def test_truncated_offsets(self):
        c = subject()
        cc = compile_circuit(c)
        cc.offsets.pop()
        diags = audit(c, cc, "KERN001")
        assert diags and "n+1" in diags[0].message

    def test_decreasing_offsets(self):
        c = subject()
        cc = compile_circuit(c)
        cc.offsets[2] = cc.offsets[3] + 1
        diags = audit(c, cc, "KERN001")
        assert any("decrease" in d.message for d in diags)

    def test_open_pin_arrays(self):
        c = subject()
        cc = compile_circuit(c)
        cc.srcs.append(0)
        cc.weights.append(0)
        diags = audit(c, cc, "KERN001")
        assert any("disagree" in d.message for d in diags)


class TestKern002PinDedup:
    def pin_owner(self, cc):
        """A node with at least two pins, and its pin range."""
        for u in range(cc.n):
            if cc.offsets[u + 1] - cc.offsets[u] >= 2:
                return u, cc.offsets[u]
        raise AssertionError("subject has no 2-pin node")

    def test_out_of_range_source(self):
        c = subject()
        cc = compile_circuit(c)
        cc.srcs[0] = cc.n + 7
        diags = audit(c, cc, "KERN002")
        assert any("out-of-range" in d.message for d in diags)

    def test_negative_weight(self):
        c = subject()
        cc = compile_circuit(c)
        cc.weights[0] = -1
        diags = audit(c, cc, "KERN002")
        assert any("negative pin weight" in d.message for d in diags)

    def test_repeated_pin(self):
        c = subject()
        cc = compile_circuit(c)
        _u, lo = self.pin_owner(cc)
        cc.srcs[lo + 1] = cc.srcs[lo]
        cc.weights[lo + 1] = cc.weights[lo]
        diags = audit(c, cc, "KERN002")
        assert any("repeats" in d.message for d in diags)
        assert diags[0].data["duplicates"]


class TestKern003PackShift:
    def test_wrong_shift(self):
        c = subject()
        cc = compile_circuit(c)
        cc.shift += 1
        diags = audit(c, cc, "KERN003")
        assert any("pack_shift" in d.message for d in diags)

    def test_stale_mask(self):
        c = subject()
        cc = compile_circuit(c)
        cc.mask = (1 << (cc.shift + 1)) - 1
        diags = audit(c, cc, "KERN003")
        assert any("mask" in d.message for d in diags)


class TestKern005ObjectCrosscheck:
    def test_node_count_mismatch(self):
        c = subject()
        cc = compile_circuit(c)
        cc.n += 1
        cc.kinds.append(KIND_PI)
        cc.offsets.append(cc.offsets[-1])
        diags = audit(c, cc, "KERN005")
        assert any("nodes" in d.message for d in diags)

    def test_wrong_kind_code(self):
        c = subject()
        cc = compile_circuit(c)
        victim = cc.kinds.index(KIND_GATE)
        cc.kinds[victim] = KIND_PI
        diags = audit(c, cc, "KERN005")
        assert any("kind code" in d.message for d in diags)

    def test_diverged_pin_weight(self):
        c = subject()
        cc = compile_circuit(c)
        cc.weights[0] += 1
        diags = audit(c, cc, "KERN005")
        assert any("diverge" in d.message for d in diags)
