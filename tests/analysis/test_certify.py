"""Schedule / cycle-ratio certificates: construction, replay, checking.

On every suite circuit and its TurboMap network the schedule
certificate replays cleanly and the cycle-ratio certificate checks and
states the MDR the Bellman-Ford and Karp oracles compute — zero false
alarms — while forged and tampered blobs are rejected.
"""

import copy
from fractions import Fraction

import pytest

from repro.analysis.certify import (
    balanced_word,
    build_cycle_certificate,
    build_schedule_certificate,
    check_cycle_certificate,
    replay_schedule,
)
from repro.analysis.engine import run_rules
from repro.analysis.invariants import MappingContext
from repro.bench.suite import SUITE, build, large_circuit, quick_subset
from repro.core.driver import default_upper_bound
from repro.core.turbomap import turbomap
from repro.netlist.graph import SeqCircuit
from repro.retime.mdr import min_feasible_period
from tests.helpers import (
    AND2,
    BUF,
    bf_min_feasible_period,
    has_positive_cycle,
    karp_mdr,
    lfsr,
    random_seq_circuit,
)


def ring_circuit(n_gates=3, weight=1, name="ring"):
    """A single cycle of ``n_gates`` unit-delay gates carrying ``weight``
    registers on the back edge: MDR = n_gates / weight exactly."""
    c = SeqCircuit(name)
    pi = c.add_pi("pi")
    head = c.add_gate_placeholder("g0", AND2)
    prev = head
    for i in range(1, n_gates):
        prev = c.add_gate(f"g{i}", BUF, [(prev, 0)])
    c.set_fanins(head, [(pi, 0), (prev, weight)])
    c.add_po("out", prev)
    c.check()
    return c


def only(diags, rule_id):
    return [d for d in diags if d.rule_id == rule_id]


class TestBalancedWord:
    def test_word_shape(self):
        # 0^2 (1 0^2)* at phi=3: fires at 2, 5, 8, ...
        assert balanced_word(2, 3, 10) == "0010010010"

    def test_zero_offset_fires_immediately(self):
        assert balanced_word(0, 2, 6) == "101010"

    def test_one_firing_per_period(self):
        word = balanced_word(4, 5, 4 + 5 * 6)
        assert word.count("1") == 6


class TestScheduleCertificate:
    def test_ring_feasible_at_mdr(self):
        c = ring_circuit(3, 1)
        blob = build_schedule_certificate(c, 3)
        assert blob["feasible"] is True
        assert replay_schedule(c, 3, blob["offsets"]) == []

    def test_ring_infeasible_below_mdr(self):
        c = ring_circuit(3, 1)
        blob = build_schedule_certificate(c, 2)
        assert blob["feasible"] is False
        assert blob["witness_node"] is not None

    def test_offsets_normalized(self):
        c = ring_circuit(4, 2)
        blob = build_schedule_certificate(c, 2)
        assert blob["feasible"] is True
        assert min(blob["offsets"]) == 0
        assert blob["makespan"] == max(blob["offsets"])

    def test_replay_rejects_tampered_offsets(self):
        c = ring_circuit(3, 1)
        blob = build_schedule_certificate(c, 3)
        offsets = list(blob["offsets"])
        # Pull one gate's start below what its fanin chain allows.
        victim = c.id_of("g2")
        offsets[victim] = -10
        problems = replay_schedule(c, 3, offsets)
        assert problems
        assert "start constraint" in problems[0]

    def test_replay_rejects_wrong_length(self):
        c = ring_circuit(3, 1)
        assert replay_schedule(c, 3, [0]) == [
            f"offset vector has 1 entries for {len(c)} nodes"
        ]

    def test_replay_rejects_bad_period(self):
        c = ring_circuit(3, 1)
        assert replay_schedule(c, 0, [0] * len(c))

    def test_lfsr_certificate(self):
        c = lfsr(8, [0, 3])
        phi = min_feasible_period(c)
        blob = build_schedule_certificate(c, phi)
        assert blob["feasible"] is True
        assert replay_schedule(c, phi, blob["offsets"]) == []
        below = build_schedule_certificate(c, phi - 1) if phi > 1 else None
        if below is not None:
            assert below["feasible"] is False


class TestCycleCertificate:
    def test_ring_exact_ratio(self):
        c = ring_circuit(3, 1)
        blob = build_cycle_certificate(c, 3)
        assert blob["ratio"] == "3/1"
        assert blob["bound"] == 3
        assert blob["feasible"] is True
        assert check_cycle_certificate(c, 3, blob) == []

    def test_fractional_ratio_rounds_up(self):
        c = ring_circuit(3, 2)
        blob = build_cycle_certificate(c, 2)
        assert blob["ratio"] == "3/2"
        assert blob["bound"] == 2
        assert check_cycle_certificate(c, 2, blob) == []

    def test_infeasible_below_ratio(self):
        c = ring_circuit(4, 1)
        blob = build_cycle_certificate(c, 3)
        assert blob["feasible"] is False
        problems = check_cycle_certificate(c, 3, blob)
        assert problems and "below the certified MDR" in problems[0]

    def test_acyclic_circuit_bound_one(self):
        c = SeqCircuit("acyc")
        a = c.add_pi("a")
        b = c.add_pi("b")
        g = c.add_gate("g", AND2, [(a, 0), (b, 1)])
        c.add_po("o", g)
        blob = build_cycle_certificate(c, 1)
        assert blob["bound"] == 1
        assert blob["ratio"] is None
        assert blob["circuit_cycle"] == []
        assert check_cycle_certificate(c, 1, blob) == []

    def test_tampered_ratio_rejected(self):
        c = ring_circuit(3, 1)
        blob = build_cycle_certificate(c, 3)
        blob["ratio"] = "2/1"
        problems = check_cycle_certificate(c, 3, blob)
        assert problems and "exceeds the stated ratio" in problems[0]

    def test_fabricated_edge_rejected(self):
        c = ring_circuit(3, 1)
        blob = build_cycle_certificate(c, 3)
        blob["circuit_cycle"] = [["g0", 0], ["g2", 1]]  # no g0 -> g2 edge
        problems = check_cycle_certificate(c, 3, blob)
        assert problems and "does not have" in problems[0]

    def test_registerless_walk_rejected(self):
        c = ring_circuit(3, 1)
        blob = build_cycle_certificate(c, 3)
        blob["circuit_cycle"] = [
            [name, 0] for name, _w in blob["circuit_cycle"]
        ]
        problems = check_cycle_certificate(c, 3, blob)
        assert problems

    def test_random_seq_matches_engine(self):
        for seed in (7, 21, 42):
            c = random_seq_circuit(4, 30, seed)
            phi = min_feasible_period(c)
            assert phi == bf_min_feasible_period(c)
            blob = build_cycle_certificate(c, phi)
            assert blob["bound"] == phi, c.name
            assert check_cycle_certificate(c, phi, blob) == []


class TestRuleWiring:
    def ctx(self, circuit, phi, **kwargs):
        return MappingContext(
            circuit, circuit, phi, [], 5, algorithm="test", **kwargs
        )

    def test_ret002_fires_below_mdr(self):
        c = ring_circuit(3, 1)
        diags = run_rules("mapping", self.ctx(c, 2), ["RET002"])
        assert [d.rule_id for d in diags] == ["RET002"]
        assert "phi < MDR" in diags[0].message

    def test_ret003_fires_on_engine_disagreement(self):
        c = ring_circuit(3, 1)
        blob = build_cycle_certificate(c, 3)
        blob["bound"] = 7  # the MDR is 3
        blob["ratio"] = "7/1"
        diags = run_rules(
            "mapping", self.ctx(c, 3, cycle_cert=blob), ["RET003"]
        )
        assert [d.rule_id for d in diags] == ["RET003"]
        assert "achieves ratio" in diags[0].message

    def test_clean_ring_produces_no_findings(self):
        c = ring_circuit(3, 1)
        ctx = self.ctx(c, 3)
        assert run_rules("mapping", ctx, ["RET002"]) == []
        assert run_rules("mapping", ctx, ["RET003"]) == []


_MAPPED = {}


def mapped_network(name):
    """The checked TurboMap result of one suite circuit (memoized)."""
    if name not in _MAPPED:
        _MAPPED[name] = turbomap(build(name), 5)
    return _MAPPED[name]


@pytest.mark.parametrize("name", quick_subset())
def test_quick_suite_zero_false_alarms(name):
    """Acceptance: both certificates pass on every quick-suite circuit."""
    result = mapped_network(name)  # check=True runs RET002/RET003 already
    sched = result.certificate["schedule_certificate"]
    cyc = result.certificate["cycle_certificate"]
    assert sched["feasible"] is True
    assert sched["phi"] == result.phi
    assert replay_schedule(result.mapped, result.phi, sched["offsets"]) == []
    assert check_cycle_certificate(result.mapped, result.phi, cyc) == []
    assert cyc["feasible"] is True
    assert cyc["bound"] == bf_min_feasible_period(result.mapped)
    assert result.phi >= Fraction(cyc["ratio"])


class TestForgedCertificates:
    """Every forged or mutated cycle certificate is a RET003 error."""

    def ring(self):
        return ring_circuit(6, 2)  # MDR 3

    def ret003(self, circuit, phi, blob):
        ctx = MappingContext(
            circuit, circuit, phi, [], 5, algorithm="test", cycle_cert=blob
        )
        diags = run_rules("mapping", ctx, ["RET003"])
        assert [d.rule_id for d in diags] == ["RET003"]
        return diags[0].message

    @pytest.mark.parametrize(
        "blob",
        [{"skipped": "condensed graph too large"}, {"mcm": None, "feasible": True}],
        ids=["skipped", "mcm-null"],
    )
    def test_forged_blobs(self, blob):
        assert "not a schema-2 cycle-ratio certificate" in self.ret003(
            self.ring(), 1, blob
        )

    def test_potential_lowered_on_a_tight_edge(self):
        c = self.ring()
        blob = build_cycle_certificate(c, 3)
        a, b = (int(x) for x in blob["ratio"].split("/"))
        pots, groups = blob["potentials"], blob["groups"]
        tight = next(
            src
            for src, dst, w in c.edges()
            if groups[src] == groups[dst]
            and pots[src] == b * c.node(src).delay - a * w + pots[dst]
        )
        forged = copy.deepcopy(blob)
        forged["potentials"][tight] -= 1
        assert "violates its potential inequality by 1" in self.ret003(
            c, 3, forged
        )

    def test_witness_edge_the_circuit_lacks(self):
        c = self.ring()
        blob = build_cycle_certificate(c, 3)
        blob["circuit_cycle"][1][1] = 5  # g0 -> g1 carries no registers
        assert "which the circuit does not have" in self.ret003(c, 3, blob)

    @pytest.mark.parametrize("stated", ["4/1", "2/1"], ids=["above", "below"])
    def test_ratio_one_step_off(self, stated):
        c = self.ring()
        blob = build_cycle_certificate(c, 5)
        blob["ratio"] = stated
        message = self.ret003(c, 5, blob)
        assert "achieves ratio 3" in message or "exceeds the stated" in message

    def test_ratio_one_step_above_everywhere(self):
        """Raising every ratio keeps the potentials valid (a looser
        bound), so only the witness can refute it."""
        c = self.ring()
        blob = build_cycle_certificate(c, 5)
        blob["ratio"] = "4/1"
        blob["bound"] = 4
        blob["group_ratios"] = [
            None if r is None else "4/1" for r in blob["group_ratios"]
        ]
        assert "achieves ratio 3, certificate claims 4" in self.ret003(
            c, 5, blob
        )

    def test_group_index_makes_an_edge_run_backward(self):
        c = self.ring()
        blob = build_cycle_certificate(c, 3)
        blob["groups"][c.id_of("pi")] = max(blob["groups"])
        assert "runs backward between groups" in self.ret003(c, 3, blob)

    def test_phi_below_the_ratio(self):
        c = self.ring()
        blob = build_cycle_certificate(c, 2)
        assert blob["feasible"] is False
        assert "below the certified MDR ratio 3" in self.ret003(c, 2, blob)
        # Claiming feasibility does not help.
        blob["feasible"] = True
        assert "below the certified MDR ratio 3" in self.ret003(c, 2, blob)

    def test_acyclic_claim_on_a_cyclic_circuit(self):
        c = self.ring()
        blob = build_cycle_certificate(c, 3)
        blob.update(ratio=None, bound=1, circuit_cycle=[])
        blob["group_ratios"] = [None] * len(blob["group_ratios"])
        assert "claims no cycle" in self.ret003(c, 3, blob)

    def test_combinational_cycle_is_an_error(self):
        c = SeqCircuit("comb")
        g1 = c.add_gate_placeholder("g1", BUF)
        g2 = c.add_gate_placeholder("g2", BUF)
        c.set_fanins(g1, [(g2, 0)])
        c.set_fanins(g2, [(g1, 0)])
        c.add_po("o", g2)
        blob = build_cycle_certificate(c, 4)
        assert blob["feasible"] is False
        assert "unbounded MDR (combinational cycle)" in self.ret003(c, 4, blob)


def assert_certifies_the_mdr(circuit, phi):
    """The blob checks and states the Karp MDR, and its bound is the
    smallest period Bellman-Ford accepts (no positive cycle at the
    bound, one just below it)."""
    blob = build_cycle_certificate(circuit, phi)
    assert check_cycle_certificate(circuit, phi, blob) == []
    karp = karp_mdr(circuit)
    assert blob["ratio"] == (None if karp is None else f"{karp.numerator}/{karp.denominator}")
    bound = blob["bound"]
    assert not has_positive_cycle(circuit, Fraction(bound))
    assert bound == 1 or has_positive_cycle(circuit, Fraction(bound - 1))


@pytest.mark.parametrize("name", [e.name for e in SUITE])
class TestSuiteCertificates:
    def test_source(self, name):
        c = build(name)
        assert_certifies_the_mdr(c, default_upper_bound(c))

    def test_turbomap_network(self, name):
        result = mapped_network(name)  # verified: RET003 accepted its blob
        assert result.certificate["cycle_certificate"]["feasible"] is True
        assert_certifies_the_mdr(result.mapped, result.phi)


def test_large_circuit_matches_the_oracles():
    c = large_circuit()  # scale 4: 1,431 gates
    bound = min_feasible_period(c)
    assert bound == bf_min_feasible_period(c)
    assert_certifies_the_mdr(c, bound)
