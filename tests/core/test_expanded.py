"""Tests for expanded circuits (paper Figure 2 machinery)."""

import random

import pytest

from repro.boolfn.truthtable import TruthTable
from repro.core.expanded import ExpansionOverflow, sequential_cone_function
from repro.core.kcut import find_height_cut
from repro.core.labels import LabelSolver
from repro.kernel.expand import expand_partial_packed
from repro.netlist.graph import SeqCircuit
from tests.helpers import AND2, BUF, XOR2, oracle_cone_function


def two_stage():
    """x -> g1 =1FF=> g2, PO on g2."""
    c = SeqCircuit()
    x = c.add_pi("x")
    g1 = c.add_gate("g1", BUF, [(x, 0)])
    g2 = c.add_gate("g2", BUF, [(g1, 1)])
    c.add_po("o", g2)
    return c, x, g1, g2


def self_loop():
    """g reads itself through 1 FF and a PI."""
    c = SeqCircuit()
    x = c.add_pi("x")
    g = c.add_gate_placeholder("g", AND2)
    c.set_fanins(g, [(x, 0), (g, 1)])
    c.add_po("o", g)
    return c, x, g


class Expansion:
    """A packed expansion of ``E_v`` with its tiers and edges decoded to
    ``(u, w)`` tuples."""

    def __init__(self, c, v, phi, labels, threshold, **kwargs):
        dense = [labels.get(u, 0) for u in range(len(c))]
        exp = expand_partial_packed(
            c.compiled(), v, phi, dense, threshold, **kwargs
        )
        self.blocked = exp.blocked
        self.interior = exp.unpack_copies(exp.interior)
        self.candidates = exp.unpack_copies(exp.candidates)
        self.leaves = exp.unpack_copies(exp.leaves)
        flat = exp.unpack_copies(exp.edges)
        self.edges = list(zip(flat[::2], flat[1::2]))


class TestExpandPartial:
    def test_weights_accumulate(self):
        c, x, g1, g2 = two_stage()
        labels = {x: 0, g1: 1, g2: 1}
        # threshold below g1^1's height (1-1+1=1): expand through it.
        exp = Expansion(c, g2, 1, labels, threshold=0)
        copies = set(exp.interior) | set(exp.leaves) | set(exp.candidates)
        assert (g1, 1) in copies
        assert (x, 1) in copies  # x behind g1's register

    def test_every_path_crosses_w_registers(self):
        # Structural property of E_v: copy (u, w) connects to parents with
        # weight decreasing by the original edge weight.
        c, x, g = self_loop()
        labels = {x: 0, g: 1}
        exp = Expansion(c, g, 1, labels, threshold=-3)
        for (child, parent) in exp.edges:
            (cu, cw), (pu, pw) = child, parent
            pin = next(p for p in c.fanins(pu) if p.src == cu)
            assert cw == pw + pin.weight

    def test_self_loop_unrolls_until_threshold(self):
        c, x, g = self_loop()
        labels = {x: 0, g: 5}
        # phi 2, threshold 3: g^0 (h=6) and g^1 (h=4) interior; g^2 (h=2)
        # frontier.
        exp = Expansion(c, g, 2, labels, threshold=3)
        assert (g, 1) in exp.interior
        assert (g, 2) in exp.leaves
        assert not exp.blocked

    def test_pi_blocks_when_above_threshold(self):
        c, x, g1, g2 = two_stage()
        labels = {x: 0, g1: 1, g2: 1}
        # threshold -5 forces even x^1 (height 0) to be interior: blocked.
        exp = Expansion(c, g2, 1, labels, threshold=-5)
        assert exp.blocked

    def test_candidate_tier(self):
        c, x, g = self_loop()
        labels = {x: 0, g: 5}
        exp = Expansion(c, g, 2, labels, threshold=3, extra_depth=1)
        # g^2 (height 2 > floor 1) is now an expandable candidate.
        assert (g, 2) in exp.candidates
        assert (g, 3) in exp.leaves or (g, 3) in exp.candidates

    def test_root_must_be_gate(self):
        c, x, g1, g2 = two_stage()
        with pytest.raises(ValueError):
            expand_partial_packed(c.compiled(), x, 1, [0] * len(c), 0)

    def test_duplicate_pins_produce_no_duplicate_edges(self):
        # g reads the same driver twice through identical register counts:
        # one expansion edge per *distinct* pin, not per wire.
        c = SeqCircuit()
        x = c.add_pi("x")
        d = c.add_gate("d", BUF, [(x, 0)])
        g = c.add_gate("g", AND2, [(d, 1), (d, 1)])
        c.add_po("o", g)
        labels = {x: 0, d: 1, g: 1}
        exp = Expansion(c, g, 1, labels, threshold=1)
        assert len(exp.edges) == len(set(exp.edges))
        assert ((d, 1), (g, 0)) in exp.edges

    def test_distinct_weights_kept_as_distinct_edges(self):
        c = SeqCircuit()
        x = c.add_pi("x")
        d = c.add_gate("d", BUF, [(x, 0)])
        g = c.add_gate("g", XOR2, [(d, 0), (d, 1)])
        c.add_po("o", g)
        labels = {x: 0, d: 1, g: 1}
        exp = Expansion(c, g, 1, labels, threshold=1)
        assert ((d, 0), (g, 0)) in exp.edges
        assert ((d, 1), (g, 0)) in exp.edges


class TestExpansionOverflow:
    def _deep_unroll(self):
        # Self-loop with a high root label: ~41 interior copies of g
        # before the frontier drops below the threshold.
        c, x, g = self_loop()
        return c, g, {x: 0, g: 50}

    def test_overflow_carries_node_name_and_limit(self):
        c, g, labels = self._deep_unroll()
        with pytest.raises(ExpansionOverflow) as excinfo:
            Expansion(
                c, g, 1, labels, threshold=10, max_copies=5, name_of=c.name_of
            )
        assert excinfo.value.node_name == c.name_of(g)
        assert excinfo.value.max_copies == 5
        assert "5 copies" in str(excinfo.value)

    def test_overflow_is_a_runtime_error(self):
        # Existing fault boundaries catch RuntimeError; the typed
        # exception must stay inside that contract.
        assert issubclass(ExpansionOverflow, RuntimeError)

    def test_limit_is_configurable(self):
        c, g, labels = self._deep_unroll()
        exp = Expansion(c, g, 1, labels, threshold=10, max_copies=500)
        assert not exp.blocked
        assert len(exp.interior) > 5


class TestSequentialConeFunction:
    def test_single_copy_cut(self):
        c, x, g1, g2 = two_stage()
        f = sequential_cone_function(c, g2, [(g1, 1)])
        assert f == TruthTable.var(0, 1)

    def test_cut_through_registers(self):
        c, x, g1, g2 = two_stage()
        f = sequential_cone_function(c, g2, [(x, 1)])
        assert f == TruthTable.var(0, 1)

    def test_self_loop_unrolled_function(self):
        c, x, g = self_loop()
        # cut = {x^0, x^1, g^2}: g = x0 AND (x@1 AND g@2)
        f = sequential_cone_function(c, g, [(x, 0), (x, 1), (g, 2)])
        expected = (
            TruthTable.var(0, 3) & TruthTable.var(1, 3) & TruthTable.var(2, 3)
        )
        assert f == expected

    def test_distinct_copies_are_distinct_vars(self):
        c = SeqCircuit()
        x = c.add_pi("x")
        g = c.add_gate("g", XOR2, [(x, 0), (x, 1)])
        c.add_po("o", g)
        f = sequential_cone_function(c, g, [(x, 0), (x, 1)])
        assert f == TruthTable.var(0, 2) ^ TruthTable.var(1, 2)

    def test_uncovered_cut_rejected(self):
        c, x, g1, g2 = two_stage()
        with pytest.raises(ValueError):
            sequential_cone_function(c, g2, [])  # reaches PI x uncovered

    def test_too_wide_rejected(self):
        c, x, g = self_loop()
        with pytest.raises(ValueError):
            sequential_cone_function(c, g, [(x, w) for w in range(22)])


def mixed_circuit(seed, n_pis=3, n_gates=24):
    """A random circuit with 0-, 1-, 2- and 3-input gates, duplicate
    pins and registered feedback, self-loops included."""
    rng = random.Random(seed)
    c = SeqCircuit(f"mixed{seed}")
    pool = [c.add_pi(f"x{i}") for i in range(n_pis)]
    gates = []
    for i in range(n_gates):
        arity = rng.choice((0, 1, 2, 2, 2, 3))
        func = TruthTable(arity, rng.getrandbits(1 << arity))
        g = c.add_gate_placeholder(f"g{i}", func)
        pins = [(rng.choice(pool), 0) for _ in range(arity)]
        if arity == 2 and rng.random() < 0.2:
            pins[1] = pins[0]  # a duplicate pin
        c.set_fanins(g, pins)
        pool.append(g)
        gates.append(g)
    wide = [g for g in gates if c.fanins(g)]
    for _ in range(4):
        target = rng.choice(wide)
        pins = [(p.src, p.weight) for p in c.fanins(target)]
        # a later gate or the target itself, through 1-2 registers
        src = rng.choice([g for g in gates if g >= target])
        pins[rng.randrange(len(pins))] = (src, rng.randint(1, 2))
        c.set_fanins(target, pins)
    for j, g in enumerate(gates[-3:]):
        c.add_po(f"out{j}", g)
    c.check()
    return c


class TestConeOracle:
    """The packed bit-parallel cone walk against the tuple-copy oracle
    (every gate through the generic minterm expansion)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_oracle_on_every_height_cut(self, seed):
        c = mixed_circuit(seed)
        phi = 1
        while not (outcome := LabelSolver(c, 5, phi).run()).feasible:
            phi += 1
        labels = outcome.labels
        arities = set()
        compared = 0
        for v in c.gates:
            for extra_depth in (0, 1):
                for threshold in range(labels[v] - phi, labels[v] + 1):
                    cut = find_height_cut(
                        c, v, phi, labels, threshold, 15, extra_depth
                    )
                    if cut is None:
                        continue
                    got = sequential_cone_function(c, v, cut)
                    assert got == oracle_cone_function(c, v, cut), (v, cut)
                    compared += 1
                    arities.add(len(c.fanins(v)))
        assert compared > 0
        # constant, unary and binary direct paths plus the generic one
        assert arities == {0, 1, 2, 3}

    def test_every_arity_and_duplicate_pins_reached(self):
        seen = set()
        dup = False
        for seed in range(8):
            c = mixed_circuit(seed)
            for v in c.gates:
                pins = [(p.src, p.weight) for p in c.fanins(v)]
                seen.add(len(pins))
                dup |= len(pins) != len(set(pins))
        assert seen == {0, 1, 2, 3}
        assert dup

    def test_too_wide_matches_oracle(self):
        c, x, g = self_loop()
        cut = [(x, w) for w in range(21)]
        for engine in (sequential_cone_function, oracle_cone_function):
            with pytest.raises(ValueError, match="too wide"):
                engine(c, g, cut)

    def test_uncovered_cut_matches_oracle(self):
        c = mixed_circuit(3)
        refused = 0
        for v in c.gates:
            try:
                want = oracle_cone_function(c, v, [])
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    sequential_cone_function(c, v, [])
                # the same walk order reaches the same uncovered copy
                assert str(got.value) == str(exc)
                assert "does not cover" in str(exc)
                refused += 1
            else:
                assert sequential_cone_function(c, v, []) == want
        assert 0 < refused < len(c.gates)

    def test_overflow_matches_oracle(self):
        # The self-loop regresses forever when the cut holds only PI
        # copies: both walks stop at max_copies distinct gate copies.
        c, x, g = self_loop()
        cut = [(x, w) for w in range(4)]
        for engine in (sequential_cone_function, oracle_cone_function):
            with pytest.raises(ExpansionOverflow) as excinfo:
                engine(c, g, cut, max_copies=3)
            assert excinfo.value.max_copies == 3
            assert excinfo.value.node_name == "g"
        # Four unrolled copies fit under a bound of 4 but not of 3.
        cut = cut + [(g, 4)]
        with pytest.raises(ExpansionOverflow):
            sequential_cone_function(c, g, cut, max_copies=3)
        assert sequential_cone_function(c, g, cut, max_copies=4) == (
            oracle_cone_function(c, g, cut, max_copies=4)
        )
