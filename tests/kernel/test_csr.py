"""Tests for the compiled CSR circuit representation."""

import random

import pytest

from repro.bench import suite as bench_suite
from repro.boolfn.truthtable import TruthTable
from repro.kernel.csr import (
    KIND_GATE,
    KIND_PI,
    KIND_PO,
    CompiledCircuit,
    compile_circuit,
    pack_shift,
)
from repro.netlist.graph import NodeKind, SeqCircuit
from tests.helpers import random_seq_circuit

_KIND_CODE = {NodeKind.PI: KIND_PI, NodeKind.PO: KIND_PO, NodeKind.GATE: KIND_GATE}


class TestCompile:
    @pytest.mark.parametrize("name", ["bbara", "s838"])
    def test_matches_object_circuit(self, name):
        circuit = bench_suite.build(name)
        cc = compile_circuit(circuit)
        assert cc.n == len(circuit)
        for u in range(cc.n):
            assert cc.kinds[u] == _KIND_CODE[circuit.kind(u)]
            expected = list(
                dict.fromkeys((p.src, p.weight) for p in circuit.fanins(u))
            )
            assert cc.pins(u) == expected

    def test_dedupes_repeated_pins(self):
        circuit = random_seq_circuit(4, 30, seed=7)
        cc = compile_circuit(circuit)
        for u in range(cc.n):
            pins = cc.pins(u)
            assert len(pins) == len(set(pins))
        # First-occurrence order; one driver through different register
        # counts stays as separate pins.
        demo = SeqCircuit("dedup")
        a, b = demo.add_pi("a"), demo.add_pi("b")
        g = demo.add_gate(
            "g", TruthTable.const(5, False),
            [(b, 1), (a, 0), (b, 1), (a, 1), (a, 0)],
        )
        assert compile_circuit(demo).pins(g) == [(b, 1), (a, 0), (a, 1)]

    def test_cached_on_circuit_and_invalidated_by_mutation(self):
        circuit = random_seq_circuit(4, 20, seed=11)
        cc = circuit.compiled()
        assert circuit.compiled() is cc  # cached
        g = circuit.gates[0]
        pins = [(p.src, p.weight) for p in circuit.fanins(g)]
        circuit.set_fanins(g, pins)  # no-op rewire: cache survives
        assert circuit.compiled() is cc
        src, w = pins[0]
        pins[0] = (src, w + 1)
        circuit.set_fanins(g, pins)  # effective rewire: cache dropped
        assert circuit.compiled() is not cc

    def test_pickle_strips_compiled_cache(self):
        import pickle

        circuit = random_seq_circuit(4, 20, seed=13)
        circuit.compiled()
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._compiled is None
        assert clone.compiled().srcs == circuit.compiled().srcs


class TestPacking:
    def test_pack_round_trip_property(self):
        """Seeded random property: unpack(pack(u, w)) == (u, w) and the
        packing is injective over the copy space."""
        rng = random.Random(0xC0FFEE)
        for _ in range(200):
            n = rng.randint(1, 5000)
            shift = pack_shift(n)
            cc = CompiledCircuit(n, shift, [], [0] * (n + 1), [], [])
            seen = {}
            for _ in range(50):
                u = rng.randrange(n)
                w = rng.randint(0, 1 << 16)
                p = cc.pack(u, w)
                assert cc.unpack(p) == (u, w)
                assert seen.setdefault(p, (u, w)) == (u, w)  # injective

    def test_shift_covers_node_ids(self):
        for n in (1, 2, 3, 4, 255, 256, 257, 1 << 14):
            assert (1 << pack_shift(n)) >= n
            assert pack_shift(n) >= 1

    def test_root_copy_packs_to_node_id(self):
        # (v, 0) must pack to v itself: the expansion relies on it.
        cc = CompiledCircuit(100, pack_shift(100), [], [0] * 101, [], [])
        for v in (0, 1, 42, 99):
            assert cc.pack(v, 0) == v
