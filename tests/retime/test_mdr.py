"""Tests for MDR-ratio / cycle-ratio computation.

The Howard engine is held to three references: simple-cycle
enumeration on tiny circuits, and the Bellman-Ford and Karp oracles in
:mod:`tests.helpers` (the algorithms it replaced).  Its certificate
must also pass the independent RET003 checker.
"""

from fractions import Fraction

import pytest

from repro.analysis.certify import build_cycle_certificate, check_cycle_certificate
from repro.netlist.graph import SeqCircuit
from repro.retime.mdr import (
    critical_ratio_cycle,
    max_cycle_ratio,
    mdr_ratio,
    min_feasible_period,
)
from tests.helpers import (
    AND2,
    BUF,
    bf_mdr_ratio,
    bf_min_feasible_period,
    has_positive_cycle,
    karp_mdr,
    random_seq_circuit,
    xor_chain,
)


def ring(num_gates: int, num_ffs: int, name: str = "ring") -> SeqCircuit:
    """A single loop of ``num_gates`` buffers carrying ``num_ffs`` registers."""
    c = SeqCircuit(name)
    gates = [c.add_gate_placeholder(f"g{i}", BUF) for i in range(num_gates)]
    for i in range(num_gates):
        prev = gates[(i - 1) % num_gates]
        weight = num_ffs if i == 0 else 0
        c.set_fanins(gates[i], [(prev, weight)])
    c.add_po("o", gates[-1])
    c.check()
    return c


def brute_force_mdr(circuit: SeqCircuit) -> Fraction:
    """Exact MDR by enumerating all simple cycles (tiny circuits only)."""
    n = len(circuit)
    adj = {}
    for s, d, w in circuit.edges():
        adj.setdefault(s, []).append((d, w))
    best = Fraction(0, 1)

    def dfs(start, v, weight, delay, visited):
        nonlocal best
        for d, w in adj.get(v, []):
            nd = delay + circuit.node(d).delay
            if d == start:
                total_w = weight + w
                if total_w > 0:
                    best = max(best, Fraction(nd, total_w))
            elif d not in visited and d >= start:
                visited.add(d)
                dfs(start, d, weight + w, nd, visited)
                visited.remove(d)

    for start in range(n):
        dfs(start, start, 0, 0, {start})
    return best


class TestPositiveCycle:
    """The Bellman-Ford oracle brackets the engine's exact ratio."""

    def test_ring_threshold(self):
        c = ring(4, 2)  # ratio 4/2 = 2
        assert has_positive_cycle(c, Fraction(1, 1))
        assert has_positive_cycle(c, Fraction(3, 2))
        assert not has_positive_cycle(c, Fraction(2, 1))
        assert mdr_ratio(c) == 2

    def test_acyclic_never_positive(self):
        c = xor_chain(5)
        assert not has_positive_cycle(c, Fraction(0, 1))
        assert max_cycle_ratio(c).ratio is None

    def test_negative_ratio_allowed(self):
        # Fraction normalizes signs; a negative threshold simply asks
        # whether any cycle beats it (always true for a real loop).
        c = ring(2, 1)
        assert has_positive_cycle(c, Fraction(-1, 1))


class TestMinFeasiblePeriod:
    @pytest.mark.parametrize(
        "gates,ffs,expected",
        [(4, 2, 2), (4, 1, 4), (5, 2, 3), (6, 4, 2), (3, 3, 1), (7, 3, 3)],
    )
    def test_single_ring(self, gates, ffs, expected):
        c = ring(gates, ffs)
        assert min_feasible_period(c) == expected

    def test_acyclic_is_one(self):
        assert min_feasible_period(xor_chain(6)) == 1

    def test_two_loops_max_governs(self):
        c = SeqCircuit()
        a = c.add_pi("a")
        g1 = c.add_gate_placeholder("g1", AND2)
        g2 = c.add_gate_placeholder("g2", BUF)
        g3 = c.add_gate_placeholder("g3", AND2)
        # loop1: g1 -> g2 -> g1 with 2 FFs (ratio 1); loop2: g3 self loop
        # with 1 FF through 1 gate but fed by a 3-gate path? Keep simple:
        # g3 reads g3 with weight 1 (ratio 1) and also g1.
        c.set_fanins(g1, [(a, 0), (g2, 2)])
        c.set_fanins(g2, [(g1, 0)])
        c.set_fanins(g3, [(g3, 1), (g1, 0)])
        c.add_po("o", g3)
        c.check()
        assert min_feasible_period(c) == 1

    def test_combinational_cycle_detected(self):
        c = SeqCircuit()
        g1 = c.add_gate_placeholder("g1", BUF)
        g2 = c.add_gate_placeholder("g2", BUF)
        c.node(g1).fanins.append  # no-op; wire below
        c.set_fanins(g1, [(g2, 0)])
        c.set_fanins(g2, [(g1, 0)])
        c.add_po("o", g2)
        with pytest.raises(ValueError):
            min_feasible_period(c)


class TestMdrRatio:
    @pytest.mark.parametrize(
        "gates,ffs", [(4, 2), (5, 3), (7, 2), (3, 1), (1, 1), (6, 4)]
    )
    def test_single_ring_exact(self, gates, ffs):
        c = ring(gates, ffs)
        assert mdr_ratio(c) == Fraction(gates, ffs)
        assert_matches_oracles(c)

    def test_acyclic_zero(self):
        assert mdr_ratio(xor_chain(4)) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        from repro.rng import default_rng

        rng = default_rng(seed)
        c = SeqCircuit(f"rand{seed}")
        a = c.add_pi("a")
        n = 6
        gates = [c.add_gate_placeholder(f"g{i}", AND2) for i in range(n)]
        for i, g in enumerate(gates):
            src1 = gates[int(rng.integers(0, n))]
            src2 = gates[int(rng.integers(0, n))] if rng.random() < 0.7 else a
            w1 = int(rng.integers(1, 3))
            w2 = int(rng.integers(0, 2))
            if src2 is not a and w2 == 0:
                # avoid accidental combinational cycles: registered only
                w2 = 1
            c.set_fanins(g, [(src1, w1), (src2, w2)])
        c.add_po("o", gates[-1])
        c.check()
        assert mdr_ratio(c) == brute_force_mdr(c)

    def test_consistency_with_min_period(self):
        import math

        for gates, ffs in [(4, 2), (5, 2), (7, 3), (9, 4)]:
            c = ring(gates, ffs)
            ratio = mdr_ratio(c)
            assert min_feasible_period(c) == math.ceil(ratio)


class TestCriticalCycle:
    def test_ring_cycle_found(self):
        c = ring(5, 2)
        cycle = critical_ratio_cycle(c)
        assert cycle is not None
        assert len(cycle) == 5  # the whole ring

    def test_acyclic_none(self):
        assert critical_ratio_cycle(xor_chain(4)) is None

    def test_cycle_achieves_ratio(self):
        c = ring(6, 4)
        cycle = critical_ratio_cycle(c)
        # Verify the reported cycle's ratio equals the MDR.
        ratio = mdr_ratio(c)
        delay = sum(c.node(v).delay for v in cycle)
        weight = 0
        cyc = cycle + [cycle[0]]
        for u, v in zip(cyc, cyc[1:]):
            w = next(p.weight for p in c.fanins(v) if p.src == u)
            weight += w
        assert Fraction(delay, weight) == ratio


def assert_matches_oracles(c: SeqCircuit) -> None:
    """Engine == Bellman-Ford == Karp, and the certificate checks."""
    result = max_cycle_ratio(c)
    karp = karp_mdr(c)
    assert result.ratio == karp, c.name
    assert mdr_ratio(c) == bf_mdr_ratio(c), c.name
    assert result.bound == bf_min_feasible_period(c), c.name
    blob = build_cycle_certificate(c, result.bound)
    assert blob["feasible"] is True
    assert check_cycle_certificate(c, result.bound, blob) == []
    if result.bound > 1:
        below = build_cycle_certificate(c, result.bound - 1)
        assert below["feasible"] is False
        assert check_cycle_certificate(c, result.bound - 1, below)


def parallel_pins() -> SeqCircuit:
    """g0 reads g1 twice (1 and 3 registers): the light pin is critical."""
    c = SeqCircuit("parallel")
    a = c.add_pi("a")
    g0 = c.add_gate_placeholder("g0", AND2)
    g1 = c.add_gate("g1", BUF, [(g0, 0)])
    g2 = c.add_gate_placeholder("g2", AND2)
    c.set_fanins(g0, [(g1, 3), (g1, 1)])
    c.set_fanins(g2, [(a, 0), (g1, 0)])
    c.add_po("o", g2)
    c.check()
    return c


def late_critical_scc() -> SeqCircuit:
    """Three SCCs in a chain; only the last one holds the 5/2 loop."""
    c = SeqCircuit("late")
    a = c.add_pi("a")
    x = c.add_gate_placeholder("x", AND2)  # self-loop, ratio 1
    c.set_fanins(x, [(a, 0), (x, 1)])
    ys = [c.add_gate_placeholder(f"y{i}", AND2) for i in range(2)]
    c.set_fanins(ys[0], [(x, 0), (ys[1], 2)])  # 2-gate loop, ratio 1
    c.set_fanins(ys[1], [(ys[0], 0), (a, 0)])
    zs = [c.add_gate_placeholder(f"z{i}", AND2) for i in range(5)]
    c.set_fanins(zs[0], [(ys[1], 0), (zs[4], 2)])  # 5-gate loop, ratio 5/2
    for i in range(1, 5):
        c.set_fanins(zs[i], [(zs[i - 1], 0), (zs[0], 1)])
    c.add_po("o", zs[4])
    c.check()
    return c


class TestHowardDifferential:
    def test_parallel_pins_take_the_light_pin(self):
        c = parallel_pins()
        assert mdr_ratio(c) == 2
        assert_matches_oracles(c)

    def test_critical_scc_is_not_first(self):
        c = late_critical_scc()
        result = max_cycle_ratio(c)
        assert result.ratio == Fraction(5, 2)
        assert {c.name_of(v) for v, _w in result.cycle} == {
            f"z{i}" for i in range(5)
        }
        ratios = [r for r in result.group_ratios if r is not None]
        assert sorted(ratios) == [1, 1, Fraction(5, 2)]
        assert_matches_oracles(c)

    def test_registered_self_loops(self):
        c = SeqCircuit("selfloops")
        a = c.add_pi("a")
        g = c.add_gate_placeholder("g", AND2)
        c.set_fanins(g, [(a, 0), (g, 3)])  # ratio 1/3
        h = c.add_gate_placeholder("h", AND2)
        c.set_fanins(h, [(g, 0), (h, 1)])  # ratio 1
        c.add_po("o", h)
        c.check()
        result = max_cycle_ratio(c)
        assert result.ratio == 1
        assert result.cycle == [(h, 1)]
        assert_matches_oracles(c)

    def test_no_cycle_at_all(self):
        c = xor_chain(5)
        result = max_cycle_ratio(c)
        assert result.ratio is None and result.cycle == []
        assert set(result.group_ratios) == {None}
        assert result.bound == 1
        assert_matches_oracles(c)

    def test_three_hundred_random_circuits(self):
        for seed in range(300):
            c = random_seq_circuit(
                2 + seed % 4, 6 + seed % 30, seed=seed, feedback=seed % 8
            )
            assert_matches_oracles(c)
