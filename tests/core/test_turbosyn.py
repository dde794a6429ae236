"""End-to-end tests for TurboSYN, including the paper's Figure 1 story."""

import pytest

from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn
from repro.netlist.graph import SeqCircuit
from repro.retime.mdr import min_feasible_period
from repro.retime.pipeline import pipeline_and_retime
from repro.verify.equiv import simulation_equivalent, unrolled_equivalent
from tests.helpers import AND2, XOR2, random_seq_circuit


def and_ring(num_gates, num_ffs=1):
    """Decomposable loop: TurboSYN hoists the PI conjunction off the loop."""
    c = SeqCircuit("andring")
    xs = [c.add_pi(f"x{i}") for i in range(num_gates)]
    g = [c.add_gate_placeholder(f"g{i}", AND2) for i in range(num_gates)]
    for i in range(num_gates):
        w = num_ffs if i == 0 else 0
        c.set_fanins(g[i], [(g[(i - 1) % num_gates], w), (xs[i], 0)])
    c.add_po("o", g[-1])
    c.check()
    return c


def xor_ring(num_gates, num_ffs=1):
    c = SeqCircuit("xorring")
    xs = [c.add_pi(f"x{i}") for i in range(num_gates)]
    g = [c.add_gate_placeholder(f"g{i}", XOR2) for i in range(num_gates)]
    for i in range(num_gates):
        w = num_ffs if i == 0 else 0
        c.set_fanins(g[i], [(g[(i - 1) % num_gates], w), (xs[i], 0)])
    c.add_po("o", g[-1])
    c.check()
    return c


class TestBeatsTurboMap:
    def test_figure1_story_and_ring(self):
        """The paper's Figure 1 narrative: a critical loop whose external
        logic is decomposable lets TurboSYN reach MDR ratio 1 where
        structural mapping cannot."""
        c = and_ring(8)
        tm = turbomap(c, k=5)
        ts = turbosyn(c, k=5)
        assert tm.phi == 2
        assert ts.phi == 1
        # area cost, as the paper reports
        assert ts.n_luts >= tm.n_luts

    def test_xor_ring(self):
        c = xor_ring(8)
        tm = turbomap(c, k=5)
        ts = turbosyn(c, k=5)
        assert ts.phi < tm.phi

    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_turbomap(self, seed):
        c = random_seq_circuit(4, 18, seed=seed, feedback=4)
        tm = turbomap(c, k=4)
        ts = turbosyn(c, k=4)
        assert ts.phi <= tm.phi

    def test_resyn_stats_populated(self):
        ts = turbosyn(and_ring(8), k=5)
        stats = ts.total_stats
        assert stats.resyn_calls > 0
        assert stats.resyn_wins > 0


class TestMappedNetwork:
    def test_respects_phi(self):
        for seed in range(4):
            c = random_seq_circuit(4, 16, seed=seed)
            ts = turbosyn(c, k=4)
            assert min_feasible_period(ts.mapped) <= ts.phi

    def test_k_bounded(self):
        ts = turbosyn(and_ring(10), k=4)
        assert ts.mapped.is_k_bounded(4)

    def test_equivalence_exact(self):
        c = and_ring(5)
        ts = turbosyn(c, k=4)
        assert unrolled_equivalent(c, ts.mapped, cycles=3)

    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_simulation(self, seed):
        c = random_seq_circuit(4, 20, seed=seed, feedback=4)
        ts = turbosyn(c, k=4)
        assert simulation_equivalent(c, ts.mapped, cycles=60, warmup=12, seed=seed)

    def test_full_flow_with_retiming(self):
        c = and_ring(8)
        ts = turbosyn(c, k=5)
        pipe = pipeline_and_retime(ts.mapped)
        assert pipe.circuit.clock_period() <= ts.phi
        assert simulation_equivalent(
            c, pipe.circuit, cycles=60, warmup=16, po_lags=pipe.po_lags
        )


class TestOptions:
    def test_cmax_restricts_resynthesis(self):
        # Cmax = K disables useful wider cuts: TurboSYN degenerates to
        # roughly TurboMap on the AND ring.
        c = and_ring(8)
        narrow = turbosyn(c, k=5, cmax=5)
        wide = turbosyn(c, k=5, cmax=15)
        assert wide.phi <= narrow.phi

    def test_upper_bound_short_circuit(self):
        c = and_ring(8)
        ts = turbosyn(c, k=5, upper_bound=2)
        assert ts.phi == 1

    def test_extra_depth_never_hurts(self):
        c = and_ring(8)
        base = turbosyn(c, k=5, extra_depth=0)
        deep = turbosyn(c, k=5, extra_depth=2)
        assert deep.phi <= base.phi


class TestBoundRun:
    def test_bound_counters_outlive_the_bound_result(self, monkeypatch):
        """The result carries the TurboMap bound run's counters, and the
        bound's own result (mapped network, label vectors) is released
        before the main stage runs."""
        import weakref

        import repro.core.turbosyn as turbosyn_mod

        bounds = []
        released = []
        real_turbomap = turbosyn_mod.turbomap
        real_run_mapper = turbosyn_mod.run_mapper

        def bound_run(*args, **kwargs):
            result = real_turbomap(*args, **kwargs)
            bounds.append((weakref.ref(result), result.total_stats))
            return result

        def main_stage(*args, **kwargs):
            released.append(bounds[0][0]() is None)
            return real_run_mapper(*args, **kwargs)

        monkeypatch.setattr(turbosyn_mod, "turbomap", bound_run)
        monkeypatch.setattr(turbosyn_mod, "run_mapper", main_stage)
        result = turbosyn(and_ring(8), k=5)
        assert released == [True]
        assert result.bound_stats == bounds[0][1]
        assert result.bound_stats.flow_queries > 0


class TestSelfLoopResynthesis:
    """A gate whose decomposition reads its own label through a
    self-loop copy must be re-checked when that label rises.

    In a 24-bit ripple counter every bit reads itself through one
    register.  Skipping the riser itself when re-enqueueing
    resynthesis-justified gates left four labels below the definition
    (``cnt.bit20`` at 4 where the round-robin oracle gives 5), and
    mapping then found no realization for them.
    """

    @staticmethod
    def counter():
        from repro.bench.datapath import ripple_counter

        c = SeqCircuit("cnt")
        en = c.add_pi("en")
        for i, bit in enumerate(ripple_counter(c, "cnt", 24, (en, 0))):
            c.add_po(f"q{i}", bit)
        c.check()
        return c

    def test_labels_match_the_oracle(self):
        from repro.core.driver import make_resyn_hook
        from repro.core.labels import LabelSolver
        from tests.helpers import OracleLabelSolver

        c = self.counter()
        assert c.n_gates == 48
        got = LabelSolver(c, 5, 1, resyn_hook=make_resyn_hook()).run()
        want = OracleLabelSolver(c, 5, 1, resyn_hook=make_resyn_hook()).run()
        assert got.feasible and want.feasible
        assert got.labels == want.labels
        assert got.labels[c.id_of("cnt.bit20")] == 5

    def test_counter_maps_at_phi_one(self):
        result = turbosyn(self.counter(), 5)
        assert result.phi == 1
        assert result.n_luts == 45
