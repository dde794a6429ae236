"""End-to-end bit-identity across the engine matrix.

The acceptance bar of the kernel layer: ``dinic+compiled`` (the new
default) must produce byte-for-byte the same labels, phi, and mappings
as ``ek+object`` (the original engine), with identical deterministic
work counters where the engines share them.
"""

import pytest

from repro.bench import suite as bench_suite
from repro.compat import HAVE_NUMPY
from repro.core.labels import LabelSolver
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn

MATRIX = [
    ("ek", "object"),
    ("ek", "compiled"),
    ("dinic", "object"),
    ("dinic", "compiled"),
]

requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed ([vector] extra)"
)


def _min_phi(circuit, k=5):
    phi = 1
    while True:
        if LabelSolver(circuit, k, phi, flow="ek", kernel="object").run().feasible:
            return phi
        phi += 1


class TestLabelIdentity:
    @pytest.mark.parametrize("name", ["bbara", "dk16", "s838"])
    def test_labels_identical_across_matrix(self, name):
        circuit = bench_suite.build(name)
        k = 5
        phi = _min_phi(circuit, k)
        reference = None
        for flow, kernel in MATRIX:
            outcome = LabelSolver(
                circuit, k, phi, flow=flow, kernel=kernel
            ).run()
            assert outcome.feasible
            if reference is None:
                reference = outcome
                continue
            tag = f"{flow}+{kernel}"
            assert outcome.labels == reference.labels, tag
            # The memo/guard logic is shared across kernels, so the
            # engine-independent work counters must match exactly.
            assert outcome.stats.flow_queries == reference.stats.flow_queries, tag
            assert outcome.stats.cache_hits == reference.stats.cache_hits, tag
            assert outcome.stats.updates == reference.stats.updates, tag

    def test_infeasible_phi_agrees(self):
        circuit = bench_suite.build("bbara")
        k = 5
        phi = _min_phi(circuit, k)
        if phi == 1:
            pytest.skip("already feasible at phi=1")
        for flow, kernel in MATRIX:
            outcome = LabelSolver(
                circuit, k, phi - 1, flow=flow, kernel=kernel
            ).run()
            assert not outcome.feasible, f"{flow}+{kernel}"

    def test_dinic_counters_populate_only_under_dinic(self):
        # extra_depth=1: at 0 every cut is a frontier answer and no flow
        # engine runs at all.
        circuit = bench_suite.build("bbara")
        phi = _min_phi(circuit)
        dinic = LabelSolver(circuit, 5, phi, flow="dinic", extra_depth=1).run()
        ek = LabelSolver(circuit, 5, phi, flow="ek", extra_depth=1).run()
        assert dinic.stats.dinic_phases > 0
        assert dinic.stats.arcs_advanced > 0
        assert ek.stats.dinic_phases == 0
        assert ek.stats.arcs_advanced == 0

    def test_engines_validate_arguments(self):
        circuit = bench_suite.build("bbara")
        with pytest.raises(ValueError, match="flow"):
            LabelSolver(circuit, 5, 3, flow="bogus")
        with pytest.raises(ValueError, match="kernel"):
            LabelSolver(circuit, 5, 3, kernel="bogus")


class TestFullMatrixIdentity:
    """2 engines x 2 flows x 3 kernels: every combination bit-identical.

    Labels (and phi feasibility) are identical across the *whole*
    matrix; the deterministic work counters are identical within each
    label engine (worklist and rounds schedule different update
    sequences, so their counters differ from each other by design —
    but not across flows or kernels).
    """

    @requires_numpy
    @pytest.mark.parametrize("name", ["bbara", "dk16"])
    def test_engine_flow_kernel_sweep(self, name):
        circuit = bench_suite.build(name)
        k = 5
        phi = _min_phi(circuit, k)
        reference = None
        for engine in ("worklist", "rounds"):
            engine_ref = None
            for flow in ("dinic", "ek"):
                for kernel in ("compiled", "object", "vector"):
                    tag = f"{engine}/{flow}+{kernel}"
                    outcome = LabelSolver(
                        circuit, k, phi,
                        engine=engine, flow=flow, kernel=kernel,
                    ).run()
                    assert outcome.feasible, tag
                    if reference is None:
                        reference = outcome
                    assert outcome.labels == reference.labels, tag
                    if engine_ref is None:
                        engine_ref = outcome
                        continue
                    ref = engine_ref.stats
                    stats = outcome.stats
                    assert stats.rounds == ref.rounds, tag
                    assert stats.updates == ref.updates, tag
                    assert stats.flow_queries == ref.flow_queries, tag
                    assert stats.cache_hits == ref.cache_hits, tag
                    assert stats.pld_checks == ref.pld_checks, tag

    @requires_numpy
    def test_batch_counters_populate_only_under_vector(self):
        circuit = bench_suite.build("bbara")
        phi = _min_phi(circuit)
        vec = LabelSolver(circuit, 5, phi, kernel="vector").run()
        scalar = LabelSolver(circuit, 5, phi, kernel="compiled").run()
        assert vec.stats.batched_queries > 0
        assert vec.stats.batch_rounds > 0
        assert scalar.stats.batched_queries == 0
        assert scalar.stats.prefilter_hits == 0
        assert scalar.stats.batch_rounds == 0

    @requires_numpy
    def test_prefilter_hits_at_infeasible_phi(self):
        # The witness prefilter consumes re-validated witness cuts — a
        # worklist-engine path that only gets exercised while labels
        # are still climbing, i.e. at an infeasible phi.
        circuit = bench_suite.build("bbara")
        phi = _min_phi(circuit)
        assert phi > 1, "bbara must be infeasible below its optimum"
        vec = LabelSolver(circuit, 5, phi - 1, kernel="vector").run()
        ref = LabelSolver(circuit, 5, phi - 1, kernel="compiled").run()
        assert not vec.feasible and not ref.feasible
        assert vec.labels == ref.labels
        assert vec.stats.prefilter_hits > 0
        assert vec.stats.flow_queries == ref.stats.flow_queries
        assert vec.stats.cache_hits == ref.stats.cache_hits

    def test_auto_kernel_resolves_to_concrete_kernel(self):
        solver = LabelSolver(bench_suite.build("bbara"), 5, 3, kernel="auto")
        assert solver.kernel in ("compiled", "vector")

    def test_vector_without_numpy_is_still_accepted(self, monkeypatch):
        # The degradation path: "vector" resolves through the batch
        # module, which maps it to "compiled" when numpy is missing.
        import repro.kernel.batch as batch

        monkeypatch.setattr(batch, "HAVE_NUMPY", False)
        solver = LabelSolver(bench_suite.build("bbara"), 5, 3, kernel="vector")
        assert solver.kernel == "compiled"

    @requires_numpy
    def test_turbomap_vector_kernel_matches(self):
        vec = turbomap(
            bench_suite.build("bbara"), 5, check=False, kernel="vector"
        )
        ref = turbomap(bench_suite.build("bbara"), 5, check=False)
        assert vec.phi == ref.phi
        assert vec.n_luts == ref.n_luts
        assert sorted(vec.outcomes) == sorted(ref.outcomes)


class TestMapperIdentity:
    def test_turbomap_matches_reference_engine(self):
        new = turbomap(bench_suite.build("bbara"), 5, check=False)
        old = turbomap(
            bench_suite.build("bbara"), 5, check=False,
            flow="ek", kernel="object",
        )
        assert new.phi == old.phi
        assert new.n_luts == old.n_luts
        assert sorted(new.outcomes) == sorted(old.outcomes)

    def test_turbosyn_matches_reference_engine(self):
        new = turbosyn(bench_suite.build("dk16"), 5, check=False)
        old = turbosyn(
            bench_suite.build("dk16"), 5, check=False,
            flow="ek", kernel="object",
        )
        assert new.phi == old.phi
        assert new.n_luts == old.n_luts

    def test_rounds_engine_accepts_kernel(self):
        res = turbomap(
            bench_suite.build("bbara"), 5, check=False,
            engine="rounds", flow="dinic", kernel="compiled",
        )
        ref = turbomap(
            bench_suite.build("bbara"), 5, check=False,
            engine="rounds", flow="ek", kernel="object",
        )
        assert res.phi == ref.phi
        assert res.n_luts == ref.n_luts
