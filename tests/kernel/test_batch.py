"""Vectorized batch kernel: views, lifetime, and flow differentials.

Three contracts pinned here:

* **zero-copy views** — :func:`views_from_compiled` /
  :func:`views_from_blob` alias the CSR storage byte-for-byte, and
  views attached to a shared-memory segment stay readable after the
  publisher unlinks it (the ``keepalive`` holds the mapping open);
* **batched flow identity** — :func:`solve_batch` answers every query
  with exactly the cut :func:`cut_on_packed` computes, differentially
  against both scalar Dinic and Edmonds-Karp on ~200 seeded networks;
* **kernel resolution** — ``auto`` picks vector/compiled from the
  measured microbench envelope, and ``vector`` degrades to
  ``compiled`` without numpy.

Everything numpy-dependent skips cleanly when the ``[vector]`` extra
is absent — the module itself imports fine either way.
"""

import json
import multiprocessing
import pickle
import random

import pytest

from repro.kernel import batch
from repro.kernel.batch import (
    DEFAULT_CROSSOVER_NODES,
    ENVELOPE_ENV,
    crossover_nodes,
    resolve_kernel,
    solve_batch,
)
from repro.kernel.csr import compile_circuit
from repro.kernel.expand import PackedCutArena, PackedExpansion, cut_on_packed
from repro.kernel.share import publish_csr
from repro.perf.microbench import synthetic_expansion
from tests.helpers import random_seq_circuit

requires_numpy = pytest.mark.skipif(
    not batch.HAVE_NUMPY, reason="numpy not installed ([vector] extra)"
)


def _compiled(seed=3):
    return compile_circuit(random_seq_circuit(3, 14, seed=seed))


@requires_numpy
class TestCsrViews:
    def test_views_match_compiled(self):
        cc = _compiled()
        views = batch.views_from_compiled(cc)
        assert views.n == len(cc.kinds)
        assert views.shift == cc.shift and views.mask == cc.mask
        assert list(views.kinds) == list(cc.kinds)
        assert list(views.offsets) == list(cc.offsets)
        assert list(views.srcs) == list(cc.srcs)
        assert list(views.weights) == list(cc.weights)

    def test_views_from_blob_roundtrip(self):
        cc = _compiled(seed=4)
        views = batch.views_from_blob(cc.to_bytes())
        assert list(views.srcs) == list(cc.srcs)
        assert list(views.weights) == list(cc.weights)

    def test_blob_views_are_zero_copy(self):
        blob = bytearray(_compiled(seed=5).to_bytes())
        views = batch.views_from_blob(blob)
        before = int(views.kinds[0])
        # Poke the underlying buffer (the kinds array starts right
        # after the header): an aliasing view sees the write.
        blob[batch._HEADER.size] = (before + 1) % 3
        assert int(views.kinds[0]) != before
        views.close()

    def test_close_is_idempotent(self):
        views = batch.views_from_compiled(_compiled(seed=6))
        views.close()
        views.close()
        assert views.srcs is None


@requires_numpy
class TestAttachViewsLifetime:
    def _shm_handle(self, seed):
        handle = publish_csr(compile_circuit(random_seq_circuit(3, 12, seed=seed)))
        if handle.transport != "shm":
            handle.unlink()
            pytest.skip("publish_csr fell back to bytes transport")
        return handle

    def test_bytes_transport_views(self):
        cc = _compiled(seed=7)
        handle = publish_csr(cc, prefer_shm=False)
        try:
            views = handle.attach_views()
            assert list(views.srcs) == list(cc.srcs)
        finally:
            handle.unlink()

    def test_shm_views_survive_unlink(self):
        cc = compile_circuit(random_seq_circuit(3, 12, seed=8))
        handle = publish_csr(cc)
        if handle.transport != "shm":
            handle.unlink()
            pytest.skip("publish_csr fell back to bytes transport")
        received = pickle.loads(pickle.dumps(handle))
        views = received.attach_views()
        handle.unlink()  # publisher tears down while the views live
        # POSIX keeps the unlinked segment mapped via the keepalive:
        # every array must still read the published data.
        assert list(views.srcs) == list(cc.srcs)
        assert list(views.offsets) == list(cc.offsets)
        views.close()

    def test_shm_views_with_worker(self):
        handle = self._shm_handle(seed=9)
        try:
            ctx = multiprocessing.get_context("spawn")
            result = ctx.SimpleQueue()
            worker = ctx.Process(
                target=_worker_attach_views, args=(handle, result)
            )
            worker.start()
            checksum = result.get()
            worker.join(30)
            assert worker.exitcode == 0
            cc = handle.attach()
            assert checksum == sum(cc.srcs) + sum(cc.weights)
        finally:
            handle.unlink()

    def test_leaked_array_parks_owner(self):
        handle = self._shm_handle(seed=10)
        views = handle.attach_views()
        leaked = views.srcs  # user keeps an array past the views
        parked_before = len(batch._LEAKED_OWNERS)
        views.close()
        # The still-exported buffer blocks the owner close; it is parked
        # (valid until process exit) instead of raising at teardown.
        assert len(batch._LEAKED_OWNERS) == parked_before + 1
        assert int(leaked[0]) >= 0  # still readable
        handle.unlink()


def _worker_attach_views(handle, result) -> None:
    views = handle.attach_views()
    result.put(int(views.srcs.sum()) + int(views.weights.sum()))
    views.close()


@requires_numpy
class TestBatchedFlowDifferential:
    def test_three_way_200_networks(self):
        """Scalar Dinic vs batched Dinic vs EK on ~200 seeded networks.

        The cut is unique per network (canonical source-side residual
        min-cut), so all three must agree element-for-element.
        """
        rng = random.Random(20260808)
        dinic_arena = PackedCutArena(flow="dinic")
        ek_arena = PackedCutArena(flow="ek")
        batch_arena = batch.BatchCutArena()
        trial = 0
        while trial < 200:
            width = rng.randint(1, 12)
            queries = []
            for _ in range(width):
                nodes = rng.randint(8, 80)
                exp = synthetic_expansion(nodes, seed=rng.randint(0, 1 << 30))
                queries.append((exp, rng.randint(1, 5)))
                trial += 1
            scalar = [
                cut_on_packed(exp, lim, dinic_arena) for exp, lim in queries
            ]
            ek = [cut_on_packed(exp, lim, ek_arena) for exp, lim in queries]
            batched = solve_batch(queries, batch_arena)
            assert scalar == ek, f"trial {trial}"
            assert scalar == batched, f"trial {trial}"

    def test_mixed_feasible_infeasible_batch(self):
        exp = synthetic_expansion(40, seed=1)
        wide = cut_on_packed(exp, 1 << 20)
        assert wide is not None
        tight = max(0, len(wide) - 1)
        batched = solve_batch([(exp, 1 << 20), (exp, tight)])
        assert batched[0] == wide
        assert batched[1] == cut_on_packed(exp, tight)

    def test_blocked_expansion_is_rejected_by_add(self):
        blocked = PackedExpansion(root=0, shift=20, blocked=True)
        arena = batch.BatchCutArena()
        with pytest.raises(ValueError, match="blocked"):
            arena.add(blocked, 4)
        # ... and handled as a trivial None by the convenience wrapper.
        assert solve_batch([(blocked, 4)]) == [None]

    def test_empty_frontier_is_trivial_empty_cut(self):
        closed = PackedExpansion(root=0, shift=20, interior=[0])
        assert solve_batch([(closed, 4)]) == [[]]

    def test_counters_drain(self):
        arena = batch.BatchCutArena()
        solve_batch([(synthetic_expansion(32, seed=2), 3)], arena)
        phases, arcs = arena.drain_counters()
        assert phases >= 1 and arcs >= 1
        assert arena.drain_counters() == (0, 0)


class TestFrontierBatching:
    @requires_numpy
    @pytest.mark.parametrize("extra_depth", [0, 1])
    def test_only_expansions_with_candidates_are_stacked(self, extra_depth):
        # Batch prep answers candidate-free expansions (all of them at
        # extra_depth=0) from their frontier, as the scalar path does;
        # only expansions with candidate copies reach a stacked solve.
        from repro.bench import suite as bench_suite
        from repro.core.labels import LabelSolver

        circuit = bench_suite.build("bbara")
        runs = {
            kernel: LabelSolver(
                circuit, 5, 5, kernel=kernel, extra_depth=extra_depth
            ).run()
            for kernel in ("compiled", "vector")
        }
        vec, ref = runs["vector"], runs["compiled"]
        assert vec.labels == ref.labels
        assert vec.stats.flow_queries == ref.stats.flow_queries
        assert vec.stats.batched_queries > 0
        assert vec.stats.batch_rounds > 0
        assert (vec.stats.dinic_phases > 0) == (extra_depth > 0)


class TestKernelResolution:
    def _envelope(self, tmp_path, crossover):
        path = tmp_path / "BENCH_microbench.json"
        path.write_text(
            json.dumps(
                {"envelope": {"crossover": {"crossover_nodes": crossover}}}
            )
        )
        return str(path)

    def test_scalar_kernels_pass_through(self):
        assert resolve_kernel("compiled", 10_000) == "compiled"
        assert resolve_kernel("object", 10_000) == "object"

    def test_vector_without_numpy_degrades(self, monkeypatch):
        monkeypatch.setattr(batch, "HAVE_NUMPY", False)
        assert resolve_kernel("vector", 10_000) == "compiled"
        assert resolve_kernel("auto", 10_000) == "compiled"

    @requires_numpy
    def test_vector_with_numpy_stays_vector(self):
        assert resolve_kernel("vector", 4) == "vector"

    @requires_numpy
    def test_auto_uses_measured_crossover(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENVELOPE_ENV, self._envelope(tmp_path, 128))
        assert resolve_kernel("auto", 64) == "compiled"
        assert resolve_kernel("auto", 128) == "vector"
        assert resolve_kernel("auto", 4096) == "vector"

    @requires_numpy
    def test_auto_null_crossover_never_vectorizes(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENVELOPE_ENV, self._envelope(tmp_path, None))
        assert crossover_nodes() is None
        assert resolve_kernel("auto", 1 << 20) == "compiled"

    @requires_numpy
    def test_auto_without_envelope_uses_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENVELOPE_ENV, str(tmp_path / "missing.json"))
        assert crossover_nodes() == DEFAULT_CROSSOVER_NODES
        assert resolve_kernel("auto", DEFAULT_CROSSOVER_NODES) == "vector"
        assert resolve_kernel("auto", DEFAULT_CROSSOVER_NODES - 1) == "compiled"

    def test_malformed_envelope_uses_default(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert crossover_nodes(str(path)) == DEFAULT_CROSSOVER_NODES
