"""Speculative parallel probing of candidate clock periods.

The Figure-4 driver answers "is integer period ``phi`` feasible?" with
one full label computation per candidate — probes are completely
independent, and feasibility is *monotone* in ``phi`` (any mapping for
``phi`` works for ``phi + 1``).  Monotonicity makes speculation safe:
probe several candidates at once, and every answer — including the
"losing" speculative ones — still tightens the search interval and lands
in the shared outcome cache.

:func:`parallel_search_min_phi` is a drop-in replacement for
:func:`repro.core.driver.search_min_phi`: with ``workers`` processes it
replaces the binary search's log2 halving with a ``(workers+1)``-way
interval split per round, so the round count drops to
``log_{workers+1}(UB)`` while each round costs one slowest-probe wall
clock.  The returned ``phi`` and labels are identical to the sequential
search — only the set of *extra* probed values (and the wall clock)
differs.

Fault tolerance: a worker death (OOM kill, crash, injected fault) breaks
a ``ProcessPoolExecutor`` permanently — every pending future raises
``BrokenProcessPool``.  :class:`_ProbePool` absorbs that: answers
harvested before the break stay in the outcome cache, the pool is
rebuilt and only the lost probes are retried, with seeded capped
exponential backoff between restarts (:class:`RetryPolicy`).  After
``max_restarts`` failed pools the search degrades to the sequential
:func:`search_min_phi`, seeded with the outcome cache so no completed
probe is ever re-run.  A :class:`Budget` bounds everything in wall-clock
time; on expiry the best-known feasible ``phi`` is returned with the
budget marked exhausted.

Implementation notes: probes run in a ``ProcessPoolExecutor`` whose
initializer ships the circuit to each worker exactly once; the fork
start method is preferred when available so the circuit is inherited
by copy-on-write instead of pickled.  The circuit's compiled CSR arrays
are *published* once (shared-memory segment or
inline bytes, :mod:`repro.kernel.share`) and attached by each worker in
the initializer — the circuit pickle itself drops its derived caches
(:meth:`SeqCircuit.__getstate__`) and no worker recompiles the kernel.
Per-probe warm seeds travel as packed ``int32`` bytes instead of
pickled lists.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import CacheKey, OutcomeCache

from repro.core.driver import (
    infeasible_error,
    probe_phi,
    search_bounds,
    search_min_phi,
)
from repro.core.expanded import DEFAULT_MAX_COPIES
from repro.core.labels import LabelOutcome
from repro.core.seqdecomp import DEFAULT_CMAX
from repro.kernel.share import CsrHandle, pack_labels, publish_csr, unpack_labels
from repro.netlist.graph import SeqCircuit
from repro.netlist.validate import ensure_mappable
from repro.resilience.budget import (
    Budget,
    BudgetExhausted,
    DeadlineExpired,
    ProbeTimeout,
)
from repro.resilience.retry import RetryPolicy

#: Per-process probe context installed by the pool initializer:
#: ``(circuit, k, resynthesize, cmax, pld, extra_depth, io_constrained,
#: probe_timeout, max_copies)``.
_WORKER_ARGS: Optional[tuple] = None


class _PoolGivenUp(Exception):
    """Internal: too many pool failures; degrade to sequential probing."""


def _init_worker(
    circuit: SeqCircuit,
    k: int,
    resynthesize: bool,
    cmax: int,
    pld: bool,
    extra_depth: int,
    io_constrained: bool,
    probe_timeout: Optional[float],
    max_copies: int,
    csr_handle: Optional[CsrHandle] = None,
) -> None:
    global _WORKER_ARGS
    if csr_handle is not None and circuit._compiled is None:
        # Spawned workers receive the circuit without its derived caches
        # (SeqCircuit.__getstate__); the compiled kernel arrives through
        # the published handle instead of being recompiled per worker.
        # Forked workers inherit the parent's compiled arrays by
        # copy-on-write and skip the attach.
        circuit.adopt_compiled(csr_handle.attach())
    _WORKER_ARGS = (
        circuit, k, resynthesize, cmax, pld, extra_depth, io_constrained,
        probe_timeout, max_copies,
    )


def _probe_worker(
    phi: int, seed_blob: Optional[bytes] = None
) -> Tuple[int, LabelOutcome]:
    assert _WORKER_ARGS is not None, "worker used before initialization"
    (circuit, k, resynthesize, cmax, pld, extra_depth, io_constrained,
     probe_timeout, max_copies) = _WORKER_ARGS
    # The timeout is anchored inside probe_phi: it covers label-
    # computation time, not time spent queued in the pool.  The warm
    # seed travels with the task as packed int32 bytes (the shared
    # outcome cache lives in the parent process).
    outcome = probe_phi(
        circuit,
        k,
        phi,
        resynthesize,
        cmax=cmax,
        pld=pld,
        extra_depth=extra_depth,
        io_constrained=io_constrained,
        timeout=probe_timeout,
        seed_labels=unpack_labels(seed_blob),
        max_copies=max_copies,
    )
    return phi, outcome


def _spread(lo: int, hi: int, count: int) -> List[int]:
    """Up to ``count`` distinct split points of ``[lo, hi]``, ``hi`` included.

    Evenly spaced so each round's answers cut the interval to roughly
    ``1/(count+1)`` of its size regardless of where the optimum sits.
    """
    span = hi - lo
    count = max(1, min(count, span + 1))
    return sorted({lo + (span * (i + 1)) // count for i in range(count)})


def _pool_context():
    """Prefer fork (cheap circuit shipping); fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return None


class _ProbePool:
    """A restartable probe pool: survives worker death, retries lost probes.

    ``probe_all`` harvests answers into the shared ``outcomes`` cache as
    they complete, so a pool break loses only the probes still in
    flight.  Each ``BrokenProcessPool`` recycles the pool (counted on
    ``budget.attempts``) after a deterministic backoff delay; once
    ``policy.max_restarts`` restarts have been burned, ``_PoolGivenUp``
    tells the caller to degrade to the sequential search.
    """

    def __init__(
        self,
        initargs: tuple,
        workers: int,
        budget: Optional[Budget],
        policy: RetryPolicy,
        warm_start: bool = True,
        csr_handle: Optional[CsrHandle] = None,
        owns_handle: bool = True,
        cache: Optional["OutcomeCache"] = None,
        cache_key: Optional["CacheKey"] = None,
    ) -> None:
        self._initargs = initargs
        self._workers = workers
        self._budget = budget
        self._policy = policy
        self._warm_start = warm_start
        # Persistent outcome store (probe adoption, warm seeds, write-
        # through); lives in the parent process only — workers receive
        # seeds with their task and return plain outcomes.
        self._cache = cache
        self._cache_key = cache_key
        self._cache_seeded: Set[int] = set()
        # Owner side of the published compiled circuit; must outlive
        # every pool restart (the same handle re-initializes rebuilt
        # pools).  When owned it is released exactly once, on shutdown;
        # a caller-provided handle (the serve scheduler publishing a
        # stored blob shared across jobs) is left alone.
        self._csr_handle = csr_handle
        self._owns_handle = owns_handle
        self._pool: Optional[ProcessPoolExecutor] = None
        self.failures = 0

    def _ensure(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=self._initargs,
            )
        return self._pool

    def _recycle(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def shutdown(self) -> None:
        self._recycle()
        if self._csr_handle is not None and self._owns_handle:
            self._csr_handle.unlink()

    def _on_broken_pool(self) -> None:
        self._recycle()
        self.failures += 1
        if self._budget is not None:
            self._budget.attempts += 1
            self._budget.note("pool_restart", failures=self.failures)
        if self.failures > self._policy.max_restarts:
            raise _PoolGivenUp()
        time.sleep(self._policy.delay(self.failures))

    def _adopt_cached(
        self, phi: int, outcomes: Dict[int, LabelOutcome]
    ) -> bool:
        """Serve ``phi`` from the persistent store instead of a worker."""
        if self._cache is None:
            return False
        cached = self._cache.get_outcome(self._cache_key, phi)
        if cached is None:
            return False
        cached.stats.outcome_cache_hits = 1
        cached.stats.cache_probes_skipped = 1
        outcomes[phi] = cached
        return True

    def _seed_blob(
        self, phi: int, outcomes: Dict[int, LabelOutcome]
    ) -> Optional[bytes]:
        """The warm seed shipped with a probe task, as packed int32.

        The persistent store competes with in-run outcomes for the
        tightest feasible label set above ``phi`` (a tighter seed is
        strictly less solver work; the verdict is unchanged either
        way)."""
        if not self._warm_start:
            return None
        in_run_best = min(
            (p for p, o in outcomes.items() if p > phi and o.feasible),
            default=None,
        )
        if self._cache is not None and (
            in_run_best is None or in_run_best > phi + 1
        ):
            found = self._cache.nearest_seed(self._cache_key, phi)
            if found is not None and (
                in_run_best is None or found[0] < in_run_best
            ):
                self._cache_seeded.add(phi)
                return pack_labels(found[1])
        if in_run_best is None:
            return None
        return pack_labels(outcomes[in_run_best].labels)

    def probe_all(
        self, phis: List[int], outcomes: Dict[int, LabelOutcome]
    ) -> Dict[int, bool]:
        """Answer every ``phi`` in ``phis``, retrying through pool failures.

        Each submission carries the warm seed visible in the outcome
        cache *at submission time* — answers from earlier rounds warm
        later rounds' probes, exactly like the sequential search (a
        probe in flight cannot seed a sibling of the same round).
        Candidates answered by the persistent store never reach a
        worker at all; fresh answers are written through to it.
        """
        missing = [p for p in phis if p not in outcomes]
        missing = [p for p in missing if not self._adopt_cached(p, outcomes)]
        while missing:
            if self._budget is not None:
                self._budget.check()
            pool = self._ensure()
            try:
                pending = {
                    pool.submit(_probe_worker, p, self._seed_blob(p, outcomes))
                    for p in missing
                }
                while pending:
                    timeout = None
                    if self._budget is not None:
                        timeout = self._budget.remaining()
                        if timeout is not None and timeout <= 0:
                            raise DeadlineExpired(
                                "wall-clock budget exhausted while waiting "
                                "for probe results"
                            )
                    done, pending = wait(
                        pending, timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    if not done:  # the deadline passed with probes in flight
                        raise DeadlineExpired(
                            "wall-clock budget exhausted while waiting for "
                            "probe results"
                        )
                    for future in done:
                        phi, outcome = future.result()
                        if phi in self._cache_seeded:
                            self._cache_seeded.discard(phi)
                            outcome.stats.cache_seeds = 1
                        outcomes[phi] = outcome
                        if self._cache is not None:
                            self._cache.put_outcome(
                                self._cache_key, phi, outcome
                            )
                missing = []
            except BrokenProcessPool:
                # Answers already harvested stay cached; retry the rest.
                missing = [p for p in missing if p not in outcomes]
                self._on_broken_pool()
            except (DeadlineExpired, ProbeTimeout):
                self._recycle()
                raise
        return {p: outcomes[p].feasible for p in phis}


def parallel_search_min_phi(
    circuit: SeqCircuit,
    k: int,
    upper_bound: int,
    resynthesize: bool,
    workers: Optional[int] = None,
    cmax: int = DEFAULT_CMAX,
    pld: bool = True,
    extra_depth: int = 0,
    io_constrained: bool = False,
    budget: Optional[Budget] = None,
    retry: Optional[RetryPolicy] = None,
    warm_start: bool = True,
    max_copies: int = DEFAULT_MAX_COPIES,
    csr_handle: Optional[CsrHandle] = None,
    cache: Optional["OutcomeCache"] = None,
    cache_key: Optional["CacheKey"] = None,
) -> Tuple[int, Dict[int, LabelOutcome]]:
    """Find the minimum feasible ``phi`` with speculative parallel probes.

    Returns the same ``(phi_min, outcomes)`` contract as
    :func:`repro.core.driver.search_min_phi`; ``outcomes`` additionally
    contains every speculative probe that ran.  ``workers=None`` uses the
    CPU count; ``workers<=1`` delegates to the sequential search.

    ``budget`` bounds the search in wall-clock time (degrading to the
    best-known feasible answer on expiry, raising
    :class:`BudgetExhausted` when there is none); ``retry`` governs
    worker-pool restarts after ``BrokenProcessPool`` failures, after
    which the search falls back to sequential probing seeded with the
    outcome cache.  ``warm_start`` / ``max_copies`` are the label options
    of :func:`repro.core.driver.search_min_phi`; warm seeds ship with
    each submitted probe task as packed ``int32`` bytes, and the
    circuit's compiled arrays are published to the workers once
    (:func:`repro.kernel.share.publish_csr`).

    ``csr_handle`` supplies an already-published compiled-circuit
    handle; the caller keeps ownership (it is not unlinked here), so a
    service can publish a stored blob once for many searches.

    ``cache`` + ``cache_key`` attach the persistent outcome store
    (:mod:`repro.cache`): spread candidates with a cached verdict are
    adopted without reaching a worker, cached feasible outcomes compete
    as warm seeds, fresh answers are written through, and cached
    infeasible verdicts raise the search's starting ``lo`` — the same
    trajectory-preserving integration as the sequential search.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1:
        return search_min_phi(
            circuit,
            k,
            upper_bound,
            resynthesize,
            cmax=cmax,
            pld=pld,
            extra_depth=extra_depth,
            io_constrained=io_constrained,
            budget=budget,
            warm_start=warm_start,
            max_copies=max_copies,
            cache=cache,
            cache_key=cache_key,
        )
    ensure_mappable(circuit, k)
    if budget is not None:
        budget.start()
    policy = retry if retry is not None else RetryPolicy()
    outcomes: Dict[int, LabelOutcome] = {}
    probe_timeout = budget.probe_timeout if budget is not None else None
    owns_handle = csr_handle is None
    if csr_handle is None:
        csr_handle = publish_csr(circuit.compiled())
    runner = _ProbePool(
        (circuit, k, resynthesize, cmax, pld, extra_depth, io_constrained,
         probe_timeout, max_copies, csr_handle),
        workers,
        budget,
        policy,
        warm_start=warm_start,
        csr_handle=csr_handle,
        owns_handle=owns_handle,
        cache=cache,
        cache_key=cache_key,
    )
    top, ceiling = search_bounds(circuit, upper_bound, io_constrained)
    lo = 1
    if cache is not None and cache_key is not None:
        # Cached infeasible verdicts (probe-verified by the runs that
        # wrote them) put the optimum strictly above all of them.
        lo = max(lo, cache.verified_floor(cache_key))
    best: Optional[int] = None  # smallest phi known feasible
    try:
        # Establish a feasible upper end.  The first round already splits
        # [lo, top] instead of probing only `top`, so when the given bound
        # is feasible (the common case: it comes from a valid mapping) the
        # narrowing starts immediately; when it is not, answers below
        # `top` were infeasible too and the doubling continues upward.
        while best is None:
            results = runner.probe_all(_spread(lo, top, workers), outcomes)
            feasible = [p for p, ok in results.items() if ok]
            infeasible = [p for p, ok in results.items() if not ok]
            if feasible:
                best = min(feasible)
            if infeasible:
                lo = max(lo, max(infeasible) + 1)
            if best is None:
                if top >= ceiling:
                    raise infeasible_error(circuit, top)
                top = min(2 * top, ceiling)
        # Multi-way narrowing of [lo, best).
        while lo < best:
            results = runner.probe_all(_spread(lo, best - 1, workers), outcomes)
            for p, ok in results.items():
                if ok:
                    best = min(best, p)
                else:
                    lo = max(lo, p + 1)
        return best, outcomes
    except _PoolGivenUp:
        # Too many pool failures: degrade to the sequential search, which
        # re-uses every completed probe through the seeded outcome cache.
        if budget is not None:
            budget.attempts += 1
            budget.note("sequential_fallback", failures=runner.failures)
        return search_min_phi(
            circuit,
            k,
            upper_bound,
            resynthesize,
            cmax=cmax,
            pld=pld,
            extra_depth=extra_depth,
            io_constrained=io_constrained,
            budget=budget,
            outcomes=outcomes,
            warm_start=warm_start,
            max_copies=max_copies,
            cache=cache,
            cache_key=cache_key,
        )
    except (DeadlineExpired, ProbeTimeout) as exc:
        if budget is None or best is None:
            raise BudgetExhausted(
                f"{circuit.name}: budget exhausted before any feasible "
                f"phi was found ({exc})"
            ) from exc
        budget.exhaust(exc)
        return best, outcomes
    finally:
        runner.shutdown()
