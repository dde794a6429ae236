"""Shared driver: binary search of the minimum feasible clock period.

Implements the skeleton of the paper's Figure 4: obtain an upper bound
``UB`` on the minimum MDR ratio, binary search integer ``phi`` in
``[1, UB]`` running the label computation per candidate, then regenerate
the mapping at the optimum.  Feasibility is monotone in ``phi`` (any
mapping for ``phi`` is a mapping for ``phi + 1``), which justifies the
search.

``turbomap`` uses the MDR ratio of the *unmapped* network (the identity
mapping) as its upper bound; ``turbosyn`` starts from TurboMap's optimum,
exactly as the paper prescribes.

Each candidate ``phi`` is answered by :func:`probe_phi`, a module-level
function so worker processes can run probes too: the speculative
parallel search in :mod:`repro.perf.parallel` probes several candidates
concurrently and :func:`run_mapper` dispatches to it when ``workers > 1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.core.expanded import DEFAULT_MAX_COPIES
from repro.core.labels import (
    DirtySeed,
    LabelOutcome,
    LabelSolver,
    LabelStats,
    ResynHook,
)
from repro.core.mapping import Realization, generate_mapping
from repro.core.seqdecomp import (
    DEFAULT_CMAX,
    ResynMemo,
    find_seq_resynthesis,
)
from repro.netlist.graph import SeqCircuit
from repro.netlist.validate import ensure_mappable
from repro.resilience.budget import (
    Budget,
    BudgetExhausted,
    DeadlineExpired,
    ProbeTimeout,
)
from repro.resilience.faultinject import fault_point
from repro.retime.mdr import min_feasible_period

if TYPE_CHECKING:  # pragma: no cover - typing only (no runtime cycle)
    from repro.cache.store import CacheKey, OutcomeCache


@dataclass
class SeqMapResult:
    """Result of a sequential mapping run (TurboMap or TurboSYN)."""

    algorithm: str
    phi: int  # minimum feasible MDR ratio / clock period found
    mapped: SeqCircuit
    labels: "list[int]"
    #: label outcome per phi probed during the binary search
    outcomes: Dict[int, LabelOutcome] = field(default_factory=dict)
    #: wall-clock seconds spent searching phi / regenerating the mapping /
    #: verifying the invariants of the produced mapping
    t_search: float = 0.0
    t_mapping: float = 0.0
    t_verify: float = 0.0
    #: probe processes used by the phi search (1 = sequential)
    workers: int = 1
    #: the search budget expired: ``phi`` is the best *known* feasible
    #: period, an upper bound on (not necessarily equal to) the optimum
    degraded: bool = False
    #: why the run degraded (``"deadline"`` / ``"probe_timeout"``)
    degraded_reason: Optional[str] = None
    #: executions of the search backend: 1 + worker-pool restarts
    #: (+1 when the search fell back to sequential probing)
    attempts: int = 1
    #: structured trace of recovery events (:class:`Budget` ``events``)
    resilience_events: "list[dict]" = field(default_factory=list)
    #: machine-readable verification summary
    #: (:func:`repro.analysis.certificate`); ``None`` when verification
    #: was opted out of.
    certificate: Optional[dict] = None
    #: the phi search repaired a previous result incrementally
    #: (:mod:`repro.incremental`) instead of probing cold
    incremental: bool = False

    @property
    def n_luts(self) -> int:
        return self.mapped.n_gates

    @property
    def t_total(self) -> float:
        return self.t_search + self.t_mapping + self.t_verify

    @property
    def total_stats(self) -> LabelStats:
        total = LabelStats()
        for outcome in self.outcomes.values():
            total.merge(outcome.stats)
        return total


def make_resyn_hook(cmax: int = DEFAULT_CMAX) -> ResynHook:
    """A TurboSYN resynthesis hook bound to a ``Cmax`` input budget.

    The hook runs right after a failed K-cut check at threshold
    ``big_l``, so the solver's cached partial expansion for ``(v,
    big_l)`` is still valid — it is handed to the resynthesis search,
    whose first (``h = 0``) min-cut query would otherwise rebuild the
    identical expansion.  The search's cut queries run on the solver's
    own cut arena.

    Each hook owns a :data:`~repro.core.seqdecomp.ResynMemo` for the one
    label run it serves (:func:`probe_phi` builds a hook per probe), so
    the memo needs no invalidation and dies with the probe.
    """
    memo: ResynMemo = {}

    def hook(solver: LabelSolver, v: int, big_l: int) -> bool:
        expansion = solver.expansion_for(v, big_l)
        if expansion is not None:
            solver.stats.expansions_reused += 1
        entry = find_seq_resynthesis(
            solver.circuit,
            v,
            solver.phi,
            solver.labels,
            big_l,
            solver.k,
            cmax,
            solver.extra_depth,
            first_expansion=expansion,
            max_copies=solver.max_copies,
            memo=memo,
            arena=solver.arena,
        )
        return entry is not None

    return hook


def nearest_warm_seed(
    outcomes: Dict[int, LabelOutcome], phi: int
) -> Optional[List[int]]:
    """Labels of the nearest feasible cached outcome at a period above
    ``phi``, or ``None``.

    Labels are antitone in phi (a smaller target period can only raise
    them), so a *converged* label set at ``phi2 > phi`` is a valid lower
    bound for the probe at ``phi`` — the descending binary search seeds
    each probe from the tightest such outcome instead of cold-starting
    every gate at ``l = 1``.
    """
    best: Optional[int] = None
    for cached_phi, outcome in outcomes.items():
        if cached_phi > phi and outcome.feasible:
            if best is None or cached_phi < best:
                best = cached_phi
    return outcomes[best].labels if best is not None else None


def probe_phi(
    circuit: SeqCircuit,
    k: int,
    phi: int,
    resynthesize: bool,
    cmax: int = DEFAULT_CMAX,
    pld: bool = True,
    extra_depth: int = 0,
    io_constrained: bool = False,
    timeout: Optional[float] = None,
    seed_labels: Optional[List[int]] = None,
    max_copies: int = DEFAULT_MAX_COPIES,
    dirty_seed: Optional[DirtySeed] = None,
) -> LabelOutcome:
    """One feasibility query: run the label computation at ``phi``.

    Self-contained (no closures) so it can execute in a worker process.
    ``timeout`` (seconds, measured from the start of this call) bounds
    the label computation cooperatively; on expiry
    :class:`ProbeTimeout` is raised in whichever process runs the probe.
    ``seed_labels`` warm-starts the solver from a converged label set of
    a larger period (see :func:`nearest_warm_seed`) and ``max_copies``
    bounds each partial expansion.  ``dirty_seed`` repairs a previous
    fixpoint at the same phi incrementally
    (:class:`repro.core.labels.DirtySeed`) — still bit-identical to a
    cold probe.
    """
    fault_point("probe", tag=f"{circuit.name}:phi={phi}")
    deadline = time.monotonic() + timeout if timeout is not None else None
    hook: Optional[ResynHook] = make_resyn_hook(cmax) if resynthesize else None
    solver = LabelSolver(
        circuit,
        k,
        phi,
        resyn_hook=hook,
        pld=pld,
        extra_depth=extra_depth,
        io_constrained=io_constrained,
        deadline=deadline,
        seed_labels=seed_labels,
        max_copies=max_copies,
        dirty_seed=dirty_seed,
    )
    return solver.run()


def default_upper_bound(circuit: SeqCircuit) -> int:
    """The Figure-4 search's default bound: ``max(1, ceil(MDR))``.

    Note ``ceil(MDR)`` of the *unmapped* network bounds the optimum
    from **above** (the identity mapping achieves it; mapping only
    compresses cycle delay), which is why it seeds ``hi``.  The
    search's verified *floor* comes from cached infeasible probe
    verdicts instead (see ``cache`` in :func:`search_min_phi`).
    """
    return min_feasible_period(circuit)


def search_bounds(
    circuit: SeqCircuit, upper_bound: int, io_constrained: bool
) -> "tuple[int, int]":
    """Initial ``(hi, ceiling)`` of the phi search (shared with parallel)."""
    hi = max(1, upper_bound)
    ceiling = max(1, circuit.n_gates)
    if io_constrained:
        # I/O paths count: the unretimed identity mapping's clock period
        # is always attainable, so it bounds the search (and the optimum
        # can exceed the loop-only MDR bound).
        hi = max(hi, circuit.clock_period())
        ceiling = max(ceiling, hi)
    return hi, ceiling


def infeasible_error(circuit: SeqCircuit, phi: int) -> RuntimeError:
    return RuntimeError(
        f"{circuit.name}: labels infeasible even at phi={phi}; "
        "the input may contain a combinational cycle"
    )


def search_min_phi(
    circuit: SeqCircuit,
    k: int,
    upper_bound: int,
    resynthesize: bool,
    cmax: int = DEFAULT_CMAX,
    pld: bool = True,
    extra_depth: int = 0,
    io_constrained: bool = False,
    budget: Optional[Budget] = None,
    outcomes: Optional[Dict[int, LabelOutcome]] = None,
    warm_start: bool = True,
    max_copies: int = DEFAULT_MAX_COPIES,
    prev_outcomes: Optional[Dict[int, LabelOutcome]] = None,
    dirty: Optional[Set[int]] = None,
    cache: Optional["OutcomeCache"] = None,
    cache_key: Optional["CacheKey"] = None,
) -> "tuple[int, Dict[int, LabelOutcome]]":
    """Binary search the minimum feasible integer ``phi``.

    Returns ``(phi_min, outcomes)``; raises ``RuntimeError`` if even the
    gate count (a trivially sufficient period) is infeasible, which would
    indicate a solver bug rather than a hard instance.

    ``budget`` bounds the search in wall-clock time: it is consulted
    before every uncached probe and hands each probe its deadline.  On
    expiry the search returns the best *known* feasible ``phi`` (an
    upper bound on the optimum) with ``budget.exhausted`` set, or raises
    :class:`BudgetExhausted` when no feasible period was found yet.

    ``outcomes`` seeds the probe cache (used by the parallel search's
    sequential fallback so completed probes are never re-run); it is
    mutated in place and returned.

    ``warm_start`` (default on) seeds every probe from the nearest
    feasible cached outcome at a larger period — labels are antitone in
    phi, so those labels are valid lower bounds and the probe skips the
    raises a cold start would recompute.  The returned ``phi_min`` and
    its labels are identical either way; only the per-probe work drops.

    ``prev_outcomes`` + ``dirty`` enable incremental repair
    (:mod:`repro.incremental`): when a probe lands on a phi whose
    previous outcome was *feasible*, the solver is handed a
    :class:`DirtySeed` so every label outside the dirty region is
    adopted verbatim and clean SCCs are skipped.  Verdicts and labels
    stay bit-identical, so the search trajectory matches a cold run.

    ``cache`` + ``cache_key`` consult the persistent outcome store
    (:mod:`repro.cache`) exactly where the in-run ``outcomes`` dict is
    consulted: a cached verdict is adopted instead of probing
    (``outcome_cache_hits`` / ``cache_probes_skipped``), a cached
    feasible outcome at a larger phi competes with in-run outcomes as
    the warm seed (``cache_seeds``), every fresh probe is written
    through, and a midpoint below the cached *infeasible* verdicts'
    floor is answered infeasible without a probe.  Feasibility being
    monotone in phi makes all of this trajectory-preserving: the search
    visits the phis a cold run visits, and phi and its labels stay
    bit-identical to a cold run.
    """
    ensure_mappable(circuit, k)
    if budget is not None:
        budget.start()
    if outcomes is None:
        outcomes = {}

    use_cache = cache is not None and cache_key is not None

    def probe(phi: int) -> bool:
        # Consult the in-run cache: the doubling phase may already have
        # answered a value the binary search lands on again (e.g. the
        # original upper bound after it proved infeasible).
        if phi not in outcomes:
            if use_cache:
                cached = cache.get_outcome(cache_key, phi)
                if cached is not None:
                    # Adopt the persisted verdict instead of probing.
                    # The synthesized stats carry only the saved-work
                    # counters — never the solver counters of the run
                    # that wrote the entry.
                    cached.stats.outcome_cache_hits = 1
                    cached.stats.cache_probes_skipped = 1
                    outcomes[phi] = cached
                    return cached.feasible
            allowance = budget.begin_probe() if budget is not None else None
            seed = nearest_warm_seed(outcomes, phi) if warm_start else None
            seed_from_cache = False
            if warm_start and use_cache:
                # The persistent store competes with in-run outcomes
                # for the tightest feasible seed above phi (labels are
                # antitone in phi, so tighter is strictly less work).
                in_run_best = min(
                    (
                        p
                        for p, o in outcomes.items()
                        if p > phi and o.feasible
                    ),
                    default=None,
                )
                if in_run_best is None or in_run_best > phi + 1:
                    found = cache.nearest_seed(cache_key, phi)
                    if found is not None and (
                        in_run_best is None or found[0] < in_run_best
                    ):
                        seed = found[1]
                        seed_from_cache = True
            dirty_seed: Optional[DirtySeed] = None
            if dirty is not None and prev_outcomes:
                prev = prev_outcomes.get(phi)
                if prev is not None and prev.feasible:
                    # Only a *converged* (feasible) previous outcome is a
                    # fixpoint; an infeasible run aborted early and its
                    # labels for later SCCs are not trustworthy seeds.
                    dirty_seed = DirtySeed(prev.labels, dirty)
            outcome = probe_phi(
                circuit,
                k,
                phi,
                resynthesize,
                cmax=cmax,
                pld=pld,
                extra_depth=extra_depth,
                io_constrained=io_constrained,
                timeout=allowance,
                seed_labels=seed,
                max_copies=max_copies,
                dirty_seed=dirty_seed,
            )
            if seed_from_cache:
                outcome.stats.cache_seeds = 1
            outcomes[phi] = outcome
            if use_cache:
                cache.put_outcome(cache_key, phi, outcome)
        return outcomes[phi].feasible

    hi, ceiling = search_bounds(circuit, upper_bound, io_constrained)
    # Every cached infeasible verdict was probe-verified by the run that
    # wrote it, so monotonicity makes every phi below the floor
    # infeasible.  The floor answers those midpoints without a probe
    # rather than raising lo: the search keeps the cold trajectory and
    # lands only on phis a cold run visits, whose verdicts the cache
    # holds once any run of this key has finished.
    floor = cache.verified_floor(cache_key) if use_cache else 1
    best: Optional[int] = None  # smallest phi known feasible
    try:
        while not probe(hi):
            if hi >= ceiling:
                raise infeasible_error(circuit, hi)
            hi = min(2 * hi, ceiling)
        best = hi
        lo = 1
        while lo < best:
            mid = (lo + best) // 2
            if mid >= floor and probe(mid):
                best = mid
            else:
                lo = mid + 1
    except (DeadlineExpired, ProbeTimeout) as exc:
        if budget is None or best is None:
            raise BudgetExhausted(
                f"{circuit.name}: budget exhausted before any feasible "
                f"phi was found ({exc})"
            ) from exc
        budget.exhaust(exc)
    return best, outcomes


def verify_result(
    circuit: SeqCircuit,
    result: SeqMapResult,
    k: int,
    resyn_roots: Optional[Set[str]] = None,
    compiled: Optional[object] = None,
) -> SeqMapResult:
    """Certify a mapping result in place: verify, attach the certificate.

    Runs the invariant rule pack of :mod:`repro.analysis.invariants`
    (retiming legality surrogates, per-LUT K-feasibility, label/cut-height
    consistency, cone-function equality), the schedule and cycle-ratio
    certificates of the phi >= MDR-ratio bound, and a structural pass
    over the mapped network.  ``resyn_roots`` carries
    the exact set of subject gates realized by resynthesis trees (their
    cone invariants do not apply).  ``compiled`` (an incrementally
    patched :class:`~repro.kernel.csr.CompiledCircuit`) additionally
    runs the CSR round-trip rules — the patched arrays must serialize
    byte-identically to a fresh compile of the subject.  Raises
    :class:`repro.analysis.VerificationError` on any ERROR finding —
    a malformed mapping must never reach a report as a success.
    """
    from repro.analysis import certificate, raise_on_errors, verify_mapping
    from repro.analysis.certify import (
        build_cycle_certificate,
        build_schedule_certificate,
    )

    t0 = time.perf_counter()
    # Independent second opinions, built once and handed both to the
    # rules (RET002/RET003 check them instead of rebuilding) and to the
    # certificate blob (machine-readable evidence on the result).
    schedule_cert = build_schedule_certificate(result.mapped, result.phi)
    cycle_cert = build_cycle_certificate(result.mapped, result.phi)
    diags = verify_mapping(
        circuit,
        result.mapped,
        result.phi,
        result.labels,
        k,
        result.algorithm,
        resyn_roots=resyn_roots,
        compiled=compiled,
        schedule_cert=schedule_cert,
        cycle_cert=cycle_cert,
    )
    result.t_verify = time.perf_counter() - t0
    result.certificate = certificate(
        diags,
        result.phi,
        result.algorithm,
        t_verify=result.t_verify,
        schedule_certificate=schedule_cert,
        cycle_certificate=cycle_cert,
    )
    raise_on_errors(diags, circuit.name, result.algorithm)
    return result


def run_mapper(
    circuit: SeqCircuit,
    k: int,
    algorithm: str,
    resynthesize: bool,
    upper_bound: Optional[int] = None,
    cmax: int = DEFAULT_CMAX,
    pld: bool = True,
    extra_depth: int = 0,
    io_constrained: bool = False,
    name: Optional[str] = None,
    workers: int = 1,
    check: bool = True,
    budget: Optional[Budget] = None,
    warm_start: bool = True,
    max_copies: int = DEFAULT_MAX_COPIES,
    prev_result: Optional[SeqMapResult] = None,
    dirty: Optional[Set[int]] = None,
    csr_handle: Optional[object] = None,
    cache: Optional["OutcomeCache"] = None,
) -> SeqMapResult:
    """Full mapper pipeline: search ``phi``, regenerate the mapping.

    ``workers > 1`` probes candidate periods speculatively in parallel
    (:func:`repro.perf.parallel.parallel_search_min_phi`); the result is
    identical to the sequential search, only the wall clock differs.

    ``budget`` bounds the phi search in wall-clock time; on expiry the
    result carries the best-known feasible period with
    ``degraded=True`` / ``degraded_reason`` set instead of raising (the
    mapping regeneration itself is not interrupted).  The budget also
    records worker-pool recovery: ``attempts`` counts search-backend
    executions.

    ``check=True`` (the default) verifies the produced mapping against
    the paper's invariants with :func:`verify_result` and attaches the
    certificate; pass ``check=False`` to opt out (e.g. in tight inner
    benchmark loops).

    ``warm_start`` toggles cross-probe label seeding (``phi`` and the
    labels are bit-identical either way) and ``max_copies`` bounds each
    partial expansion.

    ``csr_handle`` hands the parallel search an already-published
    compiled-circuit handle (:func:`repro.kernel.share.publish_bytes`);
    the caller retains ownership (it is not unlinked by the search),
    which lets a long-running service publish a stored CSR blob once
    and reuse it across jobs and pool restarts.

    ``prev_result`` + ``dirty`` run the search as an incremental repair
    of a previous mapping of the *same circuit before the edits in
    the dirty region* (see :func:`repro.incremental.remap`, the
    intended entry point): probes landing on previously feasible phis
    adopt every clean label verbatim and skip clean SCCs.  The repaired
    search is forced sequential — worker processes would re-pickle the
    mutated circuit and probe a different phi set, defeating the
    reuse — and the result is bit-identical to a cold sequential run.

    ``cache`` (an :class:`repro.cache.OutcomeCache`) makes the search
    warm across *processes*: probe verdicts are adopted from and
    written through to the persistent store, cached infeasible
    verdicts floor the binary search, and a recorded final for this
    exact ``(circuit, options)`` key replays the whole result without
    searching at all.  A replayed result is **never trusted blind**:
    it still runs the full default-on verifier plus a stored-signature
    comparison against the freshly regenerated mapping, and any
    disagreement heals the cache entry and falls back to a cold
    search.  Exact-hit replay therefore only engages when
    ``check=True`` (and never for incremental repairs); plain probe
    adoption works everywhere.
    """
    ub = upper_bound if upper_bound is not None else default_upper_bound(circuit)
    if budget is None:
        budget = Budget()
    budget.start()
    ckey: Optional["CacheKey"] = None
    if cache is not None:
        from repro.cache.store import cache_key as build_cache_key

        ckey = build_cache_key(
            circuit,
            k,
            resynthesize,
            cmax=cmax,
            pld=pld,
            extra_depth=extra_depth,
            io_constrained=io_constrained,
            max_copies=max_copies,
        )
    t0 = time.perf_counter()
    if prev_result is not None:
        workers = 1
    replay_final: Optional[dict] = None
    outcomes: Dict[int, LabelOutcome] = {}
    if cache is not None and check and prev_result is None:
        replay_final = cache.get_final(ckey)
    if replay_final is not None:
        # Exact full hit: adopt the optimum's verdict (and its
        # minimality witness at phi - 1) from the store and skip the
        # search.  Verification below re-establishes every invariant
        # on the freshly regenerated mapping.
        phi = int(replay_final["phi"])
        at = cache.get_outcome(ckey, phi)
        below = cache.get_outcome(ckey, phi - 1) if phi > 1 else None
        if (
            at is None
            or not at.feasible
            or (phi > 1 and (below is None or below.feasible))
        ):
            replay_final = None  # entry raced away / incoherent: miss
        else:
            at.stats.outcome_cache_hits = 1
            at.stats.cache_probes_skipped = 1
            outcomes[phi] = at
            if below is not None:
                below.stats.outcome_cache_hits = 1
                below.stats.cache_probes_skipped = 1
                outcomes[phi - 1] = below
    if replay_final is not None:
        pass  # search skipped entirely
    elif workers > 1:
        # Imported lazily: repro.perf.parallel imports probe_phi from here.
        from repro.perf.parallel import parallel_search_min_phi

        phi, outcomes = parallel_search_min_phi(
            circuit,
            k,
            ub,
            resynthesize,
            workers=workers,
            cmax=cmax,
            pld=pld,
            extra_depth=extra_depth,
            io_constrained=io_constrained,
            budget=budget,
            warm_start=warm_start,
            max_copies=max_copies,
            csr_handle=csr_handle,
            cache=cache,
            cache_key=ckey,
        )
    else:
        phi, outcomes = search_min_phi(
            circuit,
            k,
            ub,
            resynthesize,
            cmax=cmax,
            pld=pld,
            extra_depth=extra_depth,
            io_constrained=io_constrained,
            budget=budget,
            warm_start=warm_start,
            max_copies=max_copies,
            prev_outcomes=(
                prev_result.outcomes if prev_result is not None else None
            ),
            dirty=dirty if prev_result is not None else None,
            cache=cache,
            cache_key=ckey,
        )
    t_search = time.perf_counter() - t0
    labels = outcomes[phi].labels
    t0 = time.perf_counter()
    chosen: Dict[int, Realization] = {}
    mapped = generate_mapping(
        circuit,
        phi,
        labels,
        k,
        cmax=cmax,
        allow_resyn=resynthesize,
        extra_depth=extra_depth,
        name=name,
        realizations_out=chosen,
        max_copies=max_copies,
    )
    t_mapping = time.perf_counter() - t0
    result = SeqMapResult(
        algorithm=algorithm,
        phi=phi,
        mapped=mapped,
        labels=labels,
        outcomes=outcomes,
        t_search=t_search,
        t_mapping=t_mapping,
        workers=max(1, workers),
        degraded=budget.exhausted,
        degraded_reason=budget.reason,
        attempts=budget.attempts,
        resilience_events=list(budget.events),
        incremental=prev_result is not None,
    )
    if check:
        from repro.analysis import VerificationError

        resyn_roots = {
            circuit.name_of(v)
            for v, real in chosen.items()
            if real.resyn is not None
        }
        try:
            verify_result(
                circuit,
                result,
                k,
                resyn_roots=resyn_roots,
                # Incremental runs probed on a delta-patched CSR: hand it
                # to the verifier so the round-trip rules certify the
                # patch.
                compiled=(
                    circuit.compiled() if prev_result is not None else None
                ),
            )
            if replay_final is not None:
                from repro.cache.store import final_signature
                from repro.netlist.blif import write_blif

                fresh = final_signature(phi, labels, write_blif(mapped))
                if fresh != replay_final["signature"]:
                    raise VerificationError(
                        f"{circuit.name}: replayed cache result does not "
                        "reproduce the stored signature",
                        [],
                    )
        except VerificationError:
            if replay_final is None:
                raise
            # A replayed result failed re-verification: the entry is
            # poison.  Heal it and fall back to a cold search — the
            # cache must never make a run fail that would have
            # succeeded cold.
            cache.invalidate(ckey)
            return run_mapper(
                circuit,
                k,
                algorithm,
                resynthesize,
                upper_bound=upper_bound,
                cmax=cmax,
                pld=pld,
                extra_depth=extra_depth,
                io_constrained=io_constrained,
                name=name,
                workers=workers,
                check=check,
                budget=None,
                warm_start=warm_start,
                max_copies=max_copies,
                csr_handle=csr_handle,
                cache=cache,
            )
    if (
        cache is not None
        and check
        and replay_final is None
        and prev_result is None
        and not result.degraded
    ):
        # Record the verified end of a completed search: exact hits on
        # this key now replay in O(verify).  Degraded searches never
        # finalize (their phi is only an upper bound on the optimum).
        from repro.cache.store import final_signature
        from repro.netlist.blif import write_blif

        cert = result.certificate or {}
        cache.put_final(
            ckey,
            result.phi,
            final_signature(result.phi, labels, write_blif(mapped)),
            schedule_certificate=cert.get("schedule_certificate"),
            cycle_certificate=cert.get("cycle_certificate"),
        )
    return result
