"""Iterative label computation for a target clock period (TurboMap core).

For a target integer clock period ``phi``, every node gets a label
``l(v)`` — intuitively its phi-normalized sequential arrival time in the
best mapping.  Following TurboMap [11] (and Pan-Liu [19]), labels are
computed as monotonically increasing lower bounds:

* ``l(PI) = 0`` (fixed); every gate starts at 1;
* one *update* of gate ``v`` computes ``L(v) = max(l(u) - phi * w(e))``
  over its fanin edges and raises ``l(v)`` to ``L(v)`` if the expanded
  circuit ``E_v`` has a K-feasible cut of height ``<= L(v)``, and to
  ``L(v) + 1`` otherwise; TurboSYN additionally tries sequential
  functional decomposition before accepting ``L(v) + 1``
  (:mod:`repro.core.seqdecomp`);
* updates repeat until a fixpoint.  The target is feasible iff a fixpoint
  is reached; labels of nodes on *positive loops* (cycles with
  ``d(C) > phi * w(C)``) grow forever instead.

Two mechanisms bound the iteration, reproducing the paper's Section 4:

* SCCs are processed in topological order (upstream labels freeze first);
* within an SCC, either the conservative ``n^2`` round bound of [21]
  (``pld=False``) or the paper's predecessor-graph **positive loop
  detection** with its ``6n`` round bound (``pld=True``, Theorem 2): after
  every round the SCC is declared infeasible as soon as no member label
  is *grounded* — justified transitively, through
  ``pi[v] = {u : l(u) - phi*w(e) + 1 >= l(v)}``, from outside the SCC
  (or by the trivial bound ``l(v) <= 1``).  The grounded set is empty
  exactly when it has no seed, so the check is a scan that stops at the
  first seed (:func:`repro.core.pld.has_seed`).

The schedule — the SCCs in topological order of the condensation, each
node's topological position and SCC index — depends only on the circuit
structure, so it is computed once per structure and cached on the
circuit (:meth:`SeqCircuit.scc_schedule
<repro.netlist.graph.SeqCircuit.scc_schedule>`), not once per probe.

The per-SCC iteration is *event-driven*: only gates made dirty by an
actual label rise are re-updated.  When ``l(u)`` rises, the gates ``v``
with an edge ``e(u, v)`` and the gates whose last cut query read
``u``'s label (tracked by a reverse cone index) are enqueued; everything
else provably cannot change (labels are monotone and a K-cut at an
unchanged threshold over unchanged heights is memoized).  Queue drains
are grouped into *epochs* that mirror the classical round-robin rounds
exactly — a change made at topological position ``p`` cascades to later
positions within the same epoch and to earlier positions in the next —
so the ``6n``-round PLD accounting of Theorem 2 carries over with epochs
counted as rounds, and the labels equal a round-robin sweep's
(``tests/helpers.py`` keeps such a sweep as the test oracle).

The hot path runs on the circuit's compiled CSR arrays with packed-int
copies (:mod:`repro.kernel`): fanin maxima read ``offsets/srcs/weights``,
and cut witnesses and memo guard caps stay packed, unordered lists of
copies that are only ever height-checked.  A per-node memo keyed on the
labels the last cut query actually read skips unchanged re-checks; the
solver additionally retains the partial expansion behind each memo
entry (so the resynthesis hook can reuse it at the same threshold, see
:meth:`LabelSolver.expansion_for`) and recycles a single
:class:`~repro.kernel.expand.PackedCutArena` (a Dinic flow network and
the resolved SAN007 hook) across all of its cut queries, the
resynthesis hook's included.

Cross-probe warm starts: labels are *antitone in phi* — a converged
label set at ``phi2`` is a valid lower bound at any ``phi1 < phi2`` — so
a solver may be seeded from a previously converged run at a larger
period (``seed_labels``), skipping every label raise the cold start
would have recomputed.  ``LabelStats.warm_seeded`` / ``warm_savings``
record the seeding.

Incremental repair (:class:`DirtySeed`): a label depends only on the
node's transitive fanin cone, so after a k-gate edit only the *dirty
region* — the forward closure of the edited nodes over fanout edges of
any weight — can change.  Given the converged fixpoint of a previous
feasible run **at the same phi** on the pre-edit circuit, every node
outside the region keeps its exact label, whole clean SCCs are skipped
(a dirty region is forward-closed, so SCCs are wholly dirty or wholly
clean — positive loop detection therefore re-runs only for touched
SCCs), and only dirty gates re-establish their cut witnesses.  The
resulting labels and verdict are bit-identical to a cold run: clean
SCCs see only clean upstream structure (unchanged, so they reconverge
to the seeded values), and dirty SCCs recompute from scratch under
identical frozen upstream labels.  ``LabelStats.dirty_nodes`` /
``labels_reused`` / ``witnesses_revalidated`` / ``sccs_skipped`` record
the repair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, Set

from repro.core.expanded import DEFAULT_MAX_COPIES
from repro.core.pld import has_seed
from repro.kernel.csr import KIND_GATE
from repro.kernel.expand import (
    PackedCutArena,
    PackedExpansion,
    cut_on_packed,
    expand_partial_packed,
)
from repro.netlist.graph import SeqCircuit
from repro.resilience.budget import ProbeTimeout


@dataclass
class LabelStats:
    """Counters describing one feasibility run (used by the PLD bench).

    The ``t_*`` fields are wall-clock seconds spent in each stage of the
    label computation (the run telemetry serialized by
    :mod:`repro.perf.report`): total run time, expanded-circuit
    construction, max-flow cut queries, and positive-loop-detection
    checks.  ``warm_seeded`` counts runs seeded from a converged
    larger-phi label set, ``warm_savings`` the total label raises such
    seeds skipped, and ``expansions_reused`` the partial expansions the
    resynthesis hook reused instead of rebuilding.

    ``dinic_phases`` / ``arcs_advanced`` are the Dinic flow solver's
    deterministic work counters (level-graph BFS phases run and arcs
    examined by the blocking-flow search, summed over all cut queries);
    both stay 0 when every cut is read off the expansion frontier, as
    at the default ``extra_depth=0``.

    The incremental-repair counters (all 0 on cold runs): ``dirty_nodes``
    is the dirty-region size of the edit being repaired (fixed per
    remap, so :meth:`merge` keeps the maximum rather than summing over
    probes), ``labels_reused`` the gates whose previous fixpoint label
    was adopted verbatim, ``witnesses_revalidated`` the dirty gates
    whose K-cut witness was re-established by a fresh cut query, and
    ``sccs_skipped`` the wholly clean SCCs never iterated.

    The persistent-cache counters (:mod:`repro.cache`, all 0 without a
    cache): ``outcome_cache_hits`` counts probe verdicts adopted from
    the on-disk outcome store, ``cache_probes_skipped`` the label
    fixpoints those adoptions avoided running at all (one per hit —
    kept separate so an exact-hit replay that skips the *search* can
    still report how many probes it saved), and ``cache_seeds`` the
    uncached probes warm-started from a cached larger-phi label set
    (the cross-run analogue of ``warm_seeded``).
    """

    rounds: int = 0
    updates: int = 0
    flow_queries: int = 0
    cache_hits: int = 0
    pld_checks: int = 0
    resyn_calls: int = 0
    resyn_wins: int = 0
    warm_seeded: int = 0
    warm_savings: int = 0
    expansions_reused: int = 0
    dinic_phases: int = 0
    arcs_advanced: int = 0
    dirty_nodes: int = 0
    labels_reused: int = 0
    witnesses_revalidated: int = 0
    sccs_skipped: int = 0
    outcome_cache_hits: int = 0
    cache_probes_skipped: int = 0
    cache_seeds: int = 0
    t_total: float = 0.0
    t_expand: float = 0.0
    t_flow: float = 0.0
    t_pld: float = 0.0

    def merge(self, other: "LabelStats") -> None:
        """Accumulate another run's counters and timers into this one."""
        self.rounds += other.rounds
        self.updates += other.updates
        self.flow_queries += other.flow_queries
        self.cache_hits += other.cache_hits
        self.pld_checks += other.pld_checks
        self.resyn_calls += other.resyn_calls
        self.resyn_wins += other.resyn_wins
        self.warm_seeded += other.warm_seeded
        self.warm_savings += other.warm_savings
        self.expansions_reused += other.expansions_reused
        self.dinic_phases += other.dinic_phases
        self.arcs_advanced += other.arcs_advanced
        self.dirty_nodes = max(self.dirty_nodes, other.dirty_nodes)
        self.labels_reused += other.labels_reused
        self.witnesses_revalidated += other.witnesses_revalidated
        self.sccs_skipped += other.sccs_skipped
        self.outcome_cache_hits += other.outcome_cache_hits
        self.cache_probes_skipped += other.cache_probes_skipped
        self.cache_seeds += other.cache_seeds
        self.t_total += other.t_total
        self.t_expand += other.t_expand
        self.t_flow += other.t_flow
        self.t_pld += other.t_pld


@dataclass
class DirtySeed:
    """Exact label reuse for incremental remapping.

    ``prev_labels`` must be the converged fixpoint of a previous
    *feasible* run **at the same phi** on a circuit identical outside
    the dirty region, and ``dirty`` must contain every node whose
    transitive fanin cone intersects the edit — i.e. the forward
    closure of the edited nodes over fanout edges of any weight
    (:func:`repro.incremental.dirty.dirty_region` computes it).  Under
    those preconditions the repaired run is bit-identical to a cold
    run; violating them silently corrupts labels.
    """

    prev_labels: Sequence[int]
    dirty: AbstractSet[int]


@dataclass
class LabelOutcome:
    """Result of one feasibility run at a fixed ``phi``."""

    feasible: bool
    labels: List[int]
    stats: LabelStats
    #: members of the SCC on which infeasibility was detected (empty when
    #: feasible).
    failed_scc: List[int] = field(default_factory=list)


#: Signature of a resynthesis hook: ``(solver, v, big_l) -> bool`` — may
#: consult solver labels; returns True when the node can still make label
#: ``big_l`` through decomposition.
ResynHook = Callable[["LabelSolver", int, int], bool]


class LabelSolver:
    """Label computation for one ``(circuit, k, phi)`` query."""

    #: An SCC is declared infeasible once its justification graph stays
    #: isolated from the outside for this many consecutive changed rounds.
    #: A genuinely positive loop is isolated forever, so patience costs a
    #: constant; a converging SCC can look isolated on the single round
    #: where a zero-gain cycle settles, which patience rides out.
    PLD_PATIENCE = 3

    def __init__(
        self,
        circuit: SeqCircuit,
        k: int,
        phi: int,
        resyn_hook: Optional[ResynHook] = None,
        pld: bool = True,
        extra_depth: int = 0,
        io_constrained: bool = False,
        deadline: Optional[float] = None,
        seed_labels: Optional[Sequence[int]] = None,
        max_copies: int = DEFAULT_MAX_COPIES,
        dirty_seed: Optional[DirtySeed] = None,
    ) -> None:
        if phi < 1:
            raise ValueError("target clock period must be at least 1")
        self.circuit = circuit
        self.k = k
        self.phi = phi
        self.resyn_hook = resyn_hook
        self.pld = pld
        self.extra_depth = extra_depth
        self.max_copies = max_copies
        #: Absolute ``time.monotonic()`` value by which the run must
        #: finish; checked cooperatively once per label round, raising
        #: :class:`repro.resilience.budget.ProbeTimeout` on expiry.
        self.deadline = deadline
        #: When True, primary outputs must also meet the period (the
        #: retiming-only objective of TurboMap/SeqMapII [11, 19]); the
        #: paper's setting is False — pipelining absorbs I/O paths and
        #: only loops constrain feasibility.
        self.io_constrained = io_constrained
        self.stats = LabelStats()
        n = len(circuit)
        self.labels: List[int] = [0] * n
        for g in circuit.gates:
            self.labels[g] = 1
        if seed_labels is not None:
            if len(seed_labels) != n:
                raise ValueError(
                    f"seed label vector has {len(seed_labels)} entries "
                    f"for a {n}-node circuit"
                )
            savings = 0
            for g in circuit.gates:
                seed = seed_labels[g]
                if seed > 1:
                    self.labels[g] = seed
                    savings += seed - 1
            self.stats.warm_seeded = 1
            self.stats.warm_savings = savings
        # Incremental repair: adopt the previous fixpoint verbatim for
        # every node outside the dirty region (exact, not just a lower
        # bound — see the DirtySeed contract), overriding any warm seed
        # there.  Dirty nodes keep their cold/warm initial labels and
        # are recomputed; wholly clean SCCs are skipped in _run().
        self._dirty: Optional[AbstractSet[int]] = None
        self._revalidated: Set[int] = set()
        if dirty_seed is not None:
            prev = dirty_seed.prev_labels
            if len(prev) != n:
                raise ValueError(
                    f"dirty-seed label vector has {len(prev)} entries "
                    f"for a {n}-node circuit"
                )
            dirty = dirty_seed.dirty
            self._dirty = dirty
            reused = 0
            for u in range(n):
                if u not in dirty:
                    self.labels[u] = prev[u]
            for g in circuit.gates:
                if g not in dirty:
                    reused += 1
            self.stats.dirty_nodes = len(dirty)
            self.stats.labels_reused = reused
        # Memoization: per node the threshold, verdict and expansion of
        # its last cut query (the expansion for reuse by the resynthesis
        # hook at the same threshold).
        self._check_l: List[Optional[int]] = [None] * n
        self._check_result: List[Optional[bool]] = [None] * n
        self._check_expansion: List[Optional[PackedExpansion]] = [None] * n
        # Memo guards: per gate, cone member -> the largest label under
        # which the member's frontier copies keep their tier (candidate:
        # height <= threshold; gate leaf: height <= floor).  While every
        # member stays at or under its cap the expansion structure — and
        # therefore the flow verdict — is provably unchanged, so the memo
        # survives benign label rises that a classical any-change
        # invalidation would flush.  ``{}`` marks a blocked expansion
        # (permanently blocked at this threshold: PI heights never
        # change).
        self._check_guard: List[Optional[Dict[int, int]]] = [None] * n
        # Last witnessing K-cut per gate, as packed copies in no
        # particular order.  A cut is a structural separator of the
        # unrolled cone, so it certifies feasibility at any later
        # threshold its member heights still satisfy -- even after the
        # guard above has expired.
        self._check_cut: List[Optional[List[int]]] = [None] * n
        # Reverse cone index: node u -> gates whose verdict could flip
        # when l(u) crosses their guard cap.  Drives the event-driven
        # worklist: a rise of l(u) can only affect fanout gates and
        # these guarded dependents.
        self._cone_index: List[Set[int]] = [set() for _ in range(n)]
        # big_l computed by each gate's most recent update.  A fanout
        # rise whose contribution l(u) - phi*w stays at or below this
        # value cannot change the gate's fanin maximum, so the worklist
        # skips the re-update unless the riser also sits in the gate's
        # memo cone (which the cone index covers separately).
        self._last_big_l: List[int] = [-(1 << 60)] * n
        # Gates of the current SCC whose label is justified by a
        # resynthesis win (cleared per SCC: upstream SCCs are frozen).
        # The decomposition reads labels in cones *deeper* than the
        # recorded K-cut cone (min-cuts below the threshold, cut-input
        # arrival times), which the cone index does not cover — so the
        # worklist conservatively re-enqueues every such gate after any
        # in-SCC label rise.
        self._resyn_dep: Set[int] = set()
        self._cc = circuit.compiled()
        #: The cut arena (one Dinic network plus the resolved SAN007
        #: hook) recycled across every cut query of this run; the
        #: resynthesis hook answers its own queries on it too.
        self.arena = PackedCutArena()
        # Opt-in invariant sanitizer (REPRO_SANITIZE=1 / --sanitize):
        # epoch monotonicity, epoch budgets, and fixpoint justification
        # checks, raising SanitizerViolation with a full Diagnostic.
        # Imported lazily at construction time — repro.analysis imports
        # this module, so a top-level import would cycle.
        self._san = None
        try:
            from repro.analysis.sanitize import label_sanitizer
        except ImportError:  # pragma: no cover - analysis always ships
            pass
        else:
            self._san = label_sanitizer(self, dirty_seed)

    # ------------------------------------------------------------------
    def _memo_valid(self, v: int, threshold: int) -> bool:
        """True when the last cut query of ``v`` still answers
        ``threshold``.

        Proven structurally — same threshold and every guarded cone
        member still at or under its tier cap (see ``_check_guard``) —
        so benign rises keep the memo alive.
        """
        if self._check_l[v] != threshold:
            return False
        guard = self._check_guard[v]
        if guard is None:
            return False
        labels = self.labels
        return all(labels[u] <= cap for u, cap in guard.items())

    def _has_kcut(self, v: int, threshold: int) -> bool:
        """Memoized K-cut existence test at the given height threshold."""
        if (
            self._dirty is not None
            and v in self._dirty
            and v not in self._revalidated
        ):
            # First cut query of a dirty gate this run: its pre-edit
            # witness (if any) described the old structure and cannot be
            # trusted, so the query below re-establishes it from scratch.
            self._revalidated.add(v)
            self.stats.witnesses_revalidated += 1
        if self._memo_valid(v, threshold):
            self.stats.cache_hits += 1
            return bool(self._check_result[v])
        # A recorded cut separates v's copy from the rest of the unrolled
        # circuit structurally -- labels play no part in the separation,
        # only in the height bound.  If every cut member's current height
        # l(u) - phi*w + 1 still fits under the (possibly new) threshold,
        # the same cut witnesses feasibility and the expansion plus flow
        # query can be skipped outright.
        cut = self._check_cut[v]
        if cut is not None:
            labels = self.labels
            phi = self.phi
            mask = self._cc.mask
            shift = self._cc.shift
            if all(labels[p & mask] - phi * (p >> shift) < threshold for p in cut):
                # Re-anchor the memo on the witness itself: the verdict
                # stays True exactly while every cut member keeps height
                # <= threshold, and a member crossing its cap re-enqueues
                # v through the cone index.  The recorded expansion
                # belongs to the old threshold, so it must not survive
                # the re-anchor.
                guard: Dict[int, int] = {}
                base = threshold - 1
                for p in cut:
                    u = p & mask
                    cap = base + phi * (p >> shift)
                    if guard.get(u, cap + 1) > cap:
                        guard[u] = cap
                self._set_guard(v, guard)
                self._check_l[v] = threshold
                self._check_result[v] = True
                self._check_expansion[v] = None
                self.stats.cache_hits += 1
                return True
        t0 = time.perf_counter()
        expansion = expand_partial_packed(
            self._cc,
            v,
            self.phi,
            self.labels,
            threshold,
            extra_depth=self.extra_depth,
            max_copies=self.max_copies,
            name_of=self.circuit.name_of,
        )
        t1 = time.perf_counter()
        self.stats.t_expand += t1 - t0
        self.stats.flow_queries += 1
        packed_cut = cut_on_packed(expansion, self.k, self.arena)
        if expansion.candidates and not expansion.blocked:
            # Only then did a flow solve run (its reset zeroed the
            # counters first, so these are this query's alone).
            phases, arcs = self.arena.drain_counters()
            self.stats.dinic_phases += phases
            self.stats.arcs_advanced += arcs
        self.stats.t_flow += time.perf_counter() - t1
        self._record_query(v, threshold, expansion, packed_cut)
        return packed_cut is not None

    def _record_query(
        self,
        v: int,
        threshold: int,
        expansion: PackedExpansion,
        cut: Optional[List[int]],
    ) -> None:
        """Feed one answered cut query into the per-node memo.

        Tier caps: a frontier copy u^w keeps its tier while
        ``l(u) - phi*w + 1`` stays at or below its bound, i.e. while
        ``l(u) <= bound + phi*w - 1``.  Interior copies only sink deeper
        as labels rise and PI labels are fixed, so neither constrains
        the memo; a blocked expansion stays blocked at this threshold
        forever (empty guard).  Caps are read straight off the packed
        frontier copies.
        """
        guard: Dict[int, int] = {}
        if not expansion.blocked:
            phi = self.phi
            mask = self._cc.mask
            shift = self._cc.shift
            base = threshold - 1
            for p in expansion.candidates:
                u = p & mask
                cap = base + phi * (p >> shift)
                if guard.get(u, cap + 1) > cap:
                    guard[u] = cap
            kinds = self._cc.kinds
            base = threshold - self.extra_depth * phi - 1
            for p in expansion.leaves:
                u = p & mask
                if kinds[u] == KIND_GATE:
                    cap = base + phi * (p >> shift)
                    if guard.get(u, cap + 1) > cap:
                        guard[u] = cap
        self._set_guard(v, guard)
        if cut is not None:
            self._check_cut[v] = cut
        self._check_l[v] = threshold
        self._check_result[v] = cut is not None
        self._check_expansion[v] = expansion

    def _set_guard(self, v: int, guard: Dict[int, int]) -> None:
        """Install ``v``'s memo guard and re-point the cone index."""
        old_guard = self._check_guard[v]
        if old_guard:
            for u in old_guard:
                self._cone_index[u].discard(v)
        for u in guard:
            self._cone_index[u].add(v)
        self._check_guard[v] = guard

    def expansion_for(
        self, v: int, threshold: int
    ) -> Optional[PackedExpansion]:
        """The cached partial expansion of ``E_v`` at ``threshold``.

        :func:`repro.core.kcut.cut_on_expansion` answers cut queries on
        it.  Valid only while ``_memo_valid`` can prove the
        recorded expansion still holds (every guarded frontier member at
        or under its tier cap); returns ``None`` otherwise.  The TurboSYN
        resynthesis hook uses this to skip the re-expansion its first
        (height ``L(v)``) min-cut query would otherwise repeat right
        after a failed K-cut check.
        """
        if self._memo_valid(v, threshold):
            return self._check_expansion[v]
        return None

    def _update(self, v: int) -> bool:
        """One label update; returns True when ``l(v)`` increased."""
        self.stats.updates += 1
        cc = self._cc
        lo = cc.offsets[v]
        hi = cc.offsets[v + 1]
        if lo == hi:
            return False  # constant generators keep label 1
        labels = self.labels
        phi = self.phi
        srcs = cc.srcs
        weights = cc.weights
        big_l = labels[srcs[lo]] - phi * weights[lo]
        for i in range(lo + 1, hi):
            contribution = labels[srcs[i]] - phi * weights[i]
            if contribution > big_l:
                big_l = contribution
        self._last_big_l[v] = big_l
        if big_l < labels[v]:
            return False  # cannot raise the label
        if self._has_kcut(v, big_l):
            new = big_l
            self._resyn_dep.discard(v)
        elif self.resyn_hook is not None:
            self.stats.resyn_calls += 1
            if self.resyn_hook(self, v, big_l):
                self.stats.resyn_wins += 1
                new = big_l
                self._resyn_dep.add(v)
            else:
                # big_l + 1 is protected by the big_l guard above until a
                # fanin rises, so no resynthesis dependency remains.
                new = big_l + 1
                self._resyn_dep.discard(v)
        else:
            new = big_l + 1
        if new > labels[v]:
            labels[v] = new
            return True
        return False

    # ------------------------------------------------------------------
    def _grounded(self, members: List[int], sid: int) -> bool:
        """PLD signal: is any label of SCC ``sid`` still justified from
        outside?  A seed scan (:func:`repro.core.pld.has_seed`)."""
        self.stats.pld_checks += 1
        t0 = time.perf_counter()
        scc_of = self.circuit.scc_schedule().scc_of
        result = has_seed(self._cc, scc_of, self.labels, self.phi, members, sid)
        self.stats.t_pld += time.perf_counter() - t0
        return result

    # ------------------------------------------------------------------
    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ProbeTimeout(
                f"{self.circuit.name}: label computation at phi={self.phi} "
                "exceeded its probe budget"
            )

    # ------------------------------------------------------------------
    def run(self) -> LabelOutcome:
        """Compute all labels or detect infeasibility (timed)."""
        t0 = time.perf_counter()
        try:
            return self._run()
        finally:
            self.stats.t_total += time.perf_counter() - t0

    def _run_scc(self, members: List[int], sid: int, max_rounds: int) -> bool:
        """Event-driven worklist iteration; returns True when converged.

        ``members`` are the gates of SCC ``sid`` sorted by topological
        position.  Epochs mirror round-robin rounds: each epoch drains
        the gates made dirty by the previous one, in topological order
        (a heap of positions), and a rise at position ``p`` cascades
        within the epoch to dependents at positions ``> p`` (exactly the
        gates a round-robin sweep would still visit this round) while
        dependents at positions ``<= p`` wait for the next epoch.  After
        every changed epoch the PLD justification check runs, so the
        ``6n``-round accounting of the paper's Theorem 2 applies with
        epochs counted as rounds.

        Gates whose label currently rests on a resynthesis win are
        additionally re-enqueued after *every* in-SCC rise, the riser
        itself included: the decomposition read labels beyond the
        recorded K-cut cone (deeper min-cut expansions, cut-input
        arrival times, its own label through a self-loop copy), so the
        cone index alone cannot prove them clean.
        """
        schedule = self.circuit.scc_schedule()
        order = schedule.order
        pos = schedule.pos
        scc_of = schedule.scc_of
        labels = self.labels
        phi = self.phi
        fanouts = self.circuit.fanouts
        cone_index = self._cone_index
        check_guard = self._check_guard
        last_big_l = self._last_big_l
        resyn_dep = self._resyn_dep
        update = self._update
        # Sorted positions already form a heap.
        heap = [pos[v] for v in members]
        in_current = set(members)
        next_set: Set[int] = set()
        san = self._san
        isolated_streak = 0
        for _epoch in range(max_rounds):
            self._check_deadline()
            self.stats.rounds += 1
            before = None if san is None else san.snapshot(members)
            changed = False
            while heap:
                p = heappop(heap)
                v = order[p]
                in_current.discard(v)
                if not update(v):
                    continue
                changed = True
                lv = labels[v]
                for dep in cone_index[v]:
                    if scc_of[dep] != sid or dep in in_current:
                        continue
                    guard = check_guard[dep]
                    if guard is not None:
                        cap = guard.get(v)
                        if cap is not None and lv <= cap:
                            # Still under the tier cap: the recorded
                            # expansion (and verdict) provably stands.
                            continue
                    q = pos[dep]
                    if q > p:
                        in_current.add(dep)
                        heappush(heap, q)
                    else:
                        next_set.add(dep)
                for dst, w in fanouts(v):
                    if scc_of[dst] != sid or dst in in_current:
                        continue
                    contribution = lv - phi * w
                    if contribution <= last_big_l[dst] or contribution < labels[dst]:
                        # The rise cannot lift dst's fanin maximum past
                        # its already-justified label: the triggered
                        # update would early-return (big_l < l(dst)) or
                        # recompute the same big_l.  Any big_l at or
                        # above l(dst) is driven by a fanin whose own
                        # rise enqueues dst unfiltered; a memo-cone
                        # effect re-enqueues via the cone index above.
                        continue
                    q = pos[dst]
                    if q > p:
                        in_current.add(dst)
                        heappush(heap, q)
                    else:
                        next_set.add(dst)
                for dep in resyn_dep:
                    # v itself included: a decomposition may read v's own
                    # label through a self-loop copy.
                    if dep in in_current:
                        continue
                    q = pos[dep]
                    if q > p:
                        in_current.add(dep)
                        heappush(heap, q)
                    else:
                        next_set.add(dep)
            if san is not None and before is not None:
                san.check_epoch(members, before)
            if not changed:
                return True
            if self.pld:
                if self._grounded(members, sid):
                    isolated_streak = 0
                else:
                    isolated_streak += 1
                    if isolated_streak >= self.PLD_PATIENCE:
                        return False
            if not next_set:
                return True  # every dependent already settled in-epoch
            heap = [pos[v] for v in next_set]
            heapify(heap)
            in_current = next_set
            next_set = set()
        return False

    def _update_singleton(self, v: int) -> None:
        """One update of a singleton (acyclic) SCC: a single round."""
        self.stats.rounds += 1
        if self._san is not None:
            before = self._san.snapshot([v])
            self._update(v)
            self._san.check_epoch([v], before)
        else:
            self._update(v)

    def _run(self) -> LabelOutcome:
        """Compute all labels or detect infeasibility."""
        dirty = self._dirty
        for sid, item in enumerate(self.circuit.scc_schedule().sccs):
            self._check_deadline()
            if isinstance(item, int):
                if dirty is not None and item not in dirty:
                    self.stats.sccs_skipped += 1
                    continue
                self._update_singleton(item)
                continue
            if dirty is not None and not any(v in dirty for v in item):
                # Wholly clean SCC: its transitive fanin is clean too
                # (dirty regions are forward-closed), so its members
                # already carry the exact fixpoint adopted from the
                # previous run — iterating (and PLD) would be a no-op.
                self.stats.sccs_skipped += 1
                continue
            n_scc = len(item)
            max_rounds = 6 * n_scc + self.PLD_PATIENCE if self.pld else n_scc * n_scc + 2
            rounds_before = self.stats.rounds
            self._resyn_dep.clear()
            converged = self._run_scc(item, sid, max_rounds)
            if self._san is not None:
                self._san.check_epoch_budget(
                    self.stats.rounds - rounds_before, max_rounds
                )
            if not converged:
                return LabelOutcome(
                    feasible=False,
                    labels=self.labels,
                    stats=self.stats,
                    failed_scc=list(item),
                )
        if self.io_constrained:
            # Retiming-only feasibility additionally requires every PO's
            # sequential arrival to fit one period: l(u) - phi*w <= phi
            # for the PO edge e(u, po) (Pan-Liu [19]).
            for po in self.circuit.pos:
                pin = self.circuit.fanins(po)[0]
                if self.labels[pin.src] - self.phi * pin.weight > self.phi:
                    return LabelOutcome(
                        feasible=False,
                        labels=self.labels,
                        stats=self.stats,
                        failed_scc=[po],
                    )
        if self._san is not None:
            self._san.check_converged()
        return LabelOutcome(feasible=True, labels=self.labels, stats=self.stats)
