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
  every round the justification graph
  ``pi[v] = {u : l(u) - phi*w(e) + 1 >= l(v)}`` is built and the SCC is
  declared infeasible as soon as no member label is *grounded* — justified
  transitively from outside the SCC (or by the trivial bound
  ``l(v) <= 1``).

Two execution engines implement the per-SCC iteration:

* ``engine="worklist"`` (the default) is *event-driven*: only gates made
  dirty by an actual label rise are re-updated.  When ``l(u)`` rises,
  the gates ``v`` with an edge ``e(u, v)`` and the gates whose last flow
  query read ``u``'s label (tracked by a reverse cone index) are
  enqueued; everything else provably cannot change (labels are monotone
  and a K-cut at an unchanged threshold over unchanged heights is
  memoized).  Queue drains are grouped into *epochs* that mirror the
  round-robin rounds exactly — a change made at topological position
  ``p`` cascades to later positions within the same epoch and to earlier
  positions in the next — so the ``6n``-round PLD accounting of
  Theorem 2 carries over with epochs counted as rounds, and the engines
  agree label-for-label.
* ``engine="rounds"`` is the classical full round-robin sweep, kept for
  differential testing and the engine benchmark.

A per-node memo keyed on the labels actually read by the last flow query
skips unchanged re-checks; the solver additionally retains the partial
expansion behind each memo entry (so the resynthesis hook can reuse it
at the same threshold, see :meth:`LabelSolver.expansion_for`) and
recycles a single :class:`~repro.comb.maxflow.SplitNetwork` arena across
all of its flow queries.

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

import heapq
import time
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, List, Optional, Sequence, Set, Tuple

from repro.comb.maxflow import FLOWS, SplitNetwork
from repro.compat import np
from repro.core.expanded import (
    DEFAULT_MAX_COPIES,
    ExpansionOverflow,
    PartialExpansion,
    expand_partial,
)
from repro.core.kcut import cut_on_expansion
from repro.core.pld import grounded_members
from repro.kernel.batch import (
    BatchCutArena,
    batch_gate_profile,
    resolve_kernel,
    views_from_compiled,
    witness_feasible,
)
from repro.kernel.csr import KIND_GATE, KIND_PI
from repro.kernel.expand import (
    PackedCutArena,
    PackedExpansion,
    cut_on_packed,
    expand_partial_packed,
)
from repro.netlist.graph import NodeKind, SeqCircuit
from repro.resilience.budget import ProbeTimeout

#: Valid values of :class:`LabelSolver`'s ``engine`` parameter.
ENGINES = ("worklist", "rounds")

#: Valid values of :class:`LabelSolver`'s ``kernel`` parameter:
#: ``"compiled"`` runs expansions and cut queries on the circuit's flat
#: CSR arrays with packed-int copies (:mod:`repro.kernel`);
#: ``"object"`` is the tuple-and-dict engine, retained for differential
#: testing; ``"vector"`` layers the numpy batch kernel
#: (:mod:`repro.kernel.batch`) on top of the compiled representation —
#: each label round's independent cut queries are speculatively
#: precomputed through one stacked level-BFS flow solve, with a
#: vectorized height prefilter skipping trivially decided queries.  The
#: pseudo-kernel ``"auto"`` resolves to ``"vector"`` or ``"compiled"``
#: from the microbench-measured crossover
#: (:func:`repro.kernel.batch.resolve_kernel`), and ``"vector"``
#: degrades to ``"compiled"`` when numpy is not installed.  All kernels
#: produce bit-identical labels, cuts, and mapped networks.
KERNELS = ("compiled", "object", "vector")


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

    ``dinic_phases`` / ``arcs_advanced`` are the Dinic flow engine's
    deterministic work counters (level-graph BFS phases run and arcs
    examined by the blocking-flow search, summed over all cut queries);
    both stay 0 under the Edmonds-Karp engine.  Under the vector kernel
    they measure the *batched* search (stacked phases and arcs), so they
    are comparable between vector runs but not across kernels.

    The batch-kernel counters (all 0 under scalar kernels):
    ``batched_queries`` counts cut queries answered from a speculative
    batch solve instead of the scalar path, ``prefilter_hits`` the
    queries the vectorized height prefilter decided without building a
    flow network (recorded-witness feasible, or depth-1 blocked), and
    ``batch_rounds`` the batch rounds that answered unblocked
    expansions (from their frontier, or by one stacked arena solve of
    those with candidate copies).  ``flow_queries``
    counts every answered query regardless of path, so it stays
    bit-identical across kernels.

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
    batched_queries: int = 0
    prefilter_hits: int = 0
    batch_rounds: int = 0
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
        self.batched_queries += other.batched_queries
        self.prefilter_hits += other.prefilter_hits
        self.batch_rounds += other.batch_rounds
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
        engine: str = "worklist",
        seed_labels: Optional[Sequence[int]] = None,
        max_copies: int = DEFAULT_MAX_COPIES,
        flow: str = "dinic",
        kernel: str = "compiled",
        dirty_seed: Optional[DirtySeed] = None,
    ) -> None:
        if phi < 1:
            raise ValueError("target clock period must be at least 1")
        if engine not in ENGINES:
            raise ValueError(
                f"unknown label engine {engine!r}; valid engines: "
                + ", ".join(ENGINES)
            )
        if flow not in FLOWS:
            raise ValueError(
                f"unknown flow engine {flow!r}; valid engines: "
                + ", ".join(FLOWS)
            )
        # "auto" picks vector vs compiled from the measured crossover;
        # "vector" silently degrades to "compiled" without numpy (the
        # import-guarded fallback of the optional [vector] extra).
        if kernel in ("auto", "vector"):
            kernel = resolve_kernel(kernel, len(circuit))
        if kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; valid kernels: "
                + ", ".join(KERNELS)
            )
        self.circuit = circuit
        self.k = k
        self.phi = phi
        self.resyn_hook = resyn_hook
        self.pld = pld
        self.extra_depth = extra_depth
        self.engine = engine
        self.flow = flow
        self.kernel = kernel
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
        # Memoization: when a node's label last changed, and per node the
        # set of nodes its last flow query looked at (plus the expansion
        # itself, for reuse by the resynthesis hook at the same
        # threshold).
        self._change_stamp: List[int] = [0] * n
        self._clock = 0
        self._check_stamp: List[int] = [-1] * n
        self._check_l: List[Optional[int]] = [None] * n
        self._check_result: List[Optional[bool]] = [None] * n
        self._check_cone: List[Optional[List[int]]] = [None] * n
        self._check_expansion: List[
            Optional["PartialExpansion | PackedExpansion"]
        ] = [None] * n
        # Worklist memo guards: per gate, cone member -> the largest
        # label under which the member's frontier copies keep their tier
        # (candidate: height <= threshold; gate leaf: height <= floor).
        # While every member stays at or under its cap the expansion
        # structure — and therefore the flow verdict — is provably
        # unchanged, so the memo survives benign label rises that the
        # classical any-change invalidation would flush.  ``{}`` marks a
        # blocked expansion (permanently blocked at this threshold: PI
        # heights never change).  The rounds engine keeps the classical
        # stamp-based invalidation as the faithful baseline.
        self._check_guard: List[Optional[dict]] = [None] * n
        # Last witnessing K-cut per gate (worklist only).  A cut is a
        # structural separator of the unrolled cone, so it certifies
        # feasibility at any later threshold its member heights still
        # satisfy -- even after the guard above has expired.
        self._check_cut: List[Optional[list]] = [None] * n
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
        # Gates whose label is currently justified by a resynthesis win.
        # The decomposition reads labels in cones *deeper* than the
        # recorded K-cut cone (min-cuts below the threshold, cut-input
        # arrival times), which the cone index does not cover — so the
        # worklist conservatively re-enqueues every such gate after any
        # in-SCC label rise (upstream SCCs are already frozen).
        self._resyn_dep: Set[int] = set()
        # One scratch arena recycled across every cut query: the packed
        # builder (compiled/vector kernels) or the tuple-keyed
        # SplitNetwork (object kernel), each backed by the selected flow
        # engine.  The vector kernel additionally keeps a stacked batch
        # arena, numpy views of the CSR arrays, a live int64 mirror of
        # the label list, and the pending speculative batch entries.
        if kernel != "object":
            self._cc = circuit.compiled()
            self._packed_arena = PackedCutArena(flow=flow)
            self._flow_arena = None
        else:
            self._cc = None
            self._packed_arena = None
            self._flow_arena = SplitNetwork(flow=flow)
        if kernel == "vector":
            self._batch_arena: Optional[BatchCutArena] = BatchCutArena()
            self._views = views_from_compiled(self._cc)
            self._labels_arr = np.asarray(self.labels, dtype=np.int64)
        else:
            self._batch_arena = None
            self._views = None
            self._labels_arr = None
        self._batch: dict = {}
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
    def height_of(self, u: int, w: int) -> int:
        """Height contribution ``l(u) - phi*w + 1`` of copy ``u^w``."""
        return self.labels[u] - self.phi * w + 1

    def _memo_valid(self, v: int, threshold: int) -> bool:
        """True when the last flow query of ``v`` still answers
        ``threshold``.

        The worklist engine proves this structurally — same threshold
        and every guarded cone member still at or under its tier cap
        (see ``_check_guard``) — so benign rises keep the memo alive.
        The rounds engine uses the classical invalidation: same
        threshold and no cone member changed since the query.
        """
        if self._check_l[v] != threshold:
            return False
        if self.engine == "worklist":
            guard = self._check_guard[v]
            if guard is None:
                return False
            labels = self.labels
            return all(labels[u] <= cap for u, cap in guard.items())
        cone = self._check_cone[v]
        if cone is None:
            return False
        stamp = self._check_stamp[v]
        change = self._change_stamp
        return all(change[u] <= stamp for u in cone)

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
        if self.engine == "worklist":
            # A recorded cut separates v's copy from the rest of the
            # unrolled circuit structurally -- labels play no part in
            # the separation, only in the height bound.  If every cut
            # member's current height still fits under the (possibly
            # new) threshold, the same cut witnesses feasibility and
            # the expansion plus flow query can be skipped outright.
            cut = self._check_cut[v]
            if cut is not None:
                labels = self.labels
                phi = self.phi
                if all(
                    labels[u] - phi * w + 1 <= threshold for u, w in cut
                ):
                    # Re-anchor the memo on the witness itself: the
                    # verdict stays True exactly while every cut member
                    # keeps height <= threshold, and a member crossing
                    # its cap re-enqueues v through the cone index.
                    # The recorded expansion belongs to the old
                    # threshold, so it must not survive the re-anchor.
                    guard = {}
                    for u, w in cut:
                        cap = threshold + phi * w - 1
                        if guard.get(u, cap + 1) > cap:
                            guard[u] = cap
                    old_guard = self._check_guard[v]
                    if old_guard:
                        for u in old_guard:
                            self._cone_index[u].discard(v)
                    for u in guard:
                        self._cone_index[u].add(v)
                    self._check_guard[v] = guard
                    self._check_l[v] = threshold
                    self._check_result[v] = True
                    self._check_expansion[v] = None
                    self.stats.cache_hits += 1
                    return True
        # Speculative batch consume (vector kernel): a pending entry
        # prepped at the same threshold whose read labels have not
        # changed since prep answers the query with no expansion and no
        # flow work.  Entries are (threshold, expansion, read_set,
        # prep_stamp, cut); labels only rise, so an entry the prep-time
        # checks admitted stays the exact answer while its read set is
        # untouched — otherwise it is discarded and the scalar path
        # below recomputes from live labels.
        if self._batch:
            entry = self._batch.pop(v, None)
            if entry is not None and entry[0] == threshold:
                stamp = entry[3]
                change = self._change_stamp
                if all(change[u] <= stamp for u in entry[2]):
                    self.stats.flow_queries += 1
                    self.stats.batched_queries += 1
                    cut = entry[4]
                    self._record_query(v, threshold, entry[1], cut)
                    return cut is not None
        t0 = time.perf_counter()
        compiled = self.kernel != "object"
        if compiled:
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
        else:
            expansion = expand_partial(
                self.circuit,
                v,
                self.phi,
                self.height_of,
                threshold,
                extra_depth=self.extra_depth,
                max_copies=self.max_copies,
            )
        t1 = time.perf_counter()
        self.stats.t_expand += t1 - t0
        self.stats.flow_queries += 1
        if compiled:
            packed_cut = cut_on_packed(
                expansion, self.k, arena=self._packed_arena
            )
            cut = (
                None
                if packed_cut is None
                else expansion.unpack_copies(packed_cut)
            )
            phases, arcs = self._packed_arena.drain_counters()
        else:
            cut = cut_on_expansion(expansion, self.k, arena=self._flow_arena)
            phases, arcs = self._flow_arena.drain_counters()
        self.stats.t_flow += time.perf_counter() - t1
        self.stats.dinic_phases += phases
        self.stats.arcs_advanced += arcs
        self._record_query(v, threshold, expansion, cut)
        return cut is not None

    def _record_query(
        self,
        v: int,
        threshold: int,
        expansion: "PartialExpansion | PackedExpansion",
        cut: Optional[List[Tuple[int, int]]],
    ) -> None:
        """Feed one answered cut query into the per-node memo.

        Shared by the scalar path and the batch consume, so both leave
        bit-identical memo state (guards, cone index, witness cuts,
        stamps) behind.
        """
        compiled = self.kernel != "object"
        # Both kernels feed the memo the same view: frontier copies as
        # (u, w) pairs.  Packed tiers decode lazily here — the frontier
        # is tiny next to the interior the hot loops just traversed.
        if compiled:
            candidates = expansion.unpack_copies(expansion.candidates)
            leaves = expansion.unpack_copies(expansion.leaves)
        else:
            candidates = expansion.candidates
            leaves = expansion.leaves
        if self.engine == "worklist":
            # Tier caps: a frontier copy u^w keeps its tier while
            # l(u) - phi*w + 1 stays at or below its bound, i.e. while
            # l(u) <= bound + phi*w - 1.  Interior copies only sink
            # deeper as labels rise and PI labels are fixed, so neither
            # constrains the memo; a blocked expansion stays blocked at
            # this threshold forever (empty guard).
            guard: dict = {}
            if not expansion.blocked:
                floor = threshold - self.extra_depth * self.phi
                for u, w in candidates:
                    cap = threshold + self.phi * w - 1
                    if guard.get(u, cap + 1) > cap:
                        guard[u] = cap
                if compiled:
                    kinds = self._cc.kinds
                    for u, w in leaves:
                        if kinds[u] == KIND_GATE:
                            cap = floor + self.phi * w - 1
                            if guard.get(u, cap + 1) > cap:
                                guard[u] = cap
                else:
                    kind = self.circuit.kind
                    for u, w in leaves:
                        if kind(u) is NodeKind.GATE:
                            cap = floor + self.phi * w - 1
                            if guard.get(u, cap + 1) > cap:
                                guard[u] = cap
            old_guard = self._check_guard[v]
            if old_guard:
                for u in old_guard:
                    self._cone_index[u].discard(v)
            for u in guard:
                self._cone_index[u].add(v)
            self._check_guard[v] = guard
            if cut is not None:
                self._check_cut[v] = cut
        else:
            cone_nodes = {v}
            if compiled:
                mask = self._cc.mask
                for p in expansion.interior:
                    cone_nodes.add(p & mask)
            else:
                for u, _w in expansion.interior:
                    cone_nodes.add(u)
            for u, _w in candidates:
                cone_nodes.add(u)
            for u, _w in leaves:
                cone_nodes.add(u)
            self._check_cone[v] = list(cone_nodes)
            self._check_stamp[v] = self._clock
        self._check_l[v] = threshold
        self._check_result[v] = cut is not None
        self._check_expansion[v] = expansion

    def expansion_for(
        self, v: int, threshold: int
    ) -> Optional["PartialExpansion | PackedExpansion"]:
        """The cached partial expansion of ``E_v`` at ``threshold``.

        The expansion type follows the solver's kernel — a
        :class:`~repro.kernel.expand.PackedExpansion` under
        ``kernel="compiled"`` — and
        :func:`repro.core.kcut.cut_on_expansion` accepts either.

        Valid only while ``_memo_valid`` can prove the recorded
        expansion still holds — structurally for the worklist engine
        (every guarded frontier member at or under its tier cap), by
        cone change-stamps for the rounds engine; returns ``None``
        otherwise.  The TurboSYN resynthesis hook uses this to skip the
        re-expansion its first (height ``L(v)``) min-cut query would
        otherwise repeat right after a failed K-cut check.
        """
        if self._memo_valid(v, threshold):
            return self._check_expansion[v]
        return None

    def _update(self, v: int) -> bool:
        """One label update; returns True when ``l(v)`` increased."""
        self.stats.updates += 1
        pins = self.circuit.fanins(v)
        if not pins:
            return False  # constant generators keep label 1
        big_l = max(self.labels[p.src] - self.phi * p.weight for p in pins)
        self._last_big_l[v] = big_l
        if big_l < self.labels[v]:
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
        if new > self.labels[v]:
            self.labels[v] = new
            if self._labels_arr is not None:
                self._labels_arr[v] = new
            self._clock += 1
            self._change_stamp[v] = self._clock
            return True
        return False

    # ------------------------------------------------------------------
    def _blocked_expansion(self, v: int, threshold: int) -> PackedExpansion:
        """The exact partial expansion of a depth-1 blocked query.

        When an arg-max fanin pin of ``v`` is driven by a PI, its copy
        height ``big_l + 1`` exceeds ``threshold = big_l`` and
        :func:`~repro.kernel.expand.expand_partial_packed` blocks while
        classifying the root's own pins — before expanding anything.
        This synthesizes that state without the traversal: pins before
        the first blocking one are classified (and their edges
        recorded), the blocking pin terminates the expansion with its
        edge unrecorded, exactly like the real traversal's early
        return.
        """
        cc = self._cc
        shift = cc.shift
        labels = self.labels
        phi = self.phi
        floor = threshold - self.extra_depth * phi
        result = PackedExpansion(root=v, shift=shift, blocked=True)
        result.interior.append(v)
        count = 1
        kinds = cc.kinds
        srcs = cc.srcs
        weights = cc.weights
        edges = result.edges
        for i in range(cc.offsets[v], cc.offsets[v + 1]):
            src = srcs[i]
            w = weights[i]
            height = labels[src] - phi * w + 1
            kind = kinds[src]
            if height > threshold:
                if kind == KIND_PI:
                    return result
                tier_list = result.interior
            elif kind == KIND_GATE and height > floor:
                tier_list = result.candidates
            else:
                tier_list = result.leaves
            count += 1
            if count > self.max_copies:
                raise ExpansionOverflow(
                    self.circuit.name_of(v), self.max_copies
                )
            tier_list.append((w << shift) | src)
            edges.append((w << shift) | src)
            edges.append(v)
        raise AssertionError("no blocking pin found")  # pragma: no cover

    def _prep_batch(self, gates: Sequence[int]) -> None:
        """Speculatively precompute a burst of cut queries (vector kernel).

        Pure with respect to solver state except for the pending-entry
        dict and the prefilter/flow counters: for every gate whose next
        ``_update`` would issue a flow query under *current* labels, the
        query is answered now — trivially via the vectorized height
        prefilter where possible, through one stacked
        :class:`~repro.kernel.batch.BatchCutArena` solve otherwise —
        and parked for ``_has_kcut`` to consume.  Entries record the
        labels they read; a label rise in between invalidates them at
        consume time (labels are monotone, so prep-time admission never
        over-commits), falling back to the scalar path.  Only queries
        whose expansion has candidate copies are stacked; the rest are
        answered from their frontier, as the scalar path answers them.
        """
        arena = self._batch_arena
        self._batch.clear()
        if arena is None or len(gates) < 2:
            return
        labels = self.labels
        labels_arr = self._labels_arr
        phi = self.phi
        big_l_arr, has_pins, blocked_arr = batch_gate_profile(
            self._views, labels_arr, phi, gates, KIND_PI
        )
        # Gates whose update would actually query: pins exist, the fanin
        # maximum can raise the label, and the memo cannot answer.
        todo: List[Tuple[int, int, bool]] = []
        for i, v in enumerate(gates):
            if not has_pins[i]:
                continue
            big_l = int(big_l_arr[i])
            if big_l < labels[v]:
                continue
            if self._memo_valid(v, big_l):
                continue
            todo.append((v, big_l, bool(blocked_arr[i])))
        if not todo:
            return
        # Prefilter 1 — recorded witness cuts, checked as one stacked
        # height comparison: a passing witness means the consume-time
        # re-anchor in _has_kcut answers the query with no network.
        if self.engine == "worklist":
            wit_nodes: List[int] = []
            wit_weights: List[int] = []
            wit_qid: List[int] = []
            wit_thr: List[int] = []
            wit_pos: List[int] = []
            for j, (v, big_l, _blk) in enumerate(todo):
                cut = self._check_cut[v]
                if not cut:
                    continue
                qid = len(wit_thr)
                wit_thr.append(big_l)
                wit_pos.append(j)
                for u, w in cut:
                    wit_nodes.append(u)
                    wit_weights.append(w)
                    wit_qid.append(qid)
            if wit_thr:
                ok = witness_feasible(
                    labels_arr, phi, wit_nodes, wit_weights, wit_qid, wit_thr
                )
                hits = set()
                for qid, j in enumerate(wit_pos):
                    if ok[qid]:
                        hits.add(j)
                        self.stats.prefilter_hits += 1
                if hits:
                    todo = [t for j, t in enumerate(todo) if j not in hits]
        # Prefilter 2 — depth-1 blocked: an arg-max PI pin blocks the
        # expansion on the root's own pin list; synthesize that exact
        # partial expansion instead of traversing.  Everything else
        # expands for real and stacks into the batch arena.
        stamp = self._clock
        cc = self._cc
        mask = cc.mask
        kinds = cc.kinds
        t0 = time.perf_counter()
        stacked: List[Tuple[int, list]] = []
        unblocked = False
        for v, big_l, blk in todo:
            try:
                if blk:
                    expansion = self._blocked_expansion(v, big_l)
                    self.stats.prefilter_hits += 1
                else:
                    expansion = expand_partial_packed(
                        cc,
                        v,
                        phi,
                        labels,
                        big_l,
                        extra_depth=self.extra_depth,
                        max_copies=self.max_copies,
                        name_of=self.circuit.name_of,
                    )
            except ExpansionOverflow:
                # The scalar path raises the identical overflow at
                # consume time (same labels, same expansion) — let it
                # own the failure so batching never changes behavior.
                continue
            read = {v}
            for p in expansion.interior:
                read.add(p & mask)
            for p in expansion.candidates:
                read.add(p & mask)
            for p in expansion.leaves:
                u = p & mask
                if kinds[u] == KIND_GATE:
                    read.add(u)
            if expansion.blocked:
                self._batch[v] = (big_l, expansion, read, stamp, None)
                continue
            unblocked = True
            if not expansion.candidates:
                packed_cut = cut_on_packed(
                    expansion, self.k, arena=self._packed_arena
                )
                cut = (
                    None
                    if packed_cut is None
                    else expansion.unpack_copies(packed_cut)
                )
                self._batch[v] = (big_l, expansion, read, stamp, cut)
            else:
                stacked.append((v, [big_l, expansion, read]))
        self.stats.t_expand += time.perf_counter() - t0
        if unblocked:
            self.stats.batch_rounds += 1
        if not stacked:
            return
        t1 = time.perf_counter()
        arena.reset()
        for _v, entry in stacked:
            arena.add(entry[1], self.k)
        cuts = arena.solve()
        phases, arcs = arena.drain_counters()
        self.stats.dinic_phases += phases
        self.stats.arcs_advanced += arcs
        self.stats.t_flow += time.perf_counter() - t1
        for (v, entry), packed_cut in zip(stacked, cuts):
            big_l, expansion, read = entry
            cut = (
                None
                if packed_cut is None
                else expansion.unpack_copies(packed_cut)
            )
            self._batch[v] = (big_l, expansion, read, stamp, cut)

    # ------------------------------------------------------------------
    def _grounded(self, members: List[int], member_set: Set[int]) -> bool:
        """PLD signal: is any SCC label still justified from outside?

        See :mod:`repro.core.pld` for the predecessor-graph construction.
        """
        self.stats.pld_checks += 1
        t0 = time.perf_counter()
        result = bool(
            grounded_members(self.circuit, self.labels, self.phi, members, member_set)
        )
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

    def _run_scc_rounds(
        self,
        members: List[int],
        member_set: Set[int],
        max_rounds: int,
    ) -> bool:
        """Classical round-robin sweep; returns True when converged."""
        san = self._san
        isolated_streak = 0
        for _round in range(max_rounds):
            self._check_deadline()
            self._prep_batch(members)
            self.stats.rounds += 1
            before = None if san is None else san.snapshot(members)
            changed = False
            for v in members:
                if self._update(v):
                    changed = True
            if san is not None and before is not None:
                san.check_epoch(members, before)
            if not changed:
                return True
            if self.pld:
                if self._grounded(members, member_set):
                    isolated_streak = 0
                else:
                    isolated_streak += 1
                    if isolated_streak >= self.PLD_PATIENCE:
                        return False
        return False

    def _run_scc_worklist(
        self,
        members: List[int],
        member_set: Set[int],
        order_pos: "dict[int, int]",
        max_rounds: int,
    ) -> bool:
        """Event-driven worklist iteration; returns True when converged.

        Epochs mirror round-robin rounds: each epoch drains the gates
        made dirty by the previous one, in topological order, and a rise
        at position ``p`` cascades within the epoch to dependents at
        positions ``> p`` (exactly the gates a round-robin sweep would
        still visit this round) while dependents at positions ``<= p``
        wait for the next epoch.  After every changed epoch the PLD
        justification check runs, so the ``6n``-round accounting of the
        paper's Theorem 2 applies with epochs counted as rounds.

        Gates whose label currently rests on a resynthesis win are
        additionally re-enqueued after *every* in-SCC rise: the
        decomposition read labels beyond the recorded K-cut cone
        (deeper min-cut expansions, cut-input arrival times), so the
        cone index alone cannot prove them clean.
        """
        fanouts = self.circuit.fanouts
        cone_index = self._cone_index
        heap: List[Tuple[int, int]] = [(order_pos[v], v) for v in members]
        heapq.heapify(heap)
        in_current = set(members)
        next_set: Set[int] = set()
        san = self._san
        isolated_streak = 0
        for _epoch in range(max_rounds):
            self._check_deadline()
            if self._batch_arena is not None:
                self._prep_batch([v for _pos, v in sorted(heap)])
            self.stats.rounds += 1
            before = None if san is None else san.snapshot(members)
            changed = False
            while heap:
                pos_v, v = heapq.heappop(heap)
                in_current.discard(v)
                if not self._update(v):
                    continue
                changed = True
                for dep in cone_index[v]:
                    if dep not in member_set or dep in in_current:
                        continue
                    guard = self._check_guard[dep]
                    if guard is not None:
                        cap = guard.get(v)
                        if cap is not None and self.labels[v] <= cap:
                            # Still under the tier cap: the recorded
                            # expansion (and verdict) provably stands.
                            continue
                    if order_pos[dep] > pos_v:
                        in_current.add(dep)
                        heapq.heappush(heap, (order_pos[dep], dep))
                    else:
                        next_set.add(dep)
                for dst, w in fanouts(v):
                    if dst not in member_set or dst in in_current:
                        continue
                    contribution = self.labels[v] - self.phi * w
                    if (
                        contribution <= self._last_big_l[dst]
                        or contribution < self.labels[dst]
                    ):
                        # The rise cannot lift dst's fanin maximum past
                        # its already-justified label: the triggered
                        # update would early-return (big_l < l(dst)) or
                        # recompute the same big_l.  Any big_l at or
                        # above l(dst) is driven by a fanin whose own
                        # rise enqueues dst unfiltered; a memo-cone
                        # effect re-enqueues via the cone index above.
                        continue
                    if order_pos[dst] > pos_v:
                        in_current.add(dst)
                        heapq.heappush(heap, (order_pos[dst], dst))
                    else:
                        next_set.add(dst)
                for dep in list(self._resyn_dep):
                    if dep == v or dep not in member_set or dep in in_current:
                        continue
                    if order_pos[dep] > pos_v:
                        in_current.add(dep)
                        heapq.heappush(heap, (order_pos[dep], dep))
                    else:
                        next_set.add(dep)
            if san is not None and before is not None:
                san.check_epoch(members, before)
            if not changed:
                return True
            if self.pld:
                if self._grounded(members, member_set):
                    isolated_streak = 0
                else:
                    isolated_streak += 1
                    if isolated_streak >= self.PLD_PATIENCE:
                        return False
            if not next_set:
                return True  # every dependent already settled in-epoch
            heap = [(order_pos[v], v) for v in next_set]
            heapq.heapify(heap)
            in_current = next_set
            next_set = set()
        return False

    def _flush_singletons(self, pending: List[int]) -> None:
        """Update a buffered run of singleton (acyclic) SCCs in order.

        Consecutive singleton SCCs are collected by :meth:`_run` and
        prepped as one burst before any of them updates: on DAG-heavy
        circuits this is where most cut queries live, and independent
        gates of the run batch through one stacked solve (chained gates
        whose thresholds shift mid-run simply fail consume validation
        and fall back to the scalar path, preserving bit-identity).
        """
        if len(pending) > 1:
            self._prep_batch(pending)
        for v in pending:
            self.stats.rounds += 1
            if self._san is not None:
                before = self._san.snapshot([v])
                self._update(v)
                self._san.check_epoch([v], before)
            else:
                self._update(v)
        pending.clear()

    def _run(self) -> LabelOutcome:
        """Compute all labels or detect infeasibility."""
        order_pos = {nid: i for i, nid in enumerate(self.circuit.comb_topo_order())}
        pending_singletons: List[int] = []
        for component in self.circuit.sccs():
            self._check_deadline()
            members = [
                v for v in component if self.circuit.kind(v) is NodeKind.GATE
            ]
            if not members:
                continue
            if self._dirty is not None and not any(
                v in self._dirty for v in members
            ):
                # Wholly clean SCC: its transitive fanin is clean too
                # (dirty regions are forward-closed), so its members
                # already carry the exact fixpoint adopted from the
                # previous run — iterating (and PLD) would be a no-op.
                self.stats.sccs_skipped += 1
                continue
            members.sort(key=lambda nid: order_pos[nid])
            member_set = set(members)
            n_scc = len(members)
            self_looped = any(
                pin.src in member_set
                for v in members
                for pin in self.circuit.fanins(v)
            )
            if n_scc == 1 and not self_looped:
                pending_singletons.append(members[0])
                continue
            self._flush_singletons(pending_singletons)
            max_rounds = 6 * n_scc + self.PLD_PATIENCE if self.pld else n_scc * n_scc + 2
            rounds_before = self.stats.rounds
            if self.engine == "rounds":
                converged = self._run_scc_rounds(members, member_set, max_rounds)
            else:
                converged = self._run_scc_worklist(
                    members, member_set, order_pos, max_rounds
                )
            if self._san is not None:
                self._san.check_epoch_budget(
                    self.stats.rounds - rounds_before, max_rounds
                )
            if not converged:
                return LabelOutcome(
                    feasible=False,
                    labels=self.labels,
                    stats=self.stats,
                    failed_scc=members,
                )
        self._flush_singletons(pending_singletons)
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
