"""Invariant sanitizer: opt-in runtime assertion hooks (SAN0xx).

The static packs (:mod:`repro.analysis.invariants`,
:mod:`repro.analysis.kernelrules`, :mod:`repro.analysis.increrules`)
audit *results*; this module audits *executions*.  When enabled —
``REPRO_SANITIZE=1`` in the environment or :func:`enable` / the
``--sanitize`` CLI flag — cheap assertion hooks are wired into the hot
engines at construction time:

========  ==========================  =====================================
SAN001    label-monotonicity          labels never decrease across an epoch
SAN002    label-epoch-fixpoint        epoch budget respected; converged
                                      labels justified by their fanin
                                      maximum (``big_l <= l``, and
                                      ``l <= max(1, big_l + 1)`` without a
                                      resynthesis hook or warm seed)
SAN003    flow-conservation           net residual flow is zero at every
                                      internal node
SAN004    capacity-respect            residual capacities non-negative and
                                      forward/reverse pair sums preserved
SAN005    level-graph-sanity          every positive-capacity arc between
                                      BFS-reached nodes rises at most one
                                      level
SAN006    reused-label-exactness      clean gates of a dirty-seeded repair
                                      keep the adopted fixpoint verbatim
                                      and stay justified
SAN007    frontier-cut-exactness      a cut answered from the expansion
                                      frontier (no candidates, no flow
                                      solve) matches a Dinic re-solve of
                                      the node-split network
========  ==========================  =====================================

A violated hook raises :class:`SanitizerViolation` carrying a full
:class:`~repro.analysis.engine.Diagnostic` — the caller decides whether
to render, collect, or abort.  The rules are registered under the
``"sanitizer"`` scope purely for metadata (SARIF descriptors, rule
listings); their check functions never run through the engine because
the hooks fire in-line.

``python -m repro.analysis.sanitize --selftest`` runs the seeded
mutation-testing harness: for every hook it injects one bug into the
engine under test (a label decrease, a phantom label bump, a flow
transfer, a negative capacity, a corrupted BFS level, a corrupted
adopted label, an off-by-one frontier bound) and asserts that exactly
that hook catches it, and that the unmutated runs stay silent.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.engine import (
    Diagnostic,
    Location,
    Rule,
    Severity,
    all_rules,
    register,
)

if TYPE_CHECKING:  # imported lazily at runtime (repro.core imports us)
    from repro.boolfn.truthtable import TruthTable
    from repro.core.expanded import PartialExpansion
    from repro.core.labels import DirtySeed, LabelSolver
    from repro.kernel.dinic import DinicNetwork
    from repro.kernel.expand import PackedExpansion

#: Environment variable that switches the sanitizer on.
ENV_FLAG = "REPRO_SANITIZE"

#: Process-wide override set by :func:`enable`; ``None`` defers to the
#: environment.
_forced: Optional[bool] = None


def enabled() -> bool:
    """True when sanitizer hooks should be armed at construction time."""
    if _forced is not None:
        return _forced
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def enable(on: bool = True) -> None:
    """Force the sanitizer on (or off) regardless of the environment."""
    global _forced
    _forced = on


def reset() -> None:
    """Drop any :func:`enable` override; the environment decides again."""
    global _forced
    _forced = None


class SanitizerViolation(RuntimeError):
    """An armed invariant hook observed an impossible engine state."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


def _violation(
    rule_id: str, message: str, loc: Location, **data: object
) -> SanitizerViolation:
    return SanitizerViolation(
        Diagnostic(rule_id, Severity.ERROR, message, loc, data=dict(data))
    )


def _descriptor_only(_ctx: object) -> Iterator[Diagnostic]:
    """Sanitizer rules fire from in-line hooks, never via ``run_rules``."""
    return iter(())


def _describe(rule_id: str, name: str, description: str) -> None:
    # Idempotent: ``python -m repro.analysis.sanitize`` loads this module
    # once as ``__main__`` and once canonically (via the engine hooks'
    # lazy imports); both executions hit the same shared registry.
    if any(r.id == rule_id for r in all_rules("sanitizer")):
        return
    register(
        Rule(rule_id, name, Severity.ERROR, "sanitizer", description,
             _descriptor_only)
    )


_describe(
    "SAN001",
    "label-monotonicity",
    "Within one label-solver run, node labels only increase: any epoch "
    "that lowers a label has corrupted the fixpoint iteration.",
)
_describe(
    "SAN002",
    "label-epoch-fixpoint",
    "An SCC must converge within its declared epoch budget, and every "
    "converged gate label must be justified by its fanin maximum: "
    "big_l(v) <= l(v) always, and l(v) <= max(1, big_l(v) + 1) when no "
    "resynthesis hook or warm seed can have lifted it.",
)
_describe(
    "SAN003",
    "flow-conservation",
    "After a max-flow run, the net flow at every node other than the "
    "source and the sink must be zero.",
)
_describe(
    "SAN004",
    "capacity-respect",
    "Residual capacities must stay non-negative and every forward/"
    "reverse edge pair must preserve its original capacity sum.",
)
_describe(
    "SAN005",
    "level-graph-sanity",
    "Right after a BFS phase, no positive-capacity arc between reached "
    "nodes may rise more than one level (Dinic's phase correctness "
    "rests on it).",
)
_describe(
    "SAN006",
    "reused-label-exactness",
    "Clean gates of a dirty-seeded repair must keep the adopted "
    "previous fixpoint verbatim: label >= 1, unchanged by the run, and "
    "still justified by the fanin maximum.",
)
_describe(
    "SAN007",
    "frontier-cut-exactness",
    "A cut query answered from the frontier of a candidate-free "
    "expansion (the leaves if at most max_cut, else none) must give the "
    "same verdict and the same cut as a Dinic solve of the node-split "
    "network.",
)


# ----------------------------------------------------------------------
# LabelSolver hooks (SAN001 / SAN002 / SAN006)
# ----------------------------------------------------------------------
class LabelSanitizer:
    """Armed assertion hooks for one :class:`LabelSolver` run."""

    def __init__(
        self, solver: "LabelSolver", dirty_seed: Optional["DirtySeed"]
    ) -> None:
        self.solver = solver
        self.dirty_seed = dirty_seed

    def _loc(self, v: Optional[int] = None) -> Location:
        circuit = self.solver.circuit
        node = None if v is None else circuit.name_of(v)
        return Location(circuit.name, node)

    def snapshot(self, members: Sequence[int]) -> List[int]:
        labels = self.solver.labels
        return [labels[v] for v in members]

    def check_epoch(
        self, members: Sequence[int], before: Sequence[int]
    ) -> None:
        """SAN001: no member label decreased during the epoch."""
        labels = self.solver.labels
        for v, old in zip(members, before):
            if labels[v] < old:
                raise _violation(
                    "SAN001",
                    f"label of {self.solver.circuit.name_of(v)!r} "
                    f"decreased from {old} to {labels[v]} within one "
                    "epoch",
                    self._loc(v),
                    before=old,
                    after=labels[v],
                    phi=self.solver.phi,
                )

    def check_epoch_budget(self, used: int, budget: int) -> None:
        """SAN002 (budget half): an SCC ran more epochs than declared."""
        if used > budget:
            raise _violation(
                "SAN002",
                f"SCC iteration ran {used} epochs against a budget of "
                f"{budget}",
                self._loc(),
                epochs=used,
                budget=budget,
                phi=self.solver.phi,
            )

    def check_converged(self) -> None:
        """SAN002 / SAN006: fixpoint justification on a feasible return.

        Iterated gates (all of them on a cold run, the dirty region on
        a seeded repair) must satisfy ``big_l(v) <= l(v)`` — otherwise
        an update could still raise the label and the run did not
        converge — and, when neither a resynthesis hook nor a warm seed
        can have lifted labels past the K-cut bound,
        ``l(v) <= max(1, big_l(v) + 1)``.  Clean gates of a seeded
        repair fall under SAN006 instead: adopted verbatim, at least 1,
        and still justified.
        """
        s = self.solver
        circuit = s.circuit
        labels = s.labels
        phi = s.phi
        dirty = s._dirty
        seed = self.dirty_seed
        bounded_above = s.resyn_hook is None and s.stats.warm_seeded == 0
        for g in circuit.gates:
            pins = circuit.fanins(g)
            if not pins:
                continue
            big_l = max(labels[p.src] - phi * p.weight for p in pins)
            name = circuit.name_of(g)
            if dirty is not None and g not in dirty:
                if labels[g] < 1:
                    raise _violation(
                        "SAN006",
                        f"clean gate {name!r} carries adopted label "
                        f"{labels[g]} < 1",
                        self._loc(g),
                        label=labels[g],
                        phi=phi,
                    )
                if seed is not None and labels[g] != seed.prev_labels[g]:
                    raise _violation(
                        "SAN006",
                        f"clean gate {name!r} drifted from its adopted "
                        f"label {seed.prev_labels[g]} to {labels[g]}",
                        self._loc(g),
                        adopted=seed.prev_labels[g],
                        label=labels[g],
                        phi=phi,
                    )
                if big_l > labels[g]:
                    raise _violation(
                        "SAN006",
                        f"clean gate {name!r} holds label {labels[g]} "
                        f"below its fanin maximum {big_l}; the adopted "
                        "fixpoint is stale",
                        self._loc(g),
                        label=labels[g],
                        big_l=big_l,
                        phi=phi,
                    )
                continue
            if big_l > labels[g]:
                raise _violation(
                    "SAN002",
                    f"converged label {labels[g]} of gate {name!r} lies "
                    f"below its fanin maximum {big_l}",
                    self._loc(g),
                    label=labels[g],
                    big_l=big_l,
                    phi=phi,
                )
            if bounded_above and labels[g] > max(1, big_l + 1):
                raise _violation(
                    "SAN002",
                    f"converged label {labels[g]} of gate {name!r} "
                    f"exceeds the K-cut bound max(1, {big_l} + 1)",
                    self._loc(g),
                    label=labels[g],
                    big_l=big_l,
                    phi=phi,
                )


def label_sanitizer(
    solver: "LabelSolver", dirty_seed: Optional["DirtySeed"]
) -> Optional[LabelSanitizer]:
    """The hook object :class:`LabelSolver` installs when enabled."""
    if not enabled():
        return None
    return LabelSanitizer(solver, dirty_seed)


# ----------------------------------------------------------------------
# Dinic hooks (SAN003 / SAN004 / SAN005)
# ----------------------------------------------------------------------
class FlowSanitizer:
    """Armed assertion hooks for one :class:`DinicNetwork` arena.

    Records every edge's original capacity (``record_edge``) so the
    end-of-run checks can verify pair-sum preservation exactly; the
    record is cleared together with the arena on ``reset``.
    """

    def __init__(self) -> None:
        self.orig: List[int] = []

    def reset(self) -> None:
        self.orig.clear()

    def record_edge(self, cap: int) -> None:
        self.orig.extend((cap, 0))

    @staticmethod
    def _loc(net: "DinicNetwork") -> Location:
        return Location("dinic", f"n{net.num_nodes}e{len(net._to)}")

    def check_levels(
        self, net: "DinicNetwork", source: int, sink: int
    ) -> None:
        """SAN005: the freshly computed BFS levels are a level graph.

        The check models the two deliberate cutoffs of
        :meth:`DinicNetwork._bfs_levels`: the sink is never expanded,
        and a node whose successors would land exactly on the sink's
        level is skipped (``du == sink_level``) — arcs out of either
        may legitimately reach nodes labelled deeper, so only arcs
        whose tail was provably expanded are held to ``lv <= lu + 1``.
        """
        to = net._to
        cap = net._cap
        level = net._level
        if level[source] != 0:
            raise _violation(
                "SAN005",
                f"BFS assigned level {level[source]} to the source",
                self._loc(net),
                source=source,
            )
        sink_level = level[sink]
        for idx in range(len(to)):
            if cap[idx] <= 0:
                continue
            u = to[idx ^ 1]
            v = to[idx]
            if u == sink:
                continue  # the sink is never expanded
            lu = level[u]
            lv = level[v]
            if lu + 1 == sink_level:
                continue  # expansion skipped at the sink-level cutoff
            if lu >= 0 and lv >= 0 and lv > lu + 1:
                raise _violation(
                    "SAN005",
                    f"positive-capacity arc {u}->{v} jumps from level "
                    f"{lu} to level {lv}",
                    self._loc(net),
                    u=u,
                    v=v,
                    level_u=lu,
                    level_v=lv,
                )

    def check_flow(
        self, net: "DinicNetwork", source: int, sink: int
    ) -> None:
        """SAN003 / SAN004: conservation and capacity on the residual."""
        to = net._to
        cap = net._cap
        orig = self.orig
        n_edges = len(to)
        if len(orig) != n_edges:
            raise _violation(
                "SAN004",
                f"original-capacity record covers {len(orig)} edges, "
                f"the arena has {n_edges}",
                self._loc(net),
            )
        balance = [0] * net.num_nodes
        for idx in range(0, n_edges, 2):
            fwd, rev = cap[idx], cap[idx + 1]
            if fwd < 0 or rev < 0:
                raise _violation(
                    "SAN004",
                    f"negative residual capacity on edge pair {idx}: "
                    f"forward {fwd}, reverse {rev}",
                    self._loc(net),
                    edge=idx,
                )
            if fwd + rev != orig[idx] + orig[idx + 1]:
                raise _violation(
                    "SAN004",
                    f"edge pair {idx} holds capacity {fwd + rev}, "
                    f"original sum was {orig[idx] + orig[idx + 1]}",
                    self._loc(net),
                    edge=idx,
                )
            flow = rev  # reverse edges start at 0: residual = pushed
            u = to[idx + 1]
            v = to[idx]
            balance[u] -= flow
            balance[v] += flow
        for node, net_flow in enumerate(balance):
            if node in (source, sink):
                continue
            if net_flow != 0:
                raise _violation(
                    "SAN003",
                    f"node {node} accumulates net flow {net_flow} "
                    "(conservation violated)",
                    self._loc(net),
                    node=node,
                    net_flow=net_flow,
                )


def flow_sanitizer() -> Optional[FlowSanitizer]:
    """The hook object :class:`DinicNetwork` installs when enabled."""
    if not enabled():
        return None
    return FlowSanitizer()


# ----------------------------------------------------------------------
# Frontier-cut hook (SAN007)
# ----------------------------------------------------------------------
class FrontierSanitizer:
    """Armed SAN007 hook: re-solve every frontier answer by flow.

    The re-solve runs on a fresh Dinic network, so an armed run also
    exercises the SAN003-SAN005 flow hooks on every cut query.
    """

    def check(
        self,
        expansion: Union["PackedExpansion", "PartialExpansion"],
        max_cut: int,
        cut: Optional[Sequence[object]],
    ) -> None:
        from repro.comb.maxflow import SplitNetwork
        from repro.core.kcut import flow_cut
        from repro.kernel.expand import (
            PackedCutArena,
            PackedExpansion,
            flow_cut_packed,
        )

        want: Optional[Sequence[object]]
        if isinstance(expansion, PackedExpansion):
            want = flow_cut_packed(
                expansion, max_cut, PackedCutArena(flow="dinic")
            )
            root = expansion.root
        else:
            want = flow_cut(expansion, max_cut, SplitNetwork(flow="dinic"))
            root = expansion.root[0]
        if want == cut:
            return
        raise _violation(
            "SAN007",
            f"frontier answer {cut!r} for a {len(expansion.leaves)}-leaf "
            f"expansion at max_cut={max_cut} disagrees with the flow "
            f"re-solve {want!r}",
            Location("frontier-cut", f"root {root}"),
            max_cut=max_cut,
            leaves=len(expansion.leaves),
            frontier=None if cut is None else list(cut),
            flow=None if want is None else list(want),
        )


def frontier_sanitizer() -> Optional[FrontierSanitizer]:
    """The hook the cut queries consult when enabled."""
    if not enabled():
        return None
    return FrontierSanitizer()


# ----------------------------------------------------------------------
# Seeded mutation-testing harness
# ----------------------------------------------------------------------
def _buf_tt() -> "TruthTable":
    from repro.boolfn.truthtable import TruthTable

    return TruthTable.from_function(1, lambda x: bool(x))


def _and2_tt() -> "TruthTable":
    from repro.boolfn.truthtable import TruthTable

    return TruthTable.from_function(2, lambda a, b: bool(a and b))


def _chain_circuit() -> "object":
    """PI -> g1 -> g2 -> g3 -> PO buffer chain (acyclic, trivially
    feasible): every gate is its own SCC, so each selftest mutation in
    ``_update`` fires on a well-defined single update."""
    from repro.netlist.graph import SeqCircuit

    c = SeqCircuit("san-chain")
    buf = _buf_tt()
    pi = c.add_pi("in")
    g1 = c.add_gate("g1", buf, [(pi, 0)])
    g2 = c.add_gate("g2", buf, [(g1, 0)])
    g3 = c.add_gate("g3", buf, [(g2, 0)])
    c.add_po("out", g3, 0)
    return c


def _ring_circuit() -> Tuple["object", int, int]:
    """A registered ring (ga <-> gb) plus an independent side gate gc.

    Returns ``(circuit, ring_gate_id, side_gate_id)``; the side gate is
    the dirty seed of the SAN006 scenario, leaving the ring wholly
    clean (and therefore skipped, preserving any corrupted adoption).
    """
    from repro.netlist.graph import SeqCircuit

    c = SeqCircuit("san-ring")
    buf = _buf_tt()
    and2 = _and2_tt()
    pi = c.add_pi("in")
    ga = c.add_gate_placeholder("ga", and2)
    gb = c.add_gate("gb", buf, [(ga, 0)])
    c.set_fanins(ga, [(pi, 0), (gb, 1)])
    c.add_po("out", gb, 0)
    gc = c.add_gate("gc", buf, [(pi, 0)])
    c.add_po("side", gc, 0)
    return c, ga, gc


def _run_solver(
    circuit: object, phi: int, dirty_seed: Optional["DirtySeed"] = None
) -> "object":
    from repro.core.labels import LabelSolver

    solver = LabelSolver(circuit, k=5, phi=phi, dirty_seed=dirty_seed)  # type: ignore[arg-type]
    return solver.run()


def _mutate_update_decrease() -> None:
    """SAN001 seed: one ``_update`` call zeroes the label it just set."""
    from repro.core.labels import LabelSolver

    original = LabelSolver._update
    armed = [True]

    def corrupted(self: "LabelSolver", v: int) -> bool:
        rose = original(self, v)
        if armed[0]:
            armed[0] = False
            self.labels[v] = 0
        return rose

    LabelSolver._update = corrupted  # type: ignore[method-assign]
    try:
        _run_solver(_chain_circuit(), phi=1)
    finally:
        LabelSolver._update = original  # type: ignore[method-assign]


def _mutate_update_overshoot() -> None:
    """SAN002 seed: one ``_update`` call bumps the label by 2 (an
    increase, so SAN001 stays silent; the fixpoint bound catches it)."""
    from repro.core.labels import LabelSolver

    original = LabelSolver._update
    armed = [True]

    def corrupted(self: "LabelSolver", v: int) -> bool:
        rose = original(self, v)
        if armed[0]:
            armed[0] = False
            self.labels[v] += 2
        return rose

    LabelSolver._update = corrupted  # type: ignore[method-assign]
    try:
        _run_solver(_chain_circuit(), phi=1)
    finally:
        LabelSolver._update = original  # type: ignore[method-assign]


def _dinic_network() -> Tuple["DinicNetwork", int, int]:
    from repro.kernel.dinic import DinicNetwork

    net = DinicNetwork()
    s, a, b, t = net.add_nodes(4)
    net.add_edge(s, a, 2)
    net.add_edge(a, b, 1)
    net.add_edge(a, t, 1)
    net.add_edge(b, t, 2)
    return net, s, t


def _mutate_augment_transfer() -> None:
    """SAN003 seed: after one augmentation, move one capacity unit from
    a forward edge to its reverse — pair sums and non-negativity hold
    (SAN004 silent), but the phantom flow breaks conservation."""
    from repro.kernel.dinic import DinicNetwork

    original = DinicNetwork._augment
    armed = [True]

    def corrupted(self: "DinicNetwork", source: int, sink: int) -> int:
        pushed = original(self, source, sink)
        if armed[0] and pushed:
            armed[0] = False
            for idx in range(0, len(self._cap), 2):
                if self._cap[idx] >= 1:
                    self._cap[idx] -= 1
                    self._cap[idx ^ 1] += 1
                    break
        return pushed

    DinicNetwork._augment = corrupted  # type: ignore[method-assign]
    try:
        net, s, t = _dinic_network()
        net.max_flow(s, t, limit=10)
    finally:
        DinicNetwork._augment = original  # type: ignore[method-assign]


def _mutate_augment_negative() -> None:
    """SAN004 seed: after one augmentation, force a forward capacity to
    -2 — conservation reads only reverse capacities (SAN003 silent)."""
    from repro.kernel.dinic import DinicNetwork

    original = DinicNetwork._augment
    armed = [True]

    def corrupted(self: "DinicNetwork", source: int, sink: int) -> int:
        pushed = original(self, source, sink)
        if armed[0] and pushed:
            armed[0] = False
            self._cap[0] = -2
        return pushed

    DinicNetwork._augment = corrupted  # type: ignore[method-assign]
    try:
        net, s, t = _dinic_network()
        net.max_flow(s, t, limit=10)
    finally:
        DinicNetwork._augment = original  # type: ignore[method-assign]


def _mutate_bfs_level() -> None:
    """SAN005 seed: corrupt one reached node's BFS level upward by 1 —
    its BFS parent then feeds it across two levels."""
    from repro.kernel.dinic import DinicNetwork

    original = DinicNetwork._bfs_levels
    armed = [True]

    def corrupted(self: "DinicNetwork", source: int, sink: int) -> bool:
        reached = original(self, source, sink)
        if armed[0] and reached:
            armed[0] = False
            for v in range(self.num_nodes):
                if self._level[v] >= 1:
                    self._level[v] += 1
                    break
        return reached

    DinicNetwork._bfs_levels = corrupted  # type: ignore[method-assign]
    try:
        net, s, t = _dinic_network()
        net.max_flow(s, t, limit=10)
    finally:
        DinicNetwork._bfs_levels = original  # type: ignore[method-assign]


def _mutate_adopted_label() -> None:
    """SAN006 seed: corrupt the adopted previous label of a clean ring
    gate to 0 and repair with an unrelated dirty seed — the ring SCC is
    skipped, so only the reuse hook can notice."""
    from repro.core.labels import DirtySeed

    circuit, ring_gate, side_gate = _ring_circuit()
    cold = _run_solver(circuit, phi=2)
    assert cold.feasible
    prev = list(cold.labels)
    prev[ring_gate] = 0
    _run_solver(
        circuit, phi=2, dirty_seed=DirtySeed(prev, frozenset({side_gate}))
    )


def _frontier_expansion() -> Tuple["PackedExpansion", int]:
    """A candidate-free packed expansion of ``and2(and2(a, b), d)`` at
    threshold 1, plus its leaf count: the root and the inner gate are
    interior, the three PI copies are leaves."""
    from repro.kernel.expand import expand_partial_packed
    from repro.netlist.graph import SeqCircuit

    c = SeqCircuit("san-frontier")
    and2 = _and2_tt()
    a, b, d = (c.add_pi(name) for name in "abd")
    inner = c.add_gate("inner", and2, [(a, 0), (b, 0)])
    root = c.add_gate("root", and2, [(inner, 0), (d, 0)])
    c.add_po("out", root, 0)
    labels = [0] * len(c)
    labels[inner] = 2
    labels[root] = 3
    exp = expand_partial_packed(c.compiled(), root, 1, labels, threshold=1)
    assert not exp.candidates and not exp.blocked
    return exp, len(exp.leaves)


def _mutate_frontier_bound() -> None:
    """SAN007 seed: the frontier shortcut rejects a frontier of exactly
    ``max_cut`` leaves (``>=`` instead of ``>``) — a legal cut the
    flow re-solve finds."""
    import repro.kernel.expand as kexpand

    original = kexpand.frontier_cut

    def corrupted(
        expansion: "PackedExpansion", max_cut: int
    ) -> Optional[List[int]]:
        if len(expansion.leaves) >= max_cut:
            return None
        return original(expansion, max_cut)

    setattr(kexpand, "frontier_cut", corrupted)
    try:
        exp, width = _frontier_expansion()
        kexpand.cut_on_packed(exp, width)
    finally:
        setattr(kexpand, "frontier_cut", original)


def _clean_runs() -> None:
    """Unmutated runs of every selftest scenario must stay silent."""
    from repro.core.labels import DirtySeed

    _run_solver(_chain_circuit(), phi=1)
    net, s, t = _dinic_network()
    flow = net.max_flow(s, t, limit=10)
    assert flow == 2, f"selftest network has max flow {flow}, want 2"
    circuit, _ring_gate, side_gate = _ring_circuit()
    cold = _run_solver(circuit, phi=2)
    assert cold.feasible
    _run_solver(
        circuit,
        phi=2,
        dirty_seed=DirtySeed(list(cold.labels), frozenset({side_gate})),
    )
    from repro.kernel.expand import cut_on_packed

    exp, width = _frontier_expansion()
    for max_cut in (width - 1, width, width + 1):
        cut_on_packed(exp, max_cut)


#: The harness: (rule expected to fire, scenario with one seeded bug).
_MUTATIONS: List[Tuple[str, Callable[[], None]]] = [
    ("SAN001", _mutate_update_decrease),
    ("SAN002", _mutate_update_overshoot),
    ("SAN003", _mutate_augment_transfer),
    ("SAN004", _mutate_augment_negative),
    ("SAN005", _mutate_bfs_level),
    ("SAN006", _mutate_adopted_label),
    ("SAN007", _mutate_frontier_bound),
]


def selftest() -> List[str]:
    """Run the mutation harness; returns failure descriptions (empty =
    every hook caught exactly its seeded bug and clean runs are silent).
    """
    global _forced
    failures: List[str] = []
    was_forced = _forced
    enable(True)
    try:
        try:
            _clean_runs()
        except SanitizerViolation as exc:
            failures.append(
                f"clean run raised {exc.diagnostic.rule_id}: "
                f"{exc.diagnostic.message}"
            )
        except AssertionError as exc:
            failures.append(f"clean run broke: {exc}")
        for expected, scenario in _MUTATIONS:
            try:
                scenario()
            except SanitizerViolation as exc:
                got = exc.diagnostic.rule_id
                if got != expected:
                    failures.append(
                        f"{expected}: seeded mutation tripped {got} "
                        f"instead ({exc.diagnostic.message})"
                    )
                continue
            failures.append(f"{expected}: seeded mutation was not caught")
    finally:
        _forced = was_forced
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.sanitize",
        description="Invariant sanitizer selftest: prove every SAN0xx "
        "hook catches its seeded mutation",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the seeded mutation-testing harness",
    )
    args = parser.parse_args(argv)
    if not args.selftest:
        parser.print_help()
        return 2
    failures = selftest()
    for line in failures:
        print(f"FAIL {line}")
    if failures:
        print(f"sanitizer selftest: {len(failures)} failure(s)")
        return 1
    print(
        f"sanitizer selftest: {len(_MUTATIONS)} seeded mutation(s) "
        "caught, clean runs silent"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    # Delegate to the canonical module so the hooks (which import
    # ``repro.analysis.sanitize``) raise the same SanitizerViolation
    # class the harness catches.
    from repro.analysis.sanitize import main as _canonical_main

    sys.exit(_canonical_main())
