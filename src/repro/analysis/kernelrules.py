"""Kernel rule pack: CSR integrity audit of compiled circuits.

The flat-array kernel (:mod:`repro.kernel.csr`) is trusted by every hot
loop (packed copies, CSR pin walks).  The ``"kernel"`` scope audits a
:class:`~repro.kernel.csr.CompiledCircuit` against both its own
structural invariants and the object circuit it claims to mirror:

========  ===========================  ========
KERN001   csr-indptr-sorted            error
KERN002   csr-pin-dedup                error
KERN003   pack-shift-bounds            error
KERN005   csr-object-crosscheck        error
========  ===========================  ========

Run them with :func:`audit_compiled`; ``repro lint`` compiles every
linted circuit and runs the pack alongside the structural rules, so a
kernel regression shows up in the same SARIF stream as a malformed
netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.analysis.engine import (
    Diagnostic,
    Location,
    Severity,
    rule,
    run_rules,
    sort_diagnostics,
)
from repro.kernel.csr import CompiledCircuit, kind_code, pack_shift
from repro.netlist.graph import SeqCircuit


@dataclass
class KernelContext:
    """Context of the ``"kernel"`` scope: a circuit and its CSR twin."""

    circuit: SeqCircuit
    compiled: CompiledCircuit
    file: Optional[str] = None

    def loc(self, nid: Optional[int] = None) -> Location:
        node = (
            None
            if nid is None or not 0 <= nid < len(self.circuit)
            else self.circuit.name_of(nid)
        )
        return Location(self.circuit.name, node, self.file)


def audit_compiled(
    circuit: SeqCircuit,
    compiled: Optional[CompiledCircuit] = None,
    file: Optional[str] = None,
    select: Optional[List[str]] = None,
) -> List[Diagnostic]:
    """Run the kernel pack over a circuit's compiled CSR.

    ``compiled`` defaults to the circuit's cached
    :meth:`~repro.netlist.graph.SeqCircuit.compiled` kernel; pass
    another instance to audit that one instead.
    """
    if compiled is None:
        compiled = circuit.compiled()
    ctx = KernelContext(circuit, compiled, file)
    return sort_diagnostics(run_rules("kernel", ctx, select))


@rule(
    "KERN001",
    "csr-indptr-sorted",
    Severity.ERROR,
    "kernel",
    "CSR offsets must start at 0, be monotonically non-decreasing, and "
    "close exactly over the pin arrays; kinds must cover every node.",
)
def check_indptr(ctx: KernelContext) -> Iterator[Diagnostic]:
    cc = ctx.compiled
    if len(cc.offsets) != cc.n + 1:
        yield Diagnostic(
            "KERN001",
            Severity.ERROR,
            f"offsets has {len(cc.offsets)} entries for n={cc.n} "
            "(want n+1)",
            ctx.loc(),
        )
        return
    if len(cc.kinds) != cc.n:
        yield Diagnostic(
            "KERN001",
            Severity.ERROR,
            f"kinds has {len(cc.kinds)} entries for n={cc.n}",
            ctx.loc(),
        )
    if cc.offsets and cc.offsets[0] != 0:
        yield Diagnostic(
            "KERN001",
            Severity.ERROR,
            f"offsets[0] is {cc.offsets[0]}, want 0",
            ctx.loc(),
        )
    bad = sorted(
        u
        for u in range(cc.n)
        if cc.offsets[u + 1] < cc.offsets[u]
    )
    for u in bad:
        yield Diagnostic(
            "KERN001",
            Severity.ERROR,
            f"offsets decrease at node {u}: "
            f"{cc.offsets[u]} -> {cc.offsets[u + 1]}",
            ctx.loc(u),
        )
    if cc.offsets[-1] != len(cc.srcs) or len(cc.srcs) != len(cc.weights):
        yield Diagnostic(
            "KERN001",
            Severity.ERROR,
            f"pin arrays disagree: offsets close at {cc.offsets[-1]}, "
            f"srcs has {len(cc.srcs)}, weights has {len(cc.weights)}",
            ctx.loc(),
        )


@rule(
    "KERN002",
    "csr-pin-dedup",
    Severity.ERROR,
    "kernel",
    "Every CSR pin must reference a valid node with a non-negative "
    "weight, and no (src, weight) pin may repeat within one node "
    "(compile_circuit dedups; the kernels rely on it).",
)
def check_pins(ctx: KernelContext) -> Iterator[Diagnostic]:
    cc = ctx.compiled
    if len(cc.offsets) != cc.n + 1 or cc.offsets[-1] != len(cc.srcs):
        return  # shape is KERN001's finding; pin walk would be bogus
    for u in range(cc.n):
        lo, hi = cc.offsets[u], cc.offsets[u + 1]
        if lo > hi:
            continue
        pins = list(zip(cc.srcs[lo:hi], cc.weights[lo:hi]))
        for src, w in pins:
            if not 0 <= src < cc.n:
                yield Diagnostic(
                    "KERN002",
                    Severity.ERROR,
                    f"node {u} has a pin to out-of-range source {src}",
                    ctx.loc(u),
                )
            if w < 0:
                yield Diagnostic(
                    "KERN002",
                    Severity.ERROR,
                    f"node {u} has a negative pin weight {w}",
                    ctx.loc(u),
                )
        if len(set(pins)) != len(pins):
            dupes = sorted(
                {p for p in pins if pins.count(p) > 1}
            )
            yield Diagnostic(
                "KERN002",
                Severity.ERROR,
                f"node {u} repeats deduplicated pins: {dupes}",
                ctx.loc(u),
                data={"duplicates": [list(p) for p in dupes]},
            )


@rule(
    "KERN003",
    "pack-shift-bounds",
    Severity.ERROR,
    "kernel",
    "The packed-copy encoding must be consistent (shift = pack_shift(n), "
    "mask = 2^shift - 1, every id below the mask) and every pin must "
    "round-trip through pack/unpack.",
)
def check_pack(ctx: KernelContext) -> Iterator[Diagnostic]:
    cc = ctx.compiled
    want_shift = pack_shift(cc.n)
    if cc.shift != want_shift:
        yield Diagnostic(
            "KERN003",
            Severity.ERROR,
            f"shift is {cc.shift}, pack_shift({cc.n}) wants {want_shift}",
            ctx.loc(),
        )
    if cc.mask != (1 << cc.shift) - 1:
        yield Diagnostic(
            "KERN003",
            Severity.ERROR,
            f"mask {cc.mask:#x} does not match shift {cc.shift}",
            ctx.loc(),
        )
        return
    if cc.n > cc.mask + 1:
        yield Diagnostic(
            "KERN003",
            Severity.ERROR,
            f"node-id space {cc.n} exceeds the packable range "
            f"{cc.mask + 1}",
            ctx.loc(),
        )
        return
    if len(cc.offsets) != cc.n + 1 or cc.offsets[-1] != len(cc.srcs):
        return  # KERN001's finding
    for src, w in zip(cc.srcs, cc.weights):
        if not 0 <= src < cc.n or w < 0:
            continue  # KERN002's finding
        if cc.unpack(cc.pack(src, w)) != (src, w):
            yield Diagnostic(
                "KERN003",
                Severity.ERROR,
                f"pin ({src}, {w}) does not round-trip through "
                "pack/unpack",
                ctx.loc(src),
            )


@rule(
    "KERN005",
    "csr-object-crosscheck",
    Severity.ERROR,
    "kernel",
    "The CSR must mirror the object circuit: same node count, same kind "
    "codes, and per-node pins equal to the deduplicated fanin pairs.",
)
def check_crosscheck(ctx: KernelContext) -> Iterator[Diagnostic]:
    cc = ctx.compiled
    circuit = ctx.circuit
    if cc.n != len(circuit):
        yield Diagnostic(
            "KERN005",
            Severity.ERROR,
            f"CSR has {cc.n} nodes, circuit has {len(circuit)}",
            ctx.loc(),
        )
        return
    if len(cc.offsets) != cc.n + 1 or cc.offsets[-1] != len(cc.srcs):
        return  # KERN001's finding
    for u in range(cc.n):
        want_kind = kind_code(circuit.kind(u))
        if u < len(cc.kinds) and cc.kinds[u] != want_kind:
            yield Diagnostic(
                "KERN005",
                Severity.ERROR,
                f"kind code of node {u} is {cc.kinds[u]}, circuit says "
                f"{want_kind}",
                ctx.loc(u),
            )
        raw = [(p.src, p.weight) for p in circuit.fanins(u)]
        want = list(dict.fromkeys(raw)) if len(raw) > 1 else raw
        if cc.pins(u) != want:
            yield Diagnostic(
                "KERN005",
                Severity.ERROR,
                f"pins of node {u} diverge from the circuit: "
                f"CSR {cc.pins(u)}, circuit {want}",
                ctx.loc(u),
            )

