"""Differential edit-fuzz: prove incremental remap bit-identical to cold.

The correctness gate of :mod:`repro.incremental` (and the CI
``edit-fuzz-differential`` job): apply seeded random k-gate mutations
to a benchmark circuit, repair the mapping incrementally, run the same
algorithm cold on a pristine copy of the edited circuit, and require

* identical minimum phi,
* bit-identical final labels, and
* an identical mapped network (name, kind, function bits and fanin
  pins per node — the mapping is regenerated deterministically from
  the labels, so this also pins down the chosen cuts),

while the repair counters prove work was actually reused
(``labels_reused > 0``, ``dirty_nodes < n`` for small edits).

The mutations preserve circuit validity by construction:

* bumping a pin's register count is always legal;
* dropping a register is validated against combinational-cycle
  creation and reverted when illegal;
* rewiring a pin to a random non-PO driver keeps weight >= 1, so the
  new edge can never close a combinational cycle.

Gate arity never changes, so K-boundedness and function arity are
untouched.

Run as a module for the CI job::

    python -m repro.incremental.fuzz --edits 1,4,16 --seed 0 \
        --out edit-fuzz-report.json
"""

from __future__ import annotations

import argparse
import random
import sys
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.driver import SeqMapResult
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn
from repro.incremental.session import remap
from repro.netlist.graph import NodeKind, SeqCircuit

#: Node signature: (name, kind, function (arity, bits) or None, pins).
NodeSig = Tuple[
    str, str, Optional[Tuple[int, int]], Tuple[Tuple[str, int], ...]
]


def mapped_signature(circuit: SeqCircuit) -> List[NodeSig]:
    """Canonical structural signature of a mapped network.

    Names (not ids) key the fanins so two independently generated
    networks compare by content; id order still matters — the mapping
    generator is deterministic, so a reordering would itself be a
    divergence worth failing on.
    """
    sig: List[NodeSig] = []
    for nid in circuit.node_ids():
        func = circuit.func(nid)
        sig.append(
            (
                circuit.name_of(nid),
                circuit.kind(nid).value,
                None if func is None else (func.n, func.bits),
                tuple(
                    (circuit.name_of(p.src), p.weight)
                    for p in circuit.fanins(nid)
                ),
            )
        )
    return sig


def random_edits(
    circuit: SeqCircuit, rng: random.Random, count: int
) -> int:
    """Apply ``count`` random validity-preserving gate edits in place.

    Returns the number of effective edits applied (always ``count``
    unless the circuit offers too few legal moves, which the benchmark
    suite never does).  Edits go through the circuit's mutation
    helpers, so journaling and cache invalidation behave exactly as
    they would for a real caller.
    """
    gates = circuit.gates
    if not gates:
        return 0
    non_po = [
        nid
        for nid in circuit.node_ids()
        if circuit.kind(nid) is not NodeKind.PO
    ]
    applied = 0
    for _try in range(60 * count + 200):
        if applied >= count:
            break
        g = rng.choice(gates)
        pins = [(p.src, p.weight) for p in circuit.fanins(g)]
        if not pins:
            continue
        i = rng.randrange(len(pins))
        src, w = pins[i]
        roll = rng.random()
        if roll < 0.40:
            new = (src, w + 1)  # extra register: always legal
        elif roll < 0.70:
            # Rewire to a random non-PO driver through >= 1 register:
            # the edge carries a register, so no combinational cycle.
            new = (rng.choice(non_po), max(1, w))
        elif w > 0:
            new = (src, w - 1)  # may close a combinational cycle
        else:
            continue
        if new == (src, w):
            continue
        pins[i] = new
        circuit.set_fanins(g, pins)
        try:
            circuit.comb_topo_order()
        except ValueError:
            pins[i] = (src, w)
            circuit.set_fanins(g, pins)  # revert the illegal drop
            continue
        applied += 1
    return applied


def differential_remap(
    circuit: SeqCircuit,
    n_edits: int,
    seed: int,
    k: int = 5,
    algorithm: str = "turbomap",
) -> Dict[str, Any]:
    """One differential cell: mutate, remap incrementally, compare cold.

    Returns a record with the identity verdict and the cold-vs-
    incremental work counters; mutates ``circuit`` in place.
    """
    circuit.begin_journal()
    circuit.take_journal()
    run: Callable[[SeqCircuit, int], SeqMapResult] = (
        turbomap if algorithm == "turbomap" else turbosyn
    )
    prev = run(circuit, k)
    rng = random.Random(seed)
    applied = random_edits(circuit, rng, n_edits)
    edits = circuit.take_journal()
    inc = remap(circuit, prev, edits, k=k)
    cold = run(circuit.copy(), k)
    identical = (
        inc.phi == cold.phi
        and list(inc.labels) == list(cold.labels)
        and mapped_signature(inc.mapped) == mapped_signature(cold.mapped)
    )
    inc_stats = inc.total_stats
    cold_stats = cold.total_stats
    return {
        "circuit": circuit.name,
        "algorithm": algorithm,
        "k": k,
        "seed": seed,
        "edits_requested": n_edits,
        "edits_applied": applied,
        "n_nodes": len(circuit),
        "identical": identical,
        "phi": inc.phi,
        "cold_phi": cold.phi,
        "dirty_nodes": inc_stats.dirty_nodes,
        "labels_reused": inc_stats.labels_reused,
        "witnesses_revalidated": inc_stats.witnesses_revalidated,
        "sccs_skipped": inc_stats.sccs_skipped,
        "inc_updates": inc_stats.updates,
        "cold_updates": cold_stats.updates,
        "inc_flow_queries": inc_stats.flow_queries,
        "cold_flow_queries": cold_stats.flow_queries,
    }


def _failures(record: Dict[str, Any], small_edit_max: int = 4) -> List[str]:
    """Assertion failures of one record (empty = clean)."""
    tag = f"{record['circuit']}/{record['edits_requested']}-edit"
    problems: List[str] = []
    if not record["identical"]:
        problems.append(
            f"{tag}: incremental result differs from cold run "
            f"(phi {record['phi']} vs {record['cold_phi']})"
        )
    if record["edits_applied"] == 0:
        problems.append(f"{tag}: no effective edit was applied")
    if record["edits_requested"] <= small_edit_max:
        if record["dirty_nodes"] >= record["n_nodes"]:
            problems.append(
                f"{tag}: dirty region covers the whole circuit "
                f"({record['dirty_nodes']} of {record['n_nodes']} nodes)"
            )
        if record["labels_reused"] <= 0:
            problems.append(f"{tag}: no labels were reused")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.incremental.fuzz",
        description="differential edit-fuzz gate for incremental remapping",
    )
    parser.add_argument(
        "--circuits",
        default=None,
        help="comma-separated suite circuits (default: the quick subset)",
    )
    parser.add_argument(
        "--edits",
        default="1,4,16",
        help="comma-separated edit sizes per cell (default 1,4,16)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--k", type=int, default=5, help="LUT input count")
    parser.add_argument(
        "--algorithm",
        default="turbomap",
        choices=("turbomap", "turbosyn"),
        help="mapper to differentiate (default turbomap)",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON fuzz report here"
    )
    args = parser.parse_args(argv)

    from repro.bench.suite import build, quick_subset

    names = (
        [c for c in args.circuits.split(",") if c]
        if args.circuits
        else quick_subset()
    )
    sizes = [int(s) for s in args.edits.split(",") if s]
    records: List[Dict[str, Any]] = []
    problems: List[str] = []
    for name in names:
        for size in sizes:
            # crc32, not hash(): string hashing is salted per process
            # and the whole point of the gate is reproducible cells.
            cell_seed = (
                args.seed * 1_000_003
                + zlib.crc32(f"{name}:{size}".encode())
            )
            record = differential_remap(
                build(name),
                size,
                cell_seed,
                k=args.k,
                algorithm=args.algorithm,
            )
            records.append(record)
            problems.extend(_failures(record))
            print(
                f"{record['circuit']:>8} edits={size:<3} "
                f"{'OK ' if record['identical'] else 'DIFF'} "
                f"phi={record['phi']} dirty={record['dirty_nodes']}"
                f"/{record['n_nodes']} reused={record['labels_reused']} "
                f"updates {record['cold_updates']}->{record['inc_updates']} "
                f"flow {record['cold_flow_queries']}"
                f"->{record['inc_flow_queries']}"
            )
    if args.out:
        from repro.resilience.atomic import atomic_write_json

        atomic_write_json(
            args.out,
            {
                "schema": 1,
                "kind": "edit-fuzz",
                "algorithm": args.algorithm,
                "k": args.k,
                "seed": args.seed,
                "runs": records,
            },
            indent=2,
        )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(
        f"{len(records)} cell(s), {len(problems)} failure(s): "
        + ("FAIL" if problems else "OK")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
