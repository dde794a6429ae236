"""Expanded circuits: all LUTs rooted at a node under retiming.

Pan-Liu [19] introduced the *expanded circuit* ``E_v`` to represent every
LUT that can be rooted at node ``v`` once retiming may move registers and
gates may be replicated: ``E_v`` is a DAG over *node copies* ``u^w``
("``u`` delayed by ``w`` registers") rooted at ``v^0``; for every circuit
edge ``e(x, u)`` the copy ``u^w`` has fanin ``x^(w + w(e))``.  Every path
from ``u^w`` to the root crosses exactly ``w`` registers, so a cut
``(X, X-bar)`` of ``E_v`` induces the *sequential* cone function
``f(u1^w1, ..., um^wm)`` of the paper's Figure 2, realizable as one LUT
whose input edges carry the cut weights.

TurboMap's efficiency [11] comes from never materializing ``E_v`` fully.
For a height test at threshold ``L``, copies with height
``l(u) - phi*w + 1 > L`` can never be LUT inputs, so they are *interior*
(collapsed into the sink and expanded through).  The paper's partial flow
network stops right there: the first copies at or below the threshold
become the candidate cut set.  The partial expansion
(:func:`repro.kernel.expand.expand_partial_packed`) additionally supports
expanding *through* candidate copies down to a configurable floor
(``extra_depth`` register wraps below the threshold); ``extra_depth=0``
reproduces the paper's construction exactly.

Copies are packed integers ``(w << shift) | u`` everywhere
(:mod:`repro.kernel.csr`); a cut handed to a caller is decoded to
``(u, w)`` tuples (:data:`Copy`).  This module holds what every copy
walk shares: the size bound, its overflow error, and the exact cone
function of a cut (:func:`sequential_cone_function`).

Because every circuit cycle carries a register and ``phi >= 1``, heights
strictly drop along weight-accumulating reverse paths, so expansions
terminate.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.boolfn.truthtable import TruthTable, eval_gate_columns, var_mask
from repro.netlist.graph import NodeKind, SeqCircuit

#: A copy of circuit node ``u`` delayed by ``w`` registers.
Copy = Tuple[int, int]

#: Default safety bound on the partial-expansion size; override per query
#: (or from :class:`repro.core.labels.LabelSolver` / the CLI
#: ``--max-copies`` flag) for unusually deep circuits.
DEFAULT_MAX_COPIES = 200_000


class ExpansionOverflow(RuntimeError):
    """A partial expansion exceeded its ``max_copies`` safety bound.

    Carries the offending root node's name and the limit that was hit so
    callers (and their error reports) can point at the node instead of a
    bare message.
    """

    def __init__(self, node_name: str, max_copies: int) -> None:
        super().__init__(
            f"expanded circuit for {node_name!r} exceeds {max_copies} "
            "copies; raise max_copies if the circuit is genuinely this deep"
        )
        self.node_name = node_name
        self.max_copies = max_copies


def sequential_cone_function(
    circuit: SeqCircuit,
    root: int,
    cut: Sequence[Copy],
    max_copies: int = DEFAULT_MAX_COPIES,
) -> TruthTable:
    """Exact function of ``root^0`` over the ordered cut copies.

    The cut copies ``u^w`` act as free variables (variable ``i`` is
    ``cut[i]``); copies between the cut and the root are evaluated
    bit-parallel through their gate functions: each copy's value is one
    packed column of ``2**m`` bits, one bit per cut assignment.  Raises
    :class:`ValueError` when the cut is wider than 20 copies or does not
    cover the cone (a PI copy is reached).

    The walk is a post-order DFS over packed copies ``(w << shift) | u``
    reading pins in function order (duplicate pins included).  The cone
    lies inside the partial expansion that produced ``cut``, so its copy
    count is bounded by the same ``max_copies`` the expansion ran under;
    expanding more distinct gate copies than that means the cut fails to
    cover the cone (an unbounded regress) and raises
    :class:`ExpansionOverflow`.
    """
    m = len(cut)
    if m > 20:
        raise ValueError(f"cut of {m} copies is too wide for dense evaluation")
    shift = len(circuit).bit_length()
    mask = (1 << shift) - 1
    full = (1 << (1 << m)) - 1
    values: Dict[int, int] = {}
    for i, (u, w) in enumerate(cut):
        values[(w << shift) | u] = var_mask(i, m)
    fanin_pairs = circuit.fanin_pairs()
    kinds = circuit.kind_list()
    func_of = circuit.func
    gate = NodeKind.GATE
    expanded = 0
    # A pushed copy is expanded on its first pop (its unevaluated
    # fanin copies pushed in pin order); ``~p`` marks the point where
    # all of them are evaluated.  The copy graph is acyclic (every
    # circuit cycle carries a register), so a copy popped again has
    # already been evaluated.
    stack: List[int] = [root]
    while stack:
        p = stack.pop()
        if p >= 0:
            if p in values:
                continue
            u = p & mask
            if kinds[u] is not gate:
                raise ValueError(
                    f"cut does not cover copy ({circuit.name_of(u)}, {p >> shift})"
                )
            expanded += 1
            if expanded > max_copies:
                raise ExpansionOverflow(circuit.name_of(root), max_copies)
            stack.append(~p)
            w = p >> shift
            for src, pin_w in fanin_pairs[u]:
                child = ((w + pin_w) << shift) | src
                if child not in values:
                    stack.append(child)
            continue
        p = ~p
        u = p & mask
        w = p >> shift
        pins = fanin_pairs[u]
        bits = func_of(u).bits
        if len(pins) == 2:
            (s0, w0), (s1, w1) = pins
            a = values[((w + w0) << shift) | s0]
            b = values[((w + w1) << shift) | s1]
            if bits == 8:
                col = a & b
            elif bits == 14:
                col = a | b
            else:
                # Shannon expansion on the second pin: f = b ? hi(a) : lo(a).
                lo = _unary_column(bits & 3, a, full)
                col = lo ^ ((lo ^ _unary_column(bits >> 2, a, full)) & b)
        elif len(pins) == 1:
            s0, w0 = pins[0]
            col = _unary_column(bits, values[((w + w0) << shift) | s0], full)
        elif not pins:
            col = full if bits & 1 else 0
        else:
            col = eval_gate_columns(
                func_of(u),
                [values[((w + pw) << shift) | src] for src, pw in pins],
                m,
            )
        values[p] = col
    return TruthTable(m, values[root])


def _unary_column(bits: int, a: int, full: int) -> int:
    """Column of the one-input function with table ``bits`` applied to
    column ``a`` (``full`` is the all-ones column)."""
    if bits == 2:
        return a
    if bits == 1:
        return full ^ a
    return full if bits == 3 else 0
