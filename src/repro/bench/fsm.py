"""Synthetic FSM benchmarks: STG generation, encoding, logic synthesis.

The paper's MCNC test set consists of finite state machines (KISS2 state
transition tables) run through SIS sequential synthesis and ``dmig`` gate
decomposition.  Those exact netlists are not redistributable here, so this
module rebuilds the *pipeline* (see ``DESIGN.md`` Section 3):

1. :func:`random_fsm` — a deterministic random state transition graph
   with the published benchmark's state/input/output counts.  Per state,
   the input space is partitioned into *disjoint* cubes (a random decision
   tree), so the machine is deterministic without row priority.
2. :func:`fsm_to_circuit` — structural one-hot synthesis: one guard
   product per transition row (state literal AND input literals), an OR
   plane per next-state/output signal, everything factored into 2-input
   gates with shared input inverters.  This mirrors how SIS-era flows
   realize sparse STGs and yields the paper's gate-count ballpark.
3. :func:`encode_fsm` — the alternative *encoded* path (binary or
   one-hot state assignment with exact truth tables per next-state bit,
   factored by :mod:`repro.comb.gatedecomp`); exponential in
   ``inputs + state bits``, used for small machines and cross-checks.

Either way the result is a K-bounded retiming graph whose loops run
through the FSM state registers, with the reset state active-low encoded
so that the all-zero initial registers start the machine in reset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.boolfn.truthtable import TruthTable
from repro.comb.gatedecomp import decompose_gate_function
from repro.netlist.graph import SeqCircuit
from repro.netlist.kiss import FSM
from repro.rng import Generator, default_rng

_AND2 = TruthTable.from_function(2, lambda a, b: a and b)
_OR2 = TruthTable.from_function(2, lambda a, b: a or b)
_NOT1 = TruthTable.from_function(1, lambda a: not a)
_CONST0 = TruthTable.const(0, False)


# ----------------------------------------------------------------------
# STG generation
# ----------------------------------------------------------------------
def _disjoint_cubes(n_inputs: int, depth: int, rng: Generator) -> List[str]:
    """Partition the input space into disjoint cubes via a random tree."""
    cubes = ["-" * n_inputs]
    for _ in range(depth):
        nxt: List[str] = []
        for cube in cubes:
            free = [i for i, ch in enumerate(cube) if ch == "-"]
            if not free or rng.random() < 0.25:
                nxt.append(cube)
                continue
            var = rng.choice(free)
            for val in "01":
                nxt.append(cube[:var] + val + cube[var + 1 :])
        cubes = nxt
    return cubes


def random_fsm(
    name: str,
    n_states: int,
    n_inputs: int,
    n_outputs: int,
    seed: int,
    split_depth: int = 2,
    output_density: float = 0.3,
    stay_bias: float = 0.3,
) -> FSM:
    """A deterministic random Mealy machine with disjoint cube guards.

    One ring transition per state keeps the graph strongly connected;
    ``stay_bias`` makes self-loops common (as in real controllers) and
    ``output_density`` keeps the output plane sparse.
    """
    if n_states < 2:
        raise ValueError("need at least two states")
    rng = default_rng(seed)
    states = [f"s{i}" for i in range(n_states)]
    fsm = FSM(name, n_inputs, n_outputs, reset_state=states[0])

    def outputs() -> str:
        return "".join(
            "1" if rng.random() < output_density else "0" for _ in range(n_outputs)
        )

    for i, state in enumerate(states):
        cubes = _disjoint_cubes(n_inputs, split_depth, rng)
        for j, cube in enumerate(cubes):
            if j == 0:
                target = states[(i + 1) % n_states]  # ring edge
            elif rng.random() < stay_bias:
                target = state
            else:
                target = states[rng.integers(0, n_states)]
            fsm.add(cube, state, target, outputs())
    return fsm


# ----------------------------------------------------------------------
# Structural one-hot synthesis
# ----------------------------------------------------------------------
def fsm_to_circuit(
    fsm: FSM,
    name: Optional[str] = None,
    with_reset: bool = False,
) -> SeqCircuit:
    """Structural one-hot synthesis into a 2-bounded gate network.

    Requires disjoint transition guards per state (as :func:`random_fsm`
    produces).  The reset state's flip-flop is active-low so that the
    all-zero initial registers start the machine in its reset state.

    ``with_reset`` additionally emits an ``rst`` primary input that
    forces the next state to the reset state while asserted.  Holding it
    for a few cycles is a synchronizing sequence, which makes the circuit
    verifiable end-to-end across transformations that perturb initial
    states (sequential cuts, retiming) — see
    :func:`repro.verify.equiv.simulation_equivalent`'s ``sync_inputs``.
    """
    circuit = SeqCircuit(name or fsm.name)
    states = fsm.states
    reset = fsm.reset_state or states[0]
    n = fsm.num_inputs
    pis = [circuit.add_pi(f"in{i}") for i in range(n)]
    rst = circuit.add_pi("rst") if with_reset else None
    nrst = (
        circuit.add_gate("nrst", _NOT1, [(rst, 0)]) if with_reset else None
    )
    inverters = [
        circuit.add_gate(f"nin{i}", _NOT1, [(pis[i], 0)]) for i in range(n)
    ]

    # State-bit carriers: signal q_s = ST_s delayed by one register, where
    # ST_s is the OR plane (wrapped with the reset mux when requested) and
    # the reset state is stored active-low.  Placeholders first (feedback).
    ns_root: Dict[str, int] = {
        s: circuit.add_gate_placeholder(f"ns_{s}", _OR2) for s in states
    }
    if with_reset:
        state_sig: Dict[str, int] = {}
        for s in states:
            gated = circuit.add_gate(f"stg_{s}", _AND2, [(nrst, 0), (ns_root[s], 0)])
            if s == reset:
                state_sig[s] = circuit.add_gate(
                    f"st_{s}", _OR2, [(gated, 0), (rst, 0)]
                )
            else:
                state_sig[s] = gated
    else:
        state_sig = dict(ns_root)
    q_node: Dict[str, Tuple[int, int]] = {}
    for s in states:
        if s == reset:
            circuit.add_gate_placeholder(f"nsn_{s}", _NOT1)
            q = circuit.add_gate_placeholder(f"q_{s}", _NOT1)
            q_node[s] = (q, 0)
        else:
            q_node[s] = (state_sig[s], 1)

    # SIS-style multilevel networks are skewed (algebraic factoring emits
    # left-deep chains), which is what makes the paper's loops critical:
    # build the guard products and OR planes as chains, not balanced trees.
    def and_tree(label: str, pins: List[Tuple[int, int]]) -> Tuple[int, int]:
        acc = pins[0]
        for pin in pins[1:]:
            acc = (
                circuit.add_gate(f"{label}~a{len(circuit)}", _AND2, [acc, pin]),
                0,
            )
        return acc

    def or_tree_pins(pins: List[Tuple[int, int]], label: str) -> List[Tuple[int, int]]:
        acc = pins[0]
        for pin in pins[1:-1]:
            acc = (
                circuit.add_gate(f"{label}~o{len(circuit)}", _OR2, [acc, pin]),
                0,
            )
        return [acc, pins[-1]]

    # Guard product per transition row.
    ns_terms: Dict[str, List[Tuple[int, int]]] = {s: [] for s in states}
    out_terms: Dict[int, List[Tuple[int, int]]] = {
        m: [] for m in range(fsm.num_outputs)
    }
    for r, t in enumerate(fsm.transitions):
        pins: List[Tuple[int, int]] = [q_node[t.state]]
        for i, ch in enumerate(t.inputs):
            if ch == "1":
                pins.append((pis[i], 0))
            elif ch == "0":
                pins.append((inverters[i], 0))
        guard = and_tree(f"g{r}", pins)
        ns_terms[t.next_state].append(guard)
        for m, ch in enumerate(t.outputs):
            if ch == "1":
                out_terms[m].append(guard)

    zero = None

    def const_zero() -> Tuple[int, int]:
        nonlocal zero
        if zero is None:
            zero = circuit.add_gate("zero", _CONST0, [])
        return (zero, 0)

    def finish_or(root: int, terms: List[Tuple[int, int]], label: str) -> None:
        """Wire an OR2 placeholder from a term list."""
        if not terms:
            circuit.set_fanins(root, [const_zero(), const_zero()])
            return
        if len(terms) == 1:
            circuit.set_fanins(root, [terms[0], const_zero()])
            return
        pins = or_tree_pins(terms, label)
        circuit.set_fanins(root, pins if len(pins) == 2 else [pins[0], const_zero()])

    for s in states:
        finish_or(ns_root[s], ns_terms[s], f"ns_{s}")
    # Active-low reset storage: register holds NOT(ST_reset); q_reset
    # recovers it with another inverter, so all-zero init means "in reset".
    ninv = circuit.id_of(f"nsn_{reset}")
    circuit.set_fanins(ninv, [(state_sig[reset], 0)])
    circuit.set_fanins(circuit.id_of(f"q_{reset}"), [(ninv, 1)])

    for m in range(fsm.num_outputs):
        root = circuit.add_gate_placeholder(f"out{m}", _OR2)
        finish_or(root, out_terms[m], f"out{m}")
        circuit.add_po(f"po{m}", root, 0)
    circuit.check()
    return circuit


# ----------------------------------------------------------------------
# Encoded synthesis (exact truth tables; small machines only)
# ----------------------------------------------------------------------
def encode_fsm(
    fsm: FSM, encoding: str = "binary"
) -> Tuple[List[TruthTable], List[TruthTable], int]:
    """State assignment + exact next-state/output tables.

    Returns ``(next_state_tables, output_tables, state_bits)``; every
    table is over ``n_inputs + state_bits`` variables with the inputs in
    the low positions.  Unreachable/invalid state codes behave like the
    reset state (a completely specified don't-care fill).
    """
    states = fsm.states
    n = fsm.num_inputs
    if encoding == "binary":
        bits = max(1, (len(states) - 1).bit_length())
        code_of = {s: i for i, s in enumerate(states)}
    elif encoding == "onehot":
        bits = len(states)
        code_of = {s: 1 << i for i, s in enumerate(states)}
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    width = n + bits
    if width > 16:
        raise ValueError(
            f"{fsm.name}: encoded table width {width} too large; "
            "use the structural path"
        )
    decode = {code: s for s, code in code_of.items()}
    reset = fsm.reset_state or states[0]

    ns_bits = [0] * bits
    out_bits = [0] * fsm.num_outputs
    for row in range(1 << width):
        input_bits = row & ((1 << n) - 1)
        state_code = row >> n
        state = decode.get(state_code, reset)
        nxt, outs = fsm.step(state, input_bits)
        nxt_code = code_of[nxt]
        for j in range(bits):
            if (nxt_code >> j) & 1:
                ns_bits[j] |= 1 << row
        for m, ch in enumerate(outs):
            if ch == "1":
                out_bits[m] |= 1 << row
    ns_tables = [TruthTable(width, b) for b in ns_bits]
    out_tables = [TruthTable(width, b) for b in out_bits]
    return ns_tables, out_tables, bits


def fsm_to_circuit_encoded(
    fsm: FSM,
    encoding: str = "binary",
    k_bound: int = 2,
    name: Optional[str] = None,
) -> SeqCircuit:
    """Encoded synthesis: exact per-bit tables factored into gates.

    Exponential in ``inputs + state bits`` and prone to large factored
    networks for dense machines; intended for small cross-check circuits.
    Note the all-zero initial registers equal the reset state's code only
    under binary encoding with reset = first state (code 0); for one-hot
    the all-zero code *behaves* like reset because the don't-care fill of
    :func:`encode_fsm` maps invalid codes to the reset state.
    """
    ns_tables, out_tables, _bits = encode_fsm(fsm, encoding)
    n = fsm.num_inputs
    circuit = SeqCircuit(name or fsm.name)
    pis = [circuit.add_pi(f"in{i}") for i in range(n)]

    trees = []
    roots: Dict[str, int] = {}
    for label, table in [(f"ns{j}", t) for j, t in enumerate(ns_tables)] + [
        (f"out{m}", t) for m, t in enumerate(out_tables)
    ]:
        shrunk, support = table.shrink_to_support()
        if shrunk.n == 0:
            gid = circuit.add_gate_placeholder(label, shrunk)
            trees.append((label, None, support, [gid]))
            roots[label] = gid
            continue
        tree = decompose_gate_function(shrunk, k_bound)
        refs = []
        for j, lut in enumerate(tree.luts):
            is_root = j == len(tree.luts) - 1
            gate_name = label if is_root else f"{label}~{j}"
            refs.append(circuit.add_gate_placeholder(gate_name, lut.func))
        trees.append((label, tree, support, refs))
        roots[label] = refs[-1]

    def leaf_pin(var: int) -> Tuple[int, int]:
        if var < n:
            return pis[var], 0
        return roots[f"ns{var - n}"], 1  # state bit = next-state root @ 1

    for label, tree, support, refs in trees:
        if tree is None:
            circuit.set_fanins(refs[0], [])
            continue
        for j, lut in enumerate(tree.luts):
            pins = []
            for ref in lut.inputs:
                if ref >= 0:
                    pins.append(leaf_pin(support[ref]))
                else:
                    pins.append((refs[-1 - ref], 0))
            circuit.set_fanins(refs[j], pins)
    for m in range(fsm.num_outputs):
        circuit.add_po(f"po{m}", roots[f"out{m}"], 0)
    circuit.check()
    return circuit


# ----------------------------------------------------------------------
# Oracle check
# ----------------------------------------------------------------------
def simulate_fsm_circuit(
    fsm: FSM,
    circuit: SeqCircuit,
    steps: int,
    seed: int,
) -> bool:
    """Check that the synthesized circuit tracks the STG from reset.

    Works for both synthesis paths: the all-zero register state means
    "reset state" by construction in each.
    """
    from repro.verify.simulate import Simulator

    rng = default_rng(seed)
    sim = Simulator(circuit, lanes=1)
    state = fsm.reset_state or fsm.states[0]
    for _t in range(steps):
        input_bits = rng.integers(0, 1 << fsm.num_inputs)
        nxt, outs = fsm.step(state, input_bits)
        frame = {
            circuit.id_of(f"in{i}"): (input_bits >> i) & 1
            for i in range(fsm.num_inputs)
        }
        if "rst" in circuit:
            frame[circuit.id_of("rst")] = 0
        got = sim.step(frame)
        for m in range(fsm.num_outputs):
            po = circuit.id_of(f"po{m}")
            if got[po] != (1 if outs[m] == "1" else 0):
                return False
        state = nxt
    return True
