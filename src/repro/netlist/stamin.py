"""FSM state minimization (the SIS front-end step).

The paper's benchmark preparation runs "SIS sequential synthesis
commands" before mapping; state minimization is the classical first one.
For the deterministic, completely specified machines this project's STG
generator emits (totalized by the first-match/default rule of
:meth:`repro.netlist.kiss.FSM.step`), the textbook partition-refinement
algorithm is exact:

1. start with states partitioned by their output rows over all input
   minterms,
2. split blocks whose members disagree on the successor *block* for some
   input minterm,
3. repeat to fixpoint; each block becomes one state of the quotient
   machine.

Exponential in the input count (minterm enumeration), which the
generator caps at 8 inputs anyway.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netlist.kiss import FSM
from repro.rng import default_rng


def equivalent_state_classes(fsm: FSM) -> List[List[str]]:
    """Partition of the states into behavioural equivalence classes."""
    if fsm.num_inputs > 12:
        raise ValueError("state minimization enumerates input minterms; cap 12")
    states = fsm.states
    minterms = range(1 << fsm.num_inputs)
    # Memoize the totalized transition function.
    step: Dict[Tuple[str, int], Tuple[str, str]] = {}
    for s in states:
        for m in minterms:
            step[(s, m)] = fsm.step(s, m)

    block_of: Dict[str, int] = {}
    signature: Dict[str, Tuple[str, ...]] = {
        s: tuple(step[(s, m)][1] for m in minterms) for s in states
    }
    blocks: Dict[Tuple[str, ...], List[str]] = {}
    for s in states:
        blocks.setdefault(signature[s], []).append(s)
    for idx, members in enumerate(blocks.values()):
        for s in members:
            block_of[s] = idx

    while True:
        new_blocks: Dict[Tuple[int, Tuple[int, ...]], List[str]] = {}
        for s in states:
            key = (
                block_of[s],
                tuple(block_of[step[(s, m)][0]] for m in minterms),
            )
            new_blocks.setdefault(key, []).append(s)
        if len(new_blocks) == len(set(block_of.values())):
            return list(new_blocks.values())
        for idx, members in enumerate(new_blocks.values()):
            for s in members:
                block_of[s] = idx


def minimize_states(fsm: FSM) -> FSM:
    """The quotient machine: one representative state per class.

    Transition rows of the representatives are kept verbatim with their
    next states redirected to representatives, so the result remains a
    deterministic first-match table; the reset state maps to its class
    representative.
    """
    classes = equivalent_state_classes(fsm)
    representative: Dict[str, str] = {}
    for members in classes:
        rep = members[0]
        for s in members:
            representative[s] = rep
    reduced = FSM(
        f"{fsm.name}_min",
        fsm.num_inputs,
        fsm.num_outputs,
        reset_state=representative[fsm.reset_state or fsm.states[0]],
    )
    kept = {members[0] for members in classes}
    for t in fsm.transitions:
        if t.state in kept:
            reduced.add(
                t.inputs, t.state, representative[t.next_state], t.outputs
            )
    return reduced


def machines_equivalent(a: FSM, b: FSM, steps: int = 256, seed: int = 0) -> bool:
    """Random-walk behavioural comparison of two machines from reset."""
    if a.num_inputs != b.num_inputs or a.num_outputs != b.num_outputs:
        return False
    rng = default_rng(seed)
    sa = a.reset_state or a.states[0]
    sb = b.reset_state or b.states[0]
    for _ in range(steps):
        m = rng.integers(0, 1 << a.num_inputs)
        sa, outs_a = a.step(sa, m)
        sb, outs_b = b.step(sb, m)
        if outs_a != outs_b:
            return False
    return True
