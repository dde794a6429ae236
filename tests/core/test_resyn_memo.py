"""The per-probe resynthesis memo returns what a memo-less call would.

:func:`repro.core.driver.make_resyn_hook` hands each label run one
:data:`~repro.core.seqdecomp.ResynMemo`.  Here a probe's hook calls
:func:`find_seq_resynthesis` twice per resynthesis attempt — with the
run's memo, and without any memo — and the two answers must agree in
the verdict, the cut, and every LUT's function and inputs — also when
the memo's size bound makes it start over.
"""

import pytest

import repro.core.seqdecomp as seqdecomp
from repro.bench import suite as bench_suite
from repro.core.labels import LabelSolver
from repro.core.seqdecomp import DEFAULT_CMAX, find_seq_resynthesis


def _same(got, want):
    if got is None or want is None:
        return got is want
    if got.cut != want.cut or got.tree.num_leaves != want.tree.num_leaves:
        return False
    return [(lut.func, lut.inputs) for lut in got.tree.luts] == [
        (lut.func, lut.inputs) for lut in want.tree.luts
    ]


@pytest.mark.parametrize(
    "name, phi, cap",
    [
        ("bbara", 1, None),
        ("bbara", 2, None),
        ("bbara", 2, 8),  # a tiny bound: the memo starts over often
        ("keyb", 2, None),
        ("keyb", 3, None),
    ],
)
def test_memoized_answers_equal_memo_less_calls(name, phi, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(seqdecomp, "MEMO_ENTRIES", cap)
    circuit = bench_suite.build(name)
    memo = {}
    calls = []
    syntheses = {"memo": 0, "plain": 0}
    phase = ["plain"]
    synthesize = seqdecomp.synthesize_lut_tree

    def counted(*args):
        syntheses[phase[0]] += 1
        return synthesize(*args)

    monkeypatch.setattr(seqdecomp, "synthesize_lut_tree", counted)

    def hook(solver, v, big_l):
        args = (
            solver.circuit, v, solver.phi, solver.labels, big_l, solver.k,
            DEFAULT_CMAX, solver.extra_depth,
        )
        phase[0] = "memo"
        got = find_seq_resynthesis(
            *args,
            first_expansion=solver.expansion_for(v, big_l),
            max_copies=solver.max_copies,
            memo=memo,
        )
        phase[0] = "plain"
        want = find_seq_resynthesis(*args, max_copies=solver.max_copies)
        assert _same(got, want), (circuit.name_of(v), big_l)
        calls.append(got is not None)
        return got is not None

    LabelSolver(circuit, 5, phi, resyn_hook=hook).run()
    assert any(calls) and not all(calls)
    # The memo answered repeats instead of re-synthesizing them, within
    # its bound.
    assert 0 < syntheses["memo"] < syntheses["plain"]
    assert len(memo) <= seqdecomp.MEMO_ENTRIES
