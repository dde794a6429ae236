"""Scalability (paper abstract: 10^4 gates / 10^3 FFs "in reasonable time").

The authors' C implementation optimizes circuits of over 10^4 gates on a
1996 workstation.  This Python reproduction is interpreted, so the
absolute scale is reduced (see ``DESIGN.md`` Section 3); what this bench
establishes is the *trend*: TurboMap and TurboSYN runtime versus circuit
size on a geometric size sweep, reported as gates/second so the paper's
headline can be extrapolated.
"""

from __future__ import annotations

import pytest

from repro.bench.suite import large_circuit
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn

K = 5
TABLE = "Scaling: runtime vs circuit size (K=5)"
SCALES = [1, 2, 4, 8]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("algo", ["turbomap", "turbosyn"])
def test_scaling(benchmark, rows, scale, algo):
    circuit = large_circuit(scale=scale)
    run = turbomap if algo == "turbomap" else turbosyn
    result = benchmark.pedantic(lambda: run(circuit, K), rounds=1, iterations=1)
    cpu = benchmark.stats["mean"]
    label = f"scale={scale}"
    rows.add(TABLE, label, "gates", circuit.n_gates)
    rows.add(TABLE, label, "FFs", circuit.n_ffs)
    _add_cells(rows, label, algo, result, cpu, circuit.n_gates)


@pytest.mark.parametrize("algo", ["turbomap", "turbosyn"])
def test_scaling_headline(benchmark, rows, algo):
    """The abstract's headline scale: >10^4 gates and >10^3 flip-flops.

    TurboSYN's CPU time includes the TurboMap run that gives it its
    upper bound (the paper's Figure 4).
    """
    circuit = large_circuit(scale=16)
    assert circuit.n_gates > 10_000
    assert circuit.n_ffs > 1_000
    run = turbomap if algo == "turbomap" else turbosyn
    result = benchmark.pedantic(lambda: run(circuit, K), rounds=1, iterations=1)
    cpu = benchmark.stats["mean"]
    label = "scale=16 (headline)"
    rows.add(TABLE, label, "gates", circuit.n_gates)
    rows.add(TABLE, label, "FFs", circuit.n_ffs)
    _add_cells(rows, label, algo, result, cpu, circuit.n_gates)


def _add_cells(rows, label, algo, result, cpu, n_gates):
    rows.add(TABLE, label, f"{algo} phi", result.phi)
    rows.add(TABLE, label, f"{algo} LUTs", result.n_luts)
    rows.add(TABLE, label, f"{algo} cpu", cpu)
    rows.add(TABLE, label, f"{algo} gates/s", f"{n_gates / max(cpu, 1e-9):.0f}")
