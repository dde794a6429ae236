"""Flat-array compute kernels for the hot mapping loops.

The label computation spends nearly all of its time in two inner
kernels, executed O(n*K) times per feasibility probe: the partial
expanded-circuit construction and the bounded max-flow cut query.  This
package runs them on flat integer arrays, for resynthesis, mapping and
area recovery (through :mod:`repro.core.kcut`) and for the label solver
at ``extra_depth >= 1``; at the paper's ``extra_depth=0`` the label
solver walks the expansion frontier itself on the CSR arrays and needs
no flow:

* :mod:`repro.kernel.csr` — :class:`CompiledCircuit`: the circuit's
  fanin structure compiled once into CSR arrays (offsets, sources,
  weights, node kinds) with a packed-int copy encoding
  ``(u, w) -> (w << shift) | u`` replacing tuple keys; built only by
  :func:`compile_circuit`, cached on the circuit, never stored on disk;
* :mod:`repro.kernel.dinic` — :class:`DinicNetwork`: level-graph
  max-flow with the current-arc optimization on preallocated flat
  arrays (``O(E * sqrt(V))`` on the unit-capacity split networks the
  cut queries build, versus Edmonds-Karp's ``O((K+1) * E)``);
* :mod:`repro.kernel.expand` — :func:`expand_partial_packed` /
  :class:`PackedExpansion` / :class:`PackedCutArena`: the height-query
  expansion and the node-split cut computation on packed copies.

``tests/kernel`` holds the packed expansion and the Dinic solver to the
tuple-copy expansion kept in ``tests/helpers.py`` and the Edmonds-Karp
:class:`~repro.comb.maxflow.FlowNetwork`; ``tests/helpers.py`` also
keeps a label oracle built from those references.
"""

from repro.kernel.csr import (
    KIND_GATE,
    KIND_PI,
    KIND_PO,
    CompiledCircuit,
    compile_circuit,
)
from repro.kernel.dinic import DinicNetwork
from repro.kernel.expand import (
    PackedCutArena,
    PackedExpansion,
    cut_on_packed,
    expand_partial_packed,
)

__all__ = [
    "KIND_GATE",
    "KIND_PI",
    "KIND_PO",
    "CompiledCircuit",
    "compile_circuit",
    "DinicNetwork",
    "PackedCutArena",
    "PackedExpansion",
    "cut_on_packed",
    "expand_partial_packed",
]
