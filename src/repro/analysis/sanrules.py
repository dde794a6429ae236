"""Sanitizer rule pack: the SAN0xx descriptors and their violation type.

The hooks themselves live in :mod:`repro.analysis.sanitize` and fire
in-line; the rules are registered under the ``"sanitizer"`` scope purely
for metadata (SARIF descriptors, rule listings), so their check
functions never run through the engine.

Kept apart from the hooks so that importing :mod:`repro.analysis`
registers this pack without importing :mod:`repro.analysis.sanitize`:
``python -m repro.analysis.sanitize`` must find that module absent from
``sys.modules`` when it runs it as ``__main__``.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.engine import Diagnostic, Rule, Severity, register


class SanitizerViolation(RuntimeError):
    """An armed invariant hook observed an impossible engine state."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


def _descriptor_only(_ctx: object) -> Iterator[Diagnostic]:
    """Sanitizer rules fire from in-line hooks, never via ``run_rules``."""
    return iter(())


def _describe(rule_id: str, name: str, description: str) -> None:
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
    "SAN007",
    "frontier-cut-exactness",
    "A cut query answered from the frontier of a candidate-free "
    "expansion (the leaves if at most max_cut, else none) must give the "
    "same verdict and the same cut as a Dinic solve of the node-split "
    "network.",
)
