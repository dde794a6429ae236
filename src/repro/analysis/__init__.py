"""Static analysis: circuit linter and mapping-invariant verifier.

Public surface
--------------
* :mod:`repro.analysis.engine` — rule registry, :class:`Diagnostic`,
  severities, text/JSON rendering.
* :mod:`repro.analysis.structural` — lint rules over a raw
  :class:`~repro.netlist.graph.SeqCircuit` (CIRC0xx).
* :mod:`repro.analysis.invariants` — post-hoc verification of mapping
  and retiming results (MAP0xx), the ``certificate`` summary attached to
  ``SeqMapResult``, and :class:`VerificationError`.
* :mod:`repro.analysis.certify` — schedule / cycle-ratio certificates
  (RET002/RET003): a balanced-binary-word periodic schedule replayed on
  the mapped marked graph, and the MDR engine's potentials and witness
  cycle checked in linear time, both emitted as machine-readable blobs
  on the result certificate.
* :mod:`repro.analysis.kernelrules` — CSR integrity audit of compiled
  circuits (KERN00x), run by ``repro lint`` alongside the structural
  pack.
* :mod:`repro.analysis.sanitize` — opt-in runtime invariant hooks
  (SAN00x, armed by ``REPRO_SANITIZE=1``) with a seeded
  mutation-testing selftest; its rule descriptors and
  :class:`SanitizerViolation` live in :mod:`repro.analysis.sanrules`,
  so importing this package does not import the hooks.
* :mod:`repro.analysis.sarif` — SARIF 2.1.0 reports.
* :mod:`repro.analysis.baseline` — baseline suppression for CI.
* :mod:`repro.analysis.cli` — ``repro lint`` / ``python -m
  repro.analysis``.

Importing this package registers every rule pack.
"""

from repro.analysis.certify import (
    build_cycle_certificate,
    build_schedule_certificate,
    check_cycle_certificate,
    replay_schedule,
)
from repro.analysis.engine import (
    CircuitContext,
    Diagnostic,
    Location,
    Rule,
    Severity,
    all_rules,
    count_by_severity,
    diagnostics_json,
    get_rule,
    has_errors,
    max_severity,
    render_text,
    run_rules,
    sort_diagnostics,
)
from repro.analysis.invariants import (
    MappingContext,
    RetimingContext,
    VerificationError,
    certificate,
    lint_retiming,
    raise_on_errors,
    verify_mapping,
)
from repro.analysis.kernelrules import KernelContext, audit_compiled
from repro.analysis.sanrules import SanitizerViolation
from repro.analysis.structural import lint_circuit

__all__ = [
    "CircuitContext",
    "Diagnostic",
    "KernelContext",
    "Location",
    "MappingContext",
    "RetimingContext",
    "Rule",
    "SanitizerViolation",
    "Severity",
    "VerificationError",
    "all_rules",
    "audit_compiled",
    "build_cycle_certificate",
    "build_schedule_certificate",
    "certificate",
    "check_cycle_certificate",
    "count_by_severity",
    "diagnostics_json",
    "get_rule",
    "has_errors",
    "lint_circuit",
    "lint_retiming",
    "max_severity",
    "raise_on_errors",
    "render_text",
    "replay_schedule",
    "run_rules",
    "sort_diagnostics",
    "verify_mapping",
]
