"""Content-addressed circuit store: dedup by hash, compile once, audit on load.

Circuits enter the service as BLIF text (or an in-memory
:class:`~repro.netlist.graph.SeqCircuit`); the store canonicalizes them
through :func:`repro.netlist.blif.write_blif` and addresses each by the
SHA-256 of that canonical text.  Two users uploading the same netlist —
whitespace, comment and ordering differences included — share one entry,
one compiled kernel, and (through the probe cache) one set of results.

Each entry holds two artifacts, both written atomically:

* ``<id>.blif`` — the canonical netlist text (the source of truth);
* ``<id>.csr`` — the compiled CSR kernel,
  :meth:`~repro.kernel.csr.CompiledCircuit.to_bytes` verbatim, so
  :meth:`CircuitStore.load` adopts the kernel without recompiling.

Store hygiene: blobs are *audited before trust*.  :meth:`load` runs the
KERN001–005 integrity pack (:func:`repro.analysis.kernelrules.
audit_compiled`) over the deserialized kernel — a corrupted, truncated
or stale blob is rejected and the kernel recompiled from the canonical
BLIF (and the blob rewritten), degrading a disk-corruption incident to
one recompile instead of a failed job.

The ``store-put`` fault-injection site fires after both artifacts are
durable, i.e. in the "stored but caller not yet told" crash window.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.engine import Severity
from repro.analysis.kernelrules import audit_compiled
from repro.kernel.csr import CompiledCircuit, compile_circuit
from repro.netlist.blif import read_blif, write_blif
from repro.netlist.graph import SeqCircuit
from repro.resilience.atomic import atomic_write_bytes, atomic_write_text
from repro.resilience.faultinject import fault_point


class StoreError(ValueError):
    """A store entry is missing or unreadable."""


class CircuitStore:
    """On-disk content-addressed store of circuits + compiled CSR blobs."""

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        #: Hygiene counters (observability): blobs served from disk,
        #: blobs rejected by the KERN pack and recompiled.
        self.blob_hits = 0
        self.blob_recompiles = 0

    # -- paths ----------------------------------------------------------
    def _blif_path(self, circuit_id: str) -> str:
        return os.path.join(self.root, f"{circuit_id}.blif")

    def _csr_path(self, circuit_id: str) -> str:
        return os.path.join(self.root, f"{circuit_id}.csr")

    # -- ingestion ------------------------------------------------------
    @staticmethod
    def content_id(canonical_blif: str) -> str:
        """The content address: SHA-256 hex of the canonical BLIF text."""
        return hashlib.sha256(canonical_blif.encode("utf-8")).hexdigest()

    def put(self, circuit_or_text: Union[SeqCircuit, str]) -> str:
        """Insert a circuit (dedup by content); returns its circuit id.

        BLIF text is parsed and re-serialized so the address covers the
        *netlist*, not its formatting.  Existing entries are left
        untouched (the id is returned immediately); new entries write
        the canonical BLIF and the compiled CSR blob atomically.
        """
        if isinstance(circuit_or_text, SeqCircuit):
            circuit = circuit_or_text
        else:
            circuit, _info = read_blif(circuit_or_text)
        canonical = write_blif(circuit)
        circuit_id = self.content_id(canonical)
        if not os.path.exists(self._blif_path(circuit_id)):
            atomic_write_text(self._blif_path(circuit_id), canonical)
            atomic_write_bytes(
                self._csr_path(circuit_id), circuit.compiled().to_bytes()
            )
            fault_point("store-put", tag=circuit_id)
        return circuit_id

    # -- retrieval ------------------------------------------------------
    def contains(self, circuit_id: str) -> bool:
        return os.path.exists(self._blif_path(circuit_id))

    def circuit_ids(self) -> List[str]:
        return sorted(
            name[: -len(".blif")]
            for name in os.listdir(self.root)
            if name.endswith(".blif")
        )

    def blob(self, circuit_id: str) -> bytes:
        """The stored CSR blob bytes."""
        try:
            with open(self._csr_path(circuit_id), "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise StoreError(
                f"no CSR blob for circuit {circuit_id!r}: {exc}"
            ) from exc

    def load(self, circuit_id: str) -> Tuple[SeqCircuit, Dict[str, object]]:
        """Rebuild a circuit with its compiled kernel adopted.

        Returns ``(circuit, meta)``: ``meta["blob_reused"]`` is True when
        the stored blob passed the KERN audit and was adopted verbatim;
        a rejected/missing blob sets ``meta["recompiled"]`` (with
        ``meta["blob_error"]`` naming why) and the blob is rewritten
        from the fresh compile — the job proceeds either way.
        """
        path = self._blif_path(circuit_id)
        try:
            with open(path, encoding="utf-8") as fh:
                circuit, _info = read_blif(fh.read())
        except OSError as exc:
            raise StoreError(f"unknown circuit id {circuit_id!r}") from exc
        meta: Dict[str, object] = {"blob_reused": False, "recompiled": False}
        compiled, error = self._load_blob(circuit, circuit_id)
        if compiled is not None:
            circuit.adopt_compiled(compiled)
            self.blob_hits += 1
            meta["blob_reused"] = True
        else:
            # Hygiene fallback: recompile from the canonical netlist and
            # heal the stored blob so the next load is clean again.
            fresh = compile_circuit(circuit)
            circuit.adopt_compiled(fresh)
            atomic_write_bytes(self._csr_path(circuit_id), fresh.to_bytes())
            self.blob_recompiles += 1
            meta["recompiled"] = True
            meta["blob_error"] = error
        return circuit, meta

    def _load_blob(
        self, circuit: SeqCircuit, circuit_id: str
    ) -> Tuple[Optional[CompiledCircuit], Optional[str]]:
        """Deserialize + KERN-audit the stored blob; ``(None, why)`` on
        any rejection."""
        try:
            data = self.blob(circuit_id)
        except StoreError as exc:
            return None, str(exc)
        try:
            compiled = CompiledCircuit.from_bytes(data)
        except Exception as exc:  # torn/truncated/foreign bytes
            return None, f"{type(exc).__name__}: {exc}"
        try:
            diags = audit_compiled(circuit, compiled)
        except Exception as exc:  # structurally broken arrays
            return None, f"audit crashed: {type(exc).__name__}: {exc}"
        errors = [d for d in diags if d.severity is Severity.ERROR]
        if errors:
            first = errors[0]
            return None, f"{first.rule_id}: {first.message}"
        return compiled, None
