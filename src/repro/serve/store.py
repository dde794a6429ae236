"""Content-addressed circuit store: one canonical BLIF per circuit.

Circuits enter the service as BLIF text (or an in-memory
:class:`~repro.netlist.graph.SeqCircuit`); the store canonicalizes them
through :func:`repro.netlist.blif.write_blif` and addresses each by the
SHA-256 of that canonical text.  Two users uploading the same netlist —
whitespace, comment and ordering differences included — share one entry
and (through the probe cache) one set of results.

Each entry is one artifact, written atomically: ``<id>.blif``, the
canonical netlist text.  :meth:`CircuitStore.load` parses it, and the
job compiles its kernel from the parsed circuit like any other caller
(:meth:`SeqCircuit.compiled <repro.netlist.graph.SeqCircuit.compiled>`),
so the kernel always matches the circuit.  ``<id>.csr`` kernel blobs
that older releases wrote beside the BLIF are never read.

The ``store-put`` fault-injection site fires once the BLIF is durable,
i.e. in the "stored but caller not yet told" crash window.
"""

from __future__ import annotations

import hashlib
import os
from typing import List, Union

from repro.netlist.blif import read_blif, write_blif
from repro.netlist.graph import SeqCircuit
from repro.resilience.atomic import atomic_write_text
from repro.resilience.faultinject import fault_point


class StoreError(ValueError):
    """A store entry is missing or unreadable."""


class CircuitStore:
    """On-disk content-addressed store of canonical circuits."""

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _blif_path(self, circuit_id: str) -> str:
        return os.path.join(self.root, f"{circuit_id}.blif")

    # -- ingestion ------------------------------------------------------
    @staticmethod
    def content_id(canonical_blif: str) -> str:
        """The content address: SHA-256 hex of the canonical BLIF text."""
        return hashlib.sha256(canonical_blif.encode("utf-8")).hexdigest()

    def put(self, circuit_or_text: Union[SeqCircuit, str]) -> str:
        """Insert a circuit (dedup by content); returns its circuit id.

        BLIF text is parsed and re-serialized so the address covers the
        *netlist*, not its formatting.  Existing entries are left
        untouched (the id is returned immediately); a new entry writes
        the canonical BLIF atomically.
        """
        if isinstance(circuit_or_text, SeqCircuit):
            circuit = circuit_or_text
        else:
            circuit, _info = read_blif(circuit_or_text)
        canonical = write_blif(circuit)
        circuit_id = self.content_id(canonical)
        if not os.path.exists(self._blif_path(circuit_id)):
            atomic_write_text(self._blif_path(circuit_id), canonical)
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

    def load(self, circuit_id: str) -> SeqCircuit:
        """Parse the stored canonical netlist of ``circuit_id``."""
        try:
            with open(self._blif_path(circuit_id), encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise StoreError(f"unknown circuit id {circuit_id!r}") from exc
        circuit, _info = read_blif(text)
        return circuit
