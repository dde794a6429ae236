"""Zero-copy publication of compiled circuits to worker processes.

The parallel phi search (:mod:`repro.perf.parallel`) runs one label
computation per probe in a process pool.  The structure those probes
hammer — the compiled CSR arrays — is immutable per circuit, so it is
serialized exactly once in the parent and *published* to the workers:

* ``shm`` transport: the byte payload is placed in a
  ``multiprocessing.shared_memory`` segment; the pickled handle is just
  the segment name (a few dozen bytes), and every worker attaches the
  same physical pages — zero copies of the arrays cross the process
  boundary;
* ``bytes`` transport: the payload travels inline in the handle
  (pickled once per worker, via the pool initializer) on platforms
  without usable shared memory.

:func:`publish_csr` picks the transport; the parent must call
:meth:`CsrHandle.unlink` when the pool is done (the probe pool does so
in its ``shutdown``).  Workers call :meth:`CsrHandle.attach` once, in
the pool initializer, and install the result on their circuit copy via
:meth:`~repro.netlist.graph.SeqCircuit.adopt_compiled` so no worker
ever recompiles the kernel.

Warm-start label vectors ship as packed ``int32`` bytes
(:func:`pack_labels`) instead of pickled Python lists — a fixed 4 bytes
per label, and the worker decodes them with one ``array.frombytes``
instead of one pickle opcode per element.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.kernel.csr import CompiledCircuit

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory


def pack_labels(labels: Optional[Sequence[int]]) -> Optional[bytes]:
    """Pack a label vector into ``int32`` bytes (``None`` passes through)."""
    if labels is None:
        return None
    return array("i", labels).tobytes()


def unpack_labels(blob: Optional[bytes]) -> Optional[List[int]]:
    """Inverse of :func:`pack_labels`."""
    if blob is None:
        return None
    out = array("i")
    out.frombytes(blob)
    return list(out)


class CsrHandle:
    """A process-portable handle to one published compiled circuit.

    Pickling the handle is the transport: an ``shm`` handle pickles to
    the segment name, a ``bytes`` handle carries the payload inline.
    ``attach`` rebuilds the :class:`CompiledCircuit` in the receiving
    process; ``unlink`` (owner side) releases the shared segment.
    """

    def __init__(
        self,
        transport: str,
        payload: Optional[bytes] = None,
        shm_name: Optional[str] = None,
        size: int = 0,
    ) -> None:
        self.transport = transport
        self.payload = payload
        self.shm_name = shm_name
        self.size = size
        #: Owner-side segment, excluded from pickling.
        self._shm: "Optional[SharedMemory]" = None

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "transport": self.transport,
            "payload": self.payload,
            "shm_name": self.shm_name,
            "size": self.size,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._shm = None

    def pickled_size(self) -> int:
        """Bytes this handle adds to a pickle stream (telemetry)."""
        import pickle

        return len(pickle.dumps(self))

    def attach(self) -> CompiledCircuit:
        """Rebuild the compiled circuit in this process."""
        if self.transport == "bytes":
            assert self.payload is not None
            return CompiledCircuit.from_bytes(self.payload)
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=self.shm_name)
        try:
            return CompiledCircuit.from_bytes(segment.buf[: self.size])
        finally:
            segment.close()

    def unlink(self) -> None:
        """Owner side: release the shared segment (idempotent)."""
        shm = self._shm
        self._shm = None
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def publish_csr(compiled: CompiledCircuit, prefer_shm: bool = True) -> CsrHandle:
    """Publish a compiled circuit for worker attachment.

    Tries a ``multiprocessing.shared_memory`` segment first (zero-copy:
    workers map the parent's pages); falls back to an inline-bytes
    handle when shared memory is unavailable (platform without
    ``/dev/shm``, sandboxed environments).
    """
    return publish_bytes(compiled.to_bytes(), prefer_shm=prefer_shm)


def publish_bytes(data: bytes, prefer_shm: bool = True) -> CsrHandle:
    """Publish an already-serialized CSR byte string.

    The serve layer stores compiled circuits as exactly these bytes
    (:meth:`CompiledCircuit.to_bytes` is the store's blob format), so a
    job dispatched to the fleet can publish the stored blob verbatim —
    no deserialize/reserialize round trip in the service process.
    """
    if prefer_shm:
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=len(data))
            segment.buf[: len(data)] = data
            handle = CsrHandle(
                "shm", shm_name=segment.name, size=len(data)
            )
            handle._shm = segment
            return handle
        except (ImportError, OSError):  # pragma: no cover - no shm support
            pass
    return CsrHandle("bytes", payload=data, size=len(data))
