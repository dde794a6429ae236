"""Persistent content-addressed store of phi-probe outcomes.

The paper's Figure-4 search is a sequence of monotone feasibility
probes, so a probe's verdict is a durable fact about ``(circuit, K,
options, phi)`` — not about the run that computed it.  This store keys
every outcome by the SHA-256 of the circuit's canonical BLIF (the same
address :class:`repro.serve.store.CircuitStore` uses) plus the
engine-*relevant* options, and records per-phi verdict + converged
labels (packed int32, base64) plus the final ``(min phi, result
signature, certificates)`` of a completed verified search.

Keys never included the label engine selectors, the worker count or
the probe-seeding switch of earlier releases, so entries those releases
wrote still hit.  A directory an older release filled with seeding
switched off may hold unseeded probe outcomes that replay a different
mapping than a fresh run (on s1, 405 LUTs instead of 408);
``turbosyn cache clear DIR`` resets it.  ``cmax`` participates only
when resynthesis is on (TurboMap ignores it).

Durability hygiene follows the PR 8 store: atomic entry writes with
dirsync, a versioned schema where a mismatched version is *ignored*
(future or past code can keep its own entries) while a corrupted or
truncated entry is *healed* (quarantined to a miss and deleted, counted
in ``healed``), an embedded whole-entry checksum so silent bit-rot
cannot masquerade as a verdict, bounded total size with LRU eviction
(entries are re-touched on every hit), and one advisory file lock
(:class:`repro.cache.lock.FileLock`) serializing read-modify-writes
across processes.

Nothing read from this store is trusted blind by callers: the driver
re-verifies exact hits through the default-on MAP/RET verifier and the
stored result signature, and falls back to a cold search (healing the
entry) on any disagreement — see :func:`repro.core.driver.run_mapper`.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cache.lock import FileLock
from repro.core.expanded import DEFAULT_MAX_COPIES
from repro.core.labels import LabelOutcome, LabelStats
from repro.netlist.blif import write_blif
from repro.netlist.graph import SeqCircuit
from repro.resilience.atomic import atomic_write_text

#: Entry schema version.  Bump on layout changes; mismatched entries
#: are ignored (treated as misses), never deleted.
CACHE_SCHEMA = 1

#: Default size bound of one cache directory (LRU-evicted above this).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class CacheKey:
    """The invalidation key: circuit content + engine-relevant options.

    ``n`` (the node count) is not an input of the search — it is
    recorded so packed label blobs can be length-validated on load
    (CACHE002) without recompiling the circuit.
    """

    circuit_id: str
    n: int
    k: int
    resynthesize: bool
    cmax: Optional[int]
    pld: bool
    extra_depth: int
    io_constrained: bool
    max_copies: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "circuit": self.circuit_id,
            "n": self.n,
            "k": self.k,
            "resynthesize": self.resynthesize,
            "cmax": self.cmax,
            "pld": self.pld,
            "extra_depth": self.extra_depth,
            "io_constrained": self.io_constrained,
            "max_copies": self.max_copies,
        }

    @property
    def config_id(self) -> str:
        """SHA-256 of the canonical key JSON (the entry's file name)."""
        return hashlib.sha256(
            _canonical_json(self.to_dict()).encode("utf-8")
        ).hexdigest()


def circuit_content_id(circuit: SeqCircuit) -> str:
    """The content address: SHA-256 hex of the canonical BLIF text."""
    return hashlib.sha256(write_blif(circuit).encode("utf-8")).hexdigest()


def cache_key(
    circuit: SeqCircuit,
    k: int,
    resynthesize: bool,
    cmax: Optional[int] = None,
    pld: bool = True,
    extra_depth: int = 0,
    io_constrained: bool = False,
    max_copies: int = DEFAULT_MAX_COPIES,
    circuit_id: Optional[str] = None,
) -> CacheKey:
    """Build the cache key for one search configuration.

    ``circuit_id`` lets a caller that already holds the content address
    (e.g. the mapping service's circuit store) skip re-serializing the
    netlist.  ``cmax`` is normalized to ``None`` when resynthesis is
    off — TurboMap runs never consult it, so keying on it would only
    split identical result sets.
    """
    return CacheKey(
        circuit_id=(
            circuit_id if circuit_id is not None
            else circuit_content_id(circuit)
        ),
        n=len(circuit),
        k=k,
        resynthesize=bool(resynthesize),
        cmax=(int(cmax) if resynthesize and cmax is not None else None),
        pld=bool(pld),
        extra_depth=int(extra_depth),
        io_constrained=bool(io_constrained),
        max_copies=int(max_copies),
    )


def final_signature(phi: int, labels: List[int], mapped_blif: str) -> str:
    """Deterministic signature of a finished mapping result.

    Covers the optimum period, the converged labels and the canonical
    mapped netlist — everything an exact cache hit must reproduce
    bit-identically.  Compared on every exact-hit replay; a mismatch
    heals the entry and falls back to a cold search.
    """
    digest = hashlib.sha256()
    digest.update(str(int(phi)).encode("ascii"))
    digest.update(b"\0")
    digest.update(_pack_labels(labels))
    digest.update(b"\0")
    digest.update(mapped_blif.encode("utf-8"))
    return digest.hexdigest()


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def entry_checksum(entry: Dict[str, Any]) -> str:
    """Whole-entry integrity checksum (over everything but itself)."""
    body = {k: v for k, v in entry.items() if k != "checksum"}
    return hashlib.sha256(
        _canonical_json(body).encode("utf-8")
    ).hexdigest()


def _pack_labels(labels: List[int]) -> bytes:
    """A label vector as packed ``int32`` bytes (4 bytes per label)."""
    return array("i", labels).tobytes()


def encode_labels(labels: List[int]) -> str:
    return base64.b64encode(_pack_labels(labels)).decode("ascii")


def decode_labels(blob: str) -> List[int]:
    raw = base64.b64decode(blob.encode("ascii"), validate=True)
    if len(raw) % 4:
        raise ValueError(f"packed labels not int32-aligned ({len(raw)}B)")
    out = array("i")
    out.frombytes(raw)
    return list(out)


class OutcomeCache:
    """On-disk probe/outcome cache shared by CLI runs and the service."""

    def __init__(
        self, root: str, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        self.root = os.fspath(root)
        self.max_bytes = int(max_bytes)
        os.makedirs(os.path.join(self.root, "entries"), exist_ok=True)
        self._lock = FileLock(os.path.join(self.root, ".lock"))
        #: in-run memo of loaded entries (path -> entry dict or None);
        #: invalidated by this process's own writes.  Staleness against
        #: a concurrent writer only costs a miss, never a wrong answer.
        self._mem: Dict[str, Optional[Dict[str, Any]]] = {}
        # -- observability counters ------------------------------------
        self.hits = 0  #: per-phi outcomes served
        self.misses = 0  #: per-phi lookups that found nothing
        self.seeds = 0  #: warm seeds served to uncached probes
        self.final_hits = 0  #: exact full-search hits served
        self.puts = 0  #: outcomes written through
        self.healed = 0  #: corrupted entries quarantined
        self.ignored = 0  #: entries skipped on schema-version mismatch
        self.evictions = 0  #: entries dropped by the LRU size bound

    # -- paths ----------------------------------------------------------
    def _entry_path(self, key: CacheKey) -> str:
        shard = key.circuit_id[:2] or "00"
        name = f"{key.circuit_id}-{key.config_id}.json"
        return os.path.join(self.root, "entries", shard, name)

    def _entry_files(self) -> List[str]:
        out: List[str] = []
        entries_root = os.path.join(self.root, "entries")
        for dirpath, _dirnames, filenames in os.walk(entries_root):
            for name in filenames:
                if name.endswith(".json"):
                    out.append(os.path.join(dirpath, name))
        return out

    # -- entry IO -------------------------------------------------------
    def _heal(self, path: str, why: str) -> None:
        """Quarantine a corrupted entry: delete it, count the heal."""
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone / racing heal
            pass
        self.healed += 1
        self._mem[path] = None

    def _load(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """Read + validate one entry; corrupt entries heal to a miss."""
        path = self._entry_path(key)
        if path in self._mem:
            return self._mem[path]
        entry = self._read_validated(path, key)
        self._mem[path] = entry
        return entry

    def _read_validated(
        self, path: str, key: Optional[CacheKey]
    ) -> Optional[Dict[str, Any]]:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            return None
        try:
            entry = json.loads(text)
        except ValueError:
            self._heal(path, "not JSON")
            return None
        if not isinstance(entry, dict):
            self._heal(path, "not an object")
            return None
        if entry.get("schema") != CACHE_SCHEMA:
            # A different (older/newer) writer owns this entry; leave
            # it alone and act as a cold cache.
            self.ignored += 1
            return None
        if entry.get("checksum") != entry_checksum(entry):
            self._heal(path, "checksum mismatch")
            return None
        if key is not None and entry.get("key") != key.to_dict():
            # Hash collision or tampering: the addressed key must
            # round-trip exactly.
            self._heal(path, "key mismatch")
            return None
        try:
            self._validate_payload(entry, key)
        except (ValueError, TypeError, KeyError, binascii.Error) as exc:
            self._heal(path, f"payload invalid: {exc}")
            return None
        return entry

    @staticmethod
    def _validate_payload(
        entry: Dict[str, Any], key: Optional[CacheKey]
    ) -> None:
        """Structural validation beyond the checksum (defense in depth)."""
        n = int(entry["key"]["n"])
        phis = entry.get("phis")
        if not isinstance(phis, dict):
            raise ValueError("phis is not an object")
        for phi_text, record in phis.items():
            phi = int(phi_text)
            if phi < 1:
                raise ValueError(f"phi {phi} out of range")
            labels = decode_labels(record["labels"])
            if len(labels) != n:
                raise ValueError(
                    f"phi {phi}: {len(labels)} labels for n={n}"
                )
            bool(record["feasible"])
        final = entry.get("final")
        if final is not None:
            if int(final["phi"]) < 1:
                raise ValueError("final phi out of range")
            str(final["signature"])

    def _store(self, path: str, entry: Dict[str, Any]) -> None:
        entry["checksum"] = entry_checksum(entry)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_text(path, _canonical_json(entry))
        self._mem[path] = entry

    def _fresh_entry(self, key: CacheKey) -> Dict[str, Any]:
        return {
            "schema": CACHE_SCHEMA,
            "key": key.to_dict(),
            "phis": {},
            "final": None,
        }

    # -- per-phi outcomes ----------------------------------------------
    def get_outcome(self, key: CacheKey, phi: int) -> Optional[LabelOutcome]:
        """A cached probe verdict at ``phi``, reconstructed as a
        :class:`LabelOutcome` with *fresh* (empty) stats so adopted
        outcomes never replay the solver counters of the run that
        produced them — telemetry stays honest about saved work."""
        entry = self._load(key)
        record = (
            entry["phis"].get(str(int(phi))) if entry is not None else None
        )
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(self._entry_path(key))
        return LabelOutcome(
            feasible=bool(record["feasible"]),
            labels=decode_labels(record["labels"]),
            stats=LabelStats(),
            failed_scc=[int(v) for v in record.get("failed_scc", [])],
        )

    def put_outcome(
        self, key: CacheKey, phi: int, outcome: LabelOutcome
    ) -> None:
        """Write one probe verdict through (merge under the file lock)."""
        path = self._entry_path(key)
        record = {
            "feasible": bool(outcome.feasible),
            "labels": encode_labels(outcome.labels),
        }
        if outcome.failed_scc:
            record["failed_scc"] = [int(v) for v in outcome.failed_scc]
        with self._lock:
            self._mem.pop(path, None)  # merge against the disk truth
            entry = self._read_validated(path, key)
            if entry is None:
                entry = self._fresh_entry(key)
            entry["phis"][str(int(phi))] = record
            self._store(path, entry)
            self.puts += 1
            self._evict_locked()

    def nearest_seed(
        self, key: CacheKey, phi: int
    ) -> Optional[Tuple[int, List[int]]]:
        """Tightest cached *feasible* outcome above ``phi`` (for the
        PR 4 warm-start path), as ``(cached_phi, labels)``."""
        entry = self._load(key)
        if entry is None:
            return None
        best: Optional[int] = None
        for phi_text, record in entry["phis"].items():
            cached = int(phi_text)
            if cached > phi and record["feasible"]:
                if best is None or cached < best:
                    best = cached
        if best is None:
            return None
        self.seeds += 1
        return best, decode_labels(entry["phis"][str(best)]["labels"])

    def verified_floor(self, key: CacheKey) -> int:
        """Smallest phi not excluded by a cached *infeasible* verdict.

        Every cached infeasible verdict was probe-verified by the run
        that wrote it (and is checksum-guarded here), so by
        monotonicity the optimum is ``>= max(infeasible) + 1`` — a
        sound starting floor for the binary search.
        """
        entry = self._load(key)
        if entry is None:
            return 1
        worst = 0
        for phi_text, record in entry["phis"].items():
            if not record["feasible"]:
                worst = max(worst, int(phi_text))
        return worst + 1

    # -- finals ---------------------------------------------------------
    def get_final(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """The recorded end-of-search summary, coherence-checked.

        Returns ``None`` unless the final's phi has a cached feasible
        verdict *and* (when ``phi > 1``) ``phi - 1`` has a cached
        infeasible one — the two facts that make ``phi`` *the* minimum
        rather than *a* feasible period.
        """
        entry = self._load(key)
        if entry is None or entry.get("final") is None:
            return None
        final = entry["final"]
        phi = int(final["phi"])
        phis = entry["phis"]
        at = phis.get(str(phi))
        below = phis.get(str(phi - 1))
        if at is None or not at["feasible"]:
            return None
        if phi > 1 and (below is None or below["feasible"]):
            return None
        self.final_hits += 1
        self._touch(self._entry_path(key))
        return dict(final)

    def put_final(
        self,
        key: CacheKey,
        phi: int,
        signature: str,
        schedule_certificate: Optional[Dict[str, Any]] = None,
        cycle_certificate: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record the verified end of a completed (non-degraded) search."""
        final = {
            "phi": int(phi),
            "signature": str(signature),
            "schedule_certificate": schedule_certificate,
            "cycle_certificate": cycle_certificate,
        }
        path = self._entry_path(key)
        with self._lock:
            self._mem.pop(path, None)
            entry = self._read_validated(path, key)
            if entry is None:
                entry = self._fresh_entry(key)
            entry["final"] = final
            self._store(path, entry)
            self.puts += 1
            self._evict_locked()

    def invalidate(self, key: CacheKey) -> None:
        """Heal one entry explicitly (used when a replayed result fails
        re-verification — the cold fallback path)."""
        with self._lock:
            self._heal(self._entry_path(key), "invalidated by caller")

    # -- maintenance ----------------------------------------------------
    def _touch(self, path: str) -> None:
        """LRU recency: bump the entry's mtime on every hit."""
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - entry raced away
            pass

    def _evict_locked(self) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        Caller holds the file lock.  Sizes are entry files only; the
        lock file and directories are bookkeeping noise.
        """
        stats: List[Tuple[float, int, str]] = []
        total = 0
        for path in self._entry_files():
            try:
                st = os.stat(path)
            except OSError:  # pragma: no cover - racing writer
                continue
            stats.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if total <= self.max_bytes:
            return
        for _mtime, size, path in sorted(stats):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover
                continue
            self._mem.pop(path, None)
            self.evictions += 1
            total -= size
            if total <= self.max_bytes:
                break

    def stats(self) -> Dict[str, Any]:
        """Directory + counter snapshot (CLI ``cache stats``, service
        health)."""
        files = self._entry_files()
        total = 0
        for path in files:
            try:
                total += os.stat(path).st_size
            except OSError:  # pragma: no cover
                pass
        return {
            "root": self.root,
            "schema": CACHE_SCHEMA,
            "entries": len(files),
            "bytes": total,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "seeds": self.seeds,
            "final_hits": self.final_hits,
            "puts": self.puts,
            "healed": self.healed,
            "ignored": self.ignored,
            "evictions": self.evictions,
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        with self._lock:
            for path in self._entry_files():
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:  # pragma: no cover
                    pass
            self._mem.clear()
        return removed
