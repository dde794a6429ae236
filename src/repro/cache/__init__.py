"""Persistent warm-start cache: probe outcomes shared across runs.

Feasibility at a given ``phi`` is a property of ``(circuit, K,
options)`` alone, so the Figure-4 binary search's probe outcomes are
reusable across CLI invocations and :mod:`repro.serve` jobs — this
package stores them durably, content-addressed by the circuit's
canonical-BLIF SHA-256 (the ROADMAP
"warm caches of ``(circuit, K, phi)`` outcomes shared across users"
item).

* :class:`~repro.cache.store.OutcomeCache` — the store: sharded JSON
  entries, packed-int32 labels, checksums, atomic writes, LRU size
  bound, one cross-process file lock.
* :func:`~repro.cache.store.cache_key` — the invalidation key.
* :mod:`repro.analysis.cacherules` — the CACHE001-003 integrity pack.
* ``python -m repro.cache`` — ``stats`` / ``clear`` / ``audit`` /
  ``warmcheck`` maintenance CLI (also mounted as ``turbosyn cache``).

Consumers: :func:`repro.core.driver.search_min_phi` (verdict adoption,
warm seeds, verified search floor), :func:`repro.core.driver.run_mapper`
(exact-hit replay, re-verified before trust) and the mapping service
(outcomes sidecar + ``cache-hit`` journal notes).
"""

from repro.cache.store import (
    CACHE_SCHEMA,
    CacheKey,
    DEFAULT_MAX_BYTES,
    OutcomeCache,
    cache_key,
    circuit_content_id,
    final_signature,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheKey",
    "DEFAULT_MAX_BYTES",
    "OutcomeCache",
    "cache_key",
    "circuit_content_id",
    "final_signature",
]
