"""Cache rule pack: integrity audit of persistent outcome-cache entries.

The outcome cache (:mod:`repro.cache`) is consulted before probing and
its exact hits short-circuit whole searches, so its entries deserve
static-analysis coverage beyond the store's own load-time checks:

=========  =========================  ========
CACHE001   key-roundtrip              error
CACHE002   packed-label-bounds        error
CACHE003   certificate-phi-coherence  error
=========  =========================  ========

CACHE001 re-derives the content address from the embedded key and
matches it against the entry's file name and checksum — an entry that
answers for a key it does not encode is poison.  CACHE002 bounds the
packed int32 label blobs (alignment, length == node count, no negative
labels).  CACHE003 cross-checks the recorded final against the per-phi
verdicts (the optimum must be cached feasible with ``phi - 1`` cached
infeasible), the attached certificates, and verdict monotonicity in
phi.

Run them with :func:`audit_cache` over a cache directory;
``python -m repro.cache audit`` (also ``turbosyn cache audit``) and the
CI cache-smoke job surface the findings alongside the other packs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.analysis.engine import (
    Diagnostic,
    Location,
    Severity,
    rule,
    run_rules,
    sort_diagnostics,
)
from repro.cache.store import (
    CACHE_SCHEMA,
    CacheKey,
    OutcomeCache,
    decode_labels,
    entry_checksum,
)


@dataclass
class CacheEntryContext:
    """Context of the ``"cache"`` scope: one parsed entry file."""

    path: str
    entry: Dict[str, Any]
    #: parse failure that prevented reading the entry at all
    error: Optional[str] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def loc(self, node: Optional[str] = None) -> Location:
        circuit = str(self.entry.get("key", {}).get("circuit", "?"))[:12]
        return Location(f"cache:{circuit}", node, self.path)


def _iter_entry_paths(root: str) -> List[str]:
    entries_root = os.path.join(root, "entries")
    out: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(entries_root):
        for name in sorted(filenames):
            if name.endswith(".json"):
                out.append(os.path.join(dirpath, name))
    return out


def audit_cache(
    cache_or_root: "OutcomeCache | str",
    select: Optional[List[str]] = None,
) -> List[Diagnostic]:
    """Run the cache pack over every entry of a cache directory.

    Unreadable/unparseable files are reported through CACHE001 (the
    audit inspects what the store would heal, it does not heal
    itself).  Entries of a *different* schema version are skipped the
    same way the store ignores them.
    """
    root = (
        cache_or_root.root
        if isinstance(cache_or_root, OutcomeCache)
        else os.fspath(cache_or_root)
    )
    diags: List[Diagnostic] = []
    for path in _iter_entry_paths(root):
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            error = None
            if not isinstance(entry, dict):
                entry, error = {}, "entry is not a JSON object"
        except (OSError, ValueError) as exc:
            entry, error = {}, f"unreadable entry: {exc}"
        if error is None and entry.get("schema") != CACHE_SCHEMA:
            continue  # another writer's schema: ignored, like the store
        ctx = CacheEntryContext(path=path, entry=entry, error=error)
        diags.extend(run_rules("cache", ctx, select))
    return sort_diagnostics(diags)


def _entry_key(entry: Dict[str, Any]) -> Optional[CacheKey]:
    key = entry.get("key")
    if not isinstance(key, dict):
        return None
    try:
        return CacheKey(
            circuit_id=str(key["circuit"]),
            n=int(key["n"]),
            k=int(key["k"]),
            resynthesize=bool(key["resynthesize"]),
            cmax=(None if key["cmax"] is None else int(key["cmax"])),
            pld=bool(key["pld"]),
            extra_depth=int(key["extra_depth"]),
            io_constrained=bool(key["io_constrained"]),
            max_copies=int(key["max_copies"]),
        )
    except (KeyError, TypeError, ValueError):
        return None


@rule(
    "CACHE001",
    "key-roundtrip",
    Severity.ERROR,
    "cache",
    "A cache entry must be parseable, carry a well-formed key that "
    "re-derives its own file name (content address round-trip), and "
    "match its embedded whole-entry checksum.",
)
def check_key_roundtrip(ctx: CacheEntryContext) -> Iterator[Diagnostic]:
    if ctx.error is not None:
        yield Diagnostic(
            "CACHE001", Severity.ERROR, ctx.error, ctx.loc()
        )
        return
    key = _entry_key(ctx.entry)
    if key is None:
        yield Diagnostic(
            "CACHE001",
            Severity.ERROR,
            "entry key is missing or malformed",
            ctx.loc(),
        )
        return
    expected_name = f"{key.circuit_id}-{key.config_id}.json"
    actual_name = os.path.basename(ctx.path)
    if actual_name != expected_name:
        yield Diagnostic(
            "CACHE001",
            Severity.ERROR,
            f"key does not round-trip: file {actual_name!r} but the "
            f"embedded key addresses {expected_name!r}",
            ctx.loc(),
            data={"expected": expected_name},
        )
    recorded = ctx.entry.get("checksum")
    computed = entry_checksum(ctx.entry)
    if recorded != computed:
        yield Diagnostic(
            "CACHE001",
            Severity.ERROR,
            f"checksum mismatch: recorded {str(recorded)[:12]}..., "
            f"computed {computed[:12]}...",
            ctx.loc(),
        )


@rule(
    "CACHE002",
    "packed-label-bounds",
    Severity.ERROR,
    "cache",
    "Per-phi label blobs must decode as int32, have exactly one label "
    "per circuit node, and contain no negative labels; phi keys must "
    "be positive integers.",
)
def check_label_bounds(ctx: CacheEntryContext) -> Iterator[Diagnostic]:
    if ctx.error is not None:
        return
    key = _entry_key(ctx.entry)
    phis = ctx.entry.get("phis")
    if key is None or not isinstance(phis, dict):
        if not isinstance(phis, dict):
            yield Diagnostic(
                "CACHE002",
                Severity.ERROR,
                "entry has no phis table",
                ctx.loc(),
            )
        return
    for phi_text in sorted(phis):
        record = phis[phi_text]
        node = f"phi={phi_text}"
        try:
            phi = int(phi_text)
        except ValueError:
            yield Diagnostic(
                "CACHE002",
                Severity.ERROR,
                f"non-integer phi key {phi_text!r}",
                ctx.loc(node),
            )
            continue
        if phi < 1:
            yield Diagnostic(
                "CACHE002",
                Severity.ERROR,
                f"phi {phi} out of range (must be >= 1)",
                ctx.loc(node),
            )
        try:
            labels = decode_labels(record["labels"])
        except Exception as exc:
            yield Diagnostic(
                "CACHE002",
                Severity.ERROR,
                f"labels do not decode as packed int32: {exc}",
                ctx.loc(node),
            )
            continue
        if len(labels) != key.n:
            yield Diagnostic(
                "CACHE002",
                Severity.ERROR,
                f"{len(labels)} labels for a circuit of n={key.n} nodes",
                ctx.loc(node),
                data={"got": len(labels), "want": key.n},
            )
        negative = sum(1 for v in labels if v < 0)
        if negative:
            yield Diagnostic(
                "CACHE002",
                Severity.ERROR,
                f"{negative} negative labels (labels are cut heights, "
                "always >= 0)",
                ctx.loc(node),
            )


@rule(
    "CACHE003",
    "certificate-phi-coherence",
    Severity.ERROR,
    "cache",
    "The recorded final must be witnessed by the per-phi verdicts "
    "(feasible at phi, infeasible at phi-1), its attached certificates "
    "must agree on phi, and verdicts must be monotone in phi.",
)
def check_final_coherence(ctx: CacheEntryContext) -> Iterator[Diagnostic]:
    if ctx.error is not None:
        return
    phis = ctx.entry.get("phis")
    if not isinstance(phis, dict):
        return
    verdicts: Dict[int, bool] = {}
    for phi_text, record in phis.items():
        try:
            verdicts[int(phi_text)] = bool(record["feasible"])
        except (ValueError, TypeError, KeyError):
            continue  # CACHE002's finding
    feasible = [p for p, ok in verdicts.items() if ok]
    infeasible = [p for p, ok in verdicts.items() if not ok]
    if feasible and infeasible and max(infeasible) > min(feasible):
        yield Diagnostic(
            "CACHE003",
            Severity.ERROR,
            f"verdicts are not monotone in phi: infeasible at "
            f"{max(infeasible)} but feasible at {min(feasible)}",
            ctx.loc("monotonicity"),
        )
    final = ctx.entry.get("final")
    if final is None:
        return
    try:
        phi = int(final["phi"])
        str(final["signature"])
    except (TypeError, ValueError, KeyError):
        yield Diagnostic(
            "CACHE003",
            Severity.ERROR,
            "final record lacks a valid phi/signature",
            ctx.loc("final"),
        )
        return
    if verdicts.get(phi) is not True:
        yield Diagnostic(
            "CACHE003",
            Severity.ERROR,
            f"final phi={phi} has no cached feasible verdict at phi",
            ctx.loc("final"),
        )
    if phi > 1 and verdicts.get(phi - 1) is not False:
        yield Diagnostic(
            "CACHE003",
            Severity.ERROR,
            f"final phi={phi} has no cached infeasible verdict at "
            f"phi-1={phi - 1} (minimality unwitnessed)",
            ctx.loc("final"),
        )
    for cert_name in ("schedule_certificate", "cycle_certificate"):
        cert = final.get(cert_name)
        if cert is None:
            continue
        cert_phi = cert.get("phi") if isinstance(cert, dict) else None
        if cert_phi != phi:
            yield Diagnostic(
                "CACHE003",
                Severity.ERROR,
                f"{cert_name} is for phi={cert_phi!r}, final says "
                f"phi={phi}",
                ctx.loc("final"),
            )
        elif isinstance(cert, dict) and cert.get("feasible") is False:
            yield Diagnostic(
                "CACHE003",
                Severity.ERROR,
                f"{cert_name} declares phi={phi} infeasible but it is "
                "recorded as the optimum",
                ctx.loc("final"),
            )
