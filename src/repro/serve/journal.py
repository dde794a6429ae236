"""The write-ahead job journal: append, fsync, *then* act.

Every state transition of the mapping service goes through one
append-only JSONL file.  The discipline is strict write-ahead logging:

1. serialize the record, append it to the journal file;
2. flush + ``fsync`` so the record is on stable storage;
3. only then perform (or acknowledge) the action the record describes.

A process killed at *any* instant therefore leaves a journal from which
the full job table can be reconstructed: a record present means the
transition may or may not have been acted on (recovery redoes it
idempotently), a record absent means the action was never acknowledged
(the client's submit either errored or will be retried).  Nothing the
service accepted can silently vanish — the crash-only contract of
:mod:`repro.serve`.

Record format: one JSON object per line, always carrying ``type`` and a
monotonically increasing ``seq``.  The record vocabulary itself lives in
:mod:`repro.serve.service`; the journal is agnostic.

Torn tails: a crash mid-append (a real SIGKILL between ``write`` and
``fsync``, or a full disk) can leave a final partial line.  By the WAL
discipline that record was *never acted on*, so :meth:`Journal.open`
drops it: replay stops at the last complete record and the file is
truncated back to that point before new appends.

The ``journal-append`` fault-injection site fires after step 2 —
"journaled but not yet acted", the canonical crash-only test window.

Compaction: the journal grows one record per transition forever.
:meth:`Journal.compact` atomically replaces the file with a caller-
provided snapshot of live records (via the temp + rename + directory
fsync machinery of :mod:`repro.resilience.atomic`), so a crash during
compaction leaves either the full old journal or the complete snapshot.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.resilience.atomic import atomic_write_text, fsync_directory
from repro.resilience.faultinject import fault_point

Record = Dict[str, Any]


class JournalError(RuntimeError):
    """The journal could not be written — the service must treat this as
    fatal (crash-only: better to die and replay than to act unjournaled)."""


class Journal:
    """One append-only, fsync-per-record JSONL journal file."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fh: Optional[Any] = None
        self._seq = 0
        # Appends come from every lane thread (job transitions, notes) as
        # well as the intake path; seq assignment and the write+flush+fsync
        # must be one atomic unit or concurrent appends tear lines.
        self._write_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def open(cls, path: str) -> "Tuple[Journal, List[Record]]":
        """Open (creating if absent) and replay a journal.

        Returns ``(journal, records)`` with the journal positioned for
        appending.  A torn final line is discarded and truncated away;
        ``seq`` continues from the last complete record.
        """
        journal = cls(path)
        records: List[Record] = []
        good_bytes = 0
        if os.path.exists(path):
            with open(path, "rb") as fh:
                for line in fh:
                    if not line.endswith(b"\n"):
                        break  # torn tail: record never acknowledged
                    try:
                        record = json.loads(line)
                    except ValueError:
                        break  # corrupt tail line
                    if not isinstance(record, dict) or "type" not in record:
                        break
                    records.append(record)
                    good_bytes += len(line)
            if good_bytes < os.path.getsize(path):
                with open(path, "r+b") as fh:
                    fh.truncate(good_bytes)
                    fh.flush()
                    os.fsync(fh.fileno())
        journal._seq = max(
            (int(r.get("seq", 0)) for r in records), default=0
        )
        journal._ensure_open()
        return journal, records

    def _ensure_open(self) -> None:
        if self._fh is None:
            created = not os.path.exists(self.path)
            self._fh = open(self.path, "a", encoding="utf-8")
            if created:
                # The file's *directory entry* must survive a power loss
                # too, or replay finds no journal at all.
                fsync_directory(self.path)

    def close(self) -> None:
        with self._write_lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- the WAL primitive ----------------------------------------------
    @property
    def seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._seq

    def append(self, record: Record) -> int:
        """Durably append one record; returns its ``seq``.

        The record is on stable storage when this returns — the caller
        may act on (or acknowledge) the transition.  Any I/O failure
        raises :class:`JournalError`: an unjournaled action must never
        be taken, so the caller's only safe move is to stop.

        Thread-safe: lanes journal transitions concurrently, and a torn or
        duplicate-seq line would truncate everything after it on replay.
        """
        payload = dict(record)
        with self._write_lock:
            self._ensure_open()
            assert self._fh is not None
            seq = self._seq + 1
            payload["seq"] = seq
            line = json.dumps(payload, separators=(",", ":"), sort_keys=False)
            try:
                self._fh.write(line + "\n")
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError as exc:
                raise JournalError(
                    f"journal append failed ({self.path}): {exc}"
                ) from exc
            self._seq = seq
        fault_point(
            "journal-append",
            tag=f"{payload.get('type', '?')}:{payload.get('job', '')}",
        )
        return seq

    # -- maintenance ----------------------------------------------------
    def compact(self, records: Iterable[Record]) -> None:
        """Atomically replace the journal with a snapshot of ``records``.

        Sequence numbers are preserved verbatim, and a ``compact``
        header record pins the pre-compaction high-water mark: even
        when the highest-seq live record was dropped (a ``note``, a
        ``start``), a later :meth:`open` replays ``seq`` at or
        above every seq ever handed out, so numbering never regresses.
        """
        header: Record = {
            "type": "compact", "high_water": self._seq, "seq": self._seq,
        }
        lines = [
            json.dumps(dict(record), separators=(",", ":"))
            for record in [header, *records]
        ]
        text = "".join(line + "\n" for line in lines)
        with self._write_lock:
            self._close_locked()
            atomic_write_text(self.path, text)
            self._ensure_open()

    def size_bytes(self) -> int:
        """Current on-disk size (observability / overhead accounting)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0
