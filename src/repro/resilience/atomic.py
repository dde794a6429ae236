"""Atomic artifact writes: a crashed writer never corrupts the old file.

Every JSON artifact this project writes (suite reports, checkpoints,
``benchmarks/baseline.json``, lint baselines, the serve journal's
compacted snapshots) goes through :func:`atomic_write_text`: the
content lands in a same-directory temp sibling which is then
:func:`os.replace`-d over the destination — an atomic rename on POSIX.
An interruption at any point (crash, SIGKILL, injected fault) leaves
either the old complete file or the new complete file, never a
truncated hybrid.

Durability goes one step further than atomicity: after the rename the
*containing directory* is fsynced too (:func:`fsync_directory`), because
POSIX only guarantees the new directory entry survives a power loss once
the directory inode itself reaches stable storage.  Without it a crashed
machine can come back with the *old* file even though ``os.replace``
returned — fatal for a write-ahead journal that acted on the record it
believed durable.

Two fault-injection sites bracket the danger zone: ``artifact-write``
sits between the temp write and the rename (where a naive writer would
have already destroyed the previous contents), and ``artifact-dirsync``
sits between the rename and the directory fsync (where the new name is
visible but not yet guaranteed durable).
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.resilience.faultinject import fault_point


def fsync_directory(path: str) -> None:
    """fsync the directory containing ``path`` (best effort).

    Needed after :func:`os.replace` for the rename itself to be durable
    across power loss.  Filesystems that cannot fsync a directory fd
    (some network/overlay mounts) raise ``OSError``; durability is then
    simply not available there, so the error is swallowed rather than
    failing an otherwise successful write.
    """
    parent = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp sibling + atomic rename."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fault_point("artifact-write", tag=path)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fault_point("artifact-dirsync", tag=path)
        fsync_directory(path)
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass


def atomic_write_json(
    path: str, payload: Any, indent: int = 2, sort_keys: bool = False
) -> None:
    """Serialize ``payload`` and write it atomically (trailing newline)."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)
