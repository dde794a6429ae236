"""Atomic artifact writes: a crash mid-write never corrupts the old file."""

import json
import os

import pytest

from repro.resilience import faultinject
from repro.resilience.atomic import (
    atomic_write_json,
    atomic_write_text,
    fsync_directory,
)
from repro.resilience.faultinject import Fault, FaultPlan, InjectedFault


class TestAtomicWrite:
    def test_writes_text(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "hello\n")
        assert open(path).read() == "hello\n"

    def test_overwrites_existing(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert open(path).read() == "new"

    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "out.json")
        payload = {"schema": 2, "runs": [{"phi": 3}]}
        atomic_write_json(path, payload)
        assert json.load(open(path)) == payload

    def test_no_temp_sibling_left_behind(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"ok": True})
        assert os.listdir(tmp_path) == ["out.json"]


class TestCrashMidWrite:
    def test_injected_crash_leaves_old_file_intact(self, tmp_path):
        """The issue's acceptance check: interrupt between temp write and
        rename — the previous artifact survives byte-for-byte and no temp
        file leaks."""
        path = str(tmp_path / "report.json")
        atomic_write_json(path, {"generation": 1})
        faultinject.install(
            FaultPlan([Fault("artifact-write", "raise", match=path)])
        )
        with pytest.raises(InjectedFault):
            atomic_write_json(path, {"generation": 2})
        assert json.load(open(path)) == {"generation": 1}
        assert os.listdir(tmp_path) == ["report.json"]

    def test_injected_crash_on_first_write_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "fresh.json")
        faultinject.install(
            FaultPlan([Fault("artifact-write", "raise", match=path)])
        )
        with pytest.raises(InjectedFault):
            atomic_write_json(path, {"generation": 1})
        assert os.listdir(tmp_path) == []


class TestDirectoryDurability:
    """The durability gap this PR closes: ``os.replace`` renames the
    file, but only an fsync of the *containing directory* makes the
    rename itself survive a power loss."""

    def test_dirsync_fault_fires_after_replace(self, tmp_path):
        # Crash between os.replace and the directory fsync: the new
        # content is already in place (the rename happened), no temp
        # sibling leaks, and the write is complete — never torn.
        path = str(tmp_path / "report.json")
        atomic_write_json(path, {"generation": 1})
        faultinject.install(
            FaultPlan([Fault("artifact-dirsync", "raise", match=path)])
        )
        with pytest.raises(InjectedFault):
            atomic_write_json(path, {"generation": 2})
        assert json.load(open(path)) == {"generation": 2}
        assert os.listdir(tmp_path) == ["report.json"]

    def test_dirsync_crash_then_retry_converges(self, tmp_path):
        path = str(tmp_path / "report.json")
        faultinject.install(
            FaultPlan([Fault("artifact-dirsync", "raise", match=path)])
        )
        with pytest.raises(InjectedFault):
            atomic_write_json(path, {"generation": 1})
        # The fault fired once; the caller's retry completes durably.
        atomic_write_json(path, {"generation": 2})
        assert json.load(open(path)) == {"generation": 2}

    def test_fsync_directory_tolerates_unsyncable_parents(self, tmp_path):
        # Best-effort by contract: some filesystems refuse directory
        # fsync; the helper must swallow that, not fail the write.
        fsync_directory(str(tmp_path / "file-in-real-dir"))
        fsync_directory("/proc/definitely/not/a/real/path")
