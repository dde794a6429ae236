"""Invariant sanitizer: seeded mutations trip exactly their own hook.

The acceptance criterion asserted here: ``selftest()`` demonstrates
every SAN0xx hook catching its injected engine bug, clean runs stay
silent, and the hooks change no answers when enabled.
"""

import pytest

from repro.analysis import sanitize
from repro.analysis.engine import Severity, all_rules
from repro.analysis.sanitize import (
    _MUTATIONS,
    SanitizerViolation,
    enable,
    enabled,
    reset,
    selftest,
)
from repro.core.turbomap import turbomap
from tests.helpers import random_seq_circuit

SAN_IDS = [
    "SAN001", "SAN002", "SAN003", "SAN004", "SAN005", "SAN006", "SAN007",
]


@pytest.fixture(autouse=True)
def restore_switch():
    yield
    reset()


class TestSwitch:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
        reset()
        assert not enabled()

    def test_env_flag(self, monkeypatch):
        reset()
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        assert enabled()
        monkeypatch.setenv(sanitize.ENV_FLAG, "0")
        assert not enabled()
        monkeypatch.setenv(sanitize.ENV_FLAG, "")
        assert not enabled()

    def test_enable_overrides_env(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_FLAG, "0")
        enable(True)
        assert enabled()
        enable(False)
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        assert not enabled()
        reset()
        assert enabled()


class TestDescriptors:
    def test_rules_registered(self):
        rules = all_rules("sanitizer")
        assert [r.id for r in rules] == SAN_IDS
        for r in rules:
            assert r.severity is Severity.ERROR
            assert r.description

    def test_rules_never_fire_via_engine(self):
        for r in all_rules("sanitizer"):
            assert list(r.check(object())) == []


class TestMutations:
    @pytest.mark.parametrize("expected,scenario", _MUTATIONS)
    def test_each_hook_catches_its_mutation(self, expected, scenario):
        enable(True)
        with pytest.raises(SanitizerViolation) as exc_info:
            scenario()
        diag = exc_info.value.diagnostic
        assert diag.rule_id == expected
        assert diag.severity is Severity.ERROR
        assert diag.message

    @pytest.mark.parametrize("_expected,scenario", _MUTATIONS)
    def test_mutations_silent_when_disabled(self, _expected, scenario):
        enable(False)
        scenario()  # hooks absent: the injected bug goes unnoticed

    def test_selftest_passes(self):
        assert selftest() == []

    def test_selftest_restores_switch(self):
        enable(False)
        selftest()
        assert not enabled()

    def test_clean_runs_silent(self):
        enable(True)
        sanitize._clean_runs()


class TestFrontierHook:
    def test_armed_turbosyn_checks_every_frontier_answer(self, monkeypatch):
        """SAN007 re-solves each frontier answer on a real Dinic
        network, which keeps SAN003-SAN005 live as well."""
        from repro.core.turbosyn import turbosyn
        from repro.kernel.dinic import DinicNetwork

        checks = []
        check = sanitize.FrontierSanitizer.check
        solves = [0]
        max_flow = DinicNetwork.max_flow

        def counted_check(self, expansion, max_cut, cut):
            checks.append(cut is not None)
            return check(self, expansion, max_cut, cut)

        def counted_flow(self, source, sink, limit):
            solves[0] += 1
            return max_flow(self, source, sink, limit)

        monkeypatch.setattr(sanitize.FrontierSanitizer, "check", counted_check)
        monkeypatch.setattr(DinicNetwork, "max_flow", counted_flow)
        circuit = random_seq_circuit(4, 30, seed=5, name="san-frontier")
        plain = turbosyn(circuit, 4)
        assert not checks and solves[0] == 0  # disarmed: no flow at all
        enable(True)
        armed = turbosyn(circuit, 4)
        assert armed.phi == plain.phi and armed.labels == plain.labels
        assert any(checks) and not all(checks)
        assert solves[0] == len(checks)


    def test_hook_resolved_once_per_run_and_pass(self, monkeypatch):
        """The label run (its resynthesis hook included) and each mapping
        pass answer all their cut queries on one arena, so the SAN007
        hook is resolved once per arena, never per query; armed, every
        frontier answer is still checked."""
        import repro.kernel.expand as kexpand
        from repro.core.turbosyn import turbosyn

        counts = {"resolved": 0, "arenas": 0, "frontier": 0, "checked": 0}
        resolve = kexpand.frontier_sanitizer
        arena_init = kexpand.PackedCutArena.__init__
        frontier = kexpand.frontier_cut
        check = sanitize.FrontierSanitizer.check

        def counted_resolve():
            counts["resolved"] += 1
            return resolve()

        def counted_arena(self):
            counts["arenas"] += 1
            arena_init(self)

        def counted_frontier(expansion, max_cut):
            counts["frontier"] += 1
            return frontier(expansion, max_cut)

        def counted_check(self, expansion, max_cut, cut):
            counts["checked"] += 1
            return check(self, expansion, max_cut, cut)

        monkeypatch.setattr(kexpand, "frontier_sanitizer", counted_resolve)
        monkeypatch.setattr(kexpand.PackedCutArena, "__init__", counted_arena)
        monkeypatch.setattr(kexpand, "frontier_cut", counted_frontier)
        monkeypatch.setattr(sanitize.FrontierSanitizer, "check", counted_check)
        circuit = random_seq_circuit(4, 30, seed=5, name="san-once")
        turbosyn(circuit, 4)
        assert counts["resolved"] == counts["arenas"] > 0
        assert counts["frontier"] > 10 * counts["arenas"]
        assert counts["checked"] == 0
        enable(True)
        counts.update(frontier=0, checked=0)
        turbosyn(circuit, 4)
        assert counts["checked"] == counts["frontier"] > 0


class TestNoInterference:
    def test_turbomap_answer_unchanged(self):
        circuit = random_seq_circuit(4, 30, seed=5, name="san-noninterf")
        plain = turbomap(circuit, 5)
        enable(True)
        armed = turbomap(circuit, 5)
        assert armed.phi == plain.phi
        for phi in plain.outcomes:
            assert armed.outcomes[phi].labels == plain.outcomes[phi].labels


class TestCli:
    def test_selftest_exit_zero(self, capsys):
        assert sanitize.main(["--selftest"]) == 0
        out = capsys.readouterr().out
        assert "seeded mutation(s) caught" in out

    def test_no_args_prints_help(self, capsys):
        assert sanitize.main([]) == 2
        assert "selftest" in capsys.readouterr().out
