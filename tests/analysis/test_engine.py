"""Engine mechanics: severities, diagnostics, registry, rendering."""

import json

import pytest

import repro.analysis  # noqa: F401  (registers both rule packs)
from repro.analysis.engine import (
    Diagnostic,
    Location,
    Rule,
    Severity,
    all_rules,
    count_by_severity,
    diagnostics_json,
    get_rule,
    has_errors,
    max_severity,
    register,
    render_text,
    sort_diagnostics,
)


def diag(rule_id="CIRC001", severity=Severity.ERROR, node="g1", message="boom"):
    return Diagnostic(rule_id, severity, message, Location("c", node))


class TestSeverity:
    def test_rank_orders_errors_first(self):
        assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank

    def test_values_are_the_report_strings(self):
        assert [s.value for s in Severity] == ["error", "warning", "info"]


class TestLocation:
    def test_qualified_with_and_without_node(self):
        assert Location("c", "g").qualified == "c::g"
        assert Location("c").qualified == "c"

    def test_render_prefixes_file(self):
        assert Location("c", "g", "a.blif").render() == "a.blif: c::g"
        assert Location("c", "g").render() == "c::g"


class TestDiagnostic:
    def test_fingerprint_stable_and_message_independent(self):
        a = diag(message="one wording")
        b = diag(message="another wording")
        assert a.fingerprint == b.fingerprint
        assert len(a.fingerprint) == 16

    def test_fingerprint_distinguishes_rule_circuit_node(self):
        assert diag().fingerprint != diag(rule_id="CIRC002").fingerprint
        assert diag().fingerprint != diag(node="g2").fingerprint

    def test_as_dict_shape(self):
        d = diag()
        d.data["n"] = 3
        out = d.as_dict()
        assert out["rule"] == "CIRC001"
        assert out["severity"] == "error"
        assert out["circuit"] == "c"
        assert out["node"] == "g1"
        assert out["data"] == {"n": 3}
        assert out["fingerprint"] == d.fingerprint

    def test_render_line(self):
        assert diag().render() == "c::g1: error: CIRC001: boom"


class TestRegistry:
    def test_both_packs_registered(self):
        circuit_ids = {r.id for r in all_rules("circuit")}
        mapping_ids = {r.id for r in all_rules("mapping")}
        retime_ids = {r.id for r in all_rules("retiming")}
        assert {f"CIRC00{i}" for i in range(1, 8)} <= circuit_ids
        assert {"MAP002", "MAP003", "MAP005", "MAP006", "RET002", "RET003"} <= mapping_ids
        assert "MAP001" in retime_ids

    def test_get_rule_and_metadata(self):
        r = get_rule("CIRC003")
        assert r.name == "fanin-width"
        assert r.severity is Severity.ERROR
        assert r.scope == "circuit"
        assert r.description

    def test_select_filters_ids(self):
        only = all_rules("circuit", select=["CIRC001", "CIRC004"])
        assert [r.id for r in only] == ["CIRC001", "CIRC004"]

    def test_duplicate_id_rejected(self):
        existing = get_rule("CIRC001")
        with pytest.raises(ValueError):
            register(existing)

    def test_unknown_scope_rejected(self):
        bad = Rule("X1", "x", Severity.INFO, "nope", "d", lambda ctx: [])
        with pytest.raises(ValueError):
            register(bad)


class TestAggregation:
    def test_sort_is_severity_major(self):
        diags = [
            diag(rule_id="CIRC006", severity=Severity.INFO),
            diag(rule_id="CIRC002", severity=Severity.WARNING),
            diag(rule_id="CIRC001", severity=Severity.ERROR, node="z"),
            diag(rule_id="CIRC001", severity=Severity.ERROR, node="a"),
        ]
        ordered = sort_diagnostics(diags)
        assert [d.severity for d in ordered] == [
            Severity.ERROR,
            Severity.ERROR,
            Severity.WARNING,
            Severity.INFO,
        ]
        assert [d.location.node for d in ordered][:2] == ["a", "z"]

    def test_max_severity_and_has_errors(self):
        assert max_severity([]) is None
        warn = [diag(severity=Severity.WARNING)]
        assert max_severity(warn) is Severity.WARNING
        assert not has_errors(warn)
        assert has_errors(warn + [diag()])

    def test_counts(self):
        counts = count_by_severity([diag(), diag(severity=Severity.INFO)])
        assert counts == {"error": 1, "warning": 0, "info": 1}

    def test_render_text_one_line_each(self):
        text = render_text([diag(node="a"), diag(node="b")])
        assert text.splitlines() == [
            "c::a: error: CIRC001: boom",
            "c::b: error: CIRC001: boom",
        ]

    def test_json_envelope(self):
        payload = json.loads(diagnostics_json([diag()]))
        assert payload["schema"] == 1
        assert payload["counts"]["error"] == 1
        assert payload["diagnostics"][0]["rule"] == "CIRC001"
