"""The ``repro remap`` CLI: BLIF-to-BLIF incremental repair."""

import json

import pytest

from repro.cli import main
from repro.netlist.blif import write_blif_file
from tests.helpers import random_seq_circuit


@pytest.fixture
def blif_pair(tmp_path):
    """A base circuit and a 1-edit variant, round-tripped through BLIF."""
    base = random_seq_circuit(3, 10, seed=61, name="remapcli")
    edited = base.copy()
    g = edited.gates[0]
    pin = edited.fanins(g)[0]
    assert edited.rewire_pin(g, 0, pin.src, pin.weight + 1)
    base_path = str(tmp_path / "base.blif")
    edited_path = str(tmp_path / "edited.blif")
    write_blif_file(base, base_path)
    write_blif_file(edited, edited_path)
    return base_path, edited_path


class TestRemapCommand:
    def test_remap_verifies_identical_to_cold(self, blif_pair, capsys):
        base, edited = blif_pair
        assert main(["remap", base, edited, "-k", "4", "--verify-cold"]) == 0
        out = capsys.readouterr().out
        assert "remap phi=" in out
        assert "verify-cold: IDENTICAL" in out

    def test_non_alignable_falls_back_to_cold(self, tmp_path, capsys):
        base = random_seq_circuit(3, 10, seed=62, name="alpha")
        other = random_seq_circuit(3, 6, seed=63, name="beta")
        base_path = str(tmp_path / "base.blif")
        other_path = str(tmp_path / "other.blif")
        write_blif_file(base, base_path)
        write_blif_file(other, other_path)
        assert main(["remap", base_path, other_path, "-k", "4"]) == 0
        captured = capsys.readouterr()
        assert "falling back to a cold run" in captured.err
        assert "cold phi=" in captured.out

    def test_report_and_out_artifacts(self, blif_pair, tmp_path, capsys):
        base, edited = blif_pair
        report = str(tmp_path / "report.json")
        mapped = str(tmp_path / "mapped.blif")
        code = main(
            [
                "remap", base, edited, "-k", "4",
                "--report", report, "--out", mapped,
            ]
        )
        assert code == 0
        payload = json.loads(open(report).read())
        assert payload["schema"] == 10
        assert payload["kind"] == "remap"
        assert payload["runs"][0]["incremental"] is True
        # The remapped BLIF must itself be readable and K-bounded.
        assert main(["stats", mapped]) == 0

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.blif")
        assert main(["remap", missing, missing]) == 2
        assert "error:" in capsys.readouterr().err
