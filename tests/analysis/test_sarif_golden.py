"""Golden SARIF 2.1.0 snapshot over the KERN / RET / SAN packs.

The snapshot pins the whole machine-readable surface added by the
certificate-carrying analysis: rule descriptors of all three packs and
one deterministic finding per checking pack, byte-for-byte (as parsed
JSON).
Regenerate after an intentional schema change with::

    PYTHONPATH=src:. python tests/analysis/test_sarif_golden.py
"""

import json
import os

from repro.analysis.engine import all_rules, run_rules, sort_diagnostics
from repro.analysis.invariants import MappingContext
from repro.analysis.kernelrules import audit_compiled
from repro.analysis.sarif import sarif_report
from repro.kernel.csr import compile_circuit
from repro.netlist.graph import SeqCircuit
from tests.helpers import AND2, BUF

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "certified_packs.sarif.json"
)


def ring3():
    """Three unit-delay gates around one register: MDR = 3."""
    c = SeqCircuit("goldring")
    pi = c.add_pi("pi")
    g0 = c.add_gate_placeholder("g0", AND2)
    g1 = c.add_gate("g1", BUF, [(g0, 0)])
    g2 = c.add_gate("g2", BUF, [(g1, 0)])
    c.set_fanins(g0, [(pi, 0), (g2, 1)])
    c.add_po("out", g2)
    return c


def build_report():
    """One deterministic finding per pack, all descriptors, one SARIF."""
    ring = ring3()

    # KERN001: truncated offsets on the ring's own compiled CSR.
    compiled = compile_circuit(ring)
    compiled.offsets.pop()
    diags = audit_compiled(ring, compiled, select=["KERN001"])

    # RET002: no periodic schedule exists one below the MDR.
    map_ctx = MappingContext(ring, ring, 2, [], 5, algorithm="golden")
    diags += run_rules("mapping", map_ctx, ["RET002"])

    rules = (
        all_rules("kernel")
        + [r for r in all_rules("mapping") if r.id.startswith("RET")]
        + all_rules("sanitizer")
    )
    return sarif_report(sort_diagnostics(diags), rules)


class TestGoldenSnapshot:
    def test_matches_golden(self):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        # Round-trip through JSON so tuples/ints normalize identically.
        assert json.loads(json.dumps(build_report())) == golden

    def test_golden_covers_all_new_packs(self):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        run = golden["runs"][0]
        ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"KERN001", "KERN002", "KERN003", "KERN005"} <= ids
        assert "KERN004" not in ids
        assert {"RET002", "RET003"} <= ids
        assert {f"SAN00{i}" for i in (1, 2, 3, 4, 5, 7)} <= ids
        assert "SAN006" not in ids
        fired = {r["ruleId"] for r in run["results"]}
        assert fired == {"KERN001", "RET002"}
        for result in run["results"]:
            assert result["partialFingerprints"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(json.loads(json.dumps(build_report())), fh, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
