"""The end-to-end crash differential: a real ``python -m repro.serve``
process, a real ``kill`` fault (``os._exit`` mid-journal-append), a real
restart, and a bit-identical verdict.  One test — the CI smoke job runs
the bigger sweep; this keeps the property under ``pytest -x``."""

import json
import os

from repro.serve.chaos import demo_blif, run_kill_differential


def test_sigkill_mid_journal_append_recovers_bit_identical(tmp_path):
    blif_path = str(tmp_path / "demo.blif")
    with open(blif_path, "w", encoding="utf-8") as fh:
        fh.write(demo_blif(30, seed=7))

    report = run_kill_differential(
        str(tmp_path / "state"),
        [blif_path],
        algorithms=("turbomap",),
        kill_site="journal-append",
        kill_at=2,
        timeout=180.0,
        k=4,
    )
    assert report["ok"], json.dumps(report, indent=2)
    assert report["chaos"]["restarts"] >= 1  # the kill actually fired
    assert report["mismatches"] == []
    # One row per expected job, each matching its cold run: the rows
    # let two releases' reports be compared job by job.
    assert len(report["jobs"]) == report["expected_jobs"] == 1
    for row in report["jobs"]:
        assert row["chaos_signature"] == row["cold_signature"], row
        assert row["phi"] >= 1 and row["luts"] >= 1
    # The chaos journal — the structured job-event log — survives for
    # post-mortems (and for the CI artifact upload).
    with open(report["journal"], encoding="utf-8") as fh:
        kinds = {json.loads(line)["type"] for line in fh if line.strip()}
    assert {"accept", "start", "done"} <= kinds
    assert os.path.getsize(report["journal"]) > 0
