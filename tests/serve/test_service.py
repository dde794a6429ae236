"""MappingService behavior: happy path, admission, cancellation,
degradation, schema-6 reports."""

import json

import pytest

from repro.serve.jobs import JobBudget, JobSpec
from repro.serve.service import AdmissionRejected, MappingService, artifact_signature


@pytest.fixture()
def service(tmp_path):
    svc = MappingService(str(tmp_path / "state"), max_queue=3)
    yield svc
    svc.stop(drain=False, timeout=1.0)


class TestHappyPath:
    def test_submit_and_run_turbomap(self, service, quick_blif):
        view = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
        assert view["state"] == "queued"
        done = service.run_job_inline(view["id"])
        assert done["state"] == "done"
        result = done["result"]
        assert result["phi"] >= 1
        assert result["luts"] > 0
        assert not result["degraded"]
        artifact = service.result(view["id"])
        assert artifact["signature"] == result["signature"]
        assert artifact["run"]["job"]["id"] == view["id"]
        assert artifact["run"]["job"]["attempts"] == 1
        assert "store" not in artifact and "store" not in artifact["run"]["job"]
        assert artifact["mapped_blif"].startswith(".model")

    def test_flowsyn_s_runs_without_probe_checkpoints(
        self, service, other_blif
    ):
        view = service.submit_circuit(other_blif, algorithm="flowsyn-s", k=4)
        done = service.run_job_inline(view["id"])
        assert done["state"] == "done"
        # No phi search: no probe ran, so none reached the outcome cache.
        assert service.result(view["id"])["run"]["search"]["probes"] == []
        assert service.cache.stats()["entries"] == 0

    def test_duplicate_upload_shares_the_store_entry(
        self, service, quick_blif
    ):
        a = service.submit_circuit(quick_blif, algorithm="flowsyn-s", k=4)
        b = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
        assert a["spec"]["circuit_id"] == b["spec"]["circuit_id"]
        assert len(service.store.circuit_ids()) == 1

    def test_signature_covers_results_not_timings(self):
        base = {
            "run": {"phi": 3, "luts": 10, "degraded": False,
                    "certificate": {"verified": True, "t_verify": 0.5}},
            "labels": [1, 2], "mapped_blif": ".model m\n.end\n",
        }
        slower = json.loads(json.dumps(base))
        slower["run"]["certificate"]["t_verify"] = 99.0
        assert artifact_signature(base) == artifact_signature(slower)
        changed = json.loads(json.dumps(base))
        changed["run"]["phi"] = 4
        assert artifact_signature(base) != artifact_signature(changed)


class TestAdmission:
    def test_queue_full_rejects_with_retry_after(self, service, quick_blif):
        circuit_id = service.store.put(quick_blif)
        for _ in range(3):  # max_queue=3
            service.submit(JobSpec(circuit_id=circuit_id, k=4))
        with pytest.raises(AdmissionRejected) as info:
            service.submit(JobSpec(circuit_id=circuit_id, k=4))
        rejection = info.value.to_dict()
        assert rejection["error"] == "queue_full"
        assert rejection["pending"] == 3
        assert rejection["retry_after"] >= 1.0
        assert service.stats.snapshot()["rejected"] == 1

    def test_rejection_is_not_journaled(self, service, quick_blif):
        circuit_id = service.store.put(quick_blif)
        for _ in range(3):
            service.submit(JobSpec(circuit_id=circuit_id, k=4))
        seq_before = service._journal.seq
        with pytest.raises(AdmissionRejected):
            service.submit(JobSpec(circuit_id=circuit_id, k=4))
        assert service._journal.seq == seq_before

    def test_capacity_returns_after_jobs_finish(self, service, quick_blif):
        circuit_id = service.store.put(quick_blif)
        views = [
            service.submit(JobSpec(
                circuit_id=circuit_id, algorithm="flowsyn-s", k=4
            ))
            for _ in range(3)
        ]
        assert not service.ready()["ready"]
        for view in views:
            service.run_job_inline(view["id"])
        assert service.ready()["ready"]

    def test_unknown_circuit_is_rejected_up_front(self, service):
        with pytest.raises(ValueError, match="unknown circuit"):
            service.submit(JobSpec(circuit_id="no-such-circuit"))

    def test_draining_service_refuses_jobs(self, tmp_path, quick_blif):
        svc = MappingService(str(tmp_path / "drain-state"))
        circuit_id = svc.store.put(quick_blif)
        svc.stop(drain=True, timeout=1.0)
        with pytest.raises(RuntimeError, match="draining"):
            svc.submit(JobSpec(circuit_id=circuit_id))


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, service, quick_blif):
        view = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
        service.cancel(view["id"])
        done = service.run_job_inline(view["id"])
        assert done["state"] == "cancelled"
        assert service.stats.snapshot()["cancelled"] == 1

    def test_cancelled_queued_job_result_is_a_structured_error(
        self, service, quick_blif
    ):
        # No artifact was ever written: result() must say so, not leak
        # a FileNotFoundError (which the HTTP layer would map to 500).
        view = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
        service.cancel(view["id"])
        service.run_job_inline(view["id"])
        with pytest.raises(ValueError, match="without a result artifact"):
            service.result(view["id"])

    def test_cancel_mid_run_degrades_with_cancelled_reason(
        self, service, quick_blif
    ):
        # Inject a budget whose cancel event is already set: the search
        # hits it at the first probe boundary and degrades (or reports
        # exhaustion), never runs to completion silently.
        cancelled = JobBudget()
        cancelled.cancel()
        service._budget_factory = lambda spec: cancelled
        view = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
        done = service.run_job_inline(view["id"])
        assert done["state"] == "cancelled"

    def test_cancel_terminal_job_is_a_no_op(self, service, other_blif):
        view = service.submit_circuit(other_blif, algorithm="flowsyn-s", k=4)
        service.run_job_inline(view["id"])
        assert service.cancel(view["id"])["state"] == "done"


class TestDuplicateEnqueue:
    def test_running_job_is_not_claimed_twice(self, service, quick_blif):
        # A duplicate enqueue (recovery + a racing lane) must bounce off
        # the queued→running claim: only QUEUED jobs may be picked up.
        view = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
        job = service._jobs[view["id"]]
        job.state = "running"  # lane A claimed it
        seq_before = service._journal.seq
        done = service.run_job_inline(view["id"])  # lane B's duplicate
        assert done["state"] == "running"  # untouched, no second run
        assert service._journal.seq == seq_before  # no duplicate records
        job.state = "queued"  # hand it back; it runs exactly once
        assert service.run_job_inline(view["id"])["state"] == "done"
        assert service.status(view["id"])["attempts"] == 1


class TestDegradation:
    def test_deadline_pressure_fails_with_structured_reason(
        self, service, quick_blif
    ):
        # A pre-expired budget: no feasible phi can be probed at all, so
        # the job fails with a structured budget_exhausted error rather
        # than hanging.
        class Expired(JobBudget):
            def expired(self):
                return True

            def check(self):
                from repro.resilience.budget import DeadlineExpired

                raise DeadlineExpired("deadline")

            def begin_probe(self):
                self.check()

        service._budget_factory = lambda spec: Expired(deadline=0.0)
        view = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
        done = service.run_job_inline(view["id"])
        assert done["state"] == "failed"
        assert done["error"]["reason"] == "budget_exhausted"


class TestReport:
    def test_schema_6_report_with_job_and_service_envelopes(
        self, service, quick_blif, other_blif
    ):
        for blif in (quick_blif, other_blif):
            view = service.submit_circuit(blif, algorithm="turbomap", k=4)
            service.run_job_inline(view["id"])
        report = service.report()
        assert report["schema"] == 10
        assert len(report["runs"]) == 2
        for run in report["runs"]:
            assert run["job"]["signature"]
            assert run["job"]["attempts"] == 1
        assert report["service"]["status"] == "ok"
        assert report["service"]["stats"]["completed"] == 2

    def test_failed_jobs_land_in_report_errors(self, service, quick_blif):
        class Expired(JobBudget):
            def check(self):
                from repro.resilience.budget import DeadlineExpired

                raise DeadlineExpired("deadline")

            def begin_probe(self):
                self.check()

        service._budget_factory = lambda spec: Expired()
        view = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
        service.run_job_inline(view["id"])
        report = service.report()
        assert report["runs"] == []
        (error,) = report["errors"]
        assert error["job"] == view["id"]
        assert error["error"] == "BudgetExhausted"


class TestHealth:
    def test_health_shape(self, service, quick_blif):
        view = service.submit_circuit(quick_blif, algorithm="flowsyn-s", k=4)
        service.run_job_inline(view["id"])
        health = service.health()
        assert health["status"] == "ok"
        assert health["jobs"] == {"done": 1}
        assert health["journal"]["seq"] >= 3  # accept + start + done
        assert health["store"]["circuits"] == 1
        assert set(health["store"]) == {"circuits", "outcomes"}
        assert "breakers" not in health
        assert health["recovered"]["records"] == 0
