"""Job specs, cancellable budgets, service stats."""

import pytest

from repro.resilience.budget import DeadlineExpired
from repro.serve.jobs import (
    RETIRED_SPEC_FIELDS,
    JobBudget,
    JobSpec,
    ServiceStats,
    retry_after_estimate,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = JobSpec(circuit_id="abc", algorithm="turbosyn", k=4)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            JobSpec(circuit_id="abc", algorithm="magic")

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown job spec field"):
            JobSpec.from_dict({"circuit_id": "abc", "fidelity": "max"})

    def test_rejects_silly_bounds(self):
        with pytest.raises(ValueError):
            JobSpec(circuit_id="abc", k=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("circuit_id", ""),
            ("circuit_id", 7),
            ("k", 2.5),
            ("k", True),
            ("workers", 1.5),
            ("max_copies", 0),
            ("max_copies", "many"),
            ("warm_start", 1),
            ("check", "no"),
            ("deadline", -5),
            ("deadline", 0),
            ("deadline", True),
            ("probe_timeout", "x"),
            ("probe_timeout", float("nan")),
        ],
    )
    def test_rejects_malformed_fields(self, field, value):
        data = {"circuit_id": "abc", field: value}
        with pytest.raises(ValueError, match=field):
            JobSpec.from_dict(data)

    def test_accepts_positive_budgets(self):
        spec = JobSpec(circuit_id="abc", deadline=30, probe_timeout=0.5)
        assert (spec.deadline, spec.probe_timeout) == (30, 0.5)

    def test_retired_fields_rejected_from_requests(self):
        for field in RETIRED_SPEC_FIELDS:
            with pytest.raises(ValueError, match="unknown job spec field"):
                JobSpec.from_dict({"circuit_id": "abc", field: "x"})

    def test_journal_replay_drops_retired_fields(self):
        old = {"circuit_id": "abc", "engine": "rounds", "flow": "ek",
               "kernel": "object", "workers": 4, "warm_start": False,
               "k": 4}
        assert JobSpec.from_journal(old) == JobSpec(circuit_id="abc", k=4)


class TestJobBudget:
    def test_cancel_is_observed_at_probe_boundaries(self):
        budget = JobBudget(deadline=100.0, clock=FakeClock())
        budget.start()
        budget.check()  # fine before cancellation
        budget.cancel()
        assert budget.cancelled
        assert budget.expired()
        with pytest.raises(DeadlineExpired):
            budget.check()
        with pytest.raises(DeadlineExpired):
            budget.begin_probe()

    def test_exhaust_reports_cancelled_reason(self):
        budget = JobBudget()
        budget.cancel()
        budget.exhaust(DeadlineExpired("job cancelled"))
        assert budget.exhausted
        assert budget.reason == "cancelled"
        assert budget.events[-1]["kind"] == "cancelled"

    def test_uncancelled_budget_behaves_like_plain_budget(self):
        clock = FakeClock()
        budget = JobBudget(deadline=2.0, clock=clock)
        budget.start()
        clock.advance(2.5)
        assert budget.expired()
        budget.exhaust(DeadlineExpired("too slow"))
        assert budget.reason == "deadline"  # not "cancelled"

    def test_deadline_rides_the_injected_clock(self):
        clock = FakeClock(t=500.0)
        budget = JobBudget(deadline=1.0, probe_timeout=0.5, clock=clock)
        budget.start()
        assert budget.begin_probe() == pytest.approx(0.5)
        clock.advance(0.8)
        assert budget.begin_probe() == pytest.approx(0.2)


class TestStats:
    def test_counters_and_snapshot(self):
        stats = ServiceStats()
        stats.bump("submitted")
        stats.bump("submitted")
        stats.bump("rejected")
        snap = stats.snapshot()
        assert snap["submitted"] == 2
        assert snap["rejected"] == 1

    def test_duration_ewma_converges_toward_observations(self):
        stats = ServiceStats()
        for _ in range(40):
            stats.observe_duration(10.0)
        assert stats.snapshot()["avg_job_seconds"] == pytest.approx(10.0, rel=0.01)


class TestRetryAfter:
    def test_scales_with_pending_and_clamps(self):
        assert retry_after_estimate(0, 5.0) == 1.0  # floor
        assert retry_after_estimate(4, 2.0) == pytest.approx(8.0)
        assert retry_after_estimate(1000, 60.0) == 60.0  # ceiling
