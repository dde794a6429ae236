"""Budget semantics, driven by an injected fake clock (no real sleeps)."""

import pytest

from repro.resilience.budget import (
    Budget,
    DeadlineExpired,
    ProbeTimeout,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestUnlimited:
    def test_no_limits_is_inert(self):
        budget = Budget()
        budget.start()
        assert budget.remaining() is None
        assert not budget.expired()
        budget.check()  # no-op
        assert budget.begin_probe() is None

    def test_elapsed_before_start_is_zero(self):
        assert Budget().elapsed() == 0.0


class TestDeadline:
    def test_remaining_counts_down(self):
        clock = FakeClock()
        budget = Budget(deadline=10.0, clock=clock).start()
        assert budget.remaining() == pytest.approx(10.0)
        clock.advance(4.0)
        assert budget.remaining() == pytest.approx(6.0)
        assert not budget.expired()

    def test_check_raises_after_expiry(self):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock).start()
        budget.check()
        clock.advance(5.0)
        assert budget.expired()
        with pytest.raises(DeadlineExpired):
            budget.check()

    def test_start_is_idempotent(self):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock).start()
        clock.advance(3.0)
        budget.start()  # must not reset the anchor
        assert budget.elapsed() == pytest.approx(3.0)

    def test_remaining_starts_the_clock_lazily(self):
        clock = FakeClock(t=100.0)
        budget = Budget(deadline=5.0, clock=clock)
        assert budget.remaining() == pytest.approx(5.0)


class TestBeginProbe:
    def test_allowance_is_probe_timeout_when_deadline_far(self):
        clock = FakeClock()
        budget = Budget(deadline=100.0, probe_timeout=2.0, clock=clock).start()
        assert budget.begin_probe() == pytest.approx(2.0)

    def test_allowance_clamped_by_remaining_deadline(self):
        clock = FakeClock()
        budget = Budget(deadline=10.0, probe_timeout=5.0, clock=clock).start()
        clock.advance(7.0)
        assert budget.begin_probe() == pytest.approx(3.0)

    def test_probe_timeout_only(self):
        budget = Budget(probe_timeout=1.5)
        assert budget.begin_probe() == pytest.approx(1.5)

    def test_raises_once_deadline_passed(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, probe_timeout=9.0, clock=clock).start()
        clock.advance(1.0)
        with pytest.raises(DeadlineExpired):
            budget.begin_probe()


class TestLedger:
    def test_note_records_elapsed_and_details(self):
        clock = FakeClock()
        budget = Budget(deadline=10.0, clock=clock).start()
        clock.advance(2.5)
        budget.note("pool_restart", failures=1)
        (event,) = budget.events
        assert event["kind"] == "pool_restart"
        assert event["failures"] == 1
        assert event["elapsed"] == pytest.approx(2.5)

    def test_exhaust_classifies_probe_timeout(self):
        budget = Budget(probe_timeout=1.0)
        budget.exhaust(ProbeTimeout("slow probe"))
        assert budget.exhausted
        assert budget.reason == "probe_timeout"
        assert budget.events[-1]["kind"] == "budget_exhausted"

    def test_exhaust_classifies_deadline(self):
        budget = Budget(deadline=1.0)
        budget.exhaust(DeadlineExpired("out of time"))
        assert budget.exhausted
        assert budget.reason == "deadline"

    def test_fresh_budget_defaults(self):
        budget = Budget()
        assert not budget.exhausted
        assert budget.reason is None
        assert budget.events == []


class TestMonotonicClock:
    """The deadline must ride the injected *monotonic* clock only: wall
    clock adjustments (NTP steps, DST) — modeled here as the injected
    clock simply being the single source of truth — never shorten or
    extend a budget."""

    def test_elapsed_tracks_injected_clock_exactly(self):
        clock = FakeClock(t=1000.0)  # arbitrary epoch: only deltas matter
        budget = Budget(deadline=5.0, clock=clock).start()
        for step in (0.5, 1.25, 0.25):
            clock.advance(step)
        assert budget.elapsed() == pytest.approx(2.0)
        assert budget.remaining() == pytest.approx(3.0)
        assert not budget.expired()

    def test_clock_standing_still_never_expires(self):
        # A stalled monotonic clock (no time passing) must never expire
        # the budget, regardless of how often it is consulted.
        clock = FakeClock()
        budget = Budget(deadline=0.001, clock=clock).start()
        for _ in range(100):
            budget.check()
        assert not budget.expired()

    def test_expiry_is_a_pure_function_of_clock_deltas(self):
        clock = FakeClock(t=-50.0)  # even a negative epoch is fine
        budget = Budget(deadline=2.0, clock=clock).start()
        clock.advance(1.999)
        budget.check()
        clock.advance(0.002)
        assert budget.expired()
        with pytest.raises(DeadlineExpired):
            budget.check()

    def test_probe_allowance_uses_the_same_clock(self):
        clock = FakeClock(t=7.0)
        budget = Budget(deadline=4.0, probe_timeout=3.0, clock=clock).start()
        assert budget.begin_probe() == pytest.approx(3.0)
        clock.advance(2.0)
        # Remaining deadline (2.0) now clamps the probe allowance.
        assert budget.begin_probe() == pytest.approx(2.0)
