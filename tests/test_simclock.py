"""Unit tests for the discrete-event clock."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.net.simclock import SimClock


class TestScheduling:
    def test_events_run_in_time_order(self):
        clock = SimClock()
        order: list[str] = []
        clock.schedule(2.0, lambda: order.append("late"))
        clock.schedule(1.0, lambda: order.append("early"))
        clock.run()
        assert order == ["early", "late"]
        assert clock.now == 2.0

    def test_ties_run_in_scheduling_order(self):
        clock = SimClock()
        order: list[int] = []
        for index in range(5):
            clock.schedule(1.0, lambda i=index: order.append(i))
        clock.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().schedule(-0.1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        clock = SimClock()
        clock.schedule(1.0, lambda: None)
        clock.run()
        with pytest.raises(SimulationError):
            clock.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        clock = SimClock()
        seen: list[float] = []

        def outer():
            seen.append(clock.now)
            clock.schedule(0.5, lambda: seen.append(clock.now))

        clock.schedule(1.0, outer)
        clock.run()
        assert seen == [1.0, 1.5]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        clock = SimClock()
        fired: list[bool] = []
        handle = clock.schedule(1.0, lambda: fired.append(True))
        assert handle.cancel()
        clock.run()
        assert not fired
        assert handle.cancelled

    def test_double_cancel_returns_false(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()

    def test_handle_reports_time(self):
        clock = SimClock()
        handle = clock.schedule(3.0, lambda: None)
        assert handle.time == 3.0


class TestPendingCounter:
    """``pending`` is a live counter, not a heap scan."""

    def test_tracks_schedule_run_and_cancel(self):
        clock = SimClock()
        handles = [clock.schedule(float(i + 1), lambda: None) for i in range(3)]
        assert clock.pending == 3
        assert handles[1].cancel()
        assert clock.pending == 2
        clock.run_until(1.0)
        assert clock.pending == 1
        clock.run()
        assert clock.pending == 0
        assert clock.processed == 2

    def test_double_cancel_counts_once(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()
        assert clock.pending == 0

    def test_cancel_after_fire_is_noop(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        clock.run()
        assert not handle.cancel()
        assert clock.pending == 0


class TestBoundedRuns:
    def test_run_until_stops_at_boundary(self):
        clock = SimClock()
        fired: list[float] = []
        clock.schedule(1.0, lambda: fired.append(1.0))
        clock.schedule(5.0, lambda: fired.append(5.0))
        clock.run_until(2.0)
        assert fired == [1.0]
        assert clock.now == 2.0
        assert clock.pending == 1

    def test_run_until_includes_boundary_events(self):
        clock = SimClock()
        fired: list[float] = []
        clock.schedule(2.0, lambda: fired.append(2.0))
        clock.run_until(2.0)
        assert fired == [2.0]

    def test_run_for_advances_relative(self):
        clock = SimClock()
        clock.schedule(1.0, lambda: None)
        clock.run_for(1.5)
        assert clock.now == 1.5
        clock.run_for(1.0)
        assert clock.now == 2.5

    def test_run_backwards_rejected(self):
        clock = SimClock()
        clock.run_for(5.0)
        with pytest.raises(SimulationError):
            clock.run_until(1.0)

    def test_step_returns_false_when_empty(self):
        assert not SimClock().step()

    def test_processed_counter(self):
        clock = SimClock()
        for _ in range(3):
            clock.schedule(1.0, lambda: None)
        clock.run()
        assert clock.processed == 3


class TestRunawayProtection:
    def test_event_budget_enforced(self):
        clock = SimClock(max_events=10)

        def feedback():
            clock.schedule(0.1, feedback)

        clock.schedule(0.1, feedback)
        with pytest.raises(SimulationError, match="budget"):
            clock.run()


class TestPost:
    """``post``: ``schedule`` without a cancellation handle."""

    def test_returns_no_handle(self):
        assert SimClock().post(1.0, lambda: None) is None

    def test_shares_sequence_with_schedule(self):
        clock = SimClock()
        order: list[str] = []
        clock.schedule(1.0, order.append, "schedule-0")
        clock.post(1.0, order.append, "post-1")
        clock.schedule_at(1.0, order.append, "schedule-2")
        clock.post(1.0, order.append, "post-3")
        clock.post(0.5, order.append, "early")
        clock.run()
        assert order == [
            "early", "schedule-0", "post-1", "schedule-2", "post-3"
        ]

    def test_negative_delay_rejected(self):
        clock = SimClock()
        with pytest.raises(SimulationError):
            clock.post(-0.1, lambda: None)
        assert clock.pending == 0

    def test_updates_pending(self):
        clock = SimClock()
        clock.post(1.0, lambda: None)
        clock.post(2.0, lambda: None)
        assert clock.pending == 2
        clock.step()
        assert clock.pending == 1
        clock.run()
        assert clock.pending == 0

    def test_delay_is_relative_to_now(self):
        clock = SimClock()
        seen: list[float] = []
        clock.schedule(
            1.0, lambda: clock.post(0.5, lambda: seen.append(clock.now))
        )
        clock.run()
        assert seen == [1.5]
