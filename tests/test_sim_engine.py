"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_same_time_fifo(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_during_event(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, fired.append, "second")

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_start_time(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(10.0, fired.append, "out")
        sim.run(until=5.0)
        assert fired == ["in"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["in", "out"]

    def test_run_until_advances_even_without_events(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_max_events_budget(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_max_events_skips_cancelled_head(self):
        """A cancelled head event must not consume the event budget."""
        sim = Simulator()
        fired = []
        head = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(3.0, fired.append, "c")
        head.cancel()
        sim.run(max_events=1)
        assert fired == ["b"]
        assert sim.now == 2.0
        sim.run(max_events=1)
        assert fired == ["b", "c"]
        assert sim.step() is False

    def test_max_events_with_all_heads_cancelled(self):
        """Budgeted run over a fully cancelled queue fires nothing."""
        sim = Simulator()
        fired = []
        handles = [sim.schedule(float(i + 1), fired.append, i)
                   for i in range(3)]
        for handle in handles:
            handle.cancel()
        sim.run(max_events=5)
        assert fired == []
        assert sim.step() is False

    def test_until_with_cancelled_head_past_deadline(self):
        """A cancelled event beyond ``until`` must not stall the clock."""
        sim = Simulator()
        fired = []
        late = sim.schedule(10.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        late.cancel()
        sim.run(until=5.0, max_events=10)
        assert fired == ["early"]
        assert sim.now == 5.0

    def test_nan_until_rejected_before_any_event(self):
        """``head.time > nan`` is always False, so a self-rescheduling
        callback under ``until=nan`` would never return."""
        sim = Simulator()
        ticks = []
        sim.schedule(1.0, ticks.append, "tick")
        with pytest.raises(ValueError):
            sim.run(until=float("nan"))
        assert ticks == []
        assert sim.now == 0.0
        sim.run()
        assert ticks == ["tick"]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4
