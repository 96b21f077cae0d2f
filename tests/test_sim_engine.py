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
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)


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
