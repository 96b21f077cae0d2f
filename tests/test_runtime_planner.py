"""Tests for the execution policy and the pool mechanisms it selects.

Policy tests drive ``run_sharded`` with controlled ``time.sleep`` costs
and read the decision log: the in-process prefix, the heavy/light bit,
fixed chunking, forced modes.  Integration tests go through real pools
and check the mechanisms: batching that preserves per-shard order and
seed derivation, warm-pool reuse across calls, shared-registry
shipping, and the no-pool short-circuits.
"""

import math
import time

import pytest

from repro.runtime import (
    PLANNER_ENV_VAR,
    get_shared,
    planner_decisions,
    pools_created,
    reset_planner,
    run_sharded,
    seed_for,
    shutdown_worker_pools,
)
from repro.runtime import planner
from repro.runtime.planner import (
    SERIAL_BUDGET_S,
    TASKS_PER_WORKER,
    chunk_size,
    forced_mode,
)


@pytest.fixture(autouse=True)
def _clean_planner():
    """Each test starts from process-start planner state, no warm pool."""
    reset_planner()
    shutdown_worker_pools()
    yield
    reset_planner()
    shutdown_worker_pools()


@pytest.fixture
def auto_two_cores(monkeypatch):
    """The policy under test: no forced mode, more than one core."""
    monkeypatch.delenv(PLANNER_ENV_VAR, raising=False)
    monkeypatch.setattr(planner, "usable_cores", lambda: 2)


def _seeded(work):
    index, base_seed = work
    return seed_for(base_seed, f"shard:{index}")


def _double(x):
    return 2 * x


def _shared_sum(x):
    return x + get_shared("test:offset")


def _sleep_then_double(work):
    """``(x, seconds)`` -> ``2 * x`` after a controlled cost."""
    x, seconds = work
    time.sleep(seconds)
    return 2 * x


#: Several budgets per item / a small share of one.
HEAVY_S = 2.5 * SERIAL_BUDGET_S
LIGHT_S = SERIAL_BUDGET_S / 100


def _doubles(work):
    return [2 * x for x, *_ in work]


# ---------------------------------------------------------------------------
# The policy
# ---------------------------------------------------------------------------

class TestChunkSizing:
    def test_chunk_never_exceeds_item_count(self):
        assert chunk_size(3, 8) == 1
        assert chunk_size(1, 2) == 1

    def test_chunk_spreads_across_all_workers(self):
        """An 80-item grid on 4 workers: every worker gets several tasks."""
        chunk = chunk_size(80, 4)
        assert chunk <= math.ceil(80 / 4)
        assert math.ceil(80 / chunk) >= 4

    def test_expensive_items_get_singleton_chunks(self):
        """Few items (the chaos Monte Carlo: 4 on 2 workers) ship alone."""
        assert chunk_size(4, 2) == 1
        assert chunk_size(8, 4) == 1

    def test_forced_sharded_without_estimate_balances(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        run_sharded(_double, range(30), workers=3, label="balanced")
        decision = planner_decisions()[-1]
        assert decision["mode"] == "sharded"
        assert decision["reason"] == "forced-sharded"
        assert decision["in_process"] == 0
        assert decision["chunk_size"] == math.ceil(
            30 / (3 * TASKS_PER_WORKER))


class TestBreakEven:
    """``SERIAL_BUDGET_S`` of in-process work is the measured break-even."""

    def test_cheap_grid_falls_back_to_serial(self, auto_two_cores):
        work = [(x, LIGHT_S) for x in range(8)]
        before = pools_created()
        for _ in range(2):
            assert run_sharded(_sleep_then_double, work, workers=2,
                               label="light") == _doubles(work)
            decision = planner_decisions()[-1]
            assert decision["mode"] == "serial"
            assert decision["in_process"] == 8
        assert pools_created() == before

    def test_expensive_grid_shards(self, auto_two_cores):
        """Unknown heavy label: an in-process prefix, then the rest
        ships; known heavy label: every item ships."""
        work = [(x, HEAVY_S) for x in range(4)]
        before = pools_created()
        assert run_sharded(_sleep_then_double, work, workers=2,
                           label="heavy") == _doubles(work)
        first = planner_decisions()[-1]
        assert first["mode"] == "sharded"
        assert 1 <= first["in_process"] < 4
        assert run_sharded(_sleep_then_double, work, workers=2,
                           label="heavy") == _doubles(work)
        second = planner_decisions()[-1]
        assert second["mode"] == "sharded"
        assert second["in_process"] == 0
        assert second["chunk_size"] == 1
        assert pools_created() == before + 1

    def test_two_heavy_items_run_serially_once_then_pair_up(
            self, auto_two_cores):
        """The ``scenario.*`` shape: a lone leftover is not shipped."""
        work = [(x, HEAVY_S) for x in range(2)]
        before = pools_created()
        assert run_sharded(_sleep_then_double, work, workers=2,
                           label="pair") == _doubles(work)
        assert planner_decisions()[-1]["mode"] == "serial"
        assert pools_created() == before
        assert run_sharded(_sleep_then_double, work, workers=2,
                           label="pair") == _doubles(work)
        decision = planner_decisions()[-1]
        assert decision["mode"] == "sharded"
        assert decision["in_process"] == 0
        assert decision["chunk_size"] == 1

    def test_cold_first_item_does_not_shard_forever(self, auto_two_cores):
        """A cold memo on item 0 promotes the label once; cost measured
        in the workers, where dispatch is not booked, demotes it."""
        cold = [(0, HEAVY_S)] + [(x, 0.0) for x in range(1, 40)]
        warm = [(x, 0.0) for x in range(40)]
        assert run_sharded(_sleep_then_double, cold, workers=2,
                           label="memo") == _doubles(cold)
        assert planner_decisions()[-1]["mode"] == "sharded"
        pools = pools_created()
        for _ in range(2):
            assert run_sharded(_sleep_then_double, warm, workers=2,
                               label="memo") == _doubles(warm)
        assert planner_decisions()[-1]["mode"] == "serial"
        assert pools_created() == pools

    def test_single_core_always_serial(self, monkeypatch):
        monkeypatch.delenv(PLANNER_ENV_VAR, raising=False)
        monkeypatch.setattr(planner, "usable_cores", lambda: 1)
        work = [(x, HEAVY_S) for x in range(3)]
        before = pools_created()
        for _ in range(2):
            assert run_sharded(_sleep_then_double, work, workers=2,
                               label="one-core") == _doubles(work)
            decision = planner_decisions()[-1]
            assert decision["mode"] == "serial"
            assert decision["reason"] == "single-core"
        assert pools_created() == before

    def test_single_core_still_pools_when_forced(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        monkeypatch.setattr(planner, "usable_cores", lambda: 1)
        before = pools_created()
        assert run_sharded(_double, range(6), workers=2) == \
            [2 * x for x in range(6)]
        assert pools_created() == before + 1

    def test_light_experiment_fanouts_never_pool(self, auto_two_cores):
        from repro.experiments.cpu import (
            fig7_cpu_breakdown,
            fig8_latency_sweep,
        )
        from repro.experiments.observability import cohort_observability
        from repro.experiments.sensitivity import sensitivity_sweep
        from repro.hardware import RASPBERRY_PI_4
        from repro.orbits import starlink
        before = pools_created()
        sensitivity_sweep(starlink(), workers=2)
        fig7_cpu_breakdown(RASPBERRY_PI_4, workers=2)
        fig8_latency_sweep(workers=2)
        cohort_observability(workers=2)
        assert [(decision["label"], decision["mode"])
                for decision in planner_decisions()] == [
            ("sensitivity.grid", "serial"), ("cpu.fig7", "serial"),
            ("cpu.fig8", "serial"), ("obs.cohort", "serial")]
        assert pools_created() == before

    def test_measured_traffic_settles_on_serial(self, auto_two_cores):
        """The real light fan-outs: whatever a cold first call decides,
        the third call runs in-process and the pool count has settled."""
        from repro.baselines.solutions import ALL_SOLUTIONS
        from repro.experiments.sensitivity import constellation_scaling
        from repro.experiments.signaling import sweep
        from repro.orbits import TABLE1
        constellations = [factory() for factory in TABLE1.values()]
        serial = sweep(ALL_SOLUTIONS, constellations, workers=1)
        for _ in range(2):
            assert sweep(ALL_SOLUTIONS, constellations,
                         workers=2) == serial
            constellation_scaling(workers=2)
        pools = pools_created()
        assert sweep(ALL_SOLUTIONS, constellations, workers=2) == serial
        constellation_scaling(workers=2)
        last = {decision["label"]: decision["mode"]
                for decision in planner_decisions()}
        assert last == {"signaling.sweep": "serial",
                        "sensitivity.scaling": "serial"}
        assert pools_created() == pools


class TestForcedMode:
    def test_unset_is_auto(self, monkeypatch):
        monkeypatch.delenv(PLANNER_ENV_VAR, raising=False)
        assert forced_mode() is None

    def test_auto_is_none(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "auto")
        assert forced_mode() is None

    def test_serial_and_sharded(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "serial")
        assert forced_mode() == "serial"
        monkeypatch.setenv(PLANNER_ENV_VAR, " Sharded ")
        assert forced_mode() == "sharded"

    def test_invalid_raises(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "turbo")
        with pytest.raises(ValueError):
            forced_mode()


# ---------------------------------------------------------------------------
# run_sharded integration
# ---------------------------------------------------------------------------

class TestPoolIntegration:
    def test_batched_order_and_seed_derivation(self, monkeypatch):
        """Chunked pool dispatch returns serial's exact seed sequence."""
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        work = [(index, 7) for index in range(30)]
        serial = [_seeded(item) for item in work]
        assert run_sharded(_seeded, work, workers=3) == serial

    def test_warm_pool_survives_consecutive_calls(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        before = pools_created()
        run_sharded(_double, range(8), workers=2)
        run_sharded(_double, range(8), workers=2)
        assert pools_created() == before + 1

    def test_shutdown_tears_down_cleanly(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        run_sharded(_double, range(4), workers=2)
        shutdown_worker_pools()
        before = pools_created()
        # The next call simply builds a fresh pool.
        assert run_sharded(_double, range(4), workers=2) == \
            [0, 2, 4, 6]
        assert pools_created() == before + 1

    def test_worker_count_change_recycles_pool(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        before = pools_created()
        run_sharded(_double, range(8), workers=2)
        run_sharded(_double, range(8), workers=3)
        assert pools_created() == before + 2

    def test_shared_objects_reach_workers(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        values = run_sharded(_shared_sum, range(6), workers=2,
                             shared={"test:offset": 100})
        assert values == [100, 101, 102, 103, 104, 105]

    def test_shared_change_recycles_pool(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        before = pools_created()
        run_sharded(_shared_sum, range(4), workers=2,
                    shared={"test:offset": 1})
        run_sharded(_shared_sum, range(4), workers=2,
                    shared={"test:offset": 2})
        assert pools_created() == before + 2

    def test_same_shared_objects_keep_pool_warm(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        offset = 10
        before = pools_created()
        first = run_sharded(_shared_sum, range(4), workers=2,
                            shared={"test:offset": offset})
        second = run_sharded(_shared_sum, range(4), workers=2,
                             shared={"test:offset": offset})
        assert first == second == [10, 11, 12, 13]
        assert pools_created() == before + 1

    def test_shared_available_on_serial_path(self):
        values = run_sharded(_shared_sum, range(3), workers=1,
                             shared={"test:offset": 5})
        assert values == [5, 6, 7]

    def test_shared_scope_is_popped_after_call(self):
        run_sharded(_shared_sum, range(3), workers=1,
                    shared={"test:offset": 5})
        with pytest.raises(KeyError):
            get_shared("test:offset")

    def test_no_pool_for_trivial_inputs_even_forced(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        before = pools_created()
        assert run_sharded(_double, [], workers=4) == []
        assert run_sharded(_double, [21], workers=4) == [42]
        assert pools_created() == before

    def test_auto_mode_routes_cheap_grid_serial(self, monkeypatch):
        """A trivial fan-out must never pay for a pool in auto mode."""
        monkeypatch.delenv(PLANNER_ENV_VAR, raising=False)
        before = pools_created()
        assert run_sharded(_double, range(16), workers=4,
                           label="planner-test.cheap") == \
            [2 * x for x in range(16)]
        assert pools_created() == before
        decision = planner_decisions()[-1]
        assert decision["label"] == "planner-test.cheap"
        assert decision["mode"] == "serial"
        assert decision["reason"] in ("budget", "single-core")

    def test_forced_serial_never_pools(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "serial")
        before = pools_created()
        run_sharded(_double, range(16), workers=4, label="forced-serial")
        assert pools_created() == before
        decision = planner_decisions()[-1]
        assert decision["reason"] == "forced-serial"

    def test_decision_log_records_forced_pool_runs(self, monkeypatch):
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        run_sharded(_double, range(8), workers=2, label="forced-pool")
        decision = planner_decisions()[-1]
        assert decision["label"] == "forced-pool"
        assert decision["mode"] == "sharded"
        assert decision["reason"] == "forced-sharded"
        assert decision["chunk_size"] >= 1

    def test_warm_pool_survives_consecutive_sweeps(self, monkeypatch):
        """The default station catalog is one set of objects, so the
        identity-compared shared registry matches from call to call."""
        from repro.baselines.solutions import ALL_SOLUTIONS
        from repro.experiments.signaling import sweep
        from repro.orbits import TABLE1
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        constellations = [factory() for factory in TABLE1.values()]
        before = pools_created()
        sweep(ALL_SOLUTIONS, constellations, workers=2)
        sweep(ALL_SOLUTIONS, constellations, workers=2)
        assert pools_created() == before + 1
