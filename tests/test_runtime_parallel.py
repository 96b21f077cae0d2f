"""Tests for the sharded parallel runner and shard-local memoization."""

import os
import signal

import pytest

from repro.runtime import (
    PLANNER_ENV_VAR,
    WORKERS_ENV_VAR,
    clear_shard_caches,
    resolve_workers,
    run_sharded,
    seed_for,
    shard_memoized,
    shutdown_worker_pools,
)


def _square(x):
    return x * x


def _worker_env(_):
    return os.environ.get(WORKERS_ENV_VAR)


def _square_or_die_once(work):
    """SIGKILL the worker running item ``victim`` -- once, via a flag file."""
    x, victim, flag = work
    if x == victim:
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return x * x


class TestSeedDerivation:
    def test_deterministic(self):
        assert seed_for(0, 0) == seed_for(0, 0)
        assert seed_for(7, "chaos-trial:3") == seed_for(7, "chaos-trial:3")

    def test_distinct_across_shards_and_bases(self):
        seeds = {seed_for(base, shard)
                 for base in range(8) for shard in range(64)}
        assert len(seeds) == 8 * 64

    def test_no_additive_collision(self):
        """trial k of seed s must differ from trial k+1 of seed s-1."""
        assert seed_for(1, 0) != seed_for(0, 1)

    def test_nonnegative_63_bit(self):
        for shard in range(100):
            seed = seed_for(0, shard)
            assert 0 <= seed < 2 ** 63


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_workers(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestRunSharded:
    def test_serial_fallback_plain_loop(self):
        assert run_sharded(_square, range(10), workers=1) == \
            [x * x for x in range(10)]

    def test_results_in_item_order(self):
        expected = [x * x for x in range(20)]
        assert run_sharded(_square, range(20), workers=2) == expected
        assert run_sharded(_square, range(20), workers=3) == expected

    def test_empty_items(self):
        assert run_sharded(_square, [], workers=4) == []

    def test_single_item_stays_in_process(self):
        assert run_sharded(_square, [6], workers=4) == [36]

    def test_workers_never_nest(self, monkeypatch):
        """Pool children see REPRO_WORKERS=1, so shards cannot fan out.

        ``REPRO_PLANNER=sharded`` pins the pool path: the auto planner
        would finish this trivial workload inside its serial budget,
        in-process, where the env var is the parent's.
        """
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        try:
            values = run_sharded(_worker_env, range(4), workers=2)
        finally:
            shutdown_worker_pools()
        assert values == ["1"] * 4


class TestShardMemoized:
    def test_caches_by_key(self):
        calls = []

        @shard_memoized
        def expensive(x):
            calls.append(x)
            return x * 10

        assert expensive(3) == 30
        assert expensive(3) == 30
        assert expensive(4) == 40
        assert calls == [3, 4]

    def test_clear_shard_caches_resets(self):
        calls = []

        @shard_memoized
        def expensive(x):
            calls.append(x)
            return x

        expensive(1)
        clear_shard_caches()
        expensive(1)
        assert calls == [1, 1]

    def test_hops_cache_hit(self):
        """The signaling Dijkstra memo returns identical objects."""
        from repro.experiments.signaling import (
            _cached_mean_hops,
            mean_hops_to_ground,
        )
        from repro.orbits import default_ground_stations, iridium
        clear_shard_caches()
        constellation = iridium()
        stations = default_ground_stations(6)
        first = mean_hops_to_ground(constellation, stations)
        size_after_first = _cached_mean_hops.cache_info().currsize
        second = mean_hops_to_ground(constellation, stations)
        assert first == second
        assert _cached_mean_hops.cache_info().currsize == size_after_first

    def test_hops_cache_keys_on_the_station_set(self):
        """A second station set for the same shell and epoch misses the
        memo and gets its own answer: a memo whose result read anything
        outside its key (a module-level station table) would serve the
        first set's hops here."""
        from repro.experiments.signaling import mean_hops_to_ground
        from repro.orbits import default_ground_stations, iridium
        constellation = iridium()
        few, many = default_ground_stations(2), default_ground_stations(12)
        clear_shard_caches()
        fresh = mean_hops_to_ground(constellation, many)
        clear_shard_caches()
        mean_hops_to_ground(constellation, few)
        assert mean_hops_to_ground(constellation, many) == fresh
        assert fresh != mean_hops_to_ground(constellation, few)


class TestBrokenPoolRecycle:
    """A worker death must be visible: a RuntimeWarning naming the
    fan-out's label, not a silent restart.
    """

    @pytest.fixture
    def flaky_dispatch(self, monkeypatch):
        """The first ``_dispatch_batches`` call finds the pool broken."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.runtime import parallel

        real_dispatch = parallel._dispatch_batches
        crashes = {"remaining": 1}

        def dispatch(*args, **kwargs):
            if crashes["remaining"]:
                crashes["remaining"] -= 1
                raise BrokenProcessPool("worker died")
            return real_dispatch(*args, **kwargs)

        monkeypatch.setattr(parallel, "_dispatch_batches", dispatch)
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        yield crashes
        shutdown_worker_pools()

    def test_recycle_warns_and_still_completes(self, flaky_dispatch):
        with pytest.warns(RuntimeWarning, match="recycling"):
            values = run_sharded(_square, range(6), workers=2,
                                 label="recycle-test")
        assert values == [x * x for x in range(6)]
        assert flaky_dispatch["remaining"] == 0

    def test_recycle_warning_carries_fan_label(self, flaky_dispatch):
        with pytest.warns(RuntimeWarning, match="'labelled-recycle'"):
            run_sharded(_square, range(4), workers=2,
                        label="labelled-recycle")

    def test_killed_worker_warns_and_matches_serial(
            self, monkeypatch, tmp_path):
        """A real death mid-shard: the worker SIGKILLs itself on item 5."""
        monkeypatch.setenv(PLANNER_ENV_VAR, "sharded")
        work = [(x, 5, str(tmp_path / "died")) for x in range(12)]
        try:
            with pytest.warns(RuntimeWarning, match="recycling"):
                values = run_sharded(_square_or_die_once, work, workers=2,
                                     label="killed-worker")
        finally:
            shutdown_worker_pools()
        assert values == [x * x for x, *_ in work]
