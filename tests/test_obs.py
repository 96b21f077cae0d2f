"""Unit tests for the deterministic observability subsystem."""

import json

import pytest

from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    Tracer,
    merge_snapshots,
)


class TestCounters:
    def test_increment_and_read(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(4)
        assert registry.counter_value("x") == 5

    def test_labels_split_series(self):
        registry = MetricsRegistry()
        registry.counter("x", kind="a").inc()
        registry.counter("x", kind="b").inc(2)
        assert registry.counter_value("x", kind="a") == 1
        assert registry.counter_value("x", kind="b") == 2
        assert registry.counter_value("x") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_unknown_series_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0


class TestGauges:
    def test_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.set(5)
        assert registry.snapshot()["gauges"]["depth"] == 5


class TestHistograms:
    def test_bucketing_with_overflow(self):
        histogram = Histogram((1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 99.0):
            histogram.observe(value)
        # Bounds are inclusive upper edges plus one overflow bucket.
        assert histogram.bucket_counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(102.0)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(())

    def test_registry_default_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        assert histogram.bounds == DEFAULT_LATENCY_BUCKETS_S

    def test_recreation_with_other_bounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("hops", buckets=DEFAULT_COUNT_BUCKETS)
        # Omitting buckets returns the same instrument...
        assert registry.histogram("hops").bounds == DEFAULT_COUNT_BUCKETS
        # ...but contradicting the frozen bounds is a bug.
        with pytest.raises(ValueError):
            registry.histogram("hops", buckets=(1.0, 2.0))


class TestRegistryNamespace:
    def test_one_kind_per_name(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_same_series_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x", a=1) is registry.counter("x", a=1)


class TestSnapshots:
    def test_label_order_does_not_matter(self):
        """The series key sorts labels, so kwargs order is invisible."""
        registry = MetricsRegistry()
        registry.counter("x", b=2, a=1).inc()
        registry.counter("x", a=1, b=2).inc()
        assert registry.snapshot()["counters"] == {"x{a=1,b=2}": 2}

    def test_snapshot_is_detached(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        snapshot = registry.snapshot()
        registry.counter("x").inc()
        assert snapshot["counters"]["x"] == 1

    def test_snapshot_is_json_stable(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("x", kind="z").inc()
            registry.counter("x", kind="a").inc()
            registry.gauge("g").set(3.5)
            registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
            return json.dumps(registry.snapshot(), sort_keys=True)

        assert build() == build()


class TestMerge:
    def _shard(self, n):
        registry = MetricsRegistry()
        registry.counter("runs").inc(n)
        registry.gauge("level").set(n)
        registry.histogram("lat", buckets=(1.0, 2.0)).observe(0.5 * n)
        return registry.snapshot()

    def test_merge_adds_everything(self):
        merged = merge_snapshots([self._shard(1), self._shard(2)])
        assert merged["counters"]["runs"] == 3
        assert merged["gauges"]["level"] == 3
        series = merged["histograms"]["lat"]
        assert series["count"] == 2
        assert series["bucket_counts"] == [2, 0, 0]
        assert series["sum"] == pytest.approx(1.5)

    def test_merge_of_empty_list_is_empty(self):
        assert merge_snapshots([]) == {"counters": {}, "gauges": {},
                                       "histograms": {}}

    def test_merge_matches_single_registry(self):
        """Sharding must be invisible: two per-shard registries merge
        to exactly what one registry seeing all samples reports."""
        combined = MetricsRegistry()
        for n in (1, 2, 3):
            combined.counter("runs").inc(n)
            combined.histogram("lat", buckets=(1.0, 2.0)).observe(
                0.5 * n)
        merged = merge_snapshots([self._shard(n) for n in (1, 2, 3)])
        assert merged["counters"] == combined.snapshot()["counters"]
        assert merged["histograms"] == combined.snapshot()["histograms"]

    def test_merge_is_order_deterministic(self):
        shards = [self._shard(n) for n in (1, 2, 3)]
        one = json.dumps(merge_snapshots(shards), sort_keys=True)
        two = json.dumps(merge_snapshots(shards), sort_keys=True)
        assert one == two

    def test_bound_mismatch_raises(self):
        left = MetricsRegistry()
        left.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        right = MetricsRegistry()
        right.histogram("lat", buckets=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots([left.snapshot(), right.snapshot()])

    def test_disjoint_series_union(self):
        left = MetricsRegistry()
        left.counter("a").inc()
        right = MetricsRegistry()
        right.counter("b").inc()
        merged = merge_snapshots([left.snapshot(), right.snapshot()])
        assert merged["counters"] == {"a": 1, "b": 1}


class TestTracer:
    def test_events_stamp_with_injected_clock(self):
        t = {"now": 0.0}
        tracer = Tracer(clock=lambda: t["now"])
        t["now"] = 12.5
        span = tracer.event("fault.sat-fail", target=[3])
        assert span.start_s == span.end_s == 12.5
        assert span.attrs == {"target": [3]}

    def test_record_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Tracer().record("x", 2.0, 1.0)

    def test_attrs_are_normalised_to_json(self):
        tracer = Tracer()
        tracer.event("x", target=(1, 2), obj=object())
        payload = tracer.to_dicts()[0]
        assert payload["attrs"]["target"] == [1, 2]
        assert isinstance(payload["attrs"]["obj"], str)
        json.dumps(payload)  # must not raise
