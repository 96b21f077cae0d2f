"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The registry is the observability contract of the whole reproduction:
every number it holds derives from *simulated* quantities (event
counts, simulated seconds, message totals), never from the wall
clock, so two runs of the same seeded experiment produce bit-identical
snapshots.  Three properties make that hold and are pinned by tests:

* **Snapshots are plain dicts** of JSON scalars -- ``json.dumps(...,
  sort_keys=True)`` of a snapshot is the canonical artifact form, and
  equality of artifacts is equality of runs.
* **Instruments are label-keyed and sorted.**  A series is identified
  by ``name`` plus a sorted ``(key, value)`` label tuple; snapshot
  keys are rendered ``name{k=v,k2=v2}`` so iteration order of the
  underlying dict never shows through.
* **Snapshots merge associatively in shard order.**  Per-shard
  registries from :mod:`repro.runtime.parallel` fold together with
  :func:`merge_snapshots` by *shard index*, never completion order:
  counters and histogram buckets add, gauges add as per-shard
  contributions.  The serial fallback folds the same list the same
  way, so worker count changes wall-clock only.

Histograms use **fixed** bucket bounds chosen at creation time
(defaults below); deriving bounds from observed data would make the
snapshot schema depend on the workload and break mergeability.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

Scalar = Union[int, float]
LabelItems = Tuple[Tuple[str, str], ...]
Snapshot = Dict[str, Dict[str, Any]]

#: Default histogram bounds (seconds): spans RTT-scale packet latencies
#: through NAS-timer recovery delays.  Geometric so one schema serves
#: every simulated-latency series.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 120.0, 300.0,
)

#: Default bounds for small non-negative integer series (attempts,
#: retransmits, reroutes, hop counts).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0,
)


def _label_items(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_key(name: str, labels: LabelItems) -> str:
    """Render the canonical snapshot key: ``name{k=v,...}``."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Scalar = 0

    def inc(self, amount: Scalar = 1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, simulated clock, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Scalar = 0

    def set(self, value: Scalar) -> None:
        """Replace the current level."""
        self.value = value


class Histogram:
    """Fixed-bucket distribution: counts per bound plus sum/count.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last bound.  Bounds are frozen at creation so
    snapshots of the same series always share a schema and merge
    bucket-by-bucket.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds: Tuple[float, ...] = ordered
        self.bucket_counts: List[int] = [0] * (len(ordered) + 1)
        self.count: int = 0
        self.sum: float = 0.0

    def observe(self, value: Scalar) -> None:
        """Record one sample."""
        self.count += 1
        self.sum += float(value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1


class MetricsRegistry:
    """A namespace of instruments with deterministic snapshots.

    Instruments are created on first use (``registry.counter("x")``)
    and identified by name plus sorted labels; re-requesting returns
    the same instrument.  A name is bound to exactly one instrument
    kind -- asking for ``counter("x")`` after ``gauge("x")`` is a bug
    and raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}
        self._kinds: Dict[str, str] = {}

    # -- instrument access --------------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        bound = self._kinds.setdefault(name, kind)
        if bound != kind:
            raise ValueError(
                f"metric {name!r} is already a {bound}, not a {kind}")

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for (name, labels), created on first use."""
        self._claim(name, "counter")
        key = (name, _label_items(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        self._claim(name, "gauge")
        key = (name, _label_items(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  **labels: object) -> Histogram:
        """The histogram for (name, labels), created on first use.

        ``buckets`` applies only on creation; later calls for the same
        series may omit it (and must match it when given).
        """
        self._claim(name, "histogram")
        key = (name, _label_items(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            bounds = (DEFAULT_LATENCY_BUCKETS_S if buckets is None
                      else buckets)
            instrument = self._histograms[key] = Histogram(bounds)
        elif (buckets is not None
                and tuple(float(b) for b in buckets) != instrument.bounds):
            raise ValueError(
                f"metric {name!r} already has buckets "
                f"{instrument.bounds}")
        return instrument

    # -- reading ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> Scalar:
        """Current counter total, 0 when the series never incremented."""
        instrument = self._counters.get((name, _label_items(labels)))
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> Snapshot:
        """Everything the registry holds, as a plain sorted dict.

        The returned structure contains only JSON scalars, lists, and
        dicts -- ``json.dumps(snapshot, sort_keys=True)`` is the
        canonical artifact -- and is detached from the live
        instruments (mutating one does not change the other).
        """
        counters = {_series_key(name, labels): instrument.value
                    for (name, labels), instrument
                    in self._counters.items()}
        gauges = {_series_key(name, labels): instrument.value
                  for (name, labels), instrument in self._gauges.items()}
        histograms: Dict[str, Dict[str, Any]] = {}
        for (name, labels), instrument in self._histograms.items():
            histograms[_series_key(name, labels)] = {
                "bounds": list(instrument.bounds),
                "bucket_counts": list(instrument.bucket_counts),
                "count": instrument.count,
                "sum": instrument.sum,
            }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }


def _empty_snapshot() -> Snapshot:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(snapshots: Iterable[Snapshot]) -> Snapshot:
    """Fold per-shard snapshots (in shard order) into one total.

    Counters and gauges add; histograms add bucket-by-bucket and must
    agree on bounds (same-schema series only).  Folding is strictly
    left-to-right over the given order, so the caller's ordering --
    always shard/trial *index* order in this repo -- fully determines
    the result down to float rounding.
    """
    merged = _empty_snapshot()
    m_counters = merged["counters"]
    m_gauges = merged["gauges"]
    m_histograms = merged["histograms"]
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            m_counters[key] = m_counters.get(key, 0) + value
        for key, value in snapshot.get("gauges", {}).items():
            m_gauges[key] = m_gauges.get(key, 0) + value
        for key, series in snapshot.get("histograms", {}).items():
            existing = m_histograms.get(key)
            if existing is None:
                m_histograms[key] = {
                    "bounds": list(series["bounds"]),
                    "bucket_counts": list(series["bucket_counts"]),
                    "count": series["count"],
                    "sum": series["sum"],
                }
                continue
            if existing["bounds"] != list(series["bounds"]):
                raise ValueError(
                    f"histogram {key!r} bucket bounds differ between "
                    f"shards; fixed buckets are the merge contract")
            existing["bucket_counts"] = [
                a + b for a, b in zip(existing["bucket_counts"],
                                      series["bucket_counts"])]
            existing["count"] += series["count"]
            existing["sum"] += series["sum"]
    merged["counters"] = dict(sorted(m_counters.items()))
    merged["gauges"] = dict(sorted(m_gauges.items()))
    merged["histograms"] = dict(sorted(m_histograms.items()))
    return merged
