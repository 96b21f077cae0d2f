"""Sharded parallel runner with deterministic seed derivation.

Every experiment that fans out here decomposes into *shards*:
independent work units (a Monte Carlo trial, one design point of a
cartesian sweep, one sensitivity cell) whose results are combined by
index, never by completion order.  That gives the property the
equivalence tests pin down: for the same base seed, the output is
bit-identical whether the shards run serially in-process, on two
workers, or on sixteen -- parallelism changes wall-clock only.

Two rules make that hold:

* **Seeds are derived, not shared.**  ``seed_for(base_seed, shard_id)``
  hashes ``"{base_seed}:{shard_id}"`` with SHA-256.  Python's builtin
  ``hash()`` is salted per process (``PYTHONHASHSEED``) and would make
  worker-side derivation diverge from the parent's.
* **Results are ordered by shard index.**  ``run_sharded`` returns
  ``[fn(items[0]), fn(items[1]), ...]`` regardless of which worker
  finished first.

Three mechanisms keep the pool path cheap (the policy deciding when to
use them lives in :mod:`.planner`):

* **Shard batching** -- many shards ship as one pool task
  (``_run_batch``), with results unpacked back to per-shard index
  order, so per-task dispatch overhead amortizes across a chunk
  instead of dominating every tiny shard.
* **Warm pool reuse** -- one module-level ``ProcessPoolExecutor``
  persists across ``run_sharded`` calls (same worker count, same
  shared objects), so a sweep of sweeps pays pool startup once.
  ``shutdown_worker_pools()`` is the explicit teardown hook; an
  ``atexit`` hook covers interpreter exit.
* **Zero-copy shared shipping** -- large common inputs (constellation
  snapshots, station lists, scenarios) register once per pool via the
  worker initializer (and ride fork inheritance for free on fork
  platforms) instead of being pickled into every task; workers fetch
  them back with :func:`get_shared`.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from . import planner

T = TypeVar("T")
R = TypeVar("R")

#: Environment knob for the default worker count; ``1`` (the default)
#: keeps every experiment on the serial in-process path.
WORKERS_ENV_VAR = "REPRO_WORKERS"


def seed_for(base_seed: int, shard_id: Any) -> int:
    """Deterministic 63-bit seed for one shard of a seeded experiment.

    Stable across processes, platforms, and Python versions (unlike
    ``hash()``), and well-spread even for adjacent shard ids (unlike
    ``base_seed + shard_id``, which makes trial ``k`` of seed ``s``
    collide with trial ``k-1`` of seed ``s+1``).
    """
    digest = hashlib.sha256(f"{base_seed}:{shard_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else ``REPRO_WORKERS``, else serial."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        workers = int(raw) if raw else 1
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# Shared-object registry (zero-copy snapshot shipping)
# ---------------------------------------------------------------------------

#: Scoped parent-side registry: ``run_sharded(shared=...)`` pushes its
#: entries for the duration of the call (restoring outer entries on
#: exit, so nested serial fan-outs compose).
_PARENT_SHARED: Dict[str, Any] = {}

#: Worker-side registry, installed once per worker by the pool
#: initializer -- the only time a shared object crosses the process
#: boundary, however many tasks the worker then executes.
_WORKER_SHARED: Dict[str, Any] = {}

_MISSING = object()


def get_shared(key: str) -> Any:
    """Fetch a shared object registered via ``run_sharded(shared=...)``.

    Resolution order: the current call's scoped registry (parent and
    serial paths, plus nested fan-outs inside a worker), then the
    worker-wide registry the pool initializer installed.
    """
    if key in _PARENT_SHARED:
        return _PARENT_SHARED[key]
    try:
        return _WORKER_SHARED[key]
    except KeyError:
        raise KeyError(
            f"no shared object {key!r}; pass it via "
            f"run_sharded(shared={{...}})") from None


@contextmanager
def _shared_scope(shared: Dict[str, Any]) -> Iterator[None]:
    """Install ``shared`` for the duration of one ``run_sharded`` call."""
    saved = {key: _PARENT_SHARED.get(key, _MISSING) for key in shared}
    _PARENT_SHARED.update(shared)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is _MISSING:
                _PARENT_SHARED.pop(key, None)
            else:
                _PARENT_SHARED[key] = value


# ---------------------------------------------------------------------------
# Warm worker pool
# ---------------------------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_SHARED: Dict[str, Any] = {}
_POOLS_CREATED = 0


def _init_worker(shared: Dict[str, Any]) -> None:
    """Pool initializer: serial-only children plus the shared registry.

    A shard that internally calls another ``run_sharded`` (e.g. a
    chaos trial whose scenario sweeps a grid) must not multiply the
    worker count; inside a worker the serial fallback is the sharding.
    The fork-inherited parent scope is cleared so stale objects from
    pool-creation time can never shadow a later call's registry.
    """
    os.environ[WORKERS_ENV_VAR] = "1"
    _PARENT_SHARED.clear()
    _WORKER_SHARED.clear()
    _WORKER_SHARED.update(shared)


def _values_equiv(a: Any, b: Any) -> bool:
    """Identity equivalence, one container level deep.

    Callers rebuild wrapper lists per call (``list(constellations)``)
    around the same big payload objects; element-wise identity lets the
    warm pool survive that without deep-comparing snapshots.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(x is y for x, y in zip(a, b))
    if isinstance(a, dict):
        return (a.keys() == b.keys()
                and all(a[k] is b[k] for k in a))
    return False


def _shared_equiv(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return (a.keys() == b.keys()
            and all(_values_equiv(a[k], b[k]) for k in a))


def pools_created() -> int:
    """How many pools this process has created (warm hits don't count)."""
    return _POOLS_CREATED


def pool_is_warm(workers: int) -> bool:
    """Whether the warm pool already matches (workers, current shared)."""
    return (_POOL is not None and _POOL_WORKERS == workers
            and _shared_equiv(_POOL_SHARED, _PARENT_SHARED))


def shutdown_worker_pools() -> None:
    """Tear down the warm pool (tests, benchmarks, interpreter exit)."""
    global _POOL, _POOL_WORKERS, _POOL_SHARED
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
    _POOL = None
    _POOL_WORKERS = 0
    _POOL_SHARED = {}


atexit.register(shutdown_worker_pools)


def _acquire_pool(workers: int) -> ProcessPoolExecutor:
    """The warm pool if it matches, else a fresh one."""
    global _POOL, _POOL_WORKERS, _POOL_SHARED, _POOLS_CREATED
    if pool_is_warm(workers):
        assert _POOL is not None
        return _POOL
    shutdown_worker_pools()
    shared = dict(_PARENT_SHARED)
    _POOL = ProcessPoolExecutor(max_workers=workers,
                                initializer=_init_worker,
                                initargs=(shared,))
    _POOL_WORKERS = workers
    _POOL_SHARED = shared
    _POOLS_CREATED += 1
    return _POOL


# ---------------------------------------------------------------------------
# Execution paths
# ---------------------------------------------------------------------------

def _run_batch(payload: Tuple[Callable[[Any], Any], List[Any]]
               ) -> Tuple[List[Any], float]:
    """One pool task: a chunk of consecutive shards and its compute time.

    The seconds are measured here, where the work runs, so the
    planner's heavy/light bit never books dispatch cost as item cost.
    """
    fn, batch = payload
    t0 = time.perf_counter()
    values = [fn(item) for item in batch]
    return values, time.perf_counter() - t0


def _dispatch_batches(pool: ProcessPoolExecutor, fn: Callable[[T], R],
                      items: List[T], start: int, chunk: int,
                      results: List[Any]) -> float:
    """Ship ``items[start:]`` in chunks; returns worker compute seconds."""
    futures = [(lo, pool.submit(_run_batch, (fn, items[lo:lo + chunk])))
               for lo in range(start, len(items), chunk)]
    compute_s = 0.0
    for lo, future in futures:
        values, seconds = future.result()
        results[lo:lo + len(values)] = values
        compute_s += seconds
    return compute_s


def _fan_out_label(fn: Callable, label: Optional[str]) -> str:
    if label is not None:
        return label
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", repr(fn))
    return f"{module}.{qualname}"


def run_sharded(fn: Callable[[T], R], items: Iterable[T], *,
                workers: Optional[int] = None,
                shared: Optional[Dict[str, Any]] = None,
                label: Optional[str] = None) -> List[R]:
    """Map ``fn`` over ``items``, sharded across processes when it pays.

    ``fn`` must be a picklable top-level callable and each item must be
    picklable.  With one worker (the default unless ``REPRO_WORKERS``
    or ``workers`` says otherwise) or a single item this is a plain
    in-process loop -- no pool, no pickling, no timer -- which is the
    bit-identical serial fallback.  Otherwise items run in-process
    until ``planner.SERIAL_BUDGET_S`` is spent and only the rest (if
    any) ships to the warm pool; a label whose last fan-out cost that
    much ships every item.  Results always come back in item order.

    ``shared`` registers large common inputs once per pool (fetched in
    ``fn`` via :func:`get_shared`) instead of pickling them into every
    task; ``label`` names the fan-out in the planner's decision log and
    keys its heavy/light bit.
    """
    workers = resolve_workers(workers)
    items = list(items)
    n = len(items)
    with _shared_scope(dict(shared) if shared else {}):
        if workers == 1 or n <= 1:
            # Short-circuit before any policy: singletons and the
            # serial contract never pay startup, pickling or a timer.
            return [fn(item) for item in items]
        fan_label = _fan_out_label(fn, label)
        budget_s, reason = planner.serial_budget(fan_label)
        results: List[Any] = [None] * n
        done = 0
        spent_s = 0.0
        # The serial loop is the estimator: results are kept (fn is pure
        # per item), and a lone leftover item is not worth a dispatch.
        t0 = time.perf_counter()
        while done < n and (spent_s < budget_s or done == n - 1):
            results[done] = fn(items[done])
            done += 1
            spent_s = time.perf_counter() - t0
        chunk = planner.chunk_size(n - done, workers)
        planner.record_decision(fan_label, reason, n_items=n, workers=workers,
                                in_process=done, chunk_size=chunk)
        compute_s = 0.0
        if done < n:
            try:
                compute_s = _dispatch_batches(_acquire_pool(workers), fn,
                                              items, done, chunk, results)
            except BrokenProcessPool:
                # A worker died (OOM-killed, signalled).  Recycle the
                # pool once and recompute the whole sharded region --
                # results are pure per item, so overwriting is harmless.
                warnings.warn(
                    f"worker pool broke during {fan_label!r}; recycling "
                    "the pool and recomputing the sharded region",
                    RuntimeWarning, stacklevel=2)
                shutdown_worker_pools()
                compute_s = _dispatch_batches(_acquire_pool(workers), fn,
                                              items, done, chunk, results)
        planner.note_cost(fan_label, spent_s + compute_s)
        return results
