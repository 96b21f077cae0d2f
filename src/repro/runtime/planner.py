"""Execution policy for the sharded runtime: the fan-out measures itself.

A pool pays only when it amortises its startup and dispatch cost
(Serverless5GC's cold-start vs warm-pool trade-off, TEGRA's sharded
control plane), and the cheapest honest estimate of a fan-out's cost is
the fan-out.  ``run_sharded`` runs items in-process until
``SERIAL_BUDGET_S`` is spent: a fan-out that finishes inside the budget
never touches a pool; one that does not ships the rest in chunks and is
remembered as *heavy*, so its next call skips the prefix.  One rule sets
that bit on every path -- in-process seconds plus the compute seconds
the workers report, against the same budget -- so a label promoted by
one cold first item is demoted by its next call.

Decisions change the execution *medium* only, never an artifact
(``tests/test_parallel_equivalence.py``); each is appended to an
in-process log.  The mechanisms live in :mod:`.parallel`.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = [
    "PLANNER_ENV_VAR",
    "SERIAL_BUDGET_S",
    "TASKS_PER_WORKER",
    "forced_mode",
    "planner_decisions",
    "reset_planner",
    "usable_cores",
]

#: Environment knob forcing the medium: ``auto`` (default), ``serial``
#: (never pool), or ``sharded`` (always pool when the caller asked for
#: >1 worker) -- how the equivalence tests and CI drive the pool path.
PLANNER_ENV_VAR = "REPRO_PLANNER"
_FORCE_MODES = ("auto", "serial", "sharded")

#: In-process seconds a fan-out may spend before the rest is shipped.
#: A fork pool plus eight dispatches costs 50-80 ms on the 2-core host
#: this was measured on, so less serial work than this cannot win.
SERIAL_BUDGET_S = 0.1

#: Pool tasks per worker a sharded region is cut into, for load balance.
TASKS_PER_WORKER = 4

# Per-process state, like the shard memo caches.
_heavy: Set[str] = set()
_decisions: List[Dict[str, Any]] = []


def usable_cores() -> int:
    """CPU cores this process may actually run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity support
        return os.cpu_count() or 1


def forced_mode() -> Optional[str]:
    """``REPRO_PLANNER`` as a force directive, or None for auto."""
    raw = os.environ.get(PLANNER_ENV_VAR, "").strip().lower()
    if not raw or raw == "auto":
        return None
    if raw not in _FORCE_MODES:
        raise ValueError(
            f"{PLANNER_ENV_VAR} must be one of {_FORCE_MODES}, got {raw!r}")
    return raw


def serial_budget(label: str) -> Tuple[float, str]:
    """In-process seconds a fan-out may spend before shipping, and why."""
    force = forced_mode()
    if force == "serial":
        return math.inf, "forced-serial"
    if force == "sharded":
        return 0.0, "forced-sharded"
    if usable_cores() == 1:
        return math.inf, "single-core"
    if label in _heavy:
        return 0.0, "heavy-label"
    return SERIAL_BUDGET_S, "budget"


def chunk_size(remaining: int, workers: int) -> int:
    """Items per pool task when ``remaining`` items ship to ``workers``."""
    return math.ceil(remaining / (workers * TASKS_PER_WORKER))


def note_cost(label: str, seconds: float) -> None:
    """Set or clear the heavy bit from one fan-out's measured compute."""
    if seconds >= SERIAL_BUDGET_S:
        _heavy.add(label)
    else:
        _heavy.discard(label)


def record_decision(label: str, reason: str, *, n_items: int, workers: int,
                    in_process: int, chunk_size: int) -> None:
    """Append one fan-out decision to the log."""
    mode = "sharded" if in_process < n_items else "serial"
    _decisions.append(dict(label=label, mode=mode, reason=reason,
                           n_items=n_items, workers=workers,
                           in_process=in_process, chunk_size=chunk_size))


def planner_decisions() -> List[Dict[str, Any]]:
    """The in-process decision log, oldest first (copies)."""
    return [dict(entry) for entry in _decisions]


def reset_planner() -> None:
    """Test/benchmark hook: return planner state to process-start."""
    _heavy.clear()
    _decisions.clear()
