"""Procedure-level robustness: NAS guard timers, bounded retries (S4.3).

The raw :class:`~repro.core.spacecore.SpaceCoreSystem` procedures
raise :class:`FallbackRequired` the moment anything mid-procedure goes
wrong -- a satellite dying between coverage lookup and replica
install, an expired replica, a revoked proxy.  Real UEs do not crash;
they run guard timers (T3510/T3580/T3517 analogues from
:mod:`repro.constants`) and retry with bounded exponential backoff,
re-selecting a serving satellite each attempt.

:class:`ResilientSpaceCore` wraps a system with exactly that
discipline and records one :class:`ProcedureOutcome` per invocation
(attempts, accumulated delay, abandoned or not) -- the raw material of
the chaos-availability curves.  Wired to a
:class:`~repro.faults.chaos.ChaosController`, it turns satellite-death
events into scheduled re-attach attempts, which is how a seeded chaos
run exercises the whole recovery path event-by-event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..constants import (
    NAS_MAX_ATTEMPTS,
    NAS_RETRY_BACKOFF_BASE_S,
    NAS_RETRY_BACKOFF_CAP_S,
    NAS_T3510_S,
    NAS_T3517_S,
    NAS_T3580_S,
    RLF_DETECTION_S,
)
from ..fiveg.procedures import ProcedureError
from ..fiveg.ue import UserEquipment
from ..obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry
from ..obs.tracing import Tracer
from .satellite import FallbackRequired
from .spacecore import SpaceCoreSystem


@dataclass
class ProcedureOutcome:
    """The fate of one timed procedure run (possibly after retries)."""

    procedure: str          # register | establish | handover | recovery
    supi: str
    started_at: float
    attempts: int
    total_delay_s: float    # timer expiries + backoff until completion
    completed: bool
    abandoned: bool         # retry counter exhausted, session dropped
    detail: str = ""

    def key(self) -> Tuple:
        """Serialisable identity for bit-reproducibility comparisons."""
        return (self.procedure, self.supi, round(self.started_at, 9),
                self.attempts, round(self.total_delay_s, 9),
                self.completed, self.abandoned)


def nas_backoff_s(attempt: int) -> float:
    """Bounded exponential backoff after failed NAS attempt ``attempt``.

    The one retry schedule of both cores: SpaceCore's
    :class:`ResilientSpaceCore` and the stateful baseline of the chaos
    experiments wait the same, so their comparison is fair by
    construction.
    """
    return min(NAS_RETRY_BACKOFF_BASE_S * (2.0 ** attempt),
               NAS_RETRY_BACKOFF_CAP_S)


class ResilientSpaceCore:
    """Timer-and-retry front end over a :class:`SpaceCoreSystem`."""

    def __init__(self, system: SpaceCoreSystem,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.system = system
        #: Optional observability: per-procedure attempt/latency series
        #: and one trace span per timed procedure, all on simulated
        #: time (``started_at`` .. ``started_at + total_delay_s``).
        self.metrics = metrics
        self.tracer = tracer
        self.outcomes: List[ProcedureOutcome] = []
        self.lost_sessions: List[str] = []
        self._ues: Dict[str, UserEquipment] = {}
        self._sim = None

    # -- bookkeeping ------------------------------------------------------------

    def track(self, ue: UserEquipment) -> None:
        """Make the wrapper responsible for this UE's recovery."""
        self._ues[str(ue.supi)] = ue

    # -- the retry loop -----------------------------------------------------------

    def _run_with_retries(self, procedure: str, supi: str, t: float,
                          guard_timer_s: float,
                          attempt_fn: Callable[[float], object]
                          ) -> Tuple[Optional[object], ProcedureOutcome]:
        """Run ``attempt_fn(t + elapsed)`` under the NAS discipline.

        A failed attempt costs one guard-timer expiry plus the bounded
        exponential backoff before the next try; the procedure is
        abandoned once the retry counter is exhausted.
        """
        elapsed = 0.0
        detail = ""
        for attempt in range(NAS_MAX_ATTEMPTS):
            try:
                result = attempt_fn(t + elapsed)
            except (FallbackRequired, ProcedureError) as exc:
                detail = str(exc)
                elapsed += guard_timer_s + nas_backoff_s(attempt)
                continue
            outcome = ProcedureOutcome(
                procedure, supi, t, attempt + 1, elapsed,
                completed=True, abandoned=False, detail=detail)
            self._record_outcome(outcome)
            return result, outcome
        outcome = ProcedureOutcome(
            procedure, supi, t, NAS_MAX_ATTEMPTS, elapsed,
            completed=False, abandoned=True, detail=detail)
        self._record_outcome(outcome)
        return None, outcome

    def _record_outcome(self, outcome: ProcedureOutcome) -> None:
        """Append to the log and feed the optional observability sinks."""
        self.outcomes.append(outcome)
        if self.metrics is not None:
            labels = {"procedure": outcome.procedure}
            self.metrics.counter("procedure.runs", **labels).inc()
            self.metrics.counter("procedure.attempts",
                                 **labels).inc(outcome.attempts)
            self.metrics.histogram(
                "procedure.attempts_per_run",
                buckets=DEFAULT_COUNT_BUCKETS,
                **labels).observe(outcome.attempts)
            self.metrics.histogram("procedure.delay_s",
                                   **labels).observe(outcome.total_delay_s)
            fate = "abandoned" if outcome.abandoned else "completed"
            self.metrics.counter(f"procedure.{fate}", **labels).inc()
        if self.tracer is not None:
            self.tracer.record(
                f"procedure.{outcome.procedure}",
                outcome.started_at,
                outcome.started_at + outcome.total_delay_s,
                supi=outcome.supi, attempts=outcome.attempts,
                completed=outcome.completed,
                abandoned=outcome.abandoned)

    # -- timed procedures ----------------------------------------------------------

    def register(self, ue: UserEquipment) -> ProcedureOutcome:
        """C1 at t = 0 with T3510 retries; tracks the UE for chaos
        recovery."""
        self.track(ue)
        _, outcome = self._run_with_retries(
            "register", str(ue.supi), 0.0, NAS_T3510_S,
            lambda now: self.system.register(ue, now))
        return outcome

    def establish_session(self, ue: UserEquipment) -> ProcedureOutcome:
        """Localized C2 at t = 0 with T3580 retries.

        Every attempt re-selects the best *live* serving satellite, so
        a satellite death between attempts costs one timer expiry, not
        the session.
        """
        self.track(ue)
        _, outcome = self._run_with_retries(
            "establish", str(ue.supi), 0.0, NAS_T3580_S,
            lambda now: self.system.establish_session(
                ue, now, allow_fallback=True))
        return outcome

    def handover(self, ue: UserEquipment, t: float) -> ProcedureOutcome:
        """S4.3 handover with T3517 retries.

        A mid-handover target death surfaces as ``FallbackRequired``
        from the replica install; the next attempt re-selects whatever
        satellite is then the best live server.
        """
        self.track(ue)
        _, outcome = self._run_with_retries(
            "handover", str(ue.supi), t, NAS_T3517_S,
            lambda now: self.system.handover(ue, now))
        return outcome

    def recover(self, ue: UserEquipment, t: float) -> ProcedureOutcome:
        """Re-attach after a serving-satellite death, with retries.

        ``recover_from_satellite_failure`` returning None (nothing
        live covers the UE right now) is a retriable condition -- the
        constellation moves, so a later attempt may see coverage.
        Abandonment after ``NAS_MAX_ATTEMPTS`` is a lost session.
        """
        self.track(ue)

        def attempt(now: float):
            sat = self.system.recover_from_satellite_failure(ue, now)
            if sat is None:
                raise FallbackRequired("no live coverage for re-attach")
            return sat

        _, outcome = self._run_with_retries(
            "recovery", str(ue.supi), t, NAS_T3517_S, attempt)
        if outcome.abandoned:
            self.lost_sessions.append(str(ue.supi))
        return outcome

    # -- chaos wiring ----------------------------------------------------------------

    def attach_chaos(self, controller) -> None:
        """Subscribe to a ChaosController: satellite deaths trigger
        scheduled RLF detection + recovery for every UE the corpse was
        serving."""
        self._sim = controller.sim
        controller.subscribe(self._on_fault)

    def _on_fault(self, event) -> None:
        from ..faults.chaos import FaultKind
        if event.kind is not FaultKind.SAT_FAIL or self._sim is None:
            return
        dead = event.target[0]
        victims = [supi for supi, sat
                   in self.system._ue_serving_sat.items() if sat == dead]
        for supi in victims:
            ue = self._ues.get(supi)
            if ue is not None:
                self._sim.schedule(RLF_DETECTION_S, self.recover, ue,
                                   self._sim.now + RLF_DETECTION_S)

    # -- reading ---------------------------------------------------------------------

    def outcome_keys(self) -> List[Tuple]:
        """Serialisable outcome log (the reproducibility contract)."""
        return [outcome.key() for outcome in self.outcomes]

    def session_alive(self, ue: UserEquipment) -> bool:
        """Whether the UE currently holds a served session somewhere."""
        sat = self.system._ue_serving_sat.get(str(ue.supi))
        if sat is None:
            return False
        return self.system.topology.is_up(sat)
