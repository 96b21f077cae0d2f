#!/usr/bin/env python3
"""Emergency communications under failures and attacks.

S2.2(4) + S3.3: when terrestrial infrastructure is destroyed and the
space segment itself is degraded (radiation failures, jammed links,
downed gateways, hijacked satellites), can users still communicate?

This example runs the drill on the **declarative scenario layer**
(:mod:`repro.scenarios`): an ad-hoc emergency ScenarioSpec composes
decay churn, a regional jammer, and a gateway blackout over one city,
executes seeded trials on the sharded runtime, and holds the outcome
to an SLO budget -- the same harness the committed catalog
(``repro scenario list``) gates CI with.  The hijack blast-radius
drill then shows what a compromised satellite leaks and how epoch
revocation stops the bleeding.

Run:  python examples/emergency_resilience.py
"""

from repro.core import FallbackRequired, SpaceCoreSystem
from repro.orbits import starlink
from repro.scenarios import (
    ChaosSpec,
    PopulationSpec,
    ScenarioSpec,
    SLOBudget,
    run_scenario,
)

#: The disaster zone: one metropolitan cluster whose terrestrial
#: infrastructure just went dark.
DISASTER_SITES = ((39.9, 116.4), (40.2, 116.9), (39.5, 115.9))


def emergency_spec() -> ScenarioSpec:
    """A compact emergency: churn + jamming + gateway blackout."""
    return ScenarioSpec(
        name="emergency-drill",
        title="Disaster-zone communications drill",
        description=(
            "Decay churn kills serving satellites while a jammer opens "
            "over the disaster zone and the nearest gateways go dark; "
            "sessions must survive on local, stateless recovery."),
        horizon_s=900.0,
        population=PopulationSpec(n_ues=9, sites=DISASTER_SITES,
                                  jitter_deg=1.0),
        chaos=ChaosSpec(decay_acceleration=5.0e5,
                        repair_delay_s=600.0,
                        jam_start_s=120.0, jam_stop_s=600.0,
                        jam_radius_km=900.0,
                        gs_outage_start_s=120.0,
                        gs_outage_stop_s=750.0,
                        gs_outage_fraction=0.4),
        slo=SLOBudget(availability_floor=0.85,
                      p99_latency_ceiling_s=30.0,
                      retry_budget_attempts=2.5,
                      max_lost_sessions=2,
                      survival_margin_floor=0.0),
        n_trials=2,
    )


def main() -> None:
    print("== Emergency resilience drill ==\n")

    # 1. The scenario-layer stress run: declarative spec -> seeded
    #    trials -> SLO verdict.
    spec = emergency_spec()
    print(f"[scenario] {spec.title}")
    print(f"  {spec.population.n_ues} UEs in the disaster zone, "
          f"{spec.horizon_s:.0f}s horizon, {spec.n_trials} seeded trials")
    result = run_scenario(spec)
    summary = result.summary()
    report = result.slo_report()
    print(f"  faults injected: {summary['faults_injected']}, "
          f"recoveries: {summary['spacecore_recoveries']}")
    print(f"  session survival: SpaceCore "
          f"{summary['spacecore_mean_survival']:.3f} vs stateful "
          f"baseline {summary['baseline_mean_survival']:.3f} "
          f"(margin +{summary['survival_margin']:.3f})")
    print(f"\n[slo] verdict: {report.verdict}")
    for check in report.checks:
        op = ">=" if check.kind == "floor" else "<="
        print(f"  [{check.verdict:8s}] {check.name:24s} "
              f"{check.observed:.6g} {op} {check.threshold:.6g}")

    # 2. Hijack blast radius + revocation (Appendix B).
    system = SpaceCoreSystem(starlink())
    ue = system.provision_ue(*DISASTER_SITES[0])
    system.register(ue, 0.0)
    system.establish_session(ue, t=0.0)
    sat_idx = system.serving_satellite_of(ue, 0.0)
    hijacked = system.satellite(sat_idx)
    exposed = hijacked.exposed_states()
    print(f"\n[hijack] satellite {sat_idx} compromised; states exposed: "
          f"{len(exposed)} ephemeral session(s) -- no permanent keys, "
          "no other users' vectors")
    system.home.revoke_satellite(f"sat-{sat_idx}")
    fresh = system.provision_ue(38.5, 115.0)
    system.register(fresh, 0.0)
    try:
        hijacked.establish_session_locally(fresh, 0.0,
                                           system.home.verify_key)
        print("  ERROR: hijacked satellite still trusted!")
    except FallbackRequired:
        print(f"  [revoked] epoch rotated to {system.home.epoch}; "
              "hijacked satellite can no longer open any new replica")

    print("\nDrill complete: the SLO gate held under churn, jamming "
          "and gateway blackout, and the hijack leaked only ephemeral "
          "state.")


if __name__ == "__main__":
    main()
