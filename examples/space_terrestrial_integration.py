#!/usr/bin/env python3
"""Seamless space-terrestrial integration (S4.5).

A commuter's phone drifts between a city with terrestrial 5G coverage
and the countryside where only satellites reach.  SpaceCore's home
core anchors both domains, so:

* idle reselection between gNB and satellite costs zero signaling;
* connected handovers run the standard home-controlled procedure;
* identity and the geospatial address survive every switch.

Run:  python examples/space_terrestrial_integration.py
"""

from repro.core import (
    AccessDomain,
    IntegratedAccessManager,
    SpaceCoreSystem,
    TerrestrialBaseStation,
)
from repro.orbits import starlink

CITY = (39.90, 116.40)         # downtown, gNB coverage
SUBURB = (40.05, 116.60)       # edge of the city
COUNTRYSIDE = (41.20, 114.50)  # satellite-only


def show(manager, ue, label):
    domain = manager.current_domain(ue)
    print(f"  [{label:12s}] domain={domain.value:12s} "
          f"ip={ue.ip_address}")


def main() -> None:
    print("== Space-terrestrial integration ==")
    system = SpaceCoreSystem(starlink())
    gnbs = [TerrestrialBaseStation("downtown-gnb", *CITY,
                                   radius_km=12.0),
            TerrestrialBaseStation("suburb-gnb", *SUBURB,
                                   radius_km=6.0)]
    manager = IntegratedAccessManager(system, gnbs)

    ue = system.provision_ue(*CITY)
    system.register(ue, 0.0)
    print(f"subscriber {ue.supi} registered once, usable in both "
          "domains\n")

    # Morning: idle at home downtown -- camps on the gNB for free.
    decision = manager.reselect_idle(ue)
    print(f"morning, downtown: {decision.reason}")
    show(manager, ue, "idle")
    print(f"  core signaling so far: {manager.bus.count()} messages")

    # Driving out: idle reselection to satellite, still free.
    ue.move_to(*map(_rad, COUNTRYSIDE))
    decision = manager.reselect_idle(ue)
    print(f"\ndriving out: {decision.reason}")
    show(manager, ue, "idle")
    print(f"  core signaling so far: {manager.bus.count()} messages "
          "(idle reselection is free)")

    # A call starts in the countryside: localized establishment.
    system.establish_session(ue)
    sat = system.serving_satellite_of(ue)
    print(f"\ncall starts: localized session on satellite {sat}")

    # Driving back into coverage mid-call: cross-domain handover.
    ue.move_to(*map(_rad, CITY))
    decision = manager.handover_connected(ue)
    print(f"driving home mid-call: handover -> {decision.target} "
          f"({decision.domain.value})")
    show(manager, ue, "connected")
    print(f"  handover signaling: {manager.bus.count('C3')} messages "
          "(standard Fig. 9c, home-coordinated)")
    print(f"  cross-domain handovers: {manager.cross_domain_handovers}")

    # Back out again, still on the call: satellite re-installs the
    # replica -- an equivalent but shorter migration path.
    ue.move_to(*map(_rad, COUNTRYSIDE))
    decision = manager.handover_connected(ue)
    print(f"\nleaving town mid-call: handover -> {decision.target}")
    sat = system.serving_satellite_of(ue)
    print(f"  satellite {sat} now serves the session "
          f"({system.satellite(sat).served_count} active)")
    print("\nSame SUPI, same address, both worlds. Done.")


def _rad(deg: float) -> float:
    import math
    return math.radians(deg)


if __name__ == "__main__":
    main()
