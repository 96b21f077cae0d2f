#!/usr/bin/env python3
"""Quickstart: a UE's full life in SpaceCore over Starlink.

Walks through the paper's Fig. 14/16 story end to end:

1. provision a subscriber and register through the terrestrial home
   (C1), receiving the encrypted state replica;
2. establish a data session *locally* on the serving satellite
   (Fig. 16a + Algorithm 2) -- no home round trip;
3. send uplink traffic and receive downlink traffic relayed
   statelessly across the constellation (Algorithm 1);
4. ride an inter-satellite handover with the piggybacked replica
   (Fig. 16c);
5. watch the home revoke a hijacked satellite (Appendix B).

Run:  python examples/quickstart.py
"""

from repro.core import FallbackRequired, SpaceCoreSystem
from repro.orbits import starlink


def main() -> None:
    print("== SpaceCore quickstart ==")
    system = SpaceCoreSystem(starlink())
    print(f"constellation: {system.constellation.name} with "
          f"{system.constellation.total_satellites} satellites, "
          f"{len(system.ground_stations)} gateways")

    # 1. Provision + register (C1 through the terrestrial home).
    beijing_ue = system.provision_ue(39.9, 116.4)
    system.register(beijing_ue, 0.0)
    print(f"\n[C1] registered {beijing_ue.supi}")
    print(f"     geospatial IP: {beijing_ue.ip_address}")
    print(f"     cell: {system.cell_of(beijing_ue)}")
    print(f"     state replica: {beijing_ue.replica.size_bytes()} bytes, "
          f"version {beijing_ue.replica.version}")

    # 2. Localized session establishment on the serving satellite.
    served = system.establish_session(beijing_ue, t=0.0)
    sat_index = system.serving_satellite_of(beijing_ue, 0.0)
    print(f"\n[C2] localized establishment on satellite {sat_index}")
    print(f"     fresh session key: {served.session_key.hex()[:16]}...")
    served_count = system.satellite(sat_index).served_count
    print(f"     satellite now serves {served_count} session(s), "
          "statelessly")

    # 3. Uplink + stateless downlink relay to a remote UE.
    ok = system.send_uplink(beijing_ue, 1500)
    print(f"\n[data] uplink 1500B forwarded: {ok}")
    ny_ue = system.provision_ue(40.7, -74.0)
    system.register(ny_ue, 0.0)
    result = system.deliver_downlink(sat_index, ny_ue, t=0.0)
    print(f"[data] downlink Beijing->New York: delivered="
          f"{result.route.delivered}, {result.route.hops} ISL hops, "
          f"{result.route.delay_s * 1000:.1f} ms, paged={result.paged}")

    # 4. Handover when the satellite moves on (~165 s dwell).
    new_sat = system.handover(beijing_ue, t=200.0)
    print(f"\n[C3] satellite pass: handover {sat_index} -> {new_sat} "
          "(replica piggybacked, no home involvement)")
    print(f"     uplink still works: {system.send_uplink(beijing_ue, 500, 200.0)}")
    print("     mobility registrations triggered: 0 "
          "(geospatial cells never move)")

    # 5. Hijack response: revoke a satellite; it can no longer decrypt.
    victim = new_sat
    system.home.revoke_satellite(f"sat-{victim}")
    print(f"\n[security] home revoked hijacked sat-{victim} "
          f"(ABE epoch now {system.home.epoch})")
    probe = system.provision_ue(39.0, 116.0)
    system.register(probe, 0.0)
    try:
        system.satellite(victim).establish_session_locally(
            probe, 200.0, system.home.verify_key)
        print("     ERROR: revoked satellite opened new states!")
    except FallbackRequired as exc:
        print(f"     revoked satellite rejected: {exc}")
    print("\nDone.")


if __name__ == "__main__":
    main()
