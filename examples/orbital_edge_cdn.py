#!/usr/bin/env python3
"""Orbital edge CDN: content served from satellites (S2.2(3)).

The paper motivates orbital core functions partly by orbital edge
computing -- CDNs and compute living on satellites.  This example
builds that application on the reproduction's substrate:

1. place 6 content replicas on satellites over population centres;
2. serve requests from Beijing, Lagos, Sao Paulo, and a mid-Pacific
   ship via Algorithm 1 to the nearest replica;
3. compare against the ground-CDN alternative (exit via a gateway);
4. kill a replica satellite and watch requests fail over with zero
   state migration -- the S4.3 recovery story applied to the edge.

Run:  python examples/orbital_edge_cdn.py
"""

import math

from repro.core.edge import OrbitalEdgeService
from repro.orbits import IdealPropagator, default_ground_stations, starlink
from repro.topology import GridTopology

CLIENTS = [
    ("beijing", 39.9, 116.4),
    ("lagos", 6.5, 3.4),
    ("sao-paulo", -23.5, -46.6),
    ("mid-pacific-ship", 5.0, -155.0),
]


def main() -> None:
    print("== Orbital edge CDN over SpaceCore ==")
    topology = GridTopology(IdealPropagator(starlink()),
                            default_ground_stations())
    service = OrbitalEdgeService(topology)
    replicas = service.place_over_population(0.0)
    subs = topology.propagator.subpoints(0.0)
    print(f"placed {len(replicas)} replicas:")
    for sat in replicas:
        lat, lon = subs[sat]
        print(f"  satellite {sat:4d} over ({math.degrees(lat):+6.1f}, "
              f"{math.degrees(lon):+7.1f})")

    print("\nserving requests (one-way delay, edge vs ground CDN):")
    for name, lat_deg, lon_deg in CLIENTS:
        lat, lon = math.radians(lat_deg), math.radians(lon_deg)
        result = service.serve(lat, lon, 0.0)
        cdn = service.ground_cdn_latency_s(lat, lon, 0.0)
        if result.served:
            print(f"  {name:17s} edge {result.latency_s * 1000:6.1f} ms "
                  f"(replica sat {result.replica_sat}) | ground CDN "
                  f"{cdn * 1000:6.1f} ms")
        else:
            print(f"  {name:17s} no coverage")

    # Failure drill: kill the replica serving Beijing.
    beijing = (math.radians(39.9), math.radians(116.4))
    victim = service.serve(*beijing, 0.0).replica_sat
    topology.fail_satellite(victim)
    print(f"\n[failure] replica satellite {victim} dies "
          "(radiation, debris, hijack...)")
    rerouted = service.serve(*beijing, 0.0)
    print(f"[failover] beijing now served by satellite "
          f"{rerouted.replica_sat} at "
          f"{rerouted.latency_s * 1000:.1f} ms -- nothing was "
          "migrated, requests just flow to the next replica")
    print("\nEdge computing inherits the stateless core's resilience. "
          "Done.")


if __name__ == "__main__":
    main()
