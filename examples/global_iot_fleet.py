#!/usr/bin/env python3
"""Global IoT fleet: the ubiquitous-connectivity value proposition.

S2.2(2): LEO satellites promise massive connectivity to delay-tolerant
low-energy IoT devices.  This example provisions a fleet of static
sensors across five continents, registers them once, and then shows
what the stateless core buys them over a day of satellite passes:

* every sensor keeps one geospatial address forever (no TCP resets);
* idle sensors cost ZERO mobility signaling as hundreds of satellites
  sweep overhead;
* waking up to report a reading is a 4-message local exchange with
  whatever satellite happens to be above.

For contrast, the same fleet's per-day signaling under Baoyun-style
logical areas is computed from the same event rates.

Run:  python examples/global_iot_fleet.py
"""

from repro.baselines import baoyun, spacecore
from repro.core import SpaceCoreSystem
from repro.fiveg.messages import ProcedureKind
from repro.orbits import mean_dwell_time_s, starlink

SENSOR_SITES = [
    ("nairobi-farm", -1.29, 36.82),
    ("amazon-gauge", -3.10, -60.02),
    ("texas-pipeline", 31.00, -100.00),
    ("bavaria-grid", 48.14, 11.58),
    ("mekong-buoy", 10.78, 106.70),
    ("outback-weather", -23.70, 133.88),
    ("punjab-irrigation", 30.90, 75.85),
    ("yangtze-sensor", 30.59, 114.31),
]

REPORTS_PER_DAY = 24  # one reading an hour


def main() -> None:
    system = SpaceCoreSystem(starlink())
    dwell = mean_dwell_time_s(system.constellation)
    passes_per_day = 86400.0 / dwell

    print("== Global IoT fleet over SpaceCore ==")
    print(f"{len(SENSOR_SITES)} sensors, {passes_per_day:.0f} satellite "
          f"passes/day each (dwell {dwell:.0f} s)\n")

    sensors = []
    for name, lat, lon in SENSOR_SITES:
        ue = system.provision_ue(lat, lon)
        system.register(ue, 0.0)
        sensors.append((name, ue))
        print(f"  {name:18s} cell {system.cell_of(ue)!s:10s} "
              f"addr {ue.ip_address}")

    # Wake each sensor once: a local 4-message session establishment.
    print("\nHourly wake-up on whichever satellite is overhead:")
    for name, ue in sensors:
        served = system.establish_session(ue, t=0.0)
        sat = system.serving_satellite_of(ue, 0.0)
        print(f"  {name:18s} satellite {sat:4d} installed session, "
              f"key {served.session_key.hex()[:8]}..., "
              f"uplink: {system.send_uplink(ue, 256)}")
        system.release(ue)  # back to sleep; satellite state evaporates

    # Per-day signaling arithmetic: SpaceCore vs a logical-area core.
    sc, by = spacecore(), baoyun()
    sc_flow = len(sc.flow(ProcedureKind.SESSION_ESTABLISHMENT))
    by_flow = len(by.flow(ProcedureKind.SESSION_ESTABLISHMENT))
    by_mobility = len(by.flow(ProcedureKind.MOBILITY_REGISTRATION))

    sc_per_day = REPORTS_PER_DAY * sc_flow
    by_per_day = (REPORTS_PER_DAY * by_flow
                  + passes_per_day * by_mobility)
    print("\nSignaling messages per sensor per day:")
    print(f"  SpaceCore (geospatial areas): {sc_per_day:7.0f}  "
          f"({REPORTS_PER_DAY} wakeups x {sc_flow} msgs, 0 mobility)")
    print(f"  Baoyun    (logical areas)   : {by_per_day:7.0f}  "
          f"({REPORTS_PER_DAY} wakeups x {by_flow} msgs + "
          f"{passes_per_day:.0f} passes x {by_mobility} msgs)")
    print(f"  -> {by_per_day / sc_per_day:.1f}x reduction for an "
          "idle-dominated IoT fleet")

    # Battery angle: radio-on time is what drains IoT sensors.
    print("\nWhy this matters for battery life: every eliminated")
    print("mobility registration is a radio wake-up the sensor skips;")
    print(f"at {passes_per_day:.0f} passes/day the legacy design wakes "
          "the radio every ~2.8 minutes for a device that reports "
          "hourly.")


if __name__ == "__main__":
    main()
