#!/usr/bin/env python3
"""Home-controlled state updates: the 15 GB / 128 Kbps story (S4.4).

A stateless core must not mean the operator loses control.  This
example runs the paper's running policy example end to end:

1. a subscriber with a 15 GB quota registers and gets its signed,
   encrypted state replica;
2. it binge-downloads through a serving satellite, whose local UPF
   *enforces* the current QoS with a token bucket;
3. the satellite reports usage to the home; the home's PCF notices the
   burnt quota, throttles the QoS to 128 Kbps, re-signs, re-encrypts,
   bumps the version, and pushes the new replica to the UE;
4. the next session establishment installs the throttled state -- and
   the satellite's shaper now admits two orders of magnitude less.

Run:  python examples/home_controlled_billing.py
"""

import dataclasses

from repro.core import SpaceCoreSatellite, SpaceCoreHome
from repro.fiveg.procedures import build_state_bundle
from repro.fiveg.qos import QosShaper


def main() -> None:
    print("== Home-controlled billing & QoS ==")
    home = SpaceCoreHome()
    creds = home.enroll_satellite("sat-9")
    satellite = SpaceCoreSatellite("sat-9", creds)

    ue = home.provision_subscriber(1, quota_mb=15_000,
                                   max_bitrate_down_kbps=100_000)
    session = home.register(ue, (1, 1), (1, 1), 0.0)
    print(f"subscriber {ue.supi}")
    print("  quota 15,000 MB, line rate 100 Mbps")
    print(f"  replica v{ue.replica.version} delegated to the device")

    # Localized establishment; the satellite decrypts and installs.
    served = satellite.establish_session_locally(ue, 0.0,
                                                 home.verify_key)
    shaper = QosShaper(served.state.qos)
    rate_before = shaper.achievable_throughput_kbps("down", 2.0)
    print(f"\n[before] satellite enforces "
          f"{served.state.qos.max_bitrate_down_kbps} kbps; achievable "
          f"~{rate_before:.0f} kbps")

    # The subscriber burns through the quota (16 GB of downlink).
    bytes_down = 16_000 * 1_000_000
    print(f"\n[usage] satellite reports {bytes_down / 1e9:.0f} GB "
          "downlink to the home")
    bundle = build_state_bundle(session,
                                home.core.amf.context(ue.supi), (1, 1))
    updated = home.apply_usage_report(ue, bundle, bytes_down)
    print(f"[home] PCF re-evaluates: used "
          f"{updated.billing.used_mb:.0f}/{updated.billing.quota_mb} MB "
          f"-> throttled={updated.billing.throttled}")
    print(f"[home] new QoS {updated.qos.max_bitrate_down_kbps} kbps, "
          f"replica re-signed and re-encrypted as v{updated.version}")

    # Next establishment installs the throttled state.
    satellite.release_session(str(ue.supi))
    served = satellite.establish_session_locally(ue, 10.0,
                                                 home.verify_key)
    shaper = QosShaper(served.state.qos)
    rate_after = shaper.achievable_throughput_kbps("down", 2.0)
    print(f"\n[after] satellite now enforces "
          f"{served.state.qos.max_bitrate_down_kbps} kbps; achievable "
          f"~{rate_after:.0f} kbps "
          f"({rate_before / max(rate_after, 1):.0f}x slower)")

    # And the UE cannot cheat: replaying the old fat replica fails.
    print("\n[cheat attempt] UE replays its pre-throttle replica...")
    old_state = dataclasses.replace(bundle)  # v1 bundle, 100 Mbps QoS
    try:
        ue.store_replica(dataclasses.replace(
            ue.replica, version=old_state.version))
        print("  ERROR: downgrade accepted!")
    except ValueError as exc:
        print(f"  refused by the device proxy: {exc}")
    print("\nOperator control survived statelessness. Done.")


if __name__ == "__main__":
    main()
