#!/usr/bin/env python3
"""Dataset replay: Trace 1 and the Table 2 workload on satellite CPUs.

Reconstructs the paper's measurement methodology (S3, S6): replay the
operational signaling datasets against the satellite hardware model.

1. print a Trace 1-style session-establishment timeline for the
   Inmarsat Explorer 710 and contrast it with SpaceCore's localized
   establishment;
2. replay a slice of the Tiantong SC310 dataset (Table 2 mix) through
   the Raspberry Pi 4 cost model and chart the CPU series.

Run:  python examples/dataset_replay.py
"""

from repro.baselines import spacecore
from repro.experiments import solution_latency_s
from repro.fiveg.messages import ProcedureKind
from repro.workload import (
    replay_cpu_series,
    timeline_duration_s,
    trace1_timeline,
)


def main() -> None:
    print("== Dataset replay ==")

    # 1. Trace 1: what a GEO terminal goes through for one session.
    timeline = trace1_timeline(seed=7)
    print("\nTrace 1 -- session establishment, Inmarsat Explorer 710:")
    for event in timeline:
        print(f"  +{event.t_s:7.3f}s  {event.layer:5s} {event.text}")
    duration = timeline_duration_s(timeline)
    spacecore_latency, _ = solution_latency_s(
        spacecore(), ProcedureKind.SESSION_ESTABLISHMENT, 100)
    print(f"\n  total: {duration:.1f} s through the remote gateway")
    print(f"  SpaceCore's localized establishment: "
          f"{spacecore_latency * 1000:.1f} ms "
          f"({duration / spacecore_latency:,.0f}x faster)")

    # 2. Table 2 replay on satellite hardware.
    print("\nTiantong SC310 replay on hardware 1 (RPi 4), "
          "20k messages / 10 min:")
    series = replay_cpu_series("tiantong-sc310", 20_000, window_s=60.0)
    for sample in series:
        bar = "#" * int(sample.cpu_percent)
        print(f"  t={sample.window_start_s:5.0f}s "
              f"{sample.messages:5d} msgs "
              f"cpu={sample.cpu_percent:5.1f}% {bar}")
    mean_cpu = sum(s.cpu_percent for s in series) / len(series)
    print(f"\n  mean CPU {mean_cpu:.1f}% -- one terminal's chatter is "
          "cheap; the storm comes from thousands of UEs per satellite "
          "(see `python -m repro fig10`).")


if __name__ == "__main__":
    main()
