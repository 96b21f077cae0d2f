"""The reproduction report: every table and figure, computed once.

``report_sections.SECTION_TITLES`` names each artifact of the
evaluation and titles it, in print order; ``RENDERERS`` maps each name
to the function that computes and renders it.  ``generate_report``
concatenates every section under a header (``python -m repro report``),
and ``python -m repro <name>`` prints one section -- the same bytes it
contributes to the report.  ``artifacts/report.md`` pins the fast
report; ``tests/test_paper_claims.py`` asserts the paper's claims over
that file.

Every value a claim compares prints so that the claim's verdict on the
printed value is its verdict on the computed one; :func:`_exact` keeps
an exact zero, a full delivery rate or an unchanged total from being
imitated by rounding.

Imports a section alone needs stay inside its renderer, so importing
``repro.experiments`` does not pay for them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..baselines import ALL_SOLUTIONS
from ..constants import SATELLITE_CAPACITIES, SATELLITE_CAPACITY
from ..geo import GeospatialCellGrid
from ..orbits import TABLE1, default_ground_stations, mean_dwell_time_s
from ..report_sections import SECTION_TITLES
from ..workload import table2_summary
from .bottleneck import (
    deadline_violation_factor,
    gateway_concentration,
    registration_delay_cdf,
)
from .leakage import fig19_study, final_hijack_leaks
from .relay import (
    batch_path_stretch,
    compare_ideal_vs_j4,
    relay_sweep_stats,
    routing_sweep,
)
from .signaling import reduction_factors, signaling_load
from .userlevel import fig21_comparison

HEADER = ("# SpaceCore reproduction report\n\n"
          "Auto-generated by `python -m repro report`; see EXPERIMENTS.md "
          "for the\npaper-vs-measured commentary.\n")


def _gateways_for(constellation):
    """Gateways scaled to the shell's size.

    Small shells (Iridium) fly far fewer gateways than
    mega-constellations; the signaling asymmetry depends on this.
    """
    count = max(6, constellation.total_satellites // 60)
    return default_ground_stations(min(count, 26))


def _ms(value) -> str:
    """``123.4 ms`` or ``n/a`` -- delay columns carry ``None`` when a
    propagator delivered nothing (JSON ``null``, never ``Infinity``)."""
    return "n/a" if value is None else f"{value:.1f} ms"


def _exact(value: float, spec: str, other: float = 0.0) -> str:
    """``value`` formatted by ``spec``, unless it differs from ``other``
    yet would print as ``other`` does: then it prints in full (``repr``).

    A claim that a printed load is 0, a delivery rate 100% or two
    totals equal then holds exactly when it holds on the computed
    values -- 0.04 ms prints as ``0.04``, never as ``0.0``.
    """
    def parsed(text: str) -> float:
        return float(text.replace(",", ""))

    text = format(value, spec)
    if value != other and parsed(text) == parsed(format(other, spec)):
        return repr(float(value))
    return text


def _table1(fast: bool) -> str:
    lines = ["| shell | sats | altitude | inclination | speed | dwell |\n",
             "|---|---|---|---|---|---|\n"]
    for name, factory in TABLE1.items():
        c = factory()
        lines.append(f"| {name} | {c.total_satellites} "
                     f"| {c.altitude_km:.0f} km | {c.inclination_deg} deg "
                     f"| {c.speed_km_s:.2f} km/s "
                     f"| {mean_dwell_time_s(c):.0f} s |\n")
    return "".join(lines)


def _table2(fast: bool) -> str:
    from ..workload import layer_mix, synthesize
    lines = ["| source | total messages |\n|---|---|\n"]
    for source, _, total in table2_summary():
        lines.append(f"| {source} | {total:,} |\n")
    trace = synthesize("tiantong-sc310", 5000, 3600.0, 1)
    mm = sum(1 for m in trace if m.layer == "MM") / len(trace)
    lines.append(f"\n* synthesized tiantong-sc310 trace (5,000 messages): "
                 f"MM share {mm:.3f} vs dataset "
                 f"{layer_mix('tiantong-sc310')['MM']:.3f}\n")
    return "".join(lines)


def _table3(fast: bool) -> str:
    lines = ["| shell | cells | min km^2 | max km^2 | avg km^2 |\n",
             "|---|---|---|---|---|\n"]
    for name in ("Starlink", "Kuiper", "OneWeb"):
        grid = GeospatialCellGrid(TABLE1[name]())
        stats = grid.cell_size_statistics(samples=6000 if fast else 30000)
        lines.append(f"| {name} | {stats.num_cells} | {stats.min_km2:,.0f} "
                     f"| {stats.max_km2:,.0f} | {stats.avg_km2:,.0f} |\n")
    return "".join(lines)


def _table4(fast: bool) -> str:
    lines = ["| shell | 5G NTN | SkyCore | DPCM | Baoyun |\n",
             "|---|---|---|---|---|\n"]
    for name, factory in TABLE1.items():
        c = factory()
        factors = reduction_factors(c, stations=_gateways_for(c))
        lines.append(f"| {name} | {factors['5G NTN']:.1f}x "
                     f"| {factors['SkyCore']:.1f}x | {factors['DPCM']:.1f}x "
                     f"| {factors['Baoyun']:.1f}x |\n")
    return "".join(lines)


def _fig5(fast: bool) -> str:
    from ..constants import BASEBAND_DEADLINE_S
    conc = gateway_concentration(TABLE1["Starlink"]())
    lines = [f"* busiest gateway: {conc.max_satellites} satellites vs "
             f"{conc.mean_satellites:.1f} mean "
             f"({conc.concentration_factor:.1f}x)\n"]
    for source in ("inmarsat-explorer-710", "tiantong-sc310"):
        cdf = registration_delay_cdf(source)
        mean = sum(d for d, _ in cdf) / len(cdf)
        lines.append(f"* {source}: mean registration delay {mean:.1f} s\n")
    for source in ("inmarsat-explorer-710", "tiantong-sc310"):
        lines.append(f"* {source}: median registration delay "
                     f"{deadline_violation_factor(source):.0f}x the "
                     f"{BASEBAND_DEADLINE_S * 1000:.0f} ms baseband "
                     f"deadline\n")
    return "".join(lines)


def _fig7(fast: bool) -> str:
    from ..hardware import RASPBERRY_PI_4, XEON_WORKSTATION
    from .cpu import FIG7_RATES, fig7_cpu_breakdown
    rpi = fig7_cpu_breakdown(RASPBERRY_PI_4)
    xeon = fig7_cpu_breakdown(XEON_WORKSTATION)
    functions = list(rpi[0].by_function)
    lines = ["| reg/s | hardware 1 | "
             + " | ".join(f"hardware 1 {f}" for f in functions)
             + " | hardware 2 |\n",
             "|---" * (len(functions) + 3) + "|\n"]
    for rate, a, b in zip(FIG7_RATES, rpi, xeon):
        shares = " | ".join(f"{a.by_function[f]:.1f}%" for f in functions)
        lines.append(f"| {rate} | {a.total_percent:.1f}% | {shares} "
                     f"| {b.total_percent:.1f}% |\n")
    return "".join(lines)


def _fig8(fast: bool) -> str:
    from .cpu import FIG8_RATES, fig8_latency_sweep
    points = {(p.platform, p.rate_per_s): p for p in fig8_latency_sweep()}
    platforms = list(dict.fromkeys(platform for platform, _ in points))

    def cell(estimate) -> str:
        flag = " (saturated)" if estimate.saturated else ""
        return f"{estimate.total_s:.3f} s{flag}"

    lines = ["| rate | "
             + " | ".join(f"{p} {kind}" for p in platforms
                          for kind in ("registration", "session"))
             + " |\n",
             "|---" * (2 * len(platforms) + 1) + "|\n"]
    for rate in FIG8_RATES:
        cells = " | ".join(
            f"{cell(points[(p, rate)].registration)} "
            f"| {cell(points[(p, rate)].session)}" for p in platforms)
        lines.append(f"| {rate}/s | {cells} |\n")
    return "".join(lines)


def _fig10(fast: bool) -> str:
    from ..baselines import ALL_OPTIONS
    starlink = TABLE1["Starlink"]()
    stations = _gateways_for(starlink)
    lines = ["| option | capacity | satellite session | satellite mobility "
             "| ground session | ground mobility |\n",
             "|---|---|---|---|---|---|\n"]
    for factory in ALL_OPTIONS:
        for capacity in SATELLITE_CAPACITIES:
            load = signaling_load(factory(), starlink, capacity, stations)
            sat_session, sat_mobility = load.satellite_rows()
            gs_session, gs_mobility = load.ground_rows()
            lines.append(f"| {load.solution} | {capacity:,} "
                         f"| {sat_session:,.0f}/s | {sat_mobility:,.0f}/s "
                         f"| {_exact(gs_session, ',.0f')}/s "
                         f"| {_exact(gs_mobility, ',.0f')}/s |\n")
    return "".join(lines)


def _fig12(fast: bool) -> str:
    from .temporal import load_variation, satellite_ground_track_load
    samples = satellite_ground_track_load(TABLE1["Starlink"](),
                                          SATELLITE_CAPACITY, 120.0)
    lines = ["| t | subpoint | region | signaling | state transmissions |\n",
             "|---|---|---|---|---|\n"]
    for s in samples[::5]:
        lines.append(f"| {s.t_s / 60.0:.0f} min "
                     f"| ({s.lat_deg:+.1f}, {s.lon_deg:+.1f}) | {s.region} "
                     f"| {s.signaling_per_s:,.0f}/s "
                     f"| {s.state_tx_per_s:,.0f}/s |\n")
    peak, trough = load_variation(samples)
    regions = ", ".join(sorted({s.region for s in samples}))
    peak_state = max(s.state_tx_per_s for s in samples)
    lines.append(f"\n* over all {len(samples)} samples: peak "
                 f"{peak:,.0f}/s, trough {trough:,.0f}/s, peak state "
                 f"transmissions {peak_state:,.0f}/s\n")
    lines.append(f"* regions crossed: {regions}\n")
    return "".join(lines)


def _fig13(fast: bool) -> str:
    from ..faults import (
        GilbertElliottChannel,
        procedure_success_probability,
        satellite_decay_series,
    )
    fleet = TABLE1["Starlink"]().total_satellites
    decay = satellite_decay_series(fleet, 24)
    fer = GilbertElliottChannel(seed=11).series(1200)
    failed = decay[-1].accumulated
    long_flow = procedure_success_probability(18, 0.05)
    short_flow = procedure_success_probability(4, 0.05)
    return (f"* 13a accumulated failures by month ({fleet:,} satellites): "
            + " ".join(str(s.accumulated) for s in decay) + "\n"
            + f"* 13a after {len(decay)} months: {failed} of {fleet:,} "
            f"failed ({failed / fleet * 100:.1f}%)\n"
            f"* 13b Gilbert-Elliott frame error rate over {len(fer):,} s: "
            f"peak {max(fer) * 100:.1f}%, floor {min(fer) * 100:.2f}%\n"
            f"* at 5% message loss an 18-message procedure survives "
            f"{long_flow * 100:.1f}%, a 4-message one "
            f"{short_flow * 100:.1f}%\n")


def _fig17(fast: bool) -> str:
    from .prototype import fig17_sweep
    rates = (100, 300, 500)
    grid: Dict[Tuple[str, str], List[str]] = {}
    for p in fig17_sweep(rates):
        grid.setdefault((p.procedure.value, p.solution), []).append(
            f"{_exact(p.latency_s * 1000, '.1f')} ms, "
            f"{_exact(p.satellite_cpu_percent, '.1f')}% "
            f"CPU{', saturated' if p.saturated else ''}")
    lines = ["| procedure | solution | "
             + " | ".join(f"@{rate}/s" for rate in rates) + " |\n",
             "|---|---|" + "---|" * len(rates) + "\n"]
    # A stable sort by procedure keeps ALL_SOLUTIONS order within each.
    for (procedure, solution), cells in sorted(grid.items(),
                                               key=lambda kv: kv[0][0]):
        lines.append(f"| {procedure} | {solution} | {' | '.join(cells)} |\n")
    return "".join(lines)


def _fig18b(fast: bool) -> str:
    def delivery(rate: float) -> str:
        return _exact(rate * 100, ".0f", 100.0) + "%"

    lines = ["| shell | ideal | J4 | ideal delivery | J4 delivery |\n",
             "|---|---|---|---|---|\n"]
    for name, factory in TABLE1.items():
        row = compare_ideal_vs_j4(factory(), samples=8 if fast else 24)
        lines.append(f"| {name} | {_ms(row.mean_delay_ideal_ms)} "
                     f"| {_ms(row.mean_delay_j4_ms)} "
                     f"| {delivery(row.delivery_rate_ideal)} "
                     f"| {delivery(row.delivery_rate_j4)} |\n")
    return "".join(lines)


def _packet_burst() -> str:
    """A Beijing->New York burst through the packet-level simulator:
    Algorithm 1 paths plus per-link queueing and serialisation."""
    from ..orbits import IdealPropagator, serving_satellite
    from ..sim import PacketSimulation
    from ..topology import GridTopology
    from .relay import BEIJING, NEW_YORK
    packets = 100
    topology = GridTopology(IdealPropagator(TABLE1["Starlink"]()), [])
    src = serving_satellite(topology.propagator, 0.0, *BEIJING)
    sim = PacketSimulation(topology)
    sim.send_batch([src] * packets, [NEW_YORK[0]] * packets,
                   [NEW_YORK[1]] * packets)
    sim.run()
    low, mean, high = sim.latency_stats()
    return (f"* packet-level forwarding (Starlink, {packets}-packet "
            f"Beijing->New York burst): {len(sim.delivered())}/{packets} "
            f"delivered, latency {low * 1000:.1f} / {mean * 1000:.1f} / "
            f"{high * 1000:.1f} ms min/mean/max\n")


def _routing(fast: bool) -> str:
    lines = ["| shell | delivered | degraded | mean delay | mean hops "
             "| fallbacks |\n|---|---|---|---|---|---|\n"]
    for name, factory in TABLE1.items():
        sweep = routing_sweep(factory(), packets=2000 if fast else 10000)
        lines.append(f"| {name} | {sweep.delivered_fraction * 100:.1f}% "
                     f"| {sweep.degraded_fraction * 100:.1f}% "
                     f"| {sweep.mean_delay_ms:.1f} ms | {sweep.mean_hops:.1f} "
                     f"| {sweep.scalar_fallbacks} |\n")
    stretch = batch_path_stretch(TABLE1["Starlink"](),
                                 pairs=32 if fast else 128)
    lines.append(f"\n* mean delay stretch over the Dijkstra optimum "
                 f"(Starlink): {stretch:.2f}x\n")
    lines.append(_packet_burst())
    lines.append("\n### Epoch sweep (Fig. 18b relay through route_sweep)\n\n"
                 "| shell | epochs | delivered | mean delay | mean hops "
                 "| table builds | fallbacks |\n|---|---|---|---|---|---|---|\n")
    for name in ("Starlink", "Iridium"):
        stats = relay_sweep_stats(TABLE1[name](), samples=8 if fast else 24)
        lines.append(f"| {name} | {stats.epochs} "
                     f"| {stats.delivered}/{stats.routed} "
                     f"| {_ms(stats.mean_delay_ms)} | {stats.mean_hops:.1f} "
                     f"| {stats.table_builds} | {stats.scalar_fallbacks} |\n")
    return "".join(lines)


def _fig19(fast: bool) -> str:
    study = fig19_study(TABLE1["Starlink"]())
    lines = ["| solution | hijack (50 min) | hijack (100 min) | MITM rate |\n"
             "|---|---|---|---|\n"]
    finals = final_hijack_leaks(study)
    for name in sorted(finals, key=lambda n: finals[n]):
        series = study.hijack_series[name]
        half, full = series[len(series) // 2][1], finals[name]
        lines.append(f"| {name} | {_exact(half, '.2e', full)} "
                     f"| {_exact(full, '.2e', half)} "
                     f"| {study.mitm_rates[name]:.1f}/s |\n")
    return "".join(lines)


def _fig20(fast: bool) -> str:
    lines = ["| solution | satellite | ground station |\n|---|---|---|\n"]
    starlink = TABLE1["Starlink"]()
    stations = _gateways_for(starlink)
    for factory in ALL_SOLUTIONS:
        load = signaling_load(factory(), starlink, SATELLITE_CAPACITY,
                              stations)
        lines.append(f"| {load.solution} "
                     f"| {load.satellite_hotspot_per_s:,.0f}/s "
                     f"| {_exact(load.ground_station_per_s, ',.0f')}/s |\n")
    lines.append("\n### Fig. 20 - other shells (30K)\n\n"
                 "| shell | solution | satellite | ground station |\n"
                 "|---|---|---|---|\n")
    for name in ("OneWeb", "Kuiper", "Iridium"):
        shell = TABLE1[name]()
        stations = _gateways_for(shell)
        for factory in ALL_SOLUTIONS:
            load = signaling_load(factory(), shell, SATELLITE_CAPACITY,
                                  stations)
            lines.append(f"| {name} | {load.solution} "
                         f"| {load.satellite_hotspot_per_s:,.0f}/s "
                         f"| {_exact(load.ground_station_per_s, ',.0f')}/s "
                         f"|\n")
    return "".join(lines)


def _fig21(fast: bool) -> str:
    lines = ["| solution | outage | tcp stall | ping stall | fate |\n"
             "|---|---|---|---|---|\n"]
    for result in sorted(fig21_comparison(), key=lambda r: r.tcp_stall_s):
        fate = "reset" if result.connection_reset else "survives"
        lines.append(f"| {result.solution} | {result.outage_s * 1000:.1f} ms "
                     f"| {result.tcp_stall_s:.2f} s "
                     f"| {result.ping_stall_s:.2f} s | {fate} |\n")
    return "".join(lines)


def _fig11(fast: bool) -> str:
    from .moving_areas import fig11_comparison
    lines = ["| definition | distinct areas | changes/h |\n|---|---|---|\n"]
    for row in fig11_comparison(TABLE1["Starlink"](), duration_s=1800.0):
        lines.append(f"| {row.definition} | {row.distinct_areas} "
                     f"| {_exact(row.changes_per_hour, '.1f')} |\n")
    return "".join(lines)


def _robustness(fast: bool) -> str:
    from .sensitivity import (
        constellation_scaling,
        sensitivity_sweep,
        worst_case_reduction,
    )
    from .state_footprint import footprint_comparison
    points = sensitivity_sweep(TABLE1["Starlink"]())
    footprints = footprint_comparison()
    sky = next(f for f in footprints if f.solution == "SkyCore")
    sc = next(f for f in footprints if f.solution == "SpaceCore")
    scaling = ", ".join(f"{p.total_satellites} sats "
                        f"{p.reduction_vs_ntn:.1f}x"
                        for p in constellation_scaling())
    return (f"* worst-case Table 4 reduction under hops/gateway/capacity "
            f"perturbation: {worst_case_reduction(points):.1f}x\n"
            f"* on-board state: SkyCore {sky.stored_megabytes:,.0f} MB "
            f"durable vs SpaceCore {sc.stored_megabytes:.1f} MB ephemeral\n"
            f"* reduction vs 5G NTN by shell size: {scaling}\n")


def _design(fast: bool) -> str:
    from ..baselines import SPACECORE_CRYPTO_OVERHEAD_S
    from ..core.paging import geospatial_cell_cost, legacy_tracking_area_cost
    from ..fiveg.messages import (
        SESSION_ESTABLISHMENT_FLOW,
        SPACECORE_SESSION_ESTABLISHMENT_FLOW,
    )
    from ..fiveg.nf.udsf import compare_state_retrieval
    from ..orbits import Constellation, IdealPropagator
    from ..topology import GridTopology, compare_concentration
    from .availability import availability_sweep
    from .prototype import GROUND_RTT_S

    starlink = TABLE1["Starlink"]()
    isl = compare_concentration(
        GridTopology(IdealPropagator(starlink), default_ground_stations()),
        top_satellites=12)
    legacy = legacy_tracking_area_cost(starlink)
    cell = geospatial_cell_cost(GeospatialCellGrid(starlink))
    legacy_flow = SESSION_ESTABLISHMENT_FLOW
    local_flow = SPACECORE_SESSION_ESTABLISHMENT_FLOW
    udsf_s, device_s = compare_state_retrieval(
        udsf_rtt_s=GROUND_RTT_S, local_crypto_s=SPACECORE_CRYPTO_OVERHEAD_S)
    granularity = []
    for planes, slots in ((6, 11), (24, 22), (72, 22)):
        shell = Constellation("ablation", slots, planes, 550.0, 53.0)
        stats = GeospatialCellGrid(shell).cell_size_statistics(samples=6000)
        granularity.append(f"{shell.total_satellites} sats "
                           f"{stats.avg_km2:,.0f}")
    lines = [
        f"* ISL load (Starlink, gravity demand): gateway-routed peak/mean "
        f"{isl.gateway_peak_to_mean:.2f}, Gini {isl.gateway_gini:.2f}; "
        f"peer-to-peer peak/mean {isl.peer_peak_to_mean:.2f}, Gini "
        f"{isl.peer_gini:.2f}\n",
        f"* paging (Starlink): tracking area pages "
        f"{legacy.transmitting_satellites:.1f} satellites over "
        f"{legacy.paged_area_km2 / 1e6:.1f}M km^2, geospatial cell pages "
        f"{cell.transmitting_satellites:.1f} over "
        f"{cell.paged_area_km2 / 1e6:.1f}M km^2\n",
        f"* piggybacked replica: session establishment "
        f"{len(legacy_flow)} -> {len(local_flow)} messages, "
        f"{sum(m.size_bytes for m in legacy_flow):,} -> "
        f"{sum(m.size_bytes for m in local_flow):,} bytes\n",
        f"* state retrieval: ground UDSF {udsf_s * 1000:.1f} ms vs device "
        f"replica {device_s * 1000:.1f} ms\n",
        f"* average cell (550 km, 53 deg) by grid density, km^2: "
        f"{', '.join(granularity)}\n",
        "\n| satellite failures | SpaceCore availability "
        "| 5G NTN availability |\n|---|---|---|\n",
    ]
    by_level: Dict[float, Dict[str, float]] = {}
    for p in availability_sweep(starlink,
                                failure_fractions=(0.0, 0.05, 0.1, 0.2)):
        by_level.setdefault(p.failure_fraction, {})[p.solution] = \
            p.availability
    for level, values in by_level.items():
        lines.append(f"| {level * 100:.0f}% | {values['SpaceCore'] * 100:.1f}% "
                     f"| {values['5G NTN'] * 100:.1f}% |\n")
    return "".join(lines)


#: Section name -> renderer; ``SECTION_TITLES`` titles and orders them.
RENDERERS: Dict[str, Callable[[bool], str]] = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "fig5": _fig5,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig10": _fig10,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig17": _fig17,
    "fig18b": _fig18b,
    "routing": _routing,
    "fig19": _fig19,
    "fig20": _fig20,
    "fig21": _fig21,
    "fig11": _fig11,
    "robustness": _robustness,
    "design": _design,
}


def render_section(name: str, fast: bool = True) -> str:
    """One section's bytes, exactly as :func:`generate_report` prints it."""
    return f"\n## {SECTION_TITLES[name]}\n\n" + RENDERERS[name](fast)


def generate_report(fast: bool = True) -> str:
    """Compute and render the full reproduction report.

    ``fast`` trims sampling (fewer Monte Carlo cell samples, relay
    epochs and routed packets) so the report builds in about a second.
    """
    return HEADER + "".join(render_section(name, fast)
                            for name in SECTION_TITLES)

