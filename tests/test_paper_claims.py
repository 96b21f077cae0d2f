"""The paper's claims, asserted over the pinned report.

``artifacts/report.md`` is what ``python -m repro report`` prints, byte
for byte (``tests/test_report.py`` holds it there).  Each claim below
reads the numbers it needs from that file's tables and bullets --
nothing is recomputed here -- and states one result of the paper's
evaluation: who wins, by roughly what factor, where the crossovers
fall.  ``tests/test_report.py`` runs the same claims over the
``--full`` report, so no claim holds only at the fast sampling.

The report prints every value a claim compares with enough digits that
the claim gives the same verdict on the printed value as on the
computed one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Set, Tuple

import pytest

#: The pinned ``repro report`` output.  Re-bless with
#: ``python -m repro report --output artifacts/report.md``.
GOLDEN = Path(__file__).resolve().parents[1] / "artifacts" / "report.md"

#: The prose write-up that quotes the golden's measured values.
EXPERIMENTS = GOLDEN.parents[1] / "EXPERIMENTS.md"

#: The paper's Table 2 message totals per dataset.
PAPER_TABLE2 = {
    "inmarsat-explorer-710": 971_120,
    "tiantong-sc310": 2_106_916,
    "tiantong-t900": 4_279_736,
    "china-telecom": 3_857_732,
    "china-unicom": 1_491_534,
    "china-mobile": 8_480_488,
}

# Tables 3 and 4 of the paper, the only copy in this repository.  This
# is the transcription the retired table benchmarks carried; the paper
# is not in the checkout, so it is unverified offline.  EXPERIMENTS.md
# quotes these values.

#: Paper's Table 3: (min, max, avg) cell footprint in km^2.
PAPER_TABLE3: Dict[str, Tuple[float, float, float]] = {
    "Starlink": (93_382, 1_616_366, 471_476),
    "Kuiper": (116_716, 1_685_950, 526_697),
    "OneWeb": (336_294, 4_508_080, 1_573_215),
}

#: Paper's Table 4: SpaceCore's satellite signaling reduction factor.
PAPER_TABLE4: Dict[str, Dict[str, float]] = {
    "Starlink": {"5G NTN": 122.2, "SkyCore": 17.5, "DPCM": 40.3,
                 "Baoyun": 49.3},
    "Kuiper": {"5G NTN": 87.7, "SkyCore": 19.3, "DPCM": 33.8,
               "Baoyun": 42.8},
    "OneWeb": {"5G NTN": 49.8, "SkyCore": 20.1, "DPCM": 6.8,
               "Baoyun": 25.8},
    "Iridium": {"5G NTN": 34.5, "SkyCore": 25.8, "DPCM": 7.7,
                "Baoyun": 16.7},
}

BASELINES = ("5G NTN", "SkyCore", "DPCM", "Baoyun")
SOLUTIONS = ("SpaceCore",) + BASELINES
MEGA_SHELLS = ("Starlink", "Kuiper", "OneWeb")

Row = Dict[str, str]


@dataclass
class Section:
    """One ``## `` section: its tables (``### `` starts another) and
    its bullet lines."""

    tables: List[List[Row]] = field(default_factory=list)
    bullets: List[str] = field(default_factory=list)


#: Sections keyed by their title up to `` - ``: ``"Table 4"``,
#: ``"Fig. 18b"``, ``"Robustness"``.
Report = Dict[str, Section]


def parse_report(text: str) -> Report:
    """Split a rendered report into sections of tables and bullets."""
    report: Report = {}
    section = Section()
    header: List[str] = []
    for line in text.splitlines():
        if line.startswith("## "):
            section = report.setdefault(line[3:].split(" - ")[0], Section())
            header = []
        elif line.startswith("* "):
            section.bullets.append(line[2:])
        elif line.startswith("|"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if not header:
                header = cells
                section.tables.append([])
            elif set("".join(cells)) != {"-"}:
                section.tables[-1].append(dict(zip(header, cells)))
        else:
            header = []
    return report


NUMBER = re.compile(r"-?\d[\d,]*(?:\.\d+)?(?:e[+-]?\d+)?")


def num(text: str) -> float:
    """The first number in a cell: ``1,266/s`` -> 1266, ``1.61e+04``."""
    match = NUMBER.search(text)
    assert match is not None, f"no number in {text!r}"
    return float(match.group().replace(",", ""))


def grab(text: str, pattern: str) -> List[float]:
    """The numbers ``pattern``'s groups capture in ``text``."""
    match = re.search(pattern, text)
    assert match is not None, f"{pattern!r} not in {text!r}"
    return [float(group.replace(",", "")) for group in match.groups()]


def table(report: Report, key: str, index: int = 0) -> List[Row]:
    return report[key].tables[index]


def keyed(rows: List[Row], column: str) -> Dict[str, Row]:
    return {row[column]: row for row in rows}


def bullet(report: Report, key: str, start: str) -> str:
    matches = [b for b in report[key].bullets if b.startswith(start)]
    assert len(matches) == 1, (key, start, report[key].bullets)
    return matches[0]


Claim = Callable[[Report], None]
CLAIMS: Dict[str, Claim] = {}


def claim(claim_id: str) -> Callable[[Claim], Claim]:
    """Register a claim under its id (the test id it runs as)."""
    def register(check: Claim) -> Claim:
        CLAIMS[claim_id] = check
        return check
    return register


# -- Tables ------------------------------------------------------------------

@claim("table1-paper-shells")
def _table1(report: Report) -> None:
    rows = keyed(table(report, "Table 1"), "shell")
    sats = {name: num(row["sats"]) for name, row in rows.items()}
    assert sats == {"Starlink": 1584, "OneWeb": 720, "Kuiper": 1156,
                    "Iridium": 66}
    assert num(rows["Starlink"]["speed"]) == pytest.approx(7.6, abs=0.05)
    # S3.2: the serving satellite changes every ~165.8 s.
    assert num(rows["Starlink"]["dwell"]) == pytest.approx(165.8, rel=0.05)


@claim("table2-totals-verbatim")
def _table2_totals(report: Report) -> None:
    rows = keyed(table(report, "Table 2"), "source")
    assert {source: int(num(row["total messages"]))
            for source, row in rows.items()} == PAPER_TABLE2


@claim("table2-synthesized-mix")
def _table2_mix(report: Report) -> None:
    synthesized, dataset = grab(
        bullet(report, "Table 2", "synthesized"),
        r"MM share ([\d.]+) vs dataset ([\d.]+)")
    assert abs(synthesized - dataset) < 0.02


@claim("table3-cell-class")
def _table3_class(report: Report) -> None:
    for row in table(report, "Table 3"):
        # Cells are 1e5-1e6 km^2 (UE crossings rare), with a wide spread.
        assert 1e5 < num(row["avg km^2"]) < 3e6, row
        assert num(row["max km^2"]) / num(row["min km^2"]) > 5.0, row


@claim("table3-sparser-shell-bigger-cells")
def _table3_order(report: Report) -> None:
    rows = keyed(table(report, "Table 3"), "shell")
    assert num(rows["OneWeb"]["avg km^2"]) > num(rows["Starlink"]["avg km^2"])


@claim("table3-same-class-as-paper")
def _table3_paper(report: Report) -> None:
    for name, row in keyed(table(report, "Table 3"), "shell").items():
        ratio = num(row["avg km^2"]) / PAPER_TABLE3[name][2]
        assert 1 / 3 < ratio < 3, (name, ratio)


def _table4(report: Report) -> Dict[str, Dict[str, float]]:
    return {row["shell"]: {base: num(row[base]) for base in BASELINES}
            for row in table(report, "Table 4")}


@claim("table4-spacecore-wins-everywhere")
def _table4_wins(report: Report) -> None:
    for name, factors in _table4(report).items():
        for base, factor in factors.items():
            assert factor > 5.0, (name, base, factor)


@claim("table4-starlink-order-of-magnitude")
def _table4_headline(report: Report) -> None:
    assert _table4(report)["Starlink"]["5G NTN"] > 30.0


@claim("table4-mega-ntn-worst-skycore-least-bad")
def _table4_ordering(report: Report) -> None:
    rows = _table4(report)
    for name in MEGA_SHELLS:
        assert rows[name]["5G NTN"] == max(rows[name].values()), name
        assert rows[name]["SkyCore"] == min(rows[name].values()), name


@claim("table4-reduction-shrinks-with-shell")
def _table4_trend(report: Report) -> None:
    rows = _table4(report)
    assert rows["Starlink"]["5G NTN"] > rows["Iridium"]["5G NTN"]


@claim("table4-dpcm-baoyun-order-as-paper")
def _table4_dpcm_baoyun(report: Report) -> None:
    for name, factors in _table4(report).items():
        paper = PAPER_TABLE4[name]
        assert ((factors["DPCM"] < factors["Baoyun"])
                == (paper["DPCM"] < paper["Baoyun"])), name


@claim("table4-four-cells-outside-2x-of-paper")
def _table4_paper(report: Report) -> None:
    outside: Set[Tuple[str, str]] = set()
    for name, factors in _table4(report).items():
        for base, factor in factors.items():
            paper = PAPER_TABLE4[name][base]
            if max(factor / paper, paper / factor) > 2.0:
                outside.add((name, base))
    assert outside == {("Starlink", "5G NTN"), ("Iridium", "5G NTN"),
                       ("Iridium", "SkyCore"), ("OneWeb", "DPCM")}


# -- Figs. 5-13 --------------------------------------------------------------

@claim("fig5a-gateway-concentration")
def _fig5a(report: Report) -> None:
    busiest = bullet(report, "Fig. 5", "busiest gateway")
    assert grab(busiest, r"\(([\d.]+)x\)")[0] > 2.0


@claim("fig5b-registration-delays")
def _fig5b(report: Report) -> None:
    pattern = r"mean registration delay ([\d.]+) s"
    inmarsat = grab(bullet(report, "Fig. 5", "inmarsat-explorer-710: mean"),
                    pattern)[0]
    tiantong = grab(bullet(report, "Fig. 5", "tiantong-sc310: mean"),
                    pattern)[0]
    # Paper: 9.5 s and 13.5 s average registration delays.
    assert inmarsat == pytest.approx(9.5, rel=0.1)
    assert tiantong == pytest.approx(13.5, rel=0.1)
    assert tiantong > inmarsat


@claim("fig5-deadline-gap")
def _fig5_deadline(report: Report) -> None:
    # S2.2: seconds-scale registration cannot meet <10 ms deadlines.
    for source in ("inmarsat-explorer-710", "tiantong-sc310"):
        line = bullet(report, "Fig. 5", f"{source}: median")
        assert grab(line, r"delay ([\d.]+)x")[0] > 100, line


def _fig7(report: Report) -> Tuple[List[Row], List[float], List[float]]:
    rows = table(report, "Fig. 7")
    return (rows, [num(r["hardware 1"]) for r in rows],
            [num(r["hardware 2"]) for r in rows])


@claim("fig7a-hardware1-approaches-exhaustion")
def _fig7a(report: Report) -> None:
    rows, rpi, _ = _fig7(report)
    assert rpi == sorted(rpi)
    assert rpi[-1] > 60.0
    # AMF and AUSF are major consumers during registrations.
    assert num(rows[-1]["hardware 1 AMF"]) > 0
    assert num(rows[-1]["hardware 1 AUSF"]) > 0


@claim("fig7b-hardware2-runs-cooler")
def _fig7b(report: Report) -> None:
    _, rpi, xeon = _fig7(report)
    assert xeon[-1] < rpi[-1] / 3


def _fig8(report: Report, column: str) -> List[float]:
    return [num(row[column]) for row in table(report, "Fig. 8")]


@claim("fig8a-hardware1-latency-grows")
def _fig8a(report: Report) -> None:
    rpi = _fig8(report, "hardware-1-rpi4 registration")
    assert rpi == sorted(rpi)
    assert rpi[-1] > 1.0


@claim("fig8a-hardware2-stays-flat")
def _fig8a_xeon(report: Report) -> None:
    rpi = _fig8(report, "hardware-1-rpi4 registration")
    xeon = _fig8(report, "hardware-2-xeon registration")
    assert xeon[-1] < rpi[-1]
    assert all(r >= x for r, x in zip(rpi, xeon))


@claim("fig8b-sessions-cost-less")
def _fig8b(report: Report) -> None:
    registration = _fig8(report, "hardware-1-rpi4 registration")
    session = _fig8(report, "hardware-1-rpi4 session")
    assert session[0] <= registration[0] * 2


def _fig10(report: Report, option: str, capacity: int = 30_000) -> Row:
    return next(row for row in table(report, "Fig. 10")
                if row["option"].startswith(option)
                and num(row["capacity"]) == capacity)


@claim("fig10-session-storms")
def _fig10_storm(report: Report) -> None:
    # S3.1: 1e3-1e5 session signalings per satellite for remote cores.
    assert 1e3 < num(_fig10(report, "Option 1")["satellite session"]) < 3e5


@claim("fig10-ground-stations-aggregate")
def _fig10_ground(report: Report) -> None:
    row = _fig10(report, "Option 1")
    ground = num(row["ground session"]) + num(row["ground mobility"])
    satellite = num(row["satellite session"]) + num(row["satellite mobility"])
    assert ground > satellite


@claim("fig10-option4-spares-ground-stations")
def _fig10_option4(report: Report) -> None:
    for row in table(report, "Fig. 10"):
        if row["option"].startswith("Option 4"):
            assert num(row["ground session"]) == 0.0, row
            assert num(row["ground mobility"]) == 0.0, row


@claim("fig10-option3-adds-mobility-registrations")
def _fig10_mobility(report: Report) -> None:
    option1 = num(_fig10(report, "Option 1")["satellite mobility"])
    option3 = num(_fig10(report, "Option 3")["satellite mobility"])
    assert option3 > option1 > 0


@claim("fig10-load-scales-with-capacity")
def _fig10_capacity(report: Report) -> None:
    series: Dict[str, List[float]] = {}
    for row in table(report, "Fig. 10"):
        series.setdefault(row["option"], []).append(
            num(row["satellite session"]) + num(row["satellite mobility"]))
    assert len(series) == 4
    for loads in series.values():
        assert len(loads) == 4 and loads == sorted(loads)


@claim("fig12-bursty-ground-track")
def _fig12(report: Report) -> None:
    peak, trough, state = grab(
        bullet(report, "Fig. 12", "over all"),
        r"peak ([\d,]+)/s, trough ([\d,]+)/s, peak state transmissions "
        r"([\d,]+)/s")
    # Load collapses over oceans and spikes over populated continents.
    assert peak > 0
    assert trough < peak / 5
    # State transmissions track signaling (Fig. 12's right panel).
    assert state > 0
    regions = bullet(report, "Fig. 12", "regions crossed: ")
    assert len(regions.split(": ")[1].split(", ")) >= 2


@claim("fig13a-one-in-forty-fail")
def _fig13a(report: Report) -> None:
    line = bullet(report, "Fig. 13", "13a accumulated")
    accumulated = [int(v) for v in line.split(": ")[1].split()]
    assert accumulated == sorted(accumulated)
    failed, fleet = grab(bullet(report, "Fig. 13", "13a after"),
                         r": (\d+) of ([\d,]+) failed")
    assert failed == accumulated[-1]
    assert failed / fleet == pytest.approx(1 / 40, rel=0.5)


@claim("fig13b-bursty-frame-errors")
def _fig13b(report: Report) -> None:
    peak, floor = grab(bullet(report, "Fig. 13", "13b"),
                       r"peak ([\d.]+)%, floor ([\d.]+)%")
    # Bursts reach tens of percent; the quiescent FER is near zero.
    assert peak > 30.0
    assert floor < 1.0


@claim("fig13-long-procedures-are-fragile")
def _fig13_fragility(report: Report) -> None:
    # S3.3: any signaling loss can block the whole procedure.
    long_flow, short_flow = grab(
        bullet(report, "Fig. 13", "at 5% message loss"),
        r"18-message procedure survives ([\d.]+)%, a 4-message one "
        r"([\d.]+)%")
    assert long_flow < short_flow


# -- Fig. 17 -----------------------------------------------------------------

FIG17_CELL = rf"({NUMBER.pattern}) ms, ({NUMBER.pattern})% CPU(, saturated)?"


def _fig17(report: Report, procedure: str, solution: str,
           rate: int) -> Tuple[float, float, bool]:
    """(latency ms, satellite CPU %, saturated) of one Fig. 17 cell."""
    row = next(r for r in table(report, "Fig. 17")
               if r["procedure"] == procedure and r["solution"] == solution)
    match = re.fullmatch(FIG17_CELL, row[f"@{rate}/s"])
    assert match is not None, row
    return num(match.group(1)), num(match.group(2)), match.group(3) is not None


@claim("fig17-grid")
def _fig17_grid(report: Report) -> None:
    rows = table(report, "Fig. 17")
    assert {(r["procedure"], r["solution"]) for r in rows} == {
        (p, s) for p in ("C1", "C2", "C4") for s in SOLUTIONS}
    for row in rows:
        assert [c for c in row if c.startswith("@")] == [
            "@100/s", "@300/s", "@500/s"]


@claim("fig17a-skycore-registers-fastest")
def _fig17a_skycore(report: Report) -> None:
    # SkyCore pre-stores state, so its C1 is local.
    latency = {s: _fig17(report, "C1", s, 300)[0] for s in SOLUTIONS}
    assert latency["SkyCore"] == min(latency.values())


@claim("fig17a-onboard-cores-saturate")
def _fig17a_baoyun(report: Report) -> None:
    # Baoyun's on-board open5gs melts near 500 registrations/s.
    baoyun = _fig17(report, "C1", "Baoyun", 500)
    assert baoyun[2]
    assert baoyun[0] > _fig17(report, "C1", "SpaceCore", 500)[0]


@claim("fig17a-spacecore-cpu-negligible")
def _fig17a_cpu(report: Report) -> None:
    assert _fig17(report, "C1", "SpaceCore", 300)[1] < 10.0


@claim("fig17b-spacecore-session-beats-home-routed")
def _fig17b(report: Report) -> None:
    spacecore = _fig17(report, "C2", "SpaceCore", 300)[0]
    for other in ("5G NTN", "Baoyun"):
        assert spacecore < _fig17(report, "C2", other, 300)[0], other


@claim("fig17c-spacecore-eliminates-mobility-registration")
def _fig17c(report: Report) -> None:
    for rate in (100, 300, 500):
        assert _fig17(report, "C4", "SpaceCore", rate) == (0.0, 0.0, False)
    for other in BASELINES:
        assert _fig17(report, "C4", other, 500)[0] > 0.0, other


# -- Fig. 18b and the routing plane ------------------------------------------

@claim("fig18b-delivery-guaranteed")
def _fig18b_delivery(report: Report) -> None:
    # "Under both ideal and realistic orbits, Algorithm 1 guarantees
    # traffic delivery."
    for row in table(report, "Fig. 18b"):
        assert num(row["ideal delivery"]) == 100.0, row
        assert num(row["J4 delivery"]) == 100.0, row


@claim("fig18b-delays-similar")
def _fig18b_delays(report: Report) -> None:
    for row in table(report, "Fig. 18b"):
        ideal, j4 = num(row["ideal"]), num(row["J4"])
        assert abs(j4 - ideal) < 25.0, row
        # Beijing->New York one way over LEO: tens of milliseconds.
        assert 25.0 < ideal < 150.0, row


@claim("routing-stretch-near-optimal")
def _routing_stretch(report: Report) -> None:
    # Algorithm 1 pays a small stretch for carrying zero state; against
    # Dijkstra to the same landing satellite it can never beat 1.
    stretch = grab(
        bullet(report, "Algorithm 1 batch routing plane", "mean delay"),
        r"([\d.]+)x")[0]
    assert 1.0 <= stretch < 1.7


@claim("routing-packet-burst-delivered")
def _routing_packets(report: Report) -> None:
    # Hop-by-hop forwarding with egress queues delivers the whole burst
    # in the tens of milliseconds Fig. 18b plots.
    delivered, sent, low, mean, high = grab(
        bullet(report, "Algorithm 1 batch routing plane", "packet-level"),
        r"(\d+)/(\d+) delivered, latency ([\d.]+) / ([\d.]+) / ([\d.]+) ms")
    assert delivered == sent
    assert 20.0 < low <= mean <= high < 200.0


# -- Figs. 19-21 and 11 ------------------------------------------------------

def _fig19(report: Report, column: str) -> Dict[str, float]:
    return {row["solution"]: num(row[column])
            for row in table(report, "Fig. 19")}


@claim("fig19a-skycore-leaks-catastrophically")
def _fig19a_skycore(report: Report) -> None:
    leaks = _fig19(report, "hijack (100 min)")
    # SkyCore's pre-provisioned vectors: the paper's 1e8 axis.
    assert leaks["SkyCore"] > 1e7
    assert leaks["SkyCore"] == max(leaks.values())
    assert leaks["SkyCore"] / leaks["SpaceCore"] > 1e3


@claim("fig19a-spacecore-leaks-least")
def _fig19a_spacecore(report: Report) -> None:
    leaks = _fig19(report, "hijack (100 min)")
    assert leaks["SpaceCore"] == min(leaks.values())


@claim("fig19a-revocation-flattens-spacecore")
def _fig19a_flat(report: Report) -> None:
    half = _fig19(report, "hijack (50 min)")
    full = _fig19(report, "hijack (100 min)")
    # SpaceCore stops leaking after revocation; Baoyun keeps sweeping
    # new users.
    assert full["SpaceCore"] == half["SpaceCore"]
    assert full["Baoyun"] > half["Baoyun"]


@claim("fig19b-mitm")
def _fig19b(report: Report) -> None:
    rates = _fig19(report, "MITM rate")
    # SpaceCore's replicas are end-to-end encrypted; SkyCore's sync
    # broadcasts leak most.
    assert rates["SpaceCore"] == min(rates.values())
    assert rates["SkyCore"] == max(rates.values())


def _fig20(report: Report) -> Dict[str, Dict[str, Row]]:
    """shell -> solution -> row, Starlink's table plus the other shells."""
    shells = {"Starlink": keyed(table(report, "Fig. 20", 0), "solution")}
    for row in table(report, "Fig. 20", 1):
        shells.setdefault(row["shell"], {})[row["solution"]] = row
    return shells


@claim("fig20-spacecore-lowest-satellite-load")
def _fig20_satellite(report: Report) -> None:
    shells = _fig20(report)
    assert set(shells) == {"Starlink", "OneWeb", "Kuiper", "Iridium"}
    for shell, rows in shells.items():
        spacecore = num(rows["SpaceCore"]["satellite"])
        for other in BASELINES:
            assert num(rows[other]["satellite"]) > spacecore, (shell, other)


@claim("fig20-ground-stations-idle-for-spacecore-and-skycore")
def _fig20_ground(report: Report) -> None:
    for shell, rows in _fig20(report).items():
        assert num(rows["SkyCore"]["ground station"]) == 0.0, shell
        assert (num(rows["SpaceCore"]["ground station"])
                < num(rows["5G NTN"]["ground station"]) / 50), shell


@claim("fig21-ip-change-resets-tcp")
def _fig21_resets(report: Report) -> None:
    fate = {row["solution"]: row["fate"] for row in table(report, "Fig. 21")}
    assert fate == {"SkyCore": "reset", "Baoyun": "reset", "DPCM": "reset",
                    "5G NTN": "survives", "SpaceCore": "survives"}


@claim("fig21-spacecore-stalls-least")
def _fig21_stalls(report: Report) -> None:
    rows = keyed(table(report, "Fig. 21"), "solution")
    tcp = {name: num(row["tcp stall"]) for name, row in rows.items()}
    assert tcp["SpaceCore"] == min(tcp.values())
    assert (num(rows["5G NTN"]["ping stall"])
            > num(rows["SpaceCore"]["ping stall"]))


@claim("fig21-stalls-outlast-outage")
def _fig21_rto(report: Report) -> None:
    # Higher-layer recovery (TCP RTO backoff) outlasts the raw outage.
    for row in table(report, "Fig. 21"):
        assert num(row["tcp stall"]) * 1000 >= num(row["outage"]), row


@claim("fig11-geospatial-areas-never-move")
def _fig11(report: Report) -> None:
    rows = table(report, "Fig. 11")
    logical = next(r for r in rows if "logical" in r["definition"])
    geospatial = next(r for r in rows if "geospatial" in r["definition"])
    # S3.2: the serving satellite changes every pass.
    assert num(logical["changes/h"]) > 10
    assert num(geospatial["changes/h"]) == 0.0
    assert num(geospatial["distinct areas"]) == 1


# -- Robustness and design claims --------------------------------------------

@claim("robustness-worst-case-reduction")
def _robustness(report: Report) -> None:
    worst = bullet(report, "Robustness", "worst-case")
    assert grab(worst, r"([\d.]+)x")[0] > 5.0


@claim("robustness-denser-shells-win-more")
def _scaling(report: Report) -> None:
    points = re.findall(r"(\d+) sats ([\d.]+)x",
                        bullet(report, "Robustness", "reduction vs"))
    assert len(points) >= 2
    assert [int(sats) for sats, _ in points] == sorted(
        int(sats) for sats, _ in points)
    assert float(points[-1][1]) > float(points[0][1])


@claim("design-peer-to-peer-removes-isl-funnels")
def _design_isl(report: Report) -> None:
    gateway_peak, gateway_gini, peer_peak, peer_gini = grab(
        bullet(report, "Design claims", "ISL load"),
        r"gateway-routed peak/mean ([\d.]+), Gini ([\d.]+); peer-to-peer "
        r"peak/mean ([\d.]+), Gini ([\d.]+)")
    assert peer_peak < gateway_peak
    assert peer_gini <= gateway_gini + 0.05


@claim("design-availability-under-failures")
def _design_availability(report: Report) -> None:
    rows = table(report, "Design claims")
    assert len(rows) >= 2
    for row in rows:
        gap = (num(row["SpaceCore availability"])
               - num(row["5G NTN availability"]))
        assert gap > 20.0, row


@claim("design-geospatial-paging")
def _design_paging(report: Report) -> None:
    legacy, spacecore = grab(
        bullet(report, "Design claims", "paging"),
        r"pages ([\d.]+) satellites .* cell pages ([\d.]+) over")
    assert spacecore < legacy / 4


@claim("design-piggybacked-replica")
def _design_piggyback(report: Report) -> None:
    legacy_msgs, local_msgs, legacy_bytes, local_bytes = grab(
        bullet(report, "Design claims", "piggybacked replica"),
        r"([\d,]+) -> ([\d,]+) messages, ([\d,]+) -> ([\d,]+) bytes")
    assert local_msgs <= legacy_msgs / 3
    assert local_bytes < legacy_bytes


@claim("design-device-replica-beats-udsf")
def _design_udsf(report: Report) -> None:
    # Footnote 3: a ground UDSF pays the space-ground RTT.
    udsf, device = grab(bullet(report, "Design claims", "state retrieval"),
                        r"UDSF ([\d.]+) ms vs device replica ([\d.]+) ms")
    assert device < udsf / 10


@claim("design-denser-grid-smaller-cells")
def _design_granularity(report: Report) -> None:
    sizes = re.findall(r"(\d+) sats ([\d,]+)",
                       bullet(report, "Design claims", "average cell"))
    assert len(sizes) == 3
    assert float(sizes[0][1].replace(",", "")) > float(
        sizes[-1][1].replace(",", ""))


# -- Tests -------------------------------------------------------------------

@pytest.fixture(scope="module")
def report() -> Report:
    return parse_report(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_claim_holds_on_the_pinned_report(claim_id: str,
                                          report: Report) -> None:
    CLAIMS[claim_id](report)


def test_a_broken_ordering_fails_its_claim() -> None:
    """The claims read the parsed file: raise SpaceCore's Fig. 20
    satellite load above 5G NTN's and the ordering claim fails."""
    report = parse_report(GOLDEN.read_text(encoding="utf-8"))
    rows = keyed(table(report, "Fig. 20"), "solution")
    rows["SpaceCore"]["satellite"] = (
        f"{num(rows['5G NTN']['satellite']) + 1:,.0f}/s")
    with pytest.raises(AssertionError):
        CLAIMS["fig20-spacecore-lowest-satellite-load"](report)


def test_experiments_table4_is_the_pinned_table4(report: Report) -> None:
    """EXPERIMENTS.md's Table 4 cells read ``measured (paper)``: the 16
    measured cells are the golden's bytes and the paper cells are
    ``PAPER_TABLE4``, so a re-blessed report fails here until the
    write-up follows it."""
    doc = parse_report(EXPERIMENTS.read_text(encoding="utf-8"))
    (key,) = [name for name in doc if name.startswith("Table 4 ")]
    rows = table(doc, key)
    measured = {row["Constellation"]: {base: row[base].split(" (")[0]
                                       for base in BASELINES}
                for row in rows}
    pinned = {row["shell"]: {base: row[base] for base in BASELINES}
              for row in table(report, "Table 4")}
    assert measured == pinned
    paper = {row["Constellation"]: {base: num(row[base].split(" (")[1])
                                    for base in BASELINES}
             for row in rows}
    assert paper == PAPER_TABLE4
