"""Tests for the experiment harness's mechanisms.

The shapes of the tables and figures themselves are claims over the
pinned report (``tests/test_paper_claims.py``).
"""

import pytest

from repro.baselines import ALL_OPTIONS, fiveg_ntn, spacecore
from repro.experiments import (
    compare_ideal_vs_j4,
    mean_hops_to_ground,
    registration_delay_cdf,
    signaling_load,
    sweep,
    tcp_recovery_time_s,
)
from repro.fiveg.messages import ProcedureKind
from repro.orbits import iridium, starlink


@pytest.fixture(scope="module")
def starlink_hops():
    return mean_hops_to_ground(starlink())


class TestSignalingStorms:
    def test_hops_reasonable(self, starlink_hops):
        assert 2.0 < starlink_hops < 25.0

    def test_fig10_session_storm_scale(self, starlink_hops):
        """S3.1: 1,035-41,559 session signalings/s per satellite."""
        ntn = fiveg_ntn()
        low = signaling_load(ntn, starlink(), 2_000, hops=starlink_hops)
        high = signaling_load(ntn, starlink(), 30_000,
                              hops=starlink_hops)
        assert 1e3 < low.satellite_hotspot_per_s < 1e5
        assert 1e4 < high.satellite_hotspot_per_s < 3e5

    def test_ground_station_order_of_magnitude_worse(self, starlink_hops):
        """S3: GS load ~10x the satellite load for remote-core options."""
        ntn = fiveg_ntn()
        load = signaling_load(ntn, starlink(), 30_000,
                              hops=starlink_hops)
        assert load.ground_station_per_s > load.satellite_mean_per_s * 3

    def test_spacecore_ground_load_negligible(self, starlink_hops):
        sc = signaling_load(spacecore(), starlink(), 30_000,
                            hops=starlink_hops)
        ntn = signaling_load(fiveg_ntn(), starlink(), 30_000,
                             hops=starlink_hops)
        assert sc.ground_station_per_s < ntn.ground_station_per_s / 100

    def test_load_scales_with_capacity(self, starlink_hops):
        loads = [signaling_load(fiveg_ntn(), starlink(), cap,
                                hops=starlink_hops).satellite_mean_per_s
                 for cap in (2_000, 10_000, 30_000)]
        assert loads == sorted(loads)
        assert loads[-1] == pytest.approx(15 * loads[0], rel=0.01)

    def test_fig10_mobility_rows(self, starlink_hops):
        """Options 1-2 show handovers only; 3-4 add registrations."""
        opt1 = ALL_OPTIONS[0]()
        opt3 = ALL_OPTIONS[2]()
        l1 = signaling_load(opt1, starlink(), 30_000, hops=starlink_hops)
        l3 = signaling_load(opt3, starlink(), 30_000, hops=starlink_hops)
        _, mobility1 = l1.satellite_rows()
        _, mobility3 = l3.satellite_rows()
        assert mobility1 > 0
        assert (l3.by_procedure_satellite[
            ProcedureKind.MOBILITY_REGISTRATION] > 0)
        assert (l1.by_procedure_satellite[
            ProcedureKind.MOBILITY_REGISTRATION] == 0)
        assert mobility3 > mobility1

    def test_sweep_covers_grid(self):
        loads = sweep([spacecore, fiveg_ntn], [iridium()],
                      capacities=(2_000, 10_000))
        assert len(loads) == 4


class TestRelay:
    def test_zero_samples_serializes_clean(self):
        """samples=0 edge: no ZeroDivisionError, no JSON Infinity.

        The retired pipeline returned ``float("inf")`` mean delays
        (``json.dumps`` emits the non-standard ``Infinity`` token) and
        divided by ``len(trials) == 0`` for the delivery rates.
        """
        import dataclasses
        import json
        comparison = compare_ideal_vs_j4(starlink(), samples=0)
        assert comparison.delivery_rate_ideal == 0.0
        assert comparison.delivery_rate_j4 == 0.0
        assert comparison.mean_delay_ideal_ms is None
        assert comparison.mean_delay_j4_ms is None
        text = json.dumps(dataclasses.asdict(comparison))
        assert "Infinity" not in text
        assert json.loads(text)["mean_delay_ideal_ms"] is None

    def test_undelivered_panel_mean_is_none(self):
        """A panel whose trials all miss must carry None, not inf."""
        import math
        from repro.experiments.relay import relay_trials
        # Route to a destination far above the inclination band: the
        # walk centers without covering, deflects, and never delivers.
        trials = relay_trials(starlink(), "ideal", samples=4,
                              dst=(math.radians(89.0), 0.0))
        assert trials and not any(t.delivered for t in trials)

    def test_sweep_stats_counts_one_build_per_epoch(self):
        from repro.experiments import relay_sweep_stats
        stats = relay_sweep_stats(starlink(), samples=6)
        assert stats.epochs == 6
        assert stats.table_builds == 6
        assert stats.delivered == stats.routed == 6
        assert stats.mean_delay_ms is not None


class TestUserLevel:
    def test_tcp_recovery_exceeds_outage(self):
        """Fig. 21: stalls outlast the signaling outage (RTO)."""
        for outage in (0.05, 0.5, 2.0):
            assert tcp_recovery_time_s(outage) >= outage
        # 0.2 + 0.4 + 0.8 fires at 1.4 s, the first instant past 0.9 s.
        assert tcp_recovery_time_s(0.9) == pytest.approx(1.4)


class TestBottleneck:
    def test_fig5b_cdf_monotone(self):
        cdf = registration_delay_cdf("inmarsat-explorer-710")
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
