"""Tests for the vectorized UE-cohort signaling engine."""

import pytest

from repro.baselines.solutions import fiveg_ntn, spacecore
from repro.constants import SESSION_INTERARRIVAL_S
from repro.orbits import starlink
from repro.runtime import UECohortEngine
from repro.sim import CohortEmulation, NeighborhoodEmulation


def _stats_tuple(stats):
    return (stats.sessions_established, stats.releases, stats.handovers,
            stats.mobility_registrations, stats.initial_registrations,
            stats.signaling_messages, stats.satellite_messages,
            stats.crossing_messages, dict(stats.events_by_procedure))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        runs = [UECohortEngine(starlink(), n_ues=50_000, seed=9).run(3600.0)
                for _ in range(2)]
        assert _stats_tuple(runs[0]) == _stats_tuple(runs[1])

    def test_different_seeds_differ(self):
        a = UECohortEngine(starlink(), n_ues=50_000, seed=0).run(3600.0)
        b = UECohortEngine(starlink(), n_ues=50_000, seed=1).run(3600.0)
        assert _stats_tuple(a) != _stats_tuple(b)

    def test_procedure_draws_independent(self):
        """Per-procedure seed derivation keeps draws decoupled: the
        session counts must not move when another kind's rate does."""
        sc = UECohortEngine(starlink(), n_ues=20_000, seed=4,
                            solution=spacecore()).run(3600.0)
        ntn = UECohortEngine(starlink(), n_ues=20_000, seed=4,
                             solution=fiveg_ntn()).run(3600.0)
        assert sc.events_by_procedure["C2"] == \
            ntn.events_by_procedure["C2"]


class TestStatistics:
    def test_session_rate_matches_prediction(self):
        engine = UECohortEngine(starlink(), n_ues=200_000, seed=0)
        stats = engine.run(3600.0)
        predicted = engine.predicted_session_rate_per_ue()
        assert stats.session_rate_per_ue == \
            pytest.approx(predicted, rel=0.02)

    def test_event_rate_matches_prediction(self):
        engine = UECohortEngine(starlink(), n_ues=200_000, seed=1)
        stats = engine.run(3600.0)
        assert stats.events_per_ue_s == \
            pytest.approx(engine.predicted_events_per_ue_s(), rel=0.02)

    def test_messages_follow_flows(self):
        """Batched cost application = sum(events_k * len(flow_k))."""
        solution = spacecore()
        engine = UECohortEngine(starlink(), n_ues=30_000, seed=2,
                                solution=solution)
        stats = engine.run(1800.0)
        expected = sum(
            count * len(solution.flows[kind])
            for kind in solution.flows
            for count in [stats.events_by_procedure[kind.value]])
        assert stats.signaling_messages == expected

    def test_releases_bounded_by_sessions(self):
        stats = UECohortEngine(starlink(), n_ues=10_000,
                               seed=3).run(600.0)
        assert 0 <= stats.releases <= stats.sessions_established

    def test_legacy_mix_has_mobility_row(self):
        """SkyCore binds tracking areas to satellites, so every pass
        triggers a mobility registration; NTN still crosses ground."""
        from repro.baselines.solutions import skycore
        stats = UECohortEngine(starlink(), n_ues=50_000, seed=0,
                               solution=skycore()).run(3600.0)
        assert stats.mobility_registrations > 0
        ntn = UECohortEngine(starlink(), n_ues=50_000, seed=0,
                             solution=fiveg_ntn()).run(3600.0)
        assert ntn.crossing_messages > 0


class TestScaling:
    def test_cohort_count_bounded_by_population(self):
        engine = UECohortEngine(starlink(), n_ues=10, n_cohorts=256)
        assert engine.n_cohorts == 10

    def test_cohort_sizes_partition_population(self):
        engine = UECohortEngine(starlink(), n_ues=100_003, n_cohorts=64)
        assert int(engine._sizes.sum()) == 100_003

    def test_million_ue_load_point_runs(self):
        stats = UECohortEngine(starlink(), n_ues=1_000_000,
                               seed=0).run(3600.0)
        assert stats.ue_count == 1_000_000
        assert stats.sessions_established > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            UECohortEngine(starlink(), n_ues=0)
        with pytest.raises(ValueError):
            UECohortEngine(starlink(), n_ues=10, n_cohorts=0)
        with pytest.raises(ValueError):
            UECohortEngine(starlink(), n_ues=10, session_interval_s=0.0)
        with pytest.raises(ValueError):
            UECohortEngine(starlink(), n_ues=10).run(0.0)


class TestCohortEmulation:
    def test_rate_agrees_with_per_ue_emulation(self):
        """The cohort engine and the live-stack neighbourhood must
        measure the same per-UE session rate within sampling noise."""
        per_ue = NeighborhoodEmulation(starlink(), num_ues=20, seed=0)
        per_ue_stats = per_ue.run(3000.0)
        cohort = CohortEmulation(starlink(), num_ues=100_000, seed=0)
        cohort_stats = cohort.run(3000.0)
        assert cohort_stats.session_rate_per_ue == \
            pytest.approx(cohort.predicted_session_rate_per_ue(),
                          rel=0.05)
        # The per-UE emulation has only 20 UEs of samples; allow wide
        # but meaningful agreement between the two measurements.
        assert per_ue_stats.session_rate_per_ue == \
            pytest.approx(cohort_stats.session_rate_per_ue, rel=0.25)

    def test_interval_knob_respected(self):
        fast = CohortEmulation(starlink(), num_ues=50_000, seed=0,
                               session_interval_s=10.0)
        stats = fast.run(1000.0)
        assert stats.session_rate_per_ue == pytest.approx(0.1, rel=0.05)
        assert SESSION_INTERARRIVAL_S != 10.0
