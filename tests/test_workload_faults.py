"""Tests for Table 2 trace synthesis and failure/attack models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import spacecore, skycore, baoyun, fiveg_ntn
from repro.faults import (
    GilbertElliottChannel,
    HijackScenario,
    hijack_initial_leak,
    hijack_leak_series,
    mitm_leak_rate,
    procedure_success_probability,
    satellite_decay_series,
)
from repro.workload import (
    TABLE2_COUNTS,
    layer_mix,
    registration_delay_samples,
    synthesize,
    table2_summary,
    total_messages,
)


class TestTable2Traces:
    def test_totals_match_paper(self):
        """Table 2's Total row, verbatim."""
        assert total_messages("inmarsat-explorer-710") == 971_120
        assert total_messages("tiantong-sc310") == 2_106_916
        assert total_messages("tiantong-t900") == 4_279_736
        assert total_messages("china-telecom") == 3_857_732
        assert total_messages("china-unicom") == 1_491_534
        assert total_messages("china-mobile") == 8_480_488

    def test_mix_sums_to_one(self):
        for source in TABLE2_COUNTS:
            assert sum(layer_mix(source).values()) == pytest.approx(1.0)

    def test_synthesized_mix_matches(self):
        trace = synthesize("tiantong-sc310", 20000, seed=3)
        l1_fraction = sum(1 for m in trace if m.layer == "L1/L2") / len(
            trace)
        assert l1_fraction == pytest.approx(
            layer_mix("tiantong-sc310")["L1/L2"], abs=0.02)

    def test_synthesized_times_ordered(self):
        trace = synthesize("china-mobile", 500, duration_s=100.0)
        times = [m.time_s for m in trace]
        assert times == sorted(times)
        assert all(0 <= t <= 100.0 for t in times)

    def test_unknown_source_rejected(self):
        with pytest.raises(KeyError):
            synthesize("verizon", 10)

    def test_registration_delays_match_measured_means(self):
        """Fig. 5b: ~9.5 s Inmarsat, ~13.5 s Tiantong."""
        inm = registration_delay_samples("inmarsat-explorer-710", 4000)
        tia = registration_delay_samples("tiantong-sc310", 4000)
        assert sum(inm) / len(inm) == pytest.approx(9.5, rel=0.1)
        assert sum(tia) / len(tia) == pytest.approx(13.5, rel=0.1)

    def test_terrestrial_source_has_no_registration_delay(self):
        with pytest.raises(KeyError):
            registration_delay_samples("china-mobile", 10)

    def test_summary_covers_all_sources(self):
        assert len(table2_summary()) == 6


class TestFailures:
    def test_decay_accumulates(self):
        series = satellite_decay_series(1584, 24)
        accumulated = [s.accumulated for s in series]
        assert accumulated == sorted(accumulated)
        assert accumulated[-1] > 0

    def test_decay_calibrated_to_one_in_forty(self):
        """S3.3: about 1/40 Starlink satellites failed over ~2 years."""
        series = satellite_decay_series(10000, 24)
        fraction = series[-1].accumulated / 10000
        assert fraction == pytest.approx(1 / 40, rel=0.3)

    def test_gilbert_elliott_bursty(self):
        channel = GilbertElliottChannel(seed=3)
        series = channel.series(5000)
        assert max(series) == pytest.approx(0.35)
        assert min(series) == pytest.approx(0.001)
        bad_fraction = sum(1 for f in series if f > 0.1) / len(series)
        expected = channel.steady_state_bad_fraction
        assert bad_fraction == pytest.approx(expected, abs=0.03)

    def test_gilbert_elliott_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottChannel(p_good_to_bad=1.5)

    def test_procedure_fragility_grows_with_length(self):
        """S3.3: long stateful flows are exponentially fragile."""
        short = procedure_success_probability(4, 0.05)
        long = procedure_success_probability(18, 0.05)
        assert short > long

    @given(st.integers(0, 40), st.floats(0.0, 0.5))
    @settings(max_examples=50)
    def test_success_probability_in_range(self, n, loss):
        p = procedure_success_probability(n, loss)
        assert 0.0 <= p <= 1.0


class TestAttacks:
    SCENARIO = HijackScenario(capacity=30000,
                              total_subscribers=100_000_000,
                              dwell_s=165.8)

    def test_skycore_leaks_everything_immediately(self):
        assert hijack_initial_leak(skycore(), self.SCENARIO) == 100_000_000

    def test_spacecore_initial_leak_is_tiny(self):
        leak = hijack_initial_leak(spacecore(), self.SCENARIO)
        assert leak < 30000 * 0.2

    def test_hijack_series_monotone(self):
        for factory in (spacecore, baoyun, fiveg_ntn):
            series = hijack_leak_series(factory(), self.SCENARIO, 3000.0)
            values = [v for _, v in series]
            assert values == sorted(values)

    def test_spacecore_leak_flattens_after_revocation(self):
        """Appendix B: the home disables the hijacked satellite."""
        series = hijack_leak_series(spacecore(), self.SCENARIO, 6000.0)
        after = [v for t, v in series if t > self.SCENARIO.
                 revocation_delay_s + 60]
        assert max(after) == pytest.approx(min(after))

    def test_baoyun_keeps_leaking(self):
        series = hijack_leak_series(baoyun(), self.SCENARIO, 6000.0)
        assert series[-1][1] > series[len(series) // 2][1]

    def test_mitm_spacecore_near_zero(self):
        """Fig. 19b: ABE-encrypted replicas leak nothing readable."""
        sc_rate = mitm_leak_rate(spacecore(), 30000, 165.8)
        ntn_rate = mitm_leak_rate(fiveg_ntn(), 30000, 165.8)
        assert sc_rate < ntn_rate / 50

    def test_skycore_mitm_worst(self):
        """Sync broadcasts replicate vectors over wireless ISLs."""
        rates = {f().name: mitm_leak_rate(f(), 30000, 165.8)
                 for f in (spacecore, skycore, baoyun, fiveg_ntn)}
        assert rates["SkyCore"] == max(rates.values())
