"""Tests for the hardware CPU model and the queueing-latency model."""


from repro.baselines import option3_session_mobility, option4_all_functions
from repro.fiveg.messages import (
    INITIAL_REGISTRATION_FLOW,
    Role,
    SESSION_ESTABLISHMENT_FLOW,
)
from repro.hardware import (
    RASPBERRY_PI_4,
    SATURATED_LATENCY_S,
    XEON_WORKSTATION,
    cpu_breakdown,
    mm1_wait_s,
    procedure_latency,
)


class TestCpuModel:
    def test_xeon_faster_than_rpi(self):
        for role in (Role.AMF, Role.AUSF, Role.UPF):
            assert (XEON_WORKSTATION.message_cost_s(role)
                    < RASPBERRY_PI_4.message_cost_s(role))

    def test_ausf_costs_more_than_upf(self):
        """Crypto-heavy NFs weigh more per message."""
        assert (RASPBERRY_PI_4.message_cost_s(Role.AUSF)
                > RASPBERRY_PI_4.message_cost_s(Role.UPF))

    def test_ue_messages_cost_nothing(self):
        assert RASPBERRY_PI_4.message_cost_s(Role.UE) == 0.0

    def test_procedure_cost_only_counts_onboard(self):
        option = option3_session_mobility()
        full = RASPBERRY_PI_4.procedure_cost_s(
            SESSION_ESTABLISHMENT_FLOW,
            option4_all_functions().on_board)
        partial = RASPBERRY_PI_4.procedure_cost_s(
            SESSION_ESTABLISHMENT_FLOW, option.on_board)
        assert 0 < partial < full

    def test_breakdown_scales_with_rate(self):
        option = option4_all_functions()
        low = cpu_breakdown(RASPBERRY_PI_4, 10,
                            INITIAL_REGISTRATION_FLOW, option.on_board)
        high = cpu_breakdown(RASPBERRY_PI_4, 100,
                             INITIAL_REGISTRATION_FLOW, option.on_board)
        assert high.total_percent > low.total_percent

    def test_breakdown_contains_expected_functions(self):
        """Fig. 7's legend: AMF, AUSF, UDM, PCF, Others, DB..."""
        option = option4_all_functions()
        breakdown = cpu_breakdown(RASPBERRY_PI_4, 50,
                                  INITIAL_REGISTRATION_FLOW,
                                  option.on_board)
        assert "AMF" in breakdown.by_function
        assert "AUSF" in breakdown.by_function
        assert "Others" in breakdown.by_function
        assert "DB" in breakdown.by_function

    def test_total_capped_at_100(self):
        option = option4_all_functions()
        breakdown = cpu_breakdown(RASPBERRY_PI_4, 100000,
                                  INITIAL_REGISTRATION_FLOW,
                                  option.on_board)
        assert breakdown.total_percent == 100.0

    def test_radio_only_breakdown_light(self):
        """Fig. 7 context: without core NFs the satellite idles."""
        from repro.baselines import option1_radio_only
        option = option1_radio_only()
        breakdown = cpu_breakdown(RASPBERRY_PI_4, 100,
                                  INITIAL_REGISTRATION_FLOW,
                                  option.on_board)
        full = cpu_breakdown(RASPBERRY_PI_4, 100,
                             INITIAL_REGISTRATION_FLOW,
                             option4_all_functions().on_board)
        assert breakdown.total_percent < full.total_percent / 2


class TestQueueing:
    def test_wait_zero_for_free_server(self):
        wait, saturated = mm1_wait_s(0.0, 0.001)
        assert wait == 0.0 and not saturated

    def test_wait_grows_with_load(self):
        w1, _ = mm1_wait_s(100, 0.001)
        w2, _ = mm1_wait_s(900, 0.001)
        assert w2 > w1

    def test_saturation(self):
        wait, saturated = mm1_wait_s(1001, 0.001)
        assert saturated
        assert wait == SATURATED_LATENCY_S

    def test_more_servers_more_capacity(self):
        _, sat1 = mm1_wait_s(1500, 0.001, servers=1)
        _, sat2 = mm1_wait_s(1500, 0.001, servers=4)
        assert sat1 and not sat2

    def test_zero_service_time(self):
        assert mm1_wait_s(100, 0.0) == (0.0, False)


class TestProcedureLatency:
    def test_latency_grows_with_rate(self):
        option = option4_all_functions()
        low = procedure_latency(RASPBERRY_PI_4, 10,
                                INITIAL_REGISTRATION_FLOW,
                                option.on_board)
        high = procedure_latency(RASPBERRY_PI_4, 200,
                                 INITIAL_REGISTRATION_FLOW,
                                 option.on_board)
        assert high.total_s > low.total_s

    def test_propagation_charged_for_crossings(self):
        option = option3_session_mobility()
        near = procedure_latency(RASPBERRY_PI_4, 10,
                                 SESSION_ESTABLISHMENT_FLOW,
                                 option.on_board, ground_rtt_s=0.0)
        far = procedure_latency(RASPBERRY_PI_4, 10,
                                SESSION_ESTABLISHMENT_FLOW,
                                option.on_board, ground_rtt_s=0.5)
        assert far.propagation_s > near.propagation_s

    def test_all_onboard_no_propagation(self):
        option = option4_all_functions()
        estimate = procedure_latency(RASPBERRY_PI_4, 10,
                                     SESSION_ESTABLISHMENT_FLOW,
                                     option.on_board, ground_rtt_s=0.5)
        assert estimate.propagation_s == 0.0

    def test_xeon_lower_latency(self):
        option = option4_all_functions()
        rpi = procedure_latency(RASPBERRY_PI_4, 100,
                                INITIAL_REGISTRATION_FLOW,
                                option.on_board)
        xeon = procedure_latency(XEON_WORKSTATION, 100,
                                 INITIAL_REGISTRATION_FLOW,
                                 option.on_board)
        assert xeon.total_s < rpi.total_s
