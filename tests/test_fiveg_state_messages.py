"""Tests for the S1-S5 state model and the Fig. 9/16 message catalog."""


from repro.fiveg import (
    BillingState,
    HANDOVER_FLOW,
    INITIAL_REGISTRATION_FLOW,
    LEGACY_FLOWS,
    MOBILITY_REGISTRATION_FLOW,
    ProcedureKind,
    Role,
    SESSION_ESTABLISHMENT_FLOW,
    SPACECORE_FLOWS,
    SessionState,
    StateCategory,
)
from repro.fiveg.state import (
    IdentifierState,
    LocationState,
    QosState,
    SecurityState,
)


def make_state(**overrides):
    defaults = dict(
        identifiers=IdentifierState("imsi-001", 1, 1000, "guti-1"),
        location=LocationState((3, 4), (3, 4), "2001:db8::1"),
    )
    defaults.update(overrides)
    return SessionState(**defaults)


class TestSessionState:
    def test_serialisation_roundtrip(self):
        state = make_state()
        assert SessionState.from_bytes(state.to_bytes()) == state

    def test_roundtrip_with_custom_fields(self):
        state = make_state(
            qos=QosState(five_qi=1, priority=2, forwarding_rules=("r1",)),
            billing=BillingState(quota_mb=100, used_mb=3.5),
            security=SecurityState(k_amf="aa", dh_generator=4),
        )
        assert SessionState.from_bytes(state.to_bytes()) == state

    def test_version_bump(self):
        state = make_state()
        assert state.bump_version().version == state.version + 1

    def test_ttl_expiry(self):
        state = make_state()
        assert not state.expired(state.ttl_s - 1)
        assert state.expired(state.ttl_s)

    def test_billing_charge_and_throttle(self):
        billing = BillingState(quota_mb=100)
        charged = billing.charge(50.0)
        assert not charged.throttled
        assert charged.charge(60.0).throttled

    def test_serialised_size_reasonable(self):
        """The replica must fit in a piggybacked RRC message (~1 KB)."""
        assert 200 < len(make_state().to_bytes()) < 2000


class TestLegacyFlows:
    def test_all_procedures_present(self):
        assert set(LEGACY_FLOWS) == set(ProcedureKind)

    def test_initial_registration_shape(self):
        """Fig. 9a: RRC setup, registration, AKA, policy, accept."""
        steps = [m.step for m in INITIAL_REGISTRATION_FLOW]
        assert steps[0] == "P0"
        assert "P2" in steps and "P3" in steps and "P4" in steps
        assert steps[-1] == "P5"
        # AKA is the dominant sub-exchange.
        assert steps.count("P3") >= 4

    def test_session_establishment_touches_all_core_nfs(self):
        roles = {m.src for m in SESSION_ESTABLISHMENT_FLOW} | {
            m.dst for m in SESSION_ESTABLISHMENT_FLOW}
        assert {Role.UE, Role.RAN, Role.AMF, Role.SMF, Role.UPF,
                Role.PCF, Role.UDM}.issubset(roles)

    def test_handover_migrates_security_state(self):
        """Fig. 9c annotates S5 on the handover request."""
        ho_request = next(m for m in HANDOVER_FLOW
                          if m.name == "handover-request")
        assert StateCategory.SECURITY in ho_request.carries

    def test_mobility_registration_transfers_context(self):
        transfer = next(m for m in MOBILITY_REGISTRATION_FLOW
                        if m.name == "ue-context-transfer")
        assert StateCategory.SECURITY in transfer.carries
        assert StateCategory.IDENTIFIERS in transfer.carries

    def test_flow_sizes_positive(self):
        for flow in LEGACY_FLOWS.values():
            assert all(m.size_bytes > 0 for m in flow)

    def test_security_exposure_exists_in_legacy(self):
        """Legacy flows leak S5 onto links (Fig. 19's MITM vector)."""
        assert any(m.carries_security for m in INITIAL_REGISTRATION_FLOW)
        assert any(m.carries_security for m in HANDOVER_FLOW)


class TestDownlinkTrigger:
    def test_legacy_downlink_rides_the_anchor(self):
        """S3.1: anchor -> SMF -> AMF -> RAN paging -> UE."""
        from repro.fiveg.messages import DOWNLINK_TRIGGER_FLOW
        roles = [m.src for m in DOWNLINK_TRIGGER_FLOW]
        assert roles[0] is Role.ANCHOR_UPF
        assert DOWNLINK_TRIGGER_FLOW[-1].dst is Role.UE

    def test_spacecore_downlink_is_one_page(self):
        """Fig. 16b: Algorithm 1 delivers, the satellite just pages."""
        from repro.fiveg.messages import (
            DOWNLINK_TRIGGER_FLOW,
            SPACECORE_DOWNLINK_TRIGGER_FLOW,
        )
        assert len(SPACECORE_DOWNLINK_TRIGGER_FLOW) == 1
        assert len(SPACECORE_DOWNLINK_TRIGGER_FLOW) < len(
            DOWNLINK_TRIGGER_FLOW)


class TestSpaceCoreFlows:
    def test_c4_eliminated(self):
        """Fig. 16: C4 is eliminated by geospatial mobility management."""
        assert SPACECORE_FLOWS[ProcedureKind.MOBILITY_REGISTRATION] == []

    def test_session_establishment_is_local_and_short(self):
        """Fig. 16a: four radio messages, no home round trip."""
        flow = SPACECORE_FLOWS[ProcedureKind.SESSION_ESTABLISHMENT]
        assert len(flow) == 4
        roles = {m.src for m in flow} | {m.dst for m in flow}
        assert roles == {Role.UE, Role.RAN}

    def test_handover_shorter_than_legacy(self):
        spacecore = SPACECORE_FLOWS[ProcedureKind.HANDOVER]
        assert len(spacecore) < len(HANDOVER_FLOW)
        # No AMF/SMF involvement (state-function-location decoupling).
        roles = {m.src for m in spacecore} | {m.dst for m in spacecore}
        assert Role.AMF not in roles and Role.SMF not in roles

    def test_registration_keeps_home_control(self):
        """Fig. 16a: C1 still runs through the home (AUSF/UDM/PCF)."""
        flow = SPACECORE_FLOWS[ProcedureKind.INITIAL_REGISTRATION]
        roles = {m.src for m in flow} | {m.dst for m in flow}
        assert {Role.AUSF, Role.UDM, Role.PCF}.issubset(roles)

    def test_replica_piggyback_carries_all_categories(self):
        flow = SPACECORE_FLOWS[ProcedureKind.SESSION_ESTABLISHMENT]
        piggyback = next(m for m in flow if "replica" in m.name)
        assert set(piggyback.carries) == set(StateCategory)

    def test_spacecore_flows_much_smaller(self):
        """The per-procedure message savings behind Table 4."""
        legacy_total = sum(len(f) for f in LEGACY_FLOWS.values())
        spacecore_total = sum(len(f) for f in SPACECORE_FLOWS.values())
        assert spacecore_total < legacy_total / 2
