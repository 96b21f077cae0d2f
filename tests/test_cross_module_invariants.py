"""Cross-module invariants: the pieces must agree with each other."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ALL_OPTIONS, ALL_SOLUTIONS
from repro.fiveg.messages import (
    LEGACY_FLOWS,
    ProcedureKind,
    Role,
    SPACECORE_FLOWS,
)
from repro.fiveg.qos import QosShaper
from repro.fiveg.state import QosState
from repro.geo import GeospatialAddress
from repro.orbits import starlink


class TestCatalogCoherence:
    def test_every_solution_flow_is_in_the_catalog(self):
        """Every message any solution can emit is a catalog message."""
        catalog = {template.name
                   for flows in (LEGACY_FLOWS, SPACECORE_FLOWS)
                   for templates in flows.values()
                   for template in templates}
        for factory in ALL_SOLUTIONS:
            solution = factory()
            for kind in ProcedureKind:
                for template in solution.flow(kind):
                    # Baoyun/DPCM derive their flows from the catalog;
                    # derived names must still be catalog names or the
                    # two documented DPCM specials.
                    known = (template.name in catalog
                             or "device-state" in template.name
                             or template.name
                             == "session-context-install")
                    assert known, template.name

    def test_ran_roles_always_on_board(self):
        """Every placement keeps the radio in orbit (the premise of
        all four Fig. 6 options and all five solutions)."""
        for factory in tuple(ALL_SOLUTIONS) + tuple(ALL_OPTIONS):
            assert Role.RAN in factory().on_board

    def test_flows_start_at_the_ue_side(self):
        """UE- or RAN-originated first message in every procedure the
        UE initiates."""
        for factory in ALL_SOLUTIONS:
            solution = factory()
            for kind in (ProcedureKind.INITIAL_REGISTRATION,
                         ProcedureKind.SESSION_ESTABLISHMENT):
                flow = solution.flow(kind)
                if flow:
                    assert flow[0].src in (Role.UE, Role.RAN)


class TestAddressCellCoherence:
    def test_system_address_matches_grid_cell(self):
        """The cell the system writes into the address is the cell the
        grid computes for the UE's position."""
        from repro.core import SpaceCoreSystem
        system = SpaceCoreSystem(starlink())
        for lat, lon in ((39.9, 116.4), (-33.9, 151.2), (6.5, 3.4)):
            ue = system.provision_ue(lat, lon)
            system.register(ue)
            address = GeospatialAddress.from_ipv6(ue.ip_address)
            assert address.ue_cell == system.grid.cell_of(ue.lat,
                                                          ue.lon)


class TestShaperInvariant:
    @given(st.integers(64, 100_000), st.lists(
        st.tuples(st.floats(0.0, 10.0), st.integers(1, 3000)),
        min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_admitted_bytes_never_exceed_rate_plus_burst(self, kbps,
                                                         offered):
        """Token-bucket conservation: admitted <= rate*T + burst."""
        shaper = QosShaper(QosState(max_bitrate_up_kbps=kbps))
        times = sorted(t for t, _ in offered)
        horizon = times[-1] if times else 0.0
        for (t, size), ts in zip(sorted(offered), times):
            shaper.admit_uplink(size, ts)
        rate_bytes_s = kbps * 1000 / 8
        burst = max(1500.0, rate_bytes_s)
        allowance = rate_bytes_s * horizon + burst
        assert shaper.uplink.admitted_bytes <= allowance + 1e-6
