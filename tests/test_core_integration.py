"""Tests for seamless space-terrestrial integration (S4.5)."""

import pytest

from repro.core import (
    AccessDomain,
    IntegratedAccessManager,
    SpaceCoreSystem,
    TerrestrialBaseStation,
)
from repro.orbits import starlink

CITY_GNB = TerrestrialBaseStation("beijing-gnb", 39.9, 116.4,
                                  radius_km=8.0)


@pytest.fixture()
def setup():
    system = SpaceCoreSystem(starlink())
    manager = IntegratedAccessManager(system, [CITY_GNB])
    urban = system.provision_ue(39.9, 116.41)   # inside gNB coverage
    rural = system.provision_ue(36.0, 100.0)    # satellite-only
    system.register(urban)
    system.register(rural)
    return system, manager, urban, rural


class TestCoverage:
    def test_gnb_coverage_radius(self):
        import math
        assert CITY_GNB.covers(math.radians(39.92), math.radians(116.41))
        assert not CITY_GNB.covers(math.radians(40.5),
                                   math.radians(116.4))

    def test_best_access_prefers_terrestrial(self, setup):
        _, manager, urban, _ = setup
        decision = manager.best_access(urban)
        assert decision.domain is AccessDomain.TERRESTRIAL
        assert decision.target == "beijing-gnb"

    def test_best_access_falls_back_to_satellite(self, setup):
        _, manager, _, rural = setup
        decision = manager.best_access(rural)
        assert decision.domain is AccessDomain.SATELLITE
        assert decision.target.startswith("sat-")


class TestIdleReselection:
    def test_idle_reselection_no_signaling(self, setup):
        """S4.5: idle UEs switch domains via standard reselection --
        zero core signaling."""
        _, manager, urban, _ = setup
        manager.reselect_idle(urban)
        assert manager.bus.count() == 0

    def test_reselection_counts_domain_changes(self, setup):
        system, manager, urban, _ = setup
        manager.reselect_idle(urban)
        assert manager.reselections == 0  # first camp, no change
        urban.move_to(0.7, 1.8)  # far away: leaves gNB coverage
        manager.reselect_idle(urban)
        assert manager.reselections == 1
        assert manager.current_domain(urban) is AccessDomain.SATELLITE

    def test_reselect_rejects_connected(self, setup):
        system, manager, _, rural = setup
        system.establish_session(rural)
        with pytest.raises(ValueError):
            manager.reselect_idle(rural)


class TestCrossDomainHandover:
    def test_satellite_to_terrestrial(self, setup):
        system, manager, urban, _ = setup
        # Start connected on a satellite (pretend no gNB yet).
        manager._domain[str(urban.supi)] = AccessDomain.SATELLITE
        system.establish_session(urban)
        decision = manager.handover_connected(urban)
        assert decision.domain is AccessDomain.TERRESTRIAL
        assert manager.cross_domain_handovers == 1
        # The satellite's ephemeral state evaporated; identity kept.
        assert urban.connected
        assert manager.bus.count("C3") > 0

    def test_terrestrial_to_satellite(self, setup):
        system, manager, urban, _ = setup
        manager._domain[str(urban.supi)] = AccessDomain.TERRESTRIAL
        urban.connected = True
        urban.move_to(0.63, 1.75)  # leaves the gNB: radians, rural
        decision = manager.handover_connected(urban)
        assert decision.domain is AccessDomain.SATELLITE
        # The satellite installed the replica locally.
        sat_index = system.serving_satellite_of(urban)
        assert system.satellite(sat_index).served_session(
            str(urban.supi)) is not None

    def test_no_handover_within_same_domain(self, setup):
        system, manager, urban, _ = setup
        manager._domain[str(urban.supi)] = AccessDomain.TERRESTRIAL
        urban.connected = True
        decision = manager.handover_connected(urban)
        assert decision.domain is AccessDomain.TERRESTRIAL
        assert manager.cross_domain_handovers == 0

    def test_handover_rejects_idle(self, setup):
        _, manager, urban, _ = setup
        with pytest.raises(ValueError):
            manager.handover_connected(urban)

    def test_same_identity_across_domains(self, setup):
        """S4.5: one SUPI registers to both space and ground."""
        system, manager, urban, _ = setup
        manager._domain[str(urban.supi)] = AccessDomain.SATELLITE
        system.establish_session(urban)
        ip_before = urban.ip_address
        manager.handover_connected(urban)
        assert urban.ip_address == ip_before
        assert system.home.core.amf.context(urban.supi) is not None
