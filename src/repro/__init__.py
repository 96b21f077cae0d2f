"""SpaceCore reproduction: stateless mobile core network functions in space.

A from-scratch Python implementation of the system described in
"A Case for Stateless Mobile Core Network Functions in Space"
(SIGCOMM 2022), including every substrate the paper depends on:
orbital mechanics, geospatial cells and addressing, the +Grid ISL
topology with Algorithm 1 stateless routing, a 5G core (AMF/SMF/UPF/
AUSF/UDM/PCF with the C1-C4 procedures), attribute-based encryption
with station-to-station key agreement, the four baselines, and the
full experiment harness for every table and figure.

Quickstart::

    from repro.core import SpaceCoreSystem
    from repro.orbits import starlink

    system = SpaceCoreSystem(starlink())
    ue = system.provision_ue(39.9, 116.4)   # Beijing
    system.register(ue, 0.0)                # C1 through the home
    session = system.establish_session(ue)  # localized C2 (Fig. 16a)
"""

__version__ = "1.0.0"

from . import constants

__all__ = ["constants", "__version__"]
