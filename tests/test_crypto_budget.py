"""Algorithm 2's group operations per procedure, pinned.

How fast a host runs ``generate``/``power``/``is_element`` is host
time; how many of them, and how many signatures and verifications, each
procedure performs is the protocol fact.  This pins those counts over
one catalog scenario that runs C1 (registration with delegation), C2
(localized session establishment) and local recovery, so a redundant
verify, or a speed-up that quietly drops an operation, fails at the
procedure it touched.
"""

import collections

from repro.core.robustness import ResilientSpaceCore
from repro.crypto.group import SchnorrGroup
from repro.crypto.signatures import SigningKey, VerifyKey
from repro.scenarios.catalog import CATALOG
from repro.scenarios.engine import run_scenario

#: Operations counted, and the classes that own them.
OPS = ((SchnorrGroup, "generate"), (SchnorrGroup, "power"),
       (SchnorrGroup, "is_element"), (SigningKey, "sign"),
       (VerifyKey, "verify"))

#: ``ResilientSpaceCore`` entry points an operation is charged to; an
#: operation outside all of them is charged to ``"outside"``.
PROCEDURES = ("register", "establish_session", "handover", "recover")

#: ``ground-outage`` (2 trials of 12 UEs): 24 registrations, 24 session
#: establishments and 6 recoveries.  A registration is 3 ``generate``,
#: 2 ``power``, 1 ``is_element`` and 2 ``sign``; an establishment or a
#: recovery is 3 ``verify``, 5 ``power`` and 2 ``is_element``, and its
#: ``generate``/``sign`` also count the certificates the home issues to
#: satellites the first time they serve.  ``outside`` is the two trials'
#: home key pairs.
GROUND_OUTAGE_BUDGET = {
    "outside": {"generate": 2},
    "register": {"runs": 24, "generate": 72, "power": 48,
                 "is_element": 24, "sign": 48},
    "establish_session": {"runs": 24, "generate": 168, "power": 120,
                          "is_element": 48, "sign": 36, "verify": 72},
    "recover": {"runs": 6, "generate": 42, "power": 30, "is_element": 12,
                "sign": 9, "verify": 18},
}


def _count(monkeypatch, scenario):
    """Run ``scenario`` serially, charging every counted operation to
    the innermost procedure running when it was called."""
    active = ["outside"]
    counts = collections.defaultdict(collections.Counter)

    def charged(function, name):
        def wrapper(*args, **kwargs):
            counts[active[-1]][name] += 1
            return function(*args, **kwargs)
        return wrapper

    def scoped(function, name):
        def wrapper(*args, **kwargs):
            counts[name]["runs"] += 1
            active.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    for owner, name in OPS:
        monkeypatch.setattr(owner, name, charged(getattr(owner, name), name))
    for name in PROCEDURES:
        monkeypatch.setattr(ResilientSpaceCore, name,
                            scoped(getattr(ResilientSpaceCore, name), name))
    run_scenario(scenario, workers=1)
    return {procedure: dict(ops) for procedure, ops in counts.items()}


def test_ground_outage_op_counts_are_pinned(monkeypatch):
    assert _count(monkeypatch, CATALOG["ground-outage"]) \
        == GROUND_OUTAGE_BUDGET

