"""Known-bad fixture: suppression comments without justification.

Parsed by the analyzer tests, never imported or executed.
"""

import time


def unjustified_bracketed() -> float:
    # bare-suppression: names the rule but records no reason.
    return time.time()  # repro: ignore[wallclock-time]


def bare_blanket() -> dict:
    # bare-suppression: silences everything, says nothing.
    return {"b": 1, "a": 2}  # repro: ignore


def self_suppression_attempt() -> float:
    # bare-suppression is not suppressible: this still fires.
    return time.time()  # repro: ignore[wallclock-time, bare-suppression]


def justified() -> float:
    # Negative control: a justified waiver may not be flagged.
    return time.time()  # repro: ignore[wallclock-time] -- operator-facing log stamp only


def outlived_rule() -> float:
    # bare-suppression: justified, but the named rule no longer exists.
    return 0.0  # repro: ignore[shard-purity] -- waiver that outlived its rule
