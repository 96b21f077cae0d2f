"""Known-bad fixture: suppression comments without justification.

Parsed by the analyzer tests, never imported or executed.
"""


# Each function below draws an implicit-optional finding on its def
# line, which the comment on that line tries to waive.

# bare-suppression: names the rule but records no reason.
def unjustified_bracketed(count: int = None) -> int:  # repro: ignore[implicit-optional]
    return count or 0


# bare-suppression: silences everything, says nothing.
def bare_blanket(count: int = None) -> int:  # repro: ignore
    return count or 0


# bare-suppression is not suppressible: this still fires.
def self_suppression_attempt(count: int = None) -> int:  # repro: ignore[implicit-optional, bare-suppression]
    return count or 0


# Negative control: a justified waiver may not be flagged.
def justified(count: int = None) -> int:  # repro: ignore[implicit-optional] -- fixture control
    return count or 0


# bare-suppression: justified, but the named rule no longer exists.
def outlived_rule() -> float:  # repro: ignore[shard-purity] -- waiver that outlived its rule
    return 0.0
