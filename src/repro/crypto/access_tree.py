"""Access-tree policies for attribute-based encryption (S4.4).

The home network expresses who may decrypt a UE's delegated states as
a Boolean formula over attributes, e.g. the paper's example::

    A(S) = (S is UE and S.SUPI == UE.SUPI)
           or (S is satellite and S supports QoS and S.bandwidth >= 10Gbps)

We model policies as threshold trees: leaves name attributes; internal
nodes are k-of-n gates (AND = n-of-n, OR = 1-of-n).  The same tree
drives both the Boolean satisfaction check and the Shamir share layout
inside the ABE ciphertext.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Union


@dataclass(frozen=True)
class Leaf:
    """A single required attribute, e.g. ``"role:satellite"``."""

    attribute: str

    def satisfies(self, attributes: FrozenSet[str]) -> bool:
        """Whether the attribute set meets this node."""
        return self.attribute in attributes

    def describe(self) -> str:
        """Human-readable rendering of the (sub)policy."""
        return self.attribute


@dataclass(frozen=True)
class Gate:
    """A k-of-n threshold gate over child policies."""

    threshold: int
    children: tuple

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("gate needs at least one child")
        if not 1 <= self.threshold <= len(self.children):
            raise ValueError(
                f"threshold {self.threshold} out of range for "
                f"{len(self.children)} children")

    def satisfies(self, attributes: FrozenSet[str]) -> bool:
        """Whether the attribute set meets this node."""
        hits = sum(child.satisfies(attributes) for child in self.children)
        return hits >= self.threshold

    def describe(self) -> str:
        """Human-readable rendering of the (sub)policy."""
        inner = ", ".join(child.describe() for child in self.children)
        if self.threshold == len(self.children):
            return f"AND({inner})"
        if self.threshold == 1:
            return f"OR({inner})"
        return f"{self.threshold}-of-{len(self.children)}({inner})"


PolicyNode = Union[Leaf, Gate]


def attr(name: str) -> Leaf:
    """A leaf requiring ``name``."""
    return Leaf(name)


def and_(*children: PolicyNode) -> Gate:
    """All children must be satisfied."""
    return Gate(len(children), tuple(children))


def or_(*children: PolicyNode) -> Gate:
    """Any child suffices."""
    return Gate(1, tuple(children))


def satisfies(policy: PolicyNode, attributes: Iterable[str]) -> bool:
    """Whether an attribute set satisfies a policy tree."""
    return policy.satisfies(frozenset(attributes))


def policy_to_json(policy: PolicyNode):
    """JSON-compatible encoding of a policy tree (wire format)."""
    if isinstance(policy, Leaf):
        return {"attr": policy.attribute}
    return {"k": policy.threshold,
            "children": [policy_to_json(child)
                         for child in policy.children]}


def policy_from_json(data) -> PolicyNode:
    """Inverse of :func:`policy_to_json`."""
    if "attr" in data:
        return Leaf(data["attr"])
    children = tuple(policy_from_json(child)
                     for child in data["children"])
    return Gate(data["k"], children)


def serving_satellite_policy(min_bandwidth_gbps: int = 10) -> Gate:
    """The paper's S4.4 example policy for a UE's delegated states.

    Either the UE itself (matching SUPI) or a QoS-capable satellite
    with sufficient bandwidth may open the states.
    """
    return or_(
        and_(attr("role:ue"), attr("supi:self")),
        and_(attr("role:satellite"), attr("cap:qos"),
             attr(f"bandwidth>={min_bandwidth_gbps}gbps")),
    )
