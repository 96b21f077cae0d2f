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
from typing import Iterable, Union


@dataclass(frozen=True)
class Leaf:
    """A single required attribute, e.g. ``"role:satellite"``."""

    attribute: str


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
    held = frozenset(attributes)

    def meets(node: PolicyNode) -> bool:
        if isinstance(node, Leaf):
            return node.attribute in held
        return sum(meets(child) for child in node.children) \
            >= node.threshold

    return meets(policy)


def serving_satellite_policy() -> Gate:
    """The paper's S4.4 example policy for a UE's delegated states.

    Either the UE itself (matching SUPI) or a QoS-capable satellite
    with at least 10 Gbps may open the states.
    """
    return or_(
        and_(attr("role:ue"), attr("supi:self")),
        and_(attr("role:satellite"), attr("cap:qos"),
             attr("bandwidth>=10gbps")),
    )
