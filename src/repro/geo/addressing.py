"""Geospatial UE addressing (S4.1 Step 2, Fig. 15c).

SpaceCore collapses the legacy location state (cell ID, tracking-area
ID, IP address) into a single 128-bit address::

      0        32        64        96       128
      +---------+---------+---------+---------+
      | PLMN-ID | home    | UE      | UE      |
      | prefix  | cell    | cell    | suffix  |
      +---------+---------+---------+---------+

* bits 96..127: the operator prefix (5G PLMN ID), used to route toward
  external networks;
* bits 64..95:  the *home* cell (column:16 | row:16) hosting the UE's
  terrestrial home network attachment;
* bits 32..63:  the UE's *current* geospatial cell (column:16 | row:16);
* bits 0..31:   a per-cell-unique UE suffix (the 5G-TMSI role).

The embedded cell is what lets any satellite derive the destination's
physical location from the packet header alone -- the key enabler of
the stateless relaying in Algorithm 1.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Tuple

CellId = Tuple[int, int]

_FIELD_BITS = 16
_FIELD_MAX = (1 << _FIELD_BITS) - 1
_WORD_MAX = (1 << 32) - 1


def _pack_cell(cell: CellId) -> int:
    col, row = cell
    if not (0 <= col <= _FIELD_MAX and 0 <= row <= _FIELD_MAX):
        raise ValueError(f"cell {cell} does not fit in 16+16 bits")
    return (col << _FIELD_BITS) | row


def _unpack_cell(word: int) -> CellId:
    return (word >> _FIELD_BITS) & _FIELD_MAX, word & _FIELD_MAX


@dataclass(frozen=True)
class GeospatialAddress:
    """A SpaceCore 128-bit geospatial address (Fig. 15c)."""

    plmn_id: int
    home_cell: CellId
    ue_cell: CellId
    ue_suffix: int

    def __post_init__(self) -> None:
        if not 0 <= self.plmn_id <= _WORD_MAX:
            raise ValueError("PLMN ID must fit in 32 bits")
        if not 0 <= self.ue_suffix <= _WORD_MAX:
            raise ValueError("UE suffix must fit in 32 bits")
        _pack_cell(self.home_cell)
        _pack_cell(self.ue_cell)

    # -- wire formats -----------------------------------------------------------

    def to_int(self) -> int:
        """The address as a 128-bit integer."""
        return ((self.plmn_id << 96)
                | (_pack_cell(self.home_cell) << 64)
                | (_pack_cell(self.ue_cell) << 32)
                | self.ue_suffix)

    def to_ipv6(self) -> str:
        """Render as an IPv6 literal (the natural deployment vehicle)."""
        return str(ipaddress.IPv6Address(self.to_int()))

    @classmethod
    def from_int(cls, value: int) -> "GeospatialAddress":
        if not 0 <= value < (1 << 128):
            raise ValueError("address must be a 128-bit integer")
        return cls(
            plmn_id=(value >> 96) & _WORD_MAX,
            home_cell=_unpack_cell((value >> 64) & _WORD_MAX),
            ue_cell=_unpack_cell((value >> 32) & _WORD_MAX),
            ue_suffix=value & _WORD_MAX,
        )

    @classmethod
    def from_ipv6(cls, literal: str) -> "GeospatialAddress":
        return cls.from_int(int(ipaddress.IPv6Address(literal)))


class AddressAllocator:
    """Per-cell suffix allocation, as the home network would perform it.

    Guarantees global uniqueness: the (cell, suffix) pair is unique by
    construction, and the suffix counter is per cell.
    """

    def __init__(self, plmn_id: int):
        if not 0 <= plmn_id <= _WORD_MAX:
            raise ValueError("PLMN ID must fit in 32 bits")
        self.plmn_id = plmn_id
        self._next_suffix: dict = {}

    def allocate(self, home_cell: CellId, ue_cell: CellId
                 ) -> GeospatialAddress:
        """Allocate a fresh address for a UE registering in ``ue_cell``."""
        suffix = self._next_suffix.get(ue_cell, 0)
        if suffix > _WORD_MAX:
            raise RuntimeError(f"cell {ue_cell} exhausted its suffix space")
        self._next_suffix[ue_cell] = suffix + 1
        return GeospatialAddress(self.plmn_id, home_cell, ue_cell, suffix)
