"""Tests for geospatial addressing (Fig. 15c)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo import AddressAllocator, GeospatialAddress

cells = st.tuples(st.integers(0, 65535), st.integers(0, 65535))
words = st.integers(0, 2**32 - 1)


def make_address(**overrides):
    defaults = dict(plmn_id=46000, home_cell=(10, 3), ue_cell=(49, 7),
                    ue_suffix=1234)
    defaults.update(overrides)
    return GeospatialAddress(**defaults)


class TestEncoding:
    def test_int_roundtrip(self):
        addr = make_address()
        assert GeospatialAddress.from_int(addr.to_int()) == addr

    def test_bytes_roundtrip(self):
        addr = make_address()
        packed = addr.to_bytes()
        assert len(packed) == 16
        assert GeospatialAddress.from_bytes(packed) == addr

    def test_ipv6_roundtrip(self):
        addr = make_address()
        literal = addr.to_ipv6()
        assert ":" in literal
        assert GeospatialAddress.from_ipv6(literal) == addr

    @given(words, cells, cells, words)
    def test_roundtrip_property(self, plmn, home, ue, suffix):
        addr = GeospatialAddress(plmn, home, ue, suffix)
        assert GeospatialAddress.from_int(addr.to_int()) == addr

    def test_field_positions(self):
        """Fig. 15c: PLMN | home cell | UE cell | suffix, 32 bits each."""
        addr = GeospatialAddress(1, (0, 2), (0, 3), 4)
        value = addr.to_int()
        assert (value >> 96) == 1
        assert (value >> 64) & 0xFFFFFFFF == 2
        assert (value >> 32) & 0xFFFFFFFF == 3
        assert value & 0xFFFFFFFF == 4

    def test_rejects_oversize_fields(self):
        with pytest.raises(ValueError):
            make_address(plmn_id=2**32)
        with pytest.raises(ValueError):
            make_address(ue_suffix=-1)
        with pytest.raises(ValueError):
            make_address(ue_cell=(70000, 0))

    def test_from_bytes_wrong_length(self):
        with pytest.raises(ValueError):
            GeospatialAddress.from_bytes(b"short")

    def test_from_int_range_check(self):
        with pytest.raises(ValueError):
            GeospatialAddress.from_int(1 << 128)


class TestAllocator:
    def test_unique_addresses_within_cell(self):
        alloc = AddressAllocator(46000)
        addrs = {alloc.allocate((0, 0), (5, 5)).to_int() for _ in range(100)}
        assert len(addrs) == 100

    def test_suffixes_are_per_cell(self):
        alloc = AddressAllocator(46000)
        a = alloc.allocate((0, 0), (5, 5))
        b = alloc.allocate((0, 0), (6, 6))
        assert a.ue_suffix == 0
        assert b.ue_suffix == 0  # independent counters

    def test_rejects_bad_plmn(self):
        with pytest.raises(ValueError):
            AddressAllocator(-1)
