"""Unit tests for address arithmetic and NUMA home mapping."""

import pytest

from repro.common.addr import AddressMap
from repro.common.errors import ConfigError


@pytest.fixture
def amap():
    return AddressMap(line_bytes=32, word_bytes=4, num_banks=8,
                      interleave_bytes=256)


def test_line_of(amap):
    assert amap.line_of(0) == 0
    assert amap.line_of(31) == 0
    assert amap.line_of(32) == 32
    assert amap.line_of(100) == 96


def test_word_of(amap):
    assert amap.word_of(0) == 0
    assert amap.word_of(3) == 0
    assert amap.word_of(4) == 4
    assert amap.word_of(33) == 32


def test_word_index_and_mask(amap):
    assert amap.word_index(0) == 0
    assert amap.word_index(4) == 1
    assert amap.word_index(28) == 7
    assert amap.word_index(32) == 0  # next line
    assert amap.word_mask(8) == 0b100
    assert amap.words_per_line == 8


def test_words_in_line(amap):
    words = [w for w in range(0, 128, 4) if amap.line_of(w) == amap.line_of(70)]
    assert words == [64, 68, 72, 76, 80, 84, 88, 92]


def test_home_bank_interleaving(amap):
    # addresses inside one 256-byte block share a bank
    assert amap.home_bank(0) == amap.home_bank(255)
    assert amap.home_bank(256) == 1
    assert amap.home_bank(256 * 8) == 0  # wraps around 8 banks
    assert amap.home_bank(256 * 9 + 17) == 1


def test_same_line(amap):
    assert amap.same_line(0, 31)
    assert not amap.same_line(31, 32)


def test_default_interleave_is_line():
    amap = AddressMap(line_bytes=32, word_bytes=4, num_banks=4)
    assert amap.interleave_bytes == 32
    assert amap.home_bank(32) == 1


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigError):
        AddressMap(line_bytes=30, word_bytes=4, num_banks=2)
    with pytest.raises(ConfigError):
        AddressMap(line_bytes=32, word_bytes=4, num_banks=2,
                   interleave_bytes=48)
    with pytest.raises(ConfigError):
        AddressMap(line_bytes=0, word_bytes=4, num_banks=2)
