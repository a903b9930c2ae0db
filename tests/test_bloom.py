"""Tests for Bloom filters (repro.sketches.bloom)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sketches.bloom import BloomFilter, RegisterBloomFilter


class TestBloomFilter:
    def test_added_value_is_member(self):
        bf = BloomFilter(1024, hashes=3)
        bf.add("cheetah")
        assert "cheetah" in bf

    def test_no_false_negatives_bulk(self):
        bf = BloomFilter(1 << 16, hashes=3)
        bf.update(range(2000))
        assert all(i in bf for i in range(2000))

    def test_empty_filter_has_no_members(self):
        bf = BloomFilter(1024)
        assert all(i not in bf for i in range(100))

    def test_false_positive_rate_near_theory(self):
        bf = BloomFilter(1 << 14, hashes=3, seed=7)
        bf.update(range(1000))
        probes = 20_000
        fps = sum(1 for i in range(10_000_000, 10_000_000 + probes) if i in bf)
        theoretical = bf.false_positive_rate()
        assert fps / probes < theoretical * 2 + 0.01

    def test_clear_removes_everything(self):
        bf = BloomFilter(1024)
        bf.update(range(50))
        bf.clear()
        assert bf._inserted == 0
        assert all(i not in bf for i in range(50))

    def test_fill_ratio_grows_with_inserts(self):
        bf = BloomFilter(4096, hashes=3)
        before = bf.fill_ratio()
        bf.update(range(200))
        assert bf.fill_ratio() > before

    def test_inserted_counts_duplicates(self):
        bf = BloomFilter(1024)
        bf.add("x")
        bf.add("x")
        assert bf._inserted == 2

    def test_invalid_size_raises(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(0)

    def test_invalid_hash_count_raises(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(128, hashes=0)

    def test_seed_changes_layout(self):
        a = BloomFilter(1 << 12, seed=1)
        b = BloomFilter(1 << 12, seed=2)
        a.add("v")
        b.add("v")
        assert a._words != b._words  # different bit layout


@pytest.mark.parametrize("cls", [BloomFilter, RegisterBloomFilter])
def test_reset_state_equals_a_fresh_filter(cls):
    """``clear()`` zeroes the bit buffer in place: bits, fill ratio and
    insert count then read exactly as a freshly built filter's."""
    fresh = cls(1 << 12, hashes=3, seed=4)
    used = cls(1 << 12, hashes=3, seed=4)
    used.add_batch(list(range(300)))
    used.add("x")
    used.clear()
    bits = "_words" if cls is BloomFilter else "_registers"
    assert bytes(getattr(used, bits)) == bytes(getattr(fresh, bits))
    assert used.fill_ratio() == fresh.fill_ratio() == 0.0
    assert used._inserted == fresh._inserted == 0


@settings(max_examples=80, deadline=None)
@given(
    size_bits=st.integers(1, 300),
    values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=120),
    hashes=st.integers(1, 4),
)
def test_bulk_build_and_fill_ratio_equal_the_per_bit_definition(size_bits, values, hashes):
    """``add_batch`` sets the scalar loop's bits even when a small filter
    puts many of a slice's bits in one byte (its scatter rounds), and
    ``fill_ratio`` counts whole 64-bit words plus a tail of odd bytes."""
    scalar = BloomFilter(size_bits, hashes=hashes, seed=9)
    batch = BloomFilter(size_bits, hashes=hashes, seed=9)
    for value in values:
        scalar.add(value)
    batch.add_batch(np.array(values, dtype=np.int64))
    assert bytes(batch._words) == bytes(scalar._words)
    set_bits = sum(bin(byte).count("1") for byte in scalar._words)
    assert batch.fill_ratio() == set_bits / size_bits


class TestRegisterBloomFilter:
    def test_added_value_is_member(self):
        rbf = RegisterBloomFilter(1 << 12, hashes=3)
        rbf.add(12345)
        assert 12345 in rbf

    def test_no_false_negatives_bulk(self):
        rbf = RegisterBloomFilter(1 << 16, hashes=3)
        rbf.update(range(2000))
        assert all(i in rbf for i in range(2000))

    def test_false_positive_rate_reasonable(self):
        # RBF trades a slightly higher FP rate for a one-stage lookup.
        rbf = RegisterBloomFilter(1 << 16, hashes=3, seed=11)
        rbf.update(range(1000))
        probes = 20_000
        fps = sum(1 for i in range(5_000_000, 5_000_000 + probes) if i in rbf)
        assert fps / probes < 0.05

    def test_minimum_size_enforced(self):
        with pytest.raises(ConfigurationError):
            RegisterBloomFilter(32)

    def test_hash_count_bounds(self):
        with pytest.raises(ConfigurationError):
            RegisterBloomFilter(1024, hashes=0)
        with pytest.raises(ConfigurationError):
            RegisterBloomFilter(1024, hashes=65)

    def test_size_rounds_down_to_words(self):
        rbf = RegisterBloomFilter(100)  # not a multiple of 64
        assert rbf.size_bits == 64

    def test_clear(self):
        rbf = RegisterBloomFilter(1 << 12)
        rbf.update(range(100))
        rbf.clear()
        assert rbf._inserted == 0
        assert all(i not in rbf for i in range(100))

    def test_mask_has_at_most_h_bits(self):
        rbf = RegisterBloomFilter(1 << 12, hashes=5)
        for i in range(100):
            assert 1 <= bin(rbf._mask(i)).count("1") <= 5

    def test_many_hashes_supported(self):
        rbf = RegisterBloomFilter(1 << 12, hashes=20)
        rbf.add("wide")
        assert "wide" in rbf

    def test_fill_ratio_bounded(self):
        rbf = RegisterBloomFilter(1 << 14, hashes=3)
        rbf.update(range(500))
        assert 0.0 < rbf.fill_ratio() < 1.0


_DISTINCT_FIRST = {
    # A dense int column with repeats: each distinct value hashes once.
    # Its build half spans two slices, the second bringing new values.
    "dense-int64": lambda rng: np.concatenate([
        rng.integers(-50, 500, 40_000),
        rng.integers(500, 1_500, 10_000),
        rng.integers(1_500, 3_000, 50_000),
    ]),
    "dense-uint64-top": lambda rng: np.uint64(2**64 - 1) - rng.integers(0, 3_000, 5_000).astype(
        np.uint64
    ),
    "dense-int8": lambda rng: rng.integers(-128, 128, 9_000).astype(np.int8),
    # Wider than it is long: every value hashes, as for any other dtype.
    "sparse-int64": lambda rng: rng.integers(-(2**62), 2**62, 3_000),
    "float": lambda rng: rng.integers(0, 900, 5_000) * 0.5,
    "str": lambda rng: np.array([f"url{i}" for i in rng.integers(0, 900, 3_000)]),
}


@pytest.mark.parametrize("kind", sorted(_DISTINCT_FIRST))
def test_batch_build_and_probe_equal_the_per_value_loop(kind):
    """Whatever the array, ``add_batch`` leaves the per-value loop's bytes
    and ``inserted`` count (duplicates included), and ``contains_batch``
    answers each value as ``in`` does — hits, and misses on values never
    added."""
    probe = _DISTINCT_FIRST[kind](np.random.default_rng(len(kind)))
    build = probe[probe < np.sort(probe)[len(probe) // 2]]  # the upper half misses
    batch, scalar = BloomFilter(1 << 15, hashes=3, seed=2), BloomFilter(1 << 15, hashes=3, seed=2)
    batch.add_batch(build)
    for value in build:
        scalar.add(value)
    assert bytes(batch._words) == bytes(scalar._words)
    assert batch._inserted == scalar._inserted == len(build)
    got = batch.contains_batch(probe)
    assert got.dtype == bool
    assert got.tolist() == [value in scalar for value in probe]
    assert 0 < got.sum() < len(probe)
