"""Tests for the seeded hash family (repro.sketches.hashing)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.hashing import (
    canonical_batch,
    canonical_int,
    fingerprint,
    hash64,
    hash_family,
    hash_range,
    stable_order,
)


class TestCanonicalInt:
    def test_int_maps_to_itself(self):
        assert canonical_int(42) == 42

    def test_negative_int_wraps_to_64_bits(self):
        assert canonical_int(-1) == (1 << 64) - 1

    def test_bool_is_not_treated_as_plain_int_one(self):
        # bool goes through its own branch but keeps int semantics.
        assert canonical_int(True) == 1
        assert canonical_int(False) == 0

    def test_string_is_stable(self):
        assert canonical_int("cheetah") == canonical_int("cheetah")

    def test_different_strings_differ(self):
        assert canonical_int("cheetah") != canonical_int("cheetha")

    def test_bytes_and_equal_string_share_encoding(self):
        assert canonical_int(b"abc") == canonical_int("abc")

    def test_float_uses_bit_pattern(self):
        assert canonical_int(1.5) == canonical_int(1.5)
        assert canonical_int(1.5) != canonical_int(1.50000001)

    def test_numpy_integer_supported(self):
        assert canonical_int(np.int64(7)) == canonical_int(7)

    def test_numpy_float_supported(self):
        assert canonical_int(np.float64(2.5)) == canonical_int(2.5)

    def test_tuple_is_order_sensitive(self):
        assert canonical_int((1, 2)) != canonical_int((2, 1))

    def test_nested_tuple_supported(self):
        assert canonical_int(((1, "a"), 2)) == canonical_int(((1, "a"), 2))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_int([1, 2, 3])


class TestCanonicalBatch:
    @pytest.mark.parametrize(
        "values",
        [
            [2.0, 3],
            [3, 2.5],
            [True, 2.0],
            [np.int64(3), 2.5],
            [2**63, 1],
            [2**64 - 1, -1],
            [1.5, 2.5],
            [1, 2, 3],
        ],
    )
    def test_sequence_matches_scalar_canon(self, values):
        """A Python sequence numpy would merge into one float64 array
        still canonicalizes each element by its own type."""
        assert canonical_batch(values).tolist() == [
            canonical_int(v) for v in values
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        strings=st.lists(
            st.one_of(st.just(""), st.text(max_size=3), st.text(min_size=40, max_size=200)),
            max_size=40,
        ),
        repeat=st.integers(1, 3),
    )
    def test_string_array_folds_each_value_like_scalar(self, strings, repeat):
        """A ``U`` array hashes each distinct string once and still gives
        element ``i`` the canon of ``values[i]``: empty, short and long
        strings, any code point, repeated."""
        values = np.array(strings * repeat, dtype=str)
        assert canonical_batch(values).tolist() == [canonical_int(v) for v in values]

    @settings(max_examples=150, deadline=None)
    @given(blobs=st.lists(st.binary(max_size=60), max_size=40), repeat=st.integers(1, 3))
    def test_bytes_array_folds_each_value_like_scalar(self, blobs, repeat):
        """The same for ``S`` arrays, whose elements drop trailing NULs:
        the canon is always that of the element the array gives back."""
        values = np.array(blobs * repeat, dtype=bytes)
        assert canonical_batch(values).tolist() == [canonical_int(v) for v in values]

    def test_object_array_keeps_each_elements_type(self):
        """``1``, ``1.0`` and ``True`` are equal, so one dict key would
        merge them; an object array canonicalizes each by its own type."""
        values = np.array([1, 1.0, True, "1", b"1"], dtype=object)
        assert canonical_batch(values).tolist() == [canonical_int(v) for v in values]


class TestHash64:
    def test_deterministic(self):
        assert hash64("x", seed=3) == hash64("x", seed=3)

    def test_seed_changes_output(self):
        assert hash64("x", seed=1) != hash64("x", seed=2)

    def test_output_fits_64_bits(self):
        for value in (0, 1, "abc", (1, 2, 3)):
            assert 0 <= hash64(value) < 1 << 64

    def test_avalanche_on_adjacent_ints(self):
        # Adjacent inputs should differ in roughly half the bits.
        diff = hash64(1000) ^ hash64(1001)
        assert 16 <= bin(diff).count("1") <= 48


class TestHashRange:
    def test_in_range(self):
        for i in range(200):
            assert 0 <= hash_range(i, 7) < 7

    def test_range_one_always_zero(self):
        assert hash_range("anything", 1) == 0

    def test_invalid_range_raises(self):
        with pytest.raises(ValueError):
            hash_range(1, 0)

    def test_roughly_uniform(self):
        n = 10
        counts = [0] * n
        for i in range(5000):
            counts[hash_range(i, n)] += 1
        assert min(counts) > 300  # expectation 500 per bucket
        assert max(counts) < 700


class TestHashFamily:
    def test_returns_requested_count(self):
        fns = hash_family(5, 100)
        assert len(fns) == 5

    def test_functions_are_independent(self):
        f1, f2 = hash_family(2, 1 << 30)
        collisions = sum(1 for i in range(1000) if f1(i) == f2(i))
        assert collisions <= 2

    def test_zero_count_raises(self):
        with pytest.raises(ValueError):
            hash_family(0, 10)

    def test_functions_stay_in_range(self):
        for fn in hash_family(3, 13):
            assert all(0 <= fn(i) < 13 for i in range(100))


class TestFingerprint:
    def test_width_respected(self):
        for bits in (1, 8, 16, 32, 64):
            assert 0 <= fingerprint("v", bits) < 1 << bits

    def test_invalid_width_raises(self):
        with pytest.raises(ValueError):
            fingerprint("v", 0)
        with pytest.raises(ValueError):
            fingerprint("v", 65)

    def test_deterministic(self):
        assert fingerprint((1, "a"), 32, seed=9) == fingerprint((1, "a"), 32, seed=9)

    def test_collision_rate_matches_width(self):
        # 16-bit fingerprints over 500 values: expected ~1.9 colliding pairs.
        values = {fingerprint(i, 16) for i in range(500)}
        assert len(values) > 480


@pytest.mark.parametrize(
    "count, bound",
    [(0, 5), (1, 1), (40_000, 4096), (65_535, 1 << 16), (65_536, 1 << 16), (300, 1 << 62)],
    ids=["empty", "one", "rows", "uint32-limit", "uint64", "wider-than-a-word"],
)
def test_stable_order_is_the_stable_argsort(count, bound):
    """Ids packed above their positions into uint32 or uint64 words, or a
    stable argsort once they do not fit: the same permutation, ties kept
    in stream order."""
    ids = np.random.default_rng(count).integers(0, min(bound, 50), count) * (bound // 50 or 1)
    ids = np.minimum(ids, bound - 1)
    order = stable_order(ids, bound)
    assert order.dtype == np.intp
    assert order.tolist() == np.argsort(ids, kind="stable").tolist()
