"""The heavy operators' kernels against their per-entry oracles.

* ``hash_range_batch`` against scalar ``hash_range``, at every power of
  two (a bit slice) and at other sizes (the high multiply);
* Count-Min's key-grouped ``add_batch`` against one ``add`` per entry:
  the threshold mask at every running estimate and one below it (which
  pins each estimate), cells and total, with narrow widths that force two
  keys of a batch onto one counter or hold fewer counters than the batch
  has keys;
* the array ``master_skyline`` against the brute-force O(n^2) definition;
* the array ``master_topn`` against the heap.

``process_batch`` of the SKYLINE pruner is held to one ``process()`` per
point by ``tests/test_skyline.py::TestSegmentKernelMatchesPerPointOracle``.
"""

from __future__ import annotations

import copy
import heapq
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.skyline import master_skyline, weakly_dominates
from repro.core.topn import master_topn
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hashing import hash_range, hash_range_batch

_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_WORDS = st.integers(0, 2**64 - 1)


@_SETTINGS
@given(
    values=st.lists(_WORDS, min_size=1, max_size=40),
    k=st.integers(0, 63),
    other=st.integers(1, 2**64 - 1),
    seed=st.integers(0, 2**16),
)
def test_hash_range_batch_equals_scalar(values, k, other, seed):
    array = np.array(values, dtype=np.uint64)
    for n in (1 << k, other):
        expected = [hash_range(v, n, seed) for v in values]
        assert hash_range_batch(array, n, seed).tolist() == expected


@st.composite
def _key_batches(draw):
    """Batches of one key kind: few or many distinct keys, all-duplicate
    and all-distinct runs, negative int64, uint64 past 2**63, floats."""
    kind = draw(st.sampled_from(["int", "uint", "float"]))
    element = {
        "int": st.integers(-(2**63), 2**63 - 1),
        "uint": st.integers(2**63, 2**64 - 1),
        "float": st.floats(allow_nan=False, width=64),
    }[kind]
    dtype = {"int": np.int64, "uint": np.uint64, "float": np.float64}[kind]
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        pool = draw(st.lists(element, min_size=1, max_size=6))
        shape = draw(st.sampled_from(["mixed", "duplicate", "distinct"]))
        if shape == "duplicate":
            keys = pool[:1] * draw(st.integers(1, 30))
        elif shape == "distinct":
            keys = draw(st.lists(element, max_size=30, unique=True))
        else:
            keys = draw(st.lists(st.sampled_from(pool), max_size=60))
        amounts = draw(st.lists(st.integers(0, 2**20), min_size=len(keys), max_size=len(keys)))
        batches.append((np.array(keys, dtype=dtype), np.array(amounts, dtype=np.int64)))
    return batches


@_SETTINGS
@given(
    batches=_key_batches(),
    width=st.one_of(st.integers(1, 8), st.sampled_from([1000, 1024])),
    depth=st.integers(1, 4),
    seed=st.integers(0, 3),
)
def test_countmin_add_batch_equals_per_entry_add(batches, width, depth, seed):
    oracle = CountMinSketch(width, depth, seed=seed)
    batched = CountMinSketch(width, depth, seed=seed)
    for keys, amounts in batches:
        expected = [oracle.add(k, int(a)) for k, a in zip(keys.tolist(), amounts)]
        # An estimate x passes at threshold x - 1 and fails at x: the masks
        # at every distinct running estimate and one below pin each entry's.
        for threshold in sorted({e - below for e in expected for below in (0, 1)}):
            probe = copy.deepcopy(batched)
            got = probe.add_batch(keys, amounts, threshold).tolist()
            assert got == [e > threshold for e in expected]
            assert np.array_equal(probe._rows, oracle._rows)
            assert probe.total == oracle.total
        batched.add_batch(keys, amounts, 0)
        assert np.array_equal(batched._rows, oracle._rows)
        assert batched.total == oracle.total
        assert batched.estimate_batch(keys).tolist() == [
            oracle.estimate(k) for k in keys.tolist()
        ]


def _brute_force_skyline(points):
    """Every distinct point (tuple equality) no other one weakly dominates."""
    unique = list(dict.fromkeys(tuple(p) for p in points))
    return [
        c
        for c in unique
        if not any(o != c and weakly_dominates(o, c) for o in unique)
    ]


def _multiset(points):
    return sorted(map(repr, points))


_COORDINATE = st.one_of(
    st.integers(0, 6).map(float),  # duplicates and sum ties
    st.sampled_from([-0.0, 0.0, 1e16, -1.0]),
    st.just("nan"),
)


@_SETTINGS
@given(
    dims=st.integers(1, 4),
    data=st.data(),
    as_array=st.booleans(),
)
def test_master_skyline_equals_brute_force(dims, data, as_array):
    rows = data.draw(
        st.lists(st.tuples(*[_COORDINATE] * dims), max_size=70)
    )
    # A fresh NaN object per coordinate, as an array's tolist() hands out.
    points = [tuple(float(v) for v in row) for row in rows]
    given_points = np.array(points, dtype=np.float64).reshape(-1, dims) if as_array else points
    assert _multiset(master_skyline(given_points)) == _multiset(
        _brute_force_skyline(points)
    )


def test_master_skyline_block_cut_keeps_sum_ties_together():
    # 300 distinct points whose sums all round to 1e20, each dominated by
    # every later one: a block cut inside the tie would keep an early one.
    points = [(1e20, float(k)) for k in range(300)]
    assert master_skyline(points) == [(1e20, 299.0)]


@_SETTINGS
@given(
    values=st.lists(
        st.one_of(st.integers(-5, 5).map(float), st.sampled_from([-0.0, 0.0, math.inf])),
        max_size=80,
    ),
    n=st.integers(0, 90),
)
@example(values=[0.0, -0.0, -0.0, 0.0], n=2)  # ties keep stream order
def test_master_topn_array_equals_heap(values, n):
    got = master_topn(np.array(values, dtype=np.float64), n)
    expected = heapq.nlargest(n, values)
    assert list(map(repr, got)) == list(map(repr, expected))


def test_master_topn_takes_the_heap_for_nan():
    values = [1.0, float("nan"), 3.0, 2.0]
    assert repr(master_topn(np.array(values), 2)) == repr(heapq.nlargest(2, values))
