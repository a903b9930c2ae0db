"""The cache-matrix batch kernels against the per-entry oracle.

``lookup_insert_batch`` / ``offer_batch`` / ``observe_batch`` run numeric
batches as sort-partitioned, conflict-free rounds over typed arrays and
replay everything else per entry; ``lookup_insert`` / ``offer`` /
``observe`` are the oracle.  Generated streams are cut into batches of
1 / 7 / ``rows`` / 4096 entries and must leave the same decisions, the
same cells and the same counters as one call per entry — whatever the
key dtype, however the batches interleave with per-entry calls, reboots
and injected phantom cells.
"""

from __future__ import annotations

import math
import operator
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.distinct import DistinctPruner, FingerprintDistinctPruner
from repro.core.groupby import GroupByPruner
from repro.core.having import HavingPruner
from repro.core.topn import TopNRandomizedPruner
from repro.sketches import cachematrix
from repro.sketches.cachematrix import (
    CacheMatrix,
    KeyedAggregateMatrix,
    RollingMinMatrix,
)
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hashing import hash_range, hash_range_batch

_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Rounds narrower than ``_FEW_LANES`` hand their lanes to the per-entry
#: tail; the matrices here are small, so most examples lower it to keep
#: the vector rounds going to the last lane.
few_lanes = st.sampled_from((1, 1, 4, cachematrix._FEW_LANES))

ROW_PATTERNS = ("uniform", "hot", "single", "neighbours")
KEY_PATTERNS = ("uniform", "duplicates", "alternating", "runs")
VALUE_PATTERNS = ("uniform", "ascending", "descending", "constant", "ties", "nonfinite")
#: Kinds one stream may mix: a numpy scalar cannot be compared with a tuple
#: (``np.int64(0) == (2, "t")`` is an array), on either path.
KEY_KINDS = (("int64", "uint64", "float", "str", "mixed"), ("str", "tuple", "mixed"))


def _rows(rng, pattern: str, n: int, d: int) -> np.ndarray:
    uniform = rng.integers(0, d, n)
    hot = int(rng.integers(0, d))
    if pattern == "hot":  # one row takes most of the stream
        return np.where(rng.random(n) < 0.8, hot, uniform)
    if pattern == "single":
        return np.full(n, hot)
    if pattern == "neighbours":  # the same keys on both sides of a row boundary
        return (hot + np.arange(n) % 2) % d
    return uniform


def _key_ids(rng, pattern: str, n: int, w: int) -> np.ndarray:
    pool = w + 3  # more keys than a row holds, so rows evict
    if pattern == "duplicates":
        return np.full(n, int(rng.integers(0, pool)))
    if pattern == "alternating":  # A-B-A-B
        return np.arange(n) % 2 + int(rng.integers(0, pool))
    if pattern == "runs":
        return np.repeat(rng.integers(0, pool, n), rng.integers(1, 6, n))[:n]
    return rng.integers(0, pool, n)


def _values(rng, pattern: str, n: int) -> np.ndarray:
    if pattern == "ascending":
        return np.arange(n, dtype=np.float64)
    if pattern == "descending":
        return -np.arange(n, dtype=np.float64)
    if pattern == "constant":
        return np.full(n, 2.5)
    if pattern == "ties":  # few distinct values: ties at the row minimum
        return rng.integers(0, 4, n).astype(np.float64)
    values = rng.normal(0.0, 100.0, n)
    if pattern == "nonfinite" and n:
        values[rng.integers(0, n, 3)] = [math.nan, math.inf, -math.inf]
    return values


def _keys(ids: np.ndarray, kind: str):
    """Key ids in one representation: typed array (vector path) or list."""
    if kind == "int64":
        return np.where(ids == 0, -(2**63), ids - 3).astype(np.int64)
    if kind == "uint64":
        return np.where(ids == 1, 2**64 - 1, ids.astype(np.uint64) + 2**63).astype(
            np.uint64
        )
    if kind == "float":  # shares the values 0, 1, 2... with the int kind; NaN never hits
        return np.where(ids == 0, math.nan, ids * 0.5 - 1.0)
    if kind == "str":
        return [f"k{i}" for i in ids.tolist()]
    if kind == "tuple":
        return [(i, "t") for i in ids.tolist()]
    return [(i, f"k{i}")[i % 2] for i in ids.tolist()]


@st.composite
def streams(draw):
    """Matrix shape, a stream, and how it is cut up and interrupted."""
    d = draw(st.integers(1, 64))
    w = draw(st.integers(1, 9))
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = _rows(rng, draw(st.sampled_from(ROW_PATTERNS)), n, d)
    ids = _key_ids(rng, draw(st.sampled_from(KEY_PATTERNS)), n, w)
    values = _values(rng, draw(st.sampled_from(VALUE_PATTERNS)), n)
    kinds = draw(
        st.lists(st.sampled_from(draw(st.sampled_from(KEY_KINDS))), min_size=1, max_size=3)
    )
    sizes = draw(st.lists(st.sampled_from((1, 7, d, 4096)), min_size=1, max_size=6))
    steps = draw(
        st.lists(
            st.sampled_from(("batch", "batch", "batch", "each", "clear", "corrupt")),
            min_size=1,
            max_size=6,
        )
    )
    chunks, lo = [], 0
    while lo < n:
        i = len(chunks)
        hi = n if i >= 40 else min(n, lo + sizes[i % len(sizes)])
        cut = slice(lo, hi)
        chunks.append(
            (steps[i % len(steps)], _keys(ids[cut], kinds[i % len(kinds)]),
             values[cut], rows[cut])
        )
        lo = hi
    return d, w, chunks, draw(st.booleans()), draw(few_lanes)


def _plain(cell):
    """A cell as plain Python, NaN comparable, whichever form held it."""
    if isinstance(cell, tuple):
        return tuple(_plain(c) for c in cell)
    if isinstance(cell, np.generic):
        cell = cell.item()
    return "nan" if isinstance(cell, float) and math.isnan(cell) else cell


def _cells_of(matrix):
    return [[_plain(c) for c in matrix.row_values(r)] for r in range(matrix.rows)]


def _state(matrix, counters):
    rows = _cells_of(matrix)
    assert matrix.occupancy() == sum(len(row) for row in rows)
    return rows, {name: getattr(matrix, name) for name in counters}


class given_rows:
    """Route a batch through ``rows`` instead of the matrix's row hash, as
    the per-entry oracle's ``row`` argument does; ``None`` keeps the hash.
    The closed-form settling path hashes keys itself, so it stands down.
    Use as a context manager or call it: ``given_rows(m, rows)(fn, *args)``."""

    def __init__(self, matrix, rows) -> None:
        self._patches = [] if rows is None else [
            mock.patch.object(matrix, "row_of_batch", lambda values: np.asarray(rows)),
            mock.patch.object(matrix, "_keyed", lambda keys: None),
        ]

    def __enter__(self):
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc) -> None:
        for patch in self._patches:
            patch.stop()

    def __call__(self, fn, *args):
        with self:
            return fn(*args)


def _drive(subject, oracle, chunks, few, one, many, corrupt):
    """Batch calls on ``subject``, one call per entry on ``oracle``."""
    with mock.patch.object(cachematrix, "_FEW_LANES", few):
        for step, keys, values, rows in chunks:
            if step == "clear":
                subject.clear()
                oracle.clear()
            elif step == "corrupt":  # a chaos phantom cell, then the batch
                cell = (int(rows[0]), len(rows) % subject.cols)
                corrupt(subject, *cell)
                corrupt(oracle, *cell)
            span = range(len(rows))
            expected = [one(oracle, keys[i], values[i], rows[i]) for i in span]
            if step == "each":  # per-entry calls interleaved with the batches
                got = [one(subject, keys[i], values[i], rows[i]) for i in span]
            else:
                got = many(subject, keys, values, rows).tolist()
            assert got == expected


class TestCacheMatrixKernel:
    @_SETTINGS
    @given(stream=streams(), policy=st.sampled_from(("lru", "fifo")))
    def test_lookup_insert_batch_equals_the_per_entry_loop(self, stream, policy):
        d, w, chunks, hashed, few = stream
        subject = CacheMatrix(d, w, policy=policy, seed=3)
        oracle = CacheMatrix(d, w, policy=policy, seed=3)
        row = (lambda r: None) if hashed else int
        _drive(
            subject, oracle, chunks, few,
            one=lambda m, key, _, r: m.lookup_insert(key, row(r)),
            many=lambda m, keys, _, rows: given_rows(m, None if hashed else rows)(
                m.lookup_insert_batch, keys
            ),
            corrupt=lambda m, r, c: m.corrupt_cell(r, c, "corrupt-7"),
        )
        counters = ("hits", "misses", "evictions")
        assert _state(subject, counters) == _state(oracle, counters)
        for r in range(0, d, 5):
            assert [_plain(v) for v in subject.row_values(r)] == [
                _plain(v) for v in oracle.row_values(r)
            ]
            for value in oracle.row_values(r):
                if value == value:  # NaN is only ever "contained" by identity
                    assert value in subject.row_values(r)


class TestRollingMinMatrixKernel:
    @_SETTINGS
    @given(stream=streams(), integral=st.booleans())
    def test_offer_batch_equals_the_per_entry_loop(self, stream, integral):
        d, w, chunks, _, few = stream
        if integral:  # an int value array is offered as float(value), like the replay
            chunks = [
                (step, keys, np.nan_to_num(values, posinf=9, neginf=-9).astype(np.int64), rows)
                for step, keys, values, rows in chunks
            ]
        subject, oracle = RollingMinMatrix(d, w), RollingMinMatrix(d, w)
        _drive(
            subject, oracle, chunks, few,
            one=lambda m, _, value, r: m.offer(float(value), int(r)),
            many=lambda m, _, values, rows: m.offer_batch(values, rows),
            corrupt=lambda m, r, c: m.corrupt_cell(r, c, float(1 << 60)),
        )
        counters = ("offers", "rejected")
        assert _state(subject, counters) == _state(oracle, counters)
        for r in range(d):
            assert _plain(subject.minimum(r)) == _plain(oracle.minimum(r))
            assert len(subject.row_values(r)) == len(oracle.row_values(r))


class TestKeyedAggregateMatrixKernel:
    @_SETTINGS
    @given(
        stream=streams(),
        better=st.sampled_from((operator.gt, operator.lt, lambda new, old: new > old)),
    )
    def test_observe_batch_equals_the_per_entry_loop(self, stream, better):
        d, w, chunks, hashed, few = stream
        subject = KeyedAggregateMatrix(d, w, better=better, seed=5)
        oracle = KeyedAggregateMatrix(d, w, better=better, seed=5)
        row = (lambda r: None) if hashed else int
        _drive(
            subject, oracle, chunks, few,
            one=lambda m, key, value, r: m.observe(key, float(value), row(r)),
            many=lambda m, keys, values, rows: given_rows(m, None if hashed else rows)(
                m.observe_batch, keys, values
            ),
            corrupt=lambda m, r, c: m.corrupt_cell(r, c, "corrupt-7", float(1 << 48)),
        )
        counters = ("hits", "updates", "inserts", "evictions")
        assert _state(subject, counters) == _state(oracle, counters)
        for r in range(0, d, 5):
            assert [_plain(k) for k, _ in subject.row_values(r)] == [
                _plain(k) for k, _ in oracle.row_values(r)
            ]


def test_a_run_of_one_key_stops_at_the_row_boundary():
    """Sorted by row, the last lane of row 1 and the first of row 2 hold the
    same key; they are two lanes, not one run."""
    keys = np.full(6, 5, dtype=np.int64)
    rows = np.array([1, 2, 1, 2, 1, 2])
    expected = [False, False, True, True, True, True]
    cache = CacheMatrix(4, 2)
    with given_rows(cache, rows):
        assert cache.lookup_insert_batch(keys).tolist() == expected
    assert (cache.hits, cache.misses) == (4, 2)
    keyed = KeyedAggregateMatrix(4, 2, better=operator.gt)
    with given_rows(keyed, rows):
        assert keyed.observe_batch(keys, np.ones(6)).tolist() == expected
    assert (keyed.hits, keyed.inserts) == (4, 2)
    assert _cells_of(keyed) == [[], [(5, 1.0)], [(5, 1.0)], []]


def _pruner_cases():
    keyed = lambda ids, values: list(zip(ids.tolist(), values.tolist()))  # noqa: E731
    return {
        "distinct": (lambda: DistinctPruner(rows=16, cols=2), lambda ids, _: ids),
        "distinct-fifo": (
            lambda: DistinctPruner(rows=16, cols=3, policy="fifo"),
            lambda ids, _: ids,
        ),
        "fingerprint": (
            lambda: FingerprintDistinctPruner(rows=16, cols=2, fingerprint_bits=12),
            lambda ids, _: ids,
        ),
        "groupby-max": (
            lambda: GroupByPruner("max", rows=16, cols=3),
            lambda ids, values: (ids, values),
        ),
        "groupby-min-pairs": (lambda: GroupByPruner("min", rows=16, cols=3), keyed),
        "topn": (
            lambda: TopNRandomizedPruner(n=5, rows=16, cols=3, seed=9),
            lambda _, values: values,
        ),
        "having-max": (_small_dedupe_having, lambda ids, values: (ids, values)),
    }


def _small_dedupe_having():
    """HAVING MAX over a 16x2 dedupe, small enough that 12 keys evict."""
    pruner = HavingPruner(0.0, "max")
    pruner._dedupe = CacheMatrix(16, 2, seed=0 ^ 0xED)
    return pruner


@pytest.mark.parametrize("case", _pruner_cases())
@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    few=few_lanes,
    steps=st.lists(
        st.tuples(
            st.sampled_from(("batch", "batch", "each", "reboot", "corrupt")),
            st.sampled_from((1, 7, 16, 60, 4096)),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_pruner_batches_interleave_with_process_reboot_and_corruption(
    case, seed, few, steps
):
    """``process_batch`` on one pruner, ``process`` on its twin: the same
    masks, stats, cells and health gauges through any interleaving."""
    with mock.patch.object(cachematrix, "_FEW_LANES", few):
        _interleave(case, seed, steps)


def _interleave(case, seed, steps):
    make, entries_of = _pruner_cases()[case]
    subject, oracle = make(), make()
    rng = np.random.default_rng(seed)
    for step, size in steps:
        if step == "corrupt":  # parity-detected: the engine reboots at once
            subject.corrupt_state(random.Random(seed))
            oracle.corrupt_state(random.Random(seed))
        if step in ("corrupt", "reboot"):
            subject.reboot()
            oracle.reboot()
        size = min(size, 300)
        ids = rng.integers(0, 12, size)
        entries = entries_of(ids, rng.integers(0, 50, size).astype(np.float64))
        pairs = list(zip(*entries)) if isinstance(entries, tuple) else entries
        scalar = [e.item() if isinstance(e, np.generic) else e for e in pairs]
        expected = [oracle.process(e).value == "forward" for e in scalar]
        if step == "each":
            got = [subject.process(e).value == "forward" for e in scalar]
        else:
            got = subject.process_batch(entries).tolist()
        assert got == expected
    assert (subject.stats.processed, subject.stats.pruned) == (
        oracle.stats.processed, oracle.stats.pruned,
    )
    subject.observe_health()
    oracle.observe_health()
    assert subject.metrics.gauge_values() == oracle.metrics.gauge_values()
    matrix = "_dedupe" if case == "having-max" else "_matrix"
    assert _cells_of(getattr(subject, matrix)) == _cells_of(getattr(oracle, matrix))


@pytest.mark.parametrize("count", [0, 1, 5, 40000])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 4096, 4097, 65536, 10**6, 2**32 + 1])
def test_position_rows_equal_scalar_hashes(n, count):
    """TOP N's batch rows (one vector hash over the positions), its
    per-entry rows (read from aligned blocks) and one scalar hash per
    position agree, starting mid-stream and one short of a block edge."""
    pruner = TopNRandomizedPruner(n=1, rows=n, cols=1, seed=11)
    start = 4095
    batch = pruner._rows(start, count)
    assert batch.dtype == np.int64
    per_entry = []
    for position in range(start, start + count):
        pruner._position = position
        per_entry.append(pruner._row())
    scalar = [hash_range(i, n, pruner._seed) for i in range(start, start + count)]
    assert batch.tolist() == per_entry == scalar


#: Production-size batches: a ledger worker slice is 40,000 entries over
#: the 4,096-row matrices, with ``_FEW_LANES`` at its shipped value, so the
#: vector rounds, the long-run folds and the late lanes all take their
#: real share.  ``prefilled`` meets the batches with a matrix the
#: per-entry calls filled first (list form, converted once).
PRODUCTION = ("uniform", "hot", "prefilled", "ties")


def _production_stream(pattern: str, seed: int):
    rng = np.random.default_rng(seed)
    n, d = 40_000, 4096
    rows = rng.integers(0, d, n)
    if pattern == "hot":  # 80% of the batch in one row
        rows = np.where(rng.random(n) < 0.8, int(rng.integers(0, d)), rows)
    keys = (rng.zipf(1.3, n) % 500).astype(np.int64)  # a few hot keys, long runs
    if pattern == "ties":  # integral values: ties at every row minimum
        return rows, keys, rng.integers(0, 8, n)
    return rows, keys, rng.normal(0.0, 100.0, n)


def _production_batches(make, one, many, pattern, counters):
    subject, oracle = make(), make()
    for seed in (1, 2):  # the second batch meets the first one's cells
        rows, keys, values = _production_stream(pattern, seed)
        if pattern == "prefilled" and seed == 1:
            for i in range(5_000):
                assert one(subject, keys[i], values[i], rows[i]) == one(
                    oracle, keys[i], values[i], rows[i]
                )
            rows, keys, values = rows[5_000:], keys[5_000:], values[5_000:]
        expected = [one(oracle, keys[i], values[i], rows[i]) for i in range(len(rows))]
        assert many(subject, keys, values, rows).tolist() == expected
    assert _state(subject, counters) == _state(oracle, counters)


@pytest.mark.parametrize("pattern", PRODUCTION)
def test_offer_batch_at_production_size(pattern):
    _production_batches(
        lambda: RollingMinMatrix(4096, 4),
        one=lambda m, _, value, r: m.offer(float(value), int(r)),
        many=lambda m, _, values, rows: m.offer_batch(values, rows),
        pattern=pattern,
        counters=("offers", "rejected"),
    )


@pytest.mark.parametrize("hashed", [True, False], ids=["hashed", "given-rows"])
@pytest.mark.parametrize("pattern", PRODUCTION)
def test_observe_batch_at_production_size(pattern, hashed):
    """Hashed rows put each hot key's whole run in one lane; given rows
    (uniform or 80% in one row) split the keys over many lanes per row."""
    _production_batches(
        lambda: KeyedAggregateMatrix(4096, 8, better=operator.gt, seed=5),
        one=lambda m, key, value, r: m.observe(
            int(key), float(value), None if hashed else int(r)
        ),
        many=lambda m, keys, values, rows: given_rows(m, None if hashed else rows)(
            m.observe_batch, keys, values
        ),
        pattern=pattern,
        counters=("hits", "updates", "inserts", "evictions"),
    )


# -- rows that cannot evict settle in closed form -----------------------------
#
# A hashed numeric batch settles every row whose cached keys plus the
# batch's new keys fit in its ``w`` cells, and sends only the other rows
# through the rounds.  These drive whole pruners at production size —
# 5,000 per-entry calls, then two 40,000-entry batches — against a twin
# that takes every entry through ``process()``: the same masks, cells in
# column order and counters, in batches that really mix both kinds of row.


def _zipf_stream(seed: int, n: int, pool: int):
    rng = np.random.default_rng(seed)
    keys = (rng.zipf(1.2, n) % pool).astype(np.int64)
    return keys, rng.uniform(0.0, 1000.0, n)


def _mix(matrix, keys) -> tuple:
    """How many of the rows ``keys`` hash to hold more than ``w`` of them,
    and how many hold at most ``w``."""
    per_row = np.bincount(matrix.row_of_batch(np.unique(keys)))
    return int(np.count_nonzero(per_row > matrix.cols)), int(
        np.count_nonzero((per_row > 0) & (per_row <= matrix.cols))
    )


def _forwarded(pruner, entries) -> list:
    return [pruner.process(e).value == "forward" for e in entries]


def _against_process(make, entries_of, state, pool, sizes=(5_000, 40_000, 40_000)):
    """Per-entry calls then batches on ``make()``, every entry through
    ``process()`` on its twin; returns both ends' ``state``."""
    subject, oracle = make(), make()
    keys, values = _zipf_stream(17, sum(sizes), pool)
    lo = 0
    for step, size in enumerate(sizes):
        batch = entries_of(keys[lo : lo + size], values[lo : lo + size])
        pairs = list(zip(*batch)) if isinstance(batch, tuple) else batch
        scalar = [tuple(map(_plain, e)) if isinstance(e, tuple) else _plain(e) for e in pairs]
        expected = _forwarded(oracle, scalar)
        if step == 0:
            assert _forwarded(subject, scalar) == expected
        else:
            assert subject.process_batch(batch).tolist() == expected
        lo += size
    assert (subject.stats.processed, subject.stats.pruned) == (
        oracle.stats.processed, oracle.stats.pruned,
    )
    return state(subject), state(oracle)


@pytest.mark.parametrize("policy", ["lru", "fifo"])
@pytest.mark.parametrize("fingerprinted", [False, True], ids=["exact", "fingerprint"])
def test_distinct_settles_rows_at_production_size(policy, fingerprinted):
    def make():
        if fingerprinted:
            return FingerprintDistinctPruner(4096, 2, fingerprint_bits=32, policy=policy)
        return DistinctPruner(4096, 2, policy=policy)

    matrix = make()._matrix
    keys, _ = _zipf_stream(17, 45_000, 2_000)
    if fingerprinted:
        keys = make().scheme.of_batch(keys)
    overflowing, settling = _mix(matrix, keys[5_000:])
    assert overflowing >= 20 and settling >= 1_000
    counters = ("hits", "misses", "evictions")
    got, expected = _against_process(
        make, lambda ids, _: ids, lambda p: _state(p._matrix, counters), 2_000
    )
    assert got == expected


@pytest.mark.parametrize("aggregate", ["max", "min"])
@pytest.mark.parametrize("cols", [2, 8], ids=["w2-mixed", "w8-all-settle"])
def test_groupby_settles_rows_at_production_size(aggregate, cols):
    """``w = 8`` (the default) settles every row of 2,000 Zipf keys;
    ``w = 2`` leaves dozens of rows to the rounds."""
    make = lambda: GroupByPruner(aggregate, rows=4096, cols=cols)  # noqa: E731
    keys, _ = _zipf_stream(17, 45_000, 2_000)
    overflowing, _ = _mix(make()._matrix, keys[5_000:])
    assert (overflowing >= 20) if cols == 2 else (overflowing == 0)
    counters = ("hits", "updates", "inserts", "evictions")
    got, expected = _against_process(
        make, lambda ids, v: (ids, v), lambda p: _state(p._matrix, counters), 2_000
    )
    assert got == expected


def _sketch_estimates(width: int, seed: int, keys, amounts, upto: int) -> np.ndarray:
    """Each distinct key's Count-Min estimate after the first ``upto``
    entries, summed per counter with ``np.add.at``: the sketch a
    ``HavingPruner`` of this width and seed holds by then."""
    sketch = CountMinSketch(width, 3, seed=seed)
    for row, hash_seed in zip(sketch._rows, sketch._seeds):
        at = hash_range_batch(keys[:upto], width, hash_seed).astype(np.int64)
        np.add.at(row, at, amounts[:upto].astype(np.int64))
    return sketch.estimate_batch(np.unique(keys))


@pytest.mark.parametrize("aggregate", ["sum", "count"])
@pytest.mark.parametrize("width", [16, 1024])
def test_having_settles_keys_at_production_size(aggregate, width):
    """A 16-counter Count-Min makes every key share counters; at 1,024
    some do.  The threshold is the median estimate after the first batch,
    so estimates cross it inside both batches, after the per-entry calls
    have filled the sketch; the dedupe stage, where some rows hold more
    passing keys than fit, takes the passing entries."""
    keys, values = _zipf_stream(17, 85_000, 2_000)
    amounts = np.ceil(values) if aggregate == "sum" else np.ones(len(keys))
    estimates = [_sketch_estimates(width, 3, keys, amounts, n) for n in (5_000, 45_000, 85_000)]
    threshold = float(np.median(estimates[1]))
    for before, after in zip(estimates, estimates[1:]):
        assert np.count_nonzero((before <= threshold) & (after > threshold)) >= 5

    def make():
        return HavingPruner(threshold, aggregate, width=width, seed=3)

    overflowing, settling = _mix(make()._dedupe, np.unique(keys)[estimates[2] > threshold])
    assert overflowing >= 5 and settling >= 100

    def state(pruner):
        sketch = pruner._sketch
        return (
            sketch._rows.tolist(),
            sketch.total,
            _state(pruner._dedupe, ("hits", "misses", "evictions")),
        )

    got, expected = _against_process(make, lambda ids, v: (ids, v), state, 2_000)
    assert got == expected
