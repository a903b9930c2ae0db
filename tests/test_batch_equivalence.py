"""Batch dataplane equivalence: every ``*_batch`` path vs its scalar twin.

The vectorized dataplane is an exact reimplementation — same decisions,
same stats, same post-state — not an approximation.  These tests drive
each batch kernel and pruner against the scalar reference on randomized
seeded streams (including str/tuple/fingerprint keys) at several chunk
sizes, then confirm the two instances remain interchangeable by replaying
an identical scalar tail through both.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest

from repro.core.base import PruneDecision, PassthroughPruner
from repro.core.distinct import DistinctPruner, FingerprintDistinctPruner
from repro.core.filtering import FilterPruner
from repro.core.groupby import GroupByPruner
from repro.core.having import HavingPruner
from repro.core.join import AsymmetricJoinPruner, JoinPruner, OuterJoinPruner
from repro.core.skyline import DirectionalSkylinePruner, SkylinePruner
from repro.core.topn import TopNDeterministicPruner, TopNRandomizedPruner
from repro.engine.expressions import Like, col
from repro.errors import ResourceError
from repro.sketches.bloom import BloomFilter, RegisterBloomFilter
from repro.sketches.cachematrix import (
    CacheMatrix,
    KeyedAggregateMatrix,
    RollingMinMatrix,
)
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hashing import (
    canonical_batch,
    canonical_int,
    fingerprint,
    fingerprint_batch,
    hash64,
    hash64_batch,
    hash_range,
    hash_range_batch,
)
from repro.switch.pipeline import Phv
from repro.workloads import bigdata, tpch

CHUNKS = (1, 7, 997)


def _scalar_mask(pruner, entries):
    """FORWARD mask from the scalar process() loop."""
    return np.fromiter(
        (pruner.process(entry) is PruneDecision.FORWARD for entry in entries),
        dtype=bool,
        count=len(entries),
    )


def _batch_mask(pruner, entries, chunk, to_batch=None):
    """FORWARD mask from chunked process_batch() calls."""
    parts = []
    for i in range(0, len(entries), chunk):
        piece = entries[i : i + chunk]
        parts.append(pruner.process_batch(to_batch(piece) if to_batch else piece))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


def _check_pruner(make, entries, tail, to_batch=None, chunks=CHUNKS):
    """Assert batch == scalar decisions, stats, metrics, and post-state.

    ``tail`` is an extra scalar stream replayed through both instances
    after the main stream: identical tail decisions certify that the
    batch path left the pruner in the same state as the scalar path.
    Counters and health gauges are representation-independent, so after
    identical streams the two registries must agree exactly (spans and
    histograms, which carry timings, are deliberately excluded).
    """
    reference = make()
    expected = _scalar_mask(reference, entries)
    expected_tail = _scalar_mask(reference, tail)
    reference.observe_health()
    for chunk in chunks:
        pruner = make()
        got = _batch_mask(pruner, entries, chunk, to_batch)
        assert np.array_equal(got, expected), f"decisions diverge at chunk={chunk}"
        assert pruner.stats.processed == len(entries)
        assert pruner.stats.pruned == int(len(entries) - expected.sum())
        got_tail = _scalar_mask(pruner, tail)
        assert np.array_equal(got_tail, expected_tail), (
            f"post-state diverges at chunk={chunk}"
        )
        pruner.observe_health()
        assert pruner.metrics.counter_values() == reference.metrics.counter_values(), (
            f"metric counters diverge at chunk={chunk}"
        )
        assert pruner.metrics.gauge_values() == reference.metrics.gauge_values(), (
            f"health gauges diverge at chunk={chunk}"
        )


# ---------------------------------------------------------------------------
# Hashing kernels
# ---------------------------------------------------------------------------


class TestHashingBatch:
    def _inputs(self):
        rng = random.Random(7)
        return {
            "small-ints": [rng.randrange(0, 1000) for _ in range(200)],
            "negative-ints": [rng.randrange(-(1 << 63), 1 << 63) for _ in range(200)],
            "huge-ints": [rng.randrange(0, 1 << 80) for _ in range(50)],
            "floats": [rng.uniform(-1e9, 1e9) for _ in range(200)] + [0.0, -0.0],
            "bools": [True, False, True],
            "strings": [f"user-{rng.randrange(10_000)}" for _ in range(200)],
            "bytes": [bytes([i, i ^ 0x5A]) for i in range(100)],
            "tuples": [
                (rng.randrange(100), f"l{rng.randrange(9)}") for _ in range(100)
            ],
            "ndarray-i64": np.asarray(
                [rng.randrange(-(1 << 62), 1 << 62) for _ in range(200)],
                dtype=np.int64,
            ),
            "ndarray-u64": np.asarray(
                [rng.randrange(0, 1 << 64) for _ in range(200)], dtype=np.uint64
            ),
            "ndarray-f64": np.asarray(
                [rng.uniform(-1e12, 1e12) for _ in range(200)], dtype=np.float64
            ),
            "ndarray-bool": np.asarray([True, False] * 20),
        }

    def test_canonical_batch_matches_scalar(self):
        for name, values in self._inputs().items():
            got = canonical_batch(values)
            assert got.dtype == np.uint64, name
            for i, value in enumerate(values):
                assert int(got[i]) == canonical_int(value), (name, i)

    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, (1 << 64) - 1])
    def test_hash64_batch_matches_scalar(self, seed):
        for name, values in self._inputs().items():
            got = hash64_batch(values, seed)
            for i, value in enumerate(values):
                assert int(got[i]) == hash64(value, seed), (name, i)

    @pytest.mark.parametrize(
        "n", [1, 7, 1024, 10**9 + 7, (1 << 33) + 5, (1 << 63) + 9]
    )
    def test_hash_range_batch_matches_scalar(self, n):
        # Small and huge n exercise both _mulhi64 limb paths.
        for name, values in self._inputs().items():
            got = hash_range_batch(values, n, seed=3)
            for i, value in enumerate(values):
                assert int(got[i]) == hash_range(value, n, seed=3), (name, i)

    @pytest.mark.parametrize("bits", [1, 8, 16, 63, 64])
    def test_fingerprint_batch_matches_scalar(self, bits):
        for name, values in self._inputs().items():
            got = fingerprint_batch(values, bits, seed=5)
            for i, value in enumerate(values):
                assert int(got[i]) == fingerprint(value, bits, seed=5), (name, i)

    def test_batch_validation_errors(self):
        with pytest.raises(ValueError):
            hash_range_batch([1, 2], 0)
        with pytest.raises(ValueError):
            fingerprint_batch([1, 2], 0)
        with pytest.raises(ValueError):
            fingerprint_batch([1, 2], 65)


# ---------------------------------------------------------------------------
# Sketch batch operations
# ---------------------------------------------------------------------------


def _cells_of(matrix):
    """Every row's occupied cells, through the public accessor."""
    return [matrix.row_values(row) for row in range(matrix.rows)]


class TestSketchBatch:
    def test_bloom_add_contains_batch(self):
        rng = random.Random(11)
        inserts = [rng.randrange(0, 5000) for _ in range(2000)]
        probes = [rng.randrange(0, 10_000) for _ in range(2000)] + ["k1", "k2"]
        str_inserts = [f"s{v}" for v in inserts[:300]] + ["k1"]
        scalar = BloomFilter(size_bits=1 << 14, hashes=3, seed=4)
        batch = BloomFilter(size_bits=1 << 14, hashes=3, seed=4)
        for value in inserts + str_inserts:
            scalar.add(value)
        batch.add_batch(inserts)
        batch.add_batch(str_inserts)
        assert bytes(batch._words) == bytes(scalar._words)
        assert batch._inserted == scalar._inserted
        # An integer array sets its bits in scatter rounds: bits of one
        # slice that share a byte take more than one.
        arrayed = BloomFilter(size_bits=1 << 14, hashes=3, seed=4)
        arrayed.add_batch(np.array(inserts))
        arrayed.add_batch(str_inserts)
        assert bytes(arrayed._words) == bytes(scalar._words)
        assert arrayed._inserted == scalar._inserted
        got = batch.contains_batch(probes)
        assert [bool(x) for x in got] == [p in scalar for p in probes]

    def test_register_bloom_add_contains_batch(self):
        rng = random.Random(12)
        inserts = [rng.randrange(0, 5000) for _ in range(2000)]
        probes = [rng.randrange(0, 10_000) for _ in range(2000)]
        scalar = RegisterBloomFilter(size_bits=1 << 14, hashes=3, seed=4)
        batch = RegisterBloomFilter(size_bits=1 << 14, hashes=3, seed=4)
        for value in inserts:
            scalar.add(value)
        batch.add_batch(inserts)
        assert np.array_equal(batch._registers, scalar._registers)
        got = batch.contains_batch(probes)
        assert [bool(x) for x in got] == [p in scalar for p in probes]

    @pytest.mark.parametrize("conservative", [False, True])
    def test_countmin_add_batch_running_estimates(self, conservative):
        rng = random.Random(13)
        keys = [rng.randrange(0, 200) for _ in range(3000)]
        keys += [f"k{v}" for v in keys[:200]]
        amounts = [rng.randrange(0, 9) for _ in range(len(keys))]
        scalar = CountMinSketch(width=256, depth=3, conservative=conservative, seed=2)
        batch = CountMinSketch(width=256, depth=3, conservative=conservative, seed=2)
        expected = [scalar.add(k, a) for k, a in zip(keys, amounts)]
        amounts = np.asarray(amounts, dtype=np.int64)
        # An estimate x passes at threshold x - 1 and fails at x: the masks
        # at every distinct running estimate and one below pin each entry's.
        for threshold in sorted({e - below for e in expected for below in (0, 1)}):
            probe = copy.deepcopy(batch)
            got = probe.add_batch(keys, amounts, threshold)
            assert got.tolist() == [e > threshold for e in expected]
            assert np.array_equal(probe._rows, scalar._rows)
            assert probe.total == scalar.total
        batch.add_batch(keys, amounts, 0)
        assert np.array_equal(batch._rows, scalar._rows)
        assert batch.total == scalar.total
        probes = list(range(250))
        est = batch.estimate_batch(probes)
        assert [int(x) for x in est] == [scalar.estimate(p) for p in probes]

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_cachematrix_lookup_insert_batch(self, policy):
        rng = random.Random(14)
        values = [rng.randrange(0, 500) for _ in range(3000)]
        values += [(v, f"s{v % 7}") for v in values[:300]]
        scalar = CacheMatrix(rows=64, cols=4, policy=policy, seed=3)
        batch = CacheMatrix(rows=64, cols=4, policy=policy, seed=3)
        expected = [scalar.lookup_insert(v) for v in values]
        got = batch.lookup_insert_batch(values)
        assert [bool(x) for x in got] == expected
        assert _cells_of(batch) == _cells_of(scalar)

    def test_rollingmin_offer_batch(self):
        rng = random.Random(15)
        values = [rng.uniform(0, 1e6) for _ in range(3000)]
        rows = np.asarray([rng.randrange(0, 32) for _ in values], dtype=np.int64)
        scalar = RollingMinMatrix(rows=32, cols=4)
        batch = RollingMinMatrix(rows=32, cols=4)
        expected = [scalar.offer(v, int(r)) for v, r in zip(values, rows)]
        got = batch.offer_batch(np.asarray(values), rows)
        assert [bool(x) for x in got] == expected
        assert _cells_of(batch) == _cells_of(scalar)

    def test_keyed_aggregate_observe_batch(self):
        rng = random.Random(16)
        keys = [rng.randrange(0, 300) for _ in range(3000)]
        values = [rng.uniform(0, 1e4) for _ in keys]
        for better in (lambda new, old: new > old, lambda new, old: new < old):
            scalar = KeyedAggregateMatrix(rows=64, cols=4, better=better, seed=5)
            batch = KeyedAggregateMatrix(rows=64, cols=4, better=better, seed=5)
            expected = [scalar.observe(k, v) for k, v in zip(keys, values)]
            got = batch.observe_batch(
                np.asarray(keys, dtype=np.int64), np.asarray(values)
            )
            assert [bool(x) for x in got] == expected
            assert _cells_of(batch) == _cells_of(scalar)


# ---------------------------------------------------------------------------
# Pruner process_batch equivalence
# ---------------------------------------------------------------------------


class TestPrunerBatchEquivalence:
    def test_passthrough(self):
        entries = list(range(100))
        _check_pruner(PassthroughPruner, entries, entries[:10])

    def test_filter_rows_and_columnar(self):
        rng = random.Random(21)
        rows = [(rng.uniform(0, 1000), rng.randrange(0, 50)) for _ in range(4000)]
        tail = rows[:200]
        expr = (col("price") > 300.0) & (col("qty") <= 24)
        formula = expr.to_formula(["price", "qty"])
        _check_pruner(lambda: FilterPruner(formula), rows, tail)
        price = np.asarray([r[0] for r in rows])
        qty = np.asarray([r[1] for r in rows], dtype=np.int64)
        pruner = FilterPruner(formula)
        columnar = pruner.process_batch((price, qty))
        assert np.array_equal(columnar, _scalar_mask(FilterPruner(formula), rows))

    def test_filter_with_unsupported_like(self):
        rng = random.Random(22)
        rows = [
            (rng.uniform(0, 100), rng.choice(["en-US", "fr-FR", "en-GB"]))
            for _ in range(1500)
        ]
        expr = (col("adRevenue") > 20.0) & Like("language", "en-%")
        formula = expr.to_formula(["adRevenue", "language"])
        _check_pruner(
            lambda: FilterPruner(formula, worker_assist=True), rows, rows[:100]
        )

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_distinct_int_and_str(self, policy):
        rng = random.Random(23)
        ints = [rng.randrange(0, 600) for _ in range(4000)]
        _check_pruner(
            lambda: DistinctPruner(rows=128, cols=2, policy=policy), ints, ints[:300]
        )
        strs = [f"url-{v}" for v in ints]
        _check_pruner(
            lambda: DistinctPruner(rows=128, cols=2, policy=policy), strs, strs[:300]
        )

    def test_distinct_ndarray_batch_form(self):
        rng = random.Random(24)
        ints = [rng.randrange(0, 600) for _ in range(4000)]
        arr = np.asarray(ints, dtype=np.int64)
        scalar = DistinctPruner(rows=128, cols=2)
        expected = _scalar_mask(scalar, ints)
        batch = DistinctPruner(rows=128, cols=2)
        assert np.array_equal(batch.process_batch(arr), expected)
        assert _cells_of(batch._matrix) == _cells_of(scalar._matrix)

    def test_fingerprint_distinct_tuple_keys(self):
        rng = random.Random(25)
        entries = [
            (rng.randrange(0, 50), f"ua{rng.randrange(12)}", rng.randrange(3))
            for _ in range(4000)
        ]
        _check_pruner(
            lambda: FingerprintDistinctPruner(rows=128, cols=2, fingerprint_bits=16),
            entries,
            entries[:300],
        )

    def test_topn_deterministic_with_warmup(self):
        rng = random.Random(26)
        values = [rng.uniform(0, 1e6) for _ in range(4000)]
        # chunk=1 crosses warmup one entry at a time; chunk=4000 crosses
        # it inside a single batch call.
        _check_pruner(
            lambda: TopNDeterministicPruner(n=250, thresholds=4),
            values,
            values[:300],
            chunks=(1, 7, 997, 4000),
        )

    def test_topn_randomized_rng_sequence(self):
        rng = random.Random(27)
        values = [rng.uniform(0, 1e6) for _ in range(3000)]
        _check_pruner(
            lambda: TopNRandomizedPruner(n=100, rows=600, delta=1e-4, seed=9),
            values,
            values[:200],
        )

    def test_groupby_pairs_and_columnar(self):
        rng = random.Random(28)
        pairs = [(rng.randrange(0, 200), rng.uniform(0, 1e4)) for _ in range(4000)]
        _check_pruner(lambda: GroupByPruner(rows=128, cols=4), pairs, pairs[:300])
        keys = np.asarray([p[0] for p in pairs], dtype=np.int64)
        values = np.asarray([p[1] for p in pairs])
        batch = GroupByPruner(rows=128, cols=4)
        got = batch.process_batch((keys, values))
        assert np.array_equal(got, _scalar_mask(GroupByPruner(rows=128, cols=4), pairs))

    @pytest.mark.parametrize(
        "aggregate,threshold", [("sum", 5000.0), ("count", 10), ("max", 8000.0), ("min", 50.0)]
    )
    def test_having_all_aggregates(self, aggregate, threshold):
        rng = random.Random(29)
        pairs = [(rng.randrange(0, 150), rng.uniform(0, 1e3)) for _ in range(3000)]
        pairs += [(f"k{k}", v) for k, v in pairs[:200]]
        _check_pruner(
            lambda: HavingPruner(
                threshold=threshold,
                aggregate=aggregate,
                width=256,
                depth=3,
            ),
            pairs,
            pairs[:200],
        )

    def test_join_mixed_sides_and_columnar(self):
        rng = random.Random(30)
        left = [rng.randrange(0, 3000) for _ in range(1500)]
        right = [rng.randrange(1500, 4500) for _ in range(1500)]
        stream = [(rng.choice("LR"), rng.randrange(0, 4500)) for _ in range(4000)]

        def make():
            pruner = JoinPruner("L", "R", memory_bits=1 << 16)
            pruner.build(left, right)
            return pruner

        _check_pruner(make, stream, stream[:300])
        keys = np.asarray([k for _, k in stream], dtype=np.int64)
        sides = [s for s, _ in stream]
        only_left = np.asarray(
            [k for s, k in stream if s == "L"], dtype=np.int64
        )
        batch = make()
        got = batch.process_batch(("L", only_left))
        expected = _scalar_mask(make(), [("L", int(k)) for k in only_left])
        assert np.array_equal(got, expected)
        assert sides  # mixed stream sanity

    def test_join_unbuilt_raises(self):
        pruner = JoinPruner("L", "R", memory_bits=1 << 16)
        with pytest.raises(Exception):
            pruner.process_batch([("L", 1)])
        with pytest.raises(Exception):
            pruner.process_batch([])

    def test_asymmetric_join(self):
        rng = random.Random(31)
        small = [rng.randrange(0, 800) for _ in range(500)]
        probes = [rng.randrange(0, 2000) for _ in range(4000)]

        def make():
            pruner = AsymmetricJoinPruner(memory_bits=1 << 16)
            pruner.build_from_small_table(small)
            return pruner

        _check_pruner(make, probes, probes[:300])

    def test_outer_join_preserved_and_probed(self):
        rng = random.Random(32)
        left = [rng.randrange(0, 2000) for _ in range(1000)]
        right = [rng.randrange(1000, 3000) for _ in range(1000)]
        stream = [(rng.choice("LR"), rng.randrange(0, 3000)) for _ in range(4000)]

        def make():
            pruner = OuterJoinPruner("L", "R", preserved="left", memory_bits=1 << 16)
            pruner.build(left, right)
            return pruner

        _check_pruner(make, stream, stream[:300])
        # Inner stats must match too (scalar double-accounting preserved).
        reference, batch = make(), make()
        for entry in stream:
            reference.process(entry)
        batch.process_batch(stream)
        assert batch._inner.stats.processed == reference._inner.stats.processed
        assert batch._inner.stats.pruned == reference._inner.stats.pruned

    @pytest.mark.parametrize("score", ["sum", "product", "aph", "baseline"])
    def test_skyline_scores(self, score):
        rng = random.Random(33)
        points = [
            (float(rng.randrange(0, 1 << 12)), float(rng.randrange(0, 1 << 12)))
            for _ in range(1500)
        ]
        _check_pruner(
            lambda: SkylinePruner(dims=2, points=10, score=score),
            points,
            points[:100],
        )

    def test_skyline_carried_points_match_drain(self):
        rng = random.Random(34)
        points = np.asarray(
            [[rng.randrange(0, 1 << 10) for _ in range(3)] for _ in range(1000)],
            dtype=np.float64,
        )
        rows = [tuple(p) for p in points.tolist()]
        scalar = SkylinePruner(dims=3, points=8, score="sum")
        batch = SkylinePruner(dims=3, points=8, score="sum")
        for row in rows:
            scalar.process(row)
        batch.process_batch(points)
        assert batch.drain() == scalar.drain()
        assert batch._slots == scalar._slots

    def test_directional_skyline(self):
        rng = random.Random(35)
        points = [
            (float(rng.randrange(0, 1 << 10)), float(rng.randrange(0, 1 << 10)))
            for _ in range(1500)
        ]
        _check_pruner(
            lambda: DirectionalSkylinePruner(
                directions=("min", "max"), bounds=(1024.0, 1024.0), points=10
            ),
            points,
            points[:100],
        )


# ---------------------------------------------------------------------------
# Batch-aware stream helpers and the Phv satellite
# ---------------------------------------------------------------------------


class TestStreamHelpers:
    def test_survivors_batch_matches_scalar(self):
        rng = random.Random(41)
        stream = [rng.randrange(0, 400) for _ in range(3000)]
        expected = DistinctPruner(rows=128, cols=2).survivors(stream)
        for batch_size in (1, 64, 5000):
            got = DistinctPruner(rows=128, cols=2).survivors(
                stream, batch_size=batch_size
            )
            assert got == expected

    def test_survivors_batch_accepts_generators(self):
        stream = list(range(500)) * 3
        expected = DistinctPruner(rows=128, cols=2).survivors(stream)
        got = DistinctPruner(rows=128, cols=2).survivors(
            iter(stream), batch_size=97
        )
        assert got == expected

    def test_prune_stream_batch_pairs(self):
        rng = random.Random(43)
        stream = [rng.randrange(0, 300) for _ in range(1500)]
        scalar = list(DistinctPruner(rows=64, cols=2).prune_stream(stream))
        batched = list(
            DistinctPruner(rows=64, cols=2).prune_stream(stream, batch_size=41)
        )
        assert scalar == batched


class TestPhvUsedBits:
    def test_used_bits_running_counter(self):
        phv = Phv(budget_bits=64)
        assert phv.used_bits == 0
        phv.declare("a", 16)
        phv.declare("b", 32)
        assert phv.used_bits == 48
        phv.declare("c", 16)
        assert phv.used_bits == 64

    def test_declare_over_budget_raises(self):
        phv = Phv(budget_bits=32)
        phv.declare("a", 24)
        with pytest.raises(ResourceError):
            phv.declare("b", 16)
        # Failed declaration must not charge the budget.
        assert phv.used_bits == 24
        phv.declare("c", 8)
        assert phv.used_bits == 32


# ---------------------------------------------------------------------------
# Cluster batch streaming
# ---------------------------------------------------------------------------


class TestClusterBatchStreaming:
    @pytest.fixture(scope="class")
    def bigdata_tables(self):
        scale = bigdata.BigDataScale(
            rankings_rows=2000,
            uservisits_rows=4000,
            distinct_urls=800,
            distinct_user_agents=80,
            distinct_languages=12,
        )
        return bigdata.tables(scale, seed=17)

    def _phases(self, result):
        return [(p.name, p.streamed, p.forwarded) for p in result.phases]

    @pytest.mark.parametrize("batch_size", [7, 1000])
    def test_bigdata_queries_batch_equals_scalar(self, bigdata_tables, batch_size):
        from repro.engine.cluster import Cluster, ClusterConfig

        queries = bigdata.benchmark_queries()
        queries["Q7-having"] = bigdata.query7_having(threshold=4000.0)
        scalar_cluster = Cluster(workers=3)
        batch_cluster = Cluster(
            workers=3, config=ClusterConfig(batch_size=batch_size)
        )
        for name, query in queries.items():
            run_tables = dict(bigdata_tables)
            if name == "Q3-skyline":
                run_tables["Rankings"] = bigdata.permuted(run_tables["Rankings"])
            scalar = scalar_cluster.run(query, run_tables)
            batch = batch_cluster.run(query, run_tables)
            assert batch.output == scalar.output, name
            assert self._phases(batch) == self._phases(scalar), name

    @pytest.mark.parametrize("batch_size", [None, 7, 4096])
    def test_multi_pass_plans_match_a_per_entry_walk(self, bigdata_tables, batch_size):
        """JOIN, HAVING and SKYLINE stream through the batch kernels at
        every ``batch_size``; the per-entry ``process()`` walk the engine
        no longer has is the oracle here for their forwarded volumes."""
        from repro.engine.cluster import Cluster, ClusterConfig
        from repro.engine.operators import plan_for

        config = ClusterConfig(batch_size=batch_size)
        queries = bigdata.benchmark_queries()
        queries["Q7-having"] = bigdata.query7_having(threshold=4000.0)
        tables = dict(bigdata_tables)
        tables["Rankings"] = bigdata.permuted(tables["Rankings"])
        for name in ("Q3-skyline", "Q6-join", "Q7-having"):
            query = queries[name]
            plan = plan_for(query.operator)[1]
            pruner = plan.pruner(query, config)
            sides = plan.sides([query], tables)
            if name == "Q3-skyline":
                entries = list(map(tuple, sides[0].arrays()[0].tolist()))
            elif name == "Q6-join":
                left, right = (side.arrays()[0].tolist() for side in sides)
                pruner.build(left, right)
                entries = [(sides[0].name, key) for key in left]
                entries += [(sides[1].name, key) for key in right]
            else:
                entries = list(zip(*(column.tolist() for column in sides[0].arrays())))
            forwarded = sum(
                pruner.process(entry) is PruneDecision.FORWARD for entry in entries
            )
            if name == "Q3-skyline":
                forwarded += len(pruner.drain())
            result = Cluster(workers=3, config=config).run(query, tables)
            pruning = result.phases[1 if name == "Q6-join" else 0]
            assert (pruning.streamed, pruning.forwarded) == (len(entries), forwarded)

    def test_default_config_refuses_negative_sum_having_up_front(self):
        from repro.engine.cluster import Cluster
        from repro.engine.plan import HavingOp, Query
        from repro.engine.table import Table
        from repro.errors import UnsupportedOperationError

        table = Table("t", {"k": np.array([1, 1, 2]), "v": np.array([5.0, -1.0, 2.0])})
        query = Query(HavingOp("t", "k", "v", threshold=1.0, aggregate="sum"))
        with pytest.raises(UnsupportedOperationError):
            Cluster(workers=2).run(query, {"t": table})

    def test_bigdata_no_cheetah_baseline(self, bigdata_tables):
        from repro.engine.cluster import Cluster, ClusterConfig

        query = bigdata.query1_filter_count()
        scalar = Cluster(workers=3).run(query, bigdata_tables, use_cheetah=False)
        batch = Cluster(workers=3, config=ClusterConfig(batch_size=256)).run(
            query, bigdata_tables, use_cheetah=False
        )
        assert batch.output == scalar.output
        assert self._phases(batch) == self._phases(scalar)

    @pytest.mark.parametrize("bad", [0, -5])
    def test_invalid_batch_size_rejected(self, bad):
        from repro.engine.cluster import ClusterConfig
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ClusterConfig(batch_size=bad)

    def test_tpch_q3_join_batch_equals_scalar(self):
        from repro.engine.cluster import Cluster, ClusterConfig

        base = tpch.tables(tpch.TpchScale(customers=300), seed=3)
        filtered = tpch.q3_filtered_tables(base)
        scalar = Cluster(workers=2).run(tpch.q3_join_query(), filtered)
        batch = Cluster(workers=2, config=ClusterConfig(batch_size=512)).run(
            tpch.q3_join_query(), filtered
        )
        assert batch.output == scalar.output
        assert self._phases(batch) == self._phases(scalar)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_chaos_runs_identical_at_every_batch_size(self, bigdata_tables, seed):
        # Under a fault plan the cluster streams fault-free segments in
        # batches: the batch size must be invisible in the output, the
        # phase volumes and the whole fault account (what fired, where,
        # and every degradation with its reason).
        from repro.engine.cluster import Cluster, ClusterConfig
        from repro.engine.reference import run_reference
        from repro.faults import FAULT_KINDS, FaultPlan

        plan = FaultPlan.random(seed, 2000, kinds=FAULT_KINDS, count=8)
        queries = bigdata.benchmark_queries()
        queries["Q7-having"] = bigdata.query7_having(threshold=4000.0)
        for name, query in queries.items():
            runs = [
                Cluster(
                    workers=3, config=ClusterConfig(fault_plan=plan, batch_size=b)
                ).run(query, bigdata_tables)
                for b in (None, 7, 4096)
            ]
            assert runs[0].output == run_reference(query, bigdata_tables), name
            for other in runs[1:]:
                assert other.output == runs[0].output, name
                assert self._phases(other) == self._phases(runs[0]), name
                assert other.faults == runs[0].faults, name
