"""Pruner throughput microbenchmarks (engineering table, not a paper figure).

One pytest-benchmark per operator at its Table 2 default configuration,
processing a fixed synthetic stream.  The register-level DISTINCT runs
too, to quantify the fidelity tax of the pipeline simulator relative to
the algorithmic model.

``test_batch_vs_scalar_report`` additionally races every batch-capable
pruner's ``process_batch`` path against its scalar ``process`` loop on
the same stream, asserts the decisions are identical, and writes the
entries/sec comparison to ``benchmarks/results/throughput_batch.txt``.
The stream length is ``CHEETAH_BENCH_N`` (default 1,000,000) so CI can
run the same test as a quick smoke on a small stream.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.core.base import PruneDecision
from repro.obs import null_registry
from repro.core.distinct import DistinctPruner
from repro.core.filtering import FilterPruner
from repro.core.groupby import GroupByPruner
from repro.core.having import HavingPruner
from repro.core.join import JoinPruner
from repro.core.skyline import SkylinePruner
from repro.core.topn import TopNDeterministicPruner, TopNRandomizedPruner
from repro.engine.expressions import col
from repro.switch.pipeline import Pipeline
from repro.switch.programs import PipelineDistinct
from repro.switch.resources import ResourceModel
from repro.workloads.synthetic import (
    keyed_values,
    overlapping_key_sets,
    random_order_stream,
    uniform_points,
)

from _harness import bench_streams, chunks, emit, env_int, table

STREAM = random_order_stream(5000, 400, seed=1)
KEYED = keyed_values(5000, 200, seed=2)
POINTS = uniform_points(5000, dims=2, seed=3)
VALUES = [random.Random(4).uniform(0, 1e6) for _ in range(5000)]

# Scalar-vs-batch comparison knobs.  CHEETAH_BENCH_N is the stream
# length (CI sets a small value for the smoke run); CHEETAH_BENCH_BATCH
# is the process_batch chunk size.
BATCH_N = env_int("CHEETAH_BENCH_N", 1_000_000)
BATCH_SIZE = env_int("CHEETAH_BENCH_BATCH", 65536)


def test_throughput_distinct(benchmark):
    benchmark(lambda: DistinctPruner(rows=4096, cols=2).survivors(STREAM))


def test_throughput_distinct_register_level(benchmark):
    model = ResourceModel(
        stages=4, alus_per_stage=4, sram_bits_per_stage=4096 * 2 * 64 + 1024,
        tcam_entries=16, phv_bits=512,
    )

    def run():
        program = PipelineDistinct(Pipeline(model), rows=4096, cols=2)
        program.survivors(STREAM)

    benchmark(run)


def test_throughput_topn_deterministic(benchmark):
    benchmark(lambda: TopNDeterministicPruner(n=250, thresholds=4).survivors(VALUES))


def test_throughput_topn_randomized(benchmark):
    benchmark(
        lambda: TopNRandomizedPruner(n=250, rows=600, delta=1e-4, seed=1).survivors(
            VALUES
        )
    )


def test_throughput_groupby(benchmark):
    benchmark(lambda: GroupByPruner(rows=4096, cols=8).survivors(KEYED))


def test_throughput_having(benchmark):
    stream = [(k, float(int(v))) for k, v in KEYED]
    benchmark(lambda: HavingPruner(threshold=1000, width=1024, depth=3).survivors(stream))


def test_throughput_skyline(benchmark):
    def run():
        pruner = SkylinePruner(dims=2, points=10, score="sum")
        for point in POINTS:
            pruner.process(point)

    benchmark(run)


def test_throughput_join_probe(benchmark):
    keys = list(range(5000))
    pruner = JoinPruner("L", "R", memory_bits=4 * 1024 * 1024 * 8)
    pruner.build(keys, keys[2500:] + list(range(10_000, 12_500)))

    def run():
        for key in keys:
            pruner.process(("L", key))

    benchmark(run)


# ---------------------------------------------------------------------------
# Scalar vs batch dataplane comparison
# ---------------------------------------------------------------------------


def _chunks(array, size=None):
    """Batch-size chunking via the shared harness helper."""
    return chunks(array, size or BATCH_SIZE)


def _scalar_decisions(pruner, entries):
    """Run the scalar process() loop; return the FORWARD mask."""
    return np.fromiter(
        (pruner.process(entry) is PruneDecision.FORWARD for entry in entries),
        dtype=bool,
        count=len(entries),
    )


def _batch_decisions(pruner, batches):
    """Run process_batch over pre-chunked batches; concatenate the masks."""
    return np.concatenate([pruner.process_batch(batch) for batch in batches])


def _batch_specs():
    """One (name, count, scalar_run, batch_run) spec per batch-capable pruner.

    The run callables construct a fresh pruner (so scalar and batch start
    from identical state) and return the per-entry FORWARD mask; input
    representations are materialized here, outside the timed region.
    """
    n = BATCH_N
    streams = bench_streams(n)
    keys = streams["keys"]
    values = streams["values"]
    group_keys = streams["group_keys"]

    price = values
    qty = streams["qty"]
    filter_formula = ((col("price") > 120.0) & (col("qty") <= 24)).to_formula(
        ["price", "qty"]
    )
    filter_rows = list(zip(price.tolist(), qty.tolist()))

    left, right = overlapping_key_sets(n, max(1, n // 4), overlap=0.5, seed=15)
    left = np.asarray(left, dtype=np.int64)

    def make_join():
        pruner = JoinPruner("L", "R", memory_bits=4 * 1024 * 1024 * 8)
        pruner.build(left, right)
        return pruner

    keyed_rows = list(zip(group_keys.tolist(), values.tolist()))
    keyed_cols = (group_keys, values)

    sky_n = min(n, 250_000)
    sky_points = np.asarray(uniform_points(sky_n, dims=4, seed=16), dtype=np.float64)
    sky_rows = [tuple(row) for row in sky_points.tolist()]

    values_list = values.tolist()
    keys_list = keys.tolist()

    return [
        (
            "filter",
            n,
            lambda: _scalar_decisions(FilterPruner(filter_formula), filter_rows),
            lambda: _batch_decisions(
                FilterPruner(filter_formula), _chunks((price, qty))
            ),
        ),
        (
            "distinct",
            n,
            lambda: _scalar_decisions(DistinctPruner(rows=4096, cols=2), keys_list),
            lambda: _batch_decisions(DistinctPruner(rows=4096, cols=2), _chunks(keys)),
        ),
        (
            "topn-det",
            n,
            lambda: _scalar_decisions(
                TopNDeterministicPruner(n=1000, thresholds=4), values_list
            ),
            lambda: _batch_decisions(
                TopNDeterministicPruner(n=1000, thresholds=4), _chunks(values)
            ),
        ),
        (
            "topn-rand",
            n,
            lambda: _scalar_decisions(
                TopNRandomizedPruner(n=1000, rows=2400, delta=1e-4, seed=1),
                values_list,
            ),
            lambda: _batch_decisions(
                TopNRandomizedPruner(n=1000, rows=2400, delta=1e-4, seed=1),
                _chunks(values),
            ),
        ),
        (
            "groupby",
            n,
            lambda: _scalar_decisions(GroupByPruner(rows=4096, cols=8), keyed_rows),
            lambda: _batch_decisions(GroupByPruner(rows=4096, cols=8), _chunks(keyed_cols)),
        ),
        (
            "having-sum",
            n,
            lambda: _scalar_decisions(
                HavingPruner(threshold=500.0, width=1024, depth=3), keyed_rows
            ),
            lambda: _batch_decisions(
                HavingPruner(threshold=500.0, width=1024, depth=3), _chunks(keyed_cols)
            ),
        ),
        (
            "join-probe",
            n,
            lambda: _scalar_decisions(
                make_join(), [("L", key) for key in left.tolist()]
            ),
            lambda: _batch_decisions(
                make_join(), [("L", chunk) for chunk in _chunks(left)]
            ),
        ),
        (
            "skyline",
            sky_n,
            lambda: _scalar_decisions(
                SkylinePruner(dims=4, points=10, score="sum"), sky_rows
            ),
            lambda: _batch_decisions(
                SkylinePruner(dims=4, points=10, score="sum"), _chunks(sky_points)
            ),
        ),
    ]


def test_batch_vs_scalar_report():
    """Race process_batch against the scalar loop; emit the comparison table.

    Decisions must be bit-identical — the batch dataplane is an exact
    reimplementation, not an approximation — so this doubles as an
    end-to-end equivalence check at benchmark scale.
    """
    rows = []
    figures = {}
    for name, count, scalar_run, batch_run in _batch_specs():
        start = time.perf_counter()
        scalar_mask = scalar_run()
        scalar_s = time.perf_counter() - start
        start = time.perf_counter()
        batch_mask = batch_run()
        batch_s = time.perf_counter() - start
        assert np.array_equal(scalar_mask, batch_mask), (
            f"{name}: batch decisions diverge from scalar"
        )
        figures[name] = {
            "entries": count,
            "scalar_entries_per_s": count / scalar_s,
            "batch_entries_per_s": count / batch_s,
            "speedup": scalar_s / batch_s,
        }
        rows.append(
            [
                name,
                f"{count:,}",
                f"{count / scalar_s:,.0f}",
                f"{count / batch_s:,.0f}",
                f"{scalar_s / batch_s:.1f}x",
            ]
        )
    emit(
        "throughput_batch",
        [
            f"Scalar vs batch pruner throughput "
            f"(stream={BATCH_N:,}, batch_size={BATCH_SIZE:,})",
            "",
        ]
        + table(
            ["pruner", "entries", "scalar entries/s", "batch entries/s", "speedup"],
            rows,
        ),
        metrics=figures,
    )
    # The cache-matrix pruners run a batch this long as vector rounds
    # (6-19x even on a 20,000-entry stream); the per-entry replay they fall
    # back to reads 1.3-3.2x, so a silent fall-back fails here instead of
    # passing slowly.  A ratio of two runs on one host: host-independent.
    if min(BATCH_N, BATCH_SIZE) >= 4096:
        for name in ("distinct", "topn-rand", "groupby"):
            assert figures[name]["speedup"] >= 2.0, (
                f"{name}: batch only {figures[name]['speedup']:.1f}x the scalar loop"
            )


# ---------------------------------------------------------------------------
# Instrumentation overhead
# ---------------------------------------------------------------------------


def _one_filter_pass(instrumented, batched, inputs):
    """Wall time of one FilterPruner pass over the prepared inputs.

    ``instrumented=False`` swaps in the shared null registry via
    ``with_metrics`` — the record calls still execute, but every sample
    is a no-op, isolating the cost of the live counters themselves.
    """
    formula, filter_rows, chunked = inputs
    pruner = FilterPruner(formula)
    if not instrumented:
        pruner.with_metrics(null_registry())
    start = time.perf_counter()
    if batched:
        _batch_decisions(pruner, chunked)
    else:
        _scalar_decisions(pruner, filter_rows)
    return time.perf_counter() - start


def _race_filter(batched, inputs, repeats=5):
    """Best-of-``repeats`` (instrumented_s, null_s), interleaved.

    Alternating the two configurations inside one loop (after a warmup
    pass each) keeps slow machine-level drift — thermal throttling, a
    noisy neighbour — from landing entirely on one side of the race.
    """
    _one_filter_pass(True, batched, inputs)
    _one_filter_pass(False, batched, inputs)
    best_on = best_off = float("inf")
    for _ in range(repeats):
        best_on = min(best_on, _one_filter_pass(True, batched, inputs))
        best_off = min(best_off, _one_filter_pass(False, batched, inputs))
    return best_on, best_off


def test_metrics_overhead_report():
    """Measure the cost of live metrics on the 1M-entry filter benchmark.

    Races the default (instrumented) FilterPruner against the same pruner
    rebound to ``null_registry()``, on both the scalar and batch paths.
    The acceptance bar is < 10% overhead on the batch path, which records
    one counter update per chunk rather than per entry.
    """
    n = BATCH_N
    streams = bench_streams(n)
    price, qty = streams["values"], streams["qty"]
    formula = ((col("price") > 120.0) & (col("qty") <= 24)).to_formula(
        ["price", "qty"]
    )
    inputs = (formula, list(zip(price.tolist(), qty.tolist())), _chunks((price, qty)))

    rows = []
    figures = {"entries": n, "batch_size": BATCH_SIZE}
    for path, batched in (("scalar", False), ("batch", True)):
        on_s, off_s = _race_filter(batched, inputs)
        overhead = (on_s - off_s) / off_s
        figures[path] = {
            "instrumented_s": on_s,
            "null_registry_s": off_s,
            "overhead": overhead,
        }
        rows.append(
            [
                path,
                f"{n:,}",
                f"{on_s * 1000:,.1f}",
                f"{off_s * 1000:,.1f}",
                f"{overhead:+.1%}",
            ]
        )
    emit(
        "metrics_overhead",
        [
            f"Metrics instrumentation overhead on the filter pruner "
            f"(stream={n:,}, batch_size={BATCH_SIZE:,})",
            "",
        ]
        + table(
            ["path", "entries", "metrics ms", "null-registry ms", "overhead"],
            rows,
        ),
        metrics=figures,
    )
    # Sub-millisecond batch runs (tiny CI smoke streams) are noise-bound;
    # the 10% budget is only meaningful at benchmark scale.
    if n >= 200_000:
        assert figures["batch"]["overhead"] < 0.10, (
            f"batch-path metrics overhead {figures['batch']['overhead']:.1%} "
            f"exceeds the 10% budget"
        )


def _one_traced_run(traced, query, tables, sample):
    """Wall time of one end-to-end Cluster.run, traced or not.

    The traced side activates a fresh root context (every engine phase
    span gets stamped and re-parented) and samples single-pass batches
    at rate ``sample``; the untraced side runs the identical cluster
    with tracing off — the difference is the full hierarchical-tracing
    tax on the hot path.
    """
    from repro.engine.cluster import Cluster, ClusterConfig
    from repro.obs import TraceContext, trace_context

    cluster = Cluster(
        workers=5,
        config=ClusterConfig(
            batch_size=BATCH_SIZE,
            fused_trace_sample=sample if traced else 0,
        ),
    )
    start = time.perf_counter()
    if traced:
        with trace_context(TraceContext.root()):
            cluster.run(query, tables)
    else:
        cluster.run(query, tables)
    return time.perf_counter() - start


def test_tracing_overhead_report():
    """Measure the cost of hierarchical tracing on an end-to-end run.

    Races a traced ``Cluster.run`` (active root context, single-pass batches
    sampled every 64th) against the identical untraced run, interleaved
    best-of-5 after a warmup each.  The acceptance bar mirrors the
    metrics budget: < 10% overhead at benchmark scale.
    """
    from repro.engine.expressions import col as ecol
    from repro.engine.plan import CountOp, Query
    from repro.engine.table import Table

    n = BATCH_N
    streams = bench_streams(n)
    tables = {
        "products": Table(
            "products", {"price": streams["values"], "qty": streams["qty"]}
        )
    }
    query = Query(CountOp("products", (ecol("price") > 120.0) & (ecol("qty") <= 24)))
    sample = 64

    _one_traced_run(True, query, tables, sample)
    _one_traced_run(False, query, tables, sample)
    best_on = best_off = float("inf")
    for _ in range(5):
        best_on = min(best_on, _one_traced_run(True, query, tables, sample))
        best_off = min(best_off, _one_traced_run(False, query, tables, sample))
    overhead = (best_on - best_off) / best_off
    figures = {
        "entries": n,
        "batch_size": BATCH_SIZE,
        "fused_trace_sample": sample,
        "traced_s": best_on,
        "untraced_s": best_off,
        "overhead": overhead,
    }
    emit(
        "tracing_overhead",
        [
            f"Hierarchical tracing overhead on an end-to-end run "
            f"(stream={n:,}, batch_size={BATCH_SIZE:,}, "
            f"fused sample=1/{sample})",
            "",
        ]
        + table(
            ["entries", "traced ms", "untraced ms", "overhead"],
            [
                [
                    f"{n:,}",
                    f"{best_on * 1000:,.1f}",
                    f"{best_off * 1000:,.1f}",
                    f"{overhead:+.1%}",
                ]
            ],
        ),
        metrics=figures,
    )
    # Same noise guard as the metrics budget: only meaningful at scale.
    if n >= 200_000:
        assert overhead < 0.10, (
            f"tracing overhead {overhead:.1%} exceeds the 10% budget"
        )
