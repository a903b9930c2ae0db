"""End-to-end telemetry tests: pruners, cluster runs, reports, and CLI.

The contract under test: every pruner reports into a per-instance
registry; ``Pruner.reset`` is final (subclasses extend ``_reset_state``)
and zeroes counters in place; cluster runs at any batch size produce the
*same counters* as the scalar run; ``run_packed`` keeps per-query
registries isolated; and the ``--metrics-out``/``metrics`` CLI round
trip exposes phase wall-times, decision counts, and health gauges.
"""

from __future__ import annotations

import json

import pytest

from repro.core.base import PassthroughPruner, PruneDecision, Pruner
from repro.core.distinct import DistinctPruner, FingerprintDistinctPruner
from repro.core.filtering import FilterPruner
from repro.core.groupby import GroupByPruner
from repro.core.having import HavingPruner
from repro.core.join import JoinPruner
from repro.core.skyline import SkylinePruner
from repro.core.topn import TopNDeterministicPruner, TopNRandomizedPruner
from repro.cli import main
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.expressions import col
from repro.engine.plan import CountOp, DistinctOp, GroupByOp, Query
from repro.switch.pipeline import Pipeline, PipelineStats
from repro.workloads import bigdata


# ---------------------------------------------------------------------------
# reset() is final; _reset_state() is the extension hook
# ---------------------------------------------------------------------------


def test_pruner_subclass_cannot_override_reset():
    with pytest.raises(TypeError, match="_reset_state"):

        class Rogue(Pruner):  # noqa: F841 - class body is the assertion
            def reset(self):
                pass


def test_pruner_subclass_may_override_reset_state():
    class Fine(Pruner):
        """Subclass using the sanctioned hook."""

        def __init__(self):
            super().__init__()
            self.cleared = 0

        def process(self, entry):
            """Forward everything."""
            decision = PruneDecision.FORWARD
            self.stats.record(decision)
            return decision

        def footprint(self):
            """No hardware resources."""
            from repro.switch.resources import ResourceFootprint

            return ResourceFootprint(label="FINE")

        def _reset_state(self):
            """Count hook invocations."""
            self.cleared += 1

    pruner = Fine()
    pruner.process(1)
    pruner.reset()
    assert pruner.cleared == 1
    assert pruner.stats.processed == 0


def _stream_for(pruner):
    """A small stream matching the pruner's entry shape."""
    if isinstance(pruner, (FilterPruner,)):
        return [(float(i), i % 7) for i in range(50)]
    if isinstance(pruner, (GroupByPruner, HavingPruner)):
        return [(i % 5, float(i)) for i in range(50)]
    if isinstance(pruner, SkylinePruner):
        return [(float(i % 9), float((i * 3) % 7)) for i in range(50)]
    if isinstance(pruner, JoinPruner):
        return [("L", i % 20) for i in range(50)]
    if isinstance(pruner, (TopNDeterministicPruner, TopNRandomizedPruner)):
        return [float(i * 37 % 101) for i in range(50)]
    return [i % 13 for i in range(50)]


_FORMULA = ((col("x") > 10.0) & (col("y") <= 5)).to_formula(["x", "y"])

#: One configuration of every core pruner, by class name.
_PRUNER_FACTORIES = {
    "PassthroughPruner": PassthroughPruner,
    "DistinctPruner": lambda: DistinctPruner(rows=64, cols=2),
    "FingerprintDistinctPruner": lambda: FingerprintDistinctPruner(
        rows=64, cols=2, fingerprint_bits=16
    ),
    "TopNDeterministicPruner": lambda: TopNDeterministicPruner(n=10, thresholds=4),
    "TopNRandomizedPruner": lambda: TopNRandomizedPruner(
        n=10, rows=64, delta=1e-2, seed=1
    ),
    "GroupByPruner": lambda: GroupByPruner(rows=64, cols=4),
    "FilterPruner": lambda: FilterPruner(_FORMULA),
    "HavingPruner": lambda: HavingPruner(threshold=25.0, width=64, depth=2),
    "SkylinePruner": lambda: SkylinePruner(dims=2, points=5, score="sum"),
    "JoinPruner": lambda: JoinPruner("L", "R", memory_bits=1 << 16),
}


def _built(pruner):
    """``pruner`` ready to stream: a JOIN needs its build pass first."""
    if isinstance(pruner, JoinPruner):
        pruner.build(list(range(10)), list(range(5, 15)))
    return pruner


def _all_pruners():
    """One configured instance of every core pruner."""
    return [_built(make()) for make in _PRUNER_FACTORIES.values()]


@pytest.mark.parametrize(
    "pruner", _all_pruners(), ids=lambda p: type(p).__name__
)
def test_reset_zeroes_stats_and_registry(pruner):
    for entry in _stream_for(pruner):
        pruner.process(entry)
    pruner.observe_health()
    assert pruner.stats.processed == 50
    assert any(pruner.metrics.counter_values().values())
    pruner.reset()
    assert pruner.stats.processed == 0
    assert pruner.stats.pruned == 0
    assert pruner.stats.forwarded == 0
    assert not any(pruner.metrics.counter_values().values())
    assert pruner.metrics.spans == []


@pytest.mark.parametrize("name", _PRUNER_FACTORIES)
def test_reset_then_replay_equals_a_fresh_instance(name):
    """The contract ``Pruner.reset()`` promises: decisions, stats and
    health gauges after ``reset()`` are those of a newly built pruner —
    including the rows a seeded pruner draws."""

    def replay(pruner):
        stream = _stream_for(_built(pruner)) * 20
        mask = [pruner.process(entry) for entry in stream]
        pruner.observe_health()
        stats = (pruner.stats.processed, pruner.stats.pruned)
        return mask, stats, pruner.metrics.gauge_values()

    pruner = _PRUNER_FACTORIES[name]()
    first = replay(pruner)
    pruner.reset()
    assert replay(pruner) == first == replay(_PRUNER_FACTORIES[name]())


def test_reset_restores_initial_decisions():
    """After reset, a deterministic pruner behaves like a fresh instance."""
    stream = [i % 13 for i in range(80)]
    fresh = DistinctPruner(rows=64, cols=2)
    expected = [fresh.process(e) for e in stream]
    pruner = DistinctPruner(rows=64, cols=2)
    for entry in stream:
        pruner.process(entry)
    pruner.reset()
    assert [pruner.process(e) for e in stream] == expected


# ---------------------------------------------------------------------------
# cluster runs: scalar vs batch counter equality
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tables():
    scale = bigdata.BigDataScale(
        rankings_rows=1500, uservisits_rows=3000, distinct_urls=600
    )
    return bigdata.tables(scale, seed=5)


def _counters(result):
    assert result.metrics is not None
    return result.metrics.counter_values()


QUERIES = {
    "filter-count": bigdata.query1_filter_count,
    "distinct": lambda: Query(DistinctOp("UserVisits", ("userAgent",))),
    "groupby": lambda: Query(
        GroupByOp("UserVisits", "userAgent", "adRevenue", "max")
    ),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_batch_run_counters_equal_scalar(tables, name, batch_size):
    query = QUERIES[name]()
    scalar = Cluster(workers=3).run(query, tables)
    batch = Cluster(workers=3, config=ClusterConfig(batch_size=batch_size)).run(
        query, tables
    )
    assert batch.output == scalar.output
    assert _counters(batch) == _counters(scalar)


def test_multi_phase_counters_equal_scalar(tables):
    query = bigdata.query7_having(threshold=4000.0)
    scalar = Cluster(workers=3).run(query, tables)
    batch = Cluster(workers=3, config=ClusterConfig(batch_size=19)).run(
        query, tables
    )
    assert batch.output == scalar.output
    assert _counters(batch) == _counters(scalar)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_chaos_run_counters_equal_at_every_batch_size(tables, name):
    from repro.faults import FAULT_KINDS, FaultPlan

    plan = FaultPlan.random(2, 1500, kinds=FAULT_KINDS, count=6)
    query = QUERIES[name]()
    runs = [
        Cluster(workers=3, config=ClusterConfig(fault_plan=plan, batch_size=b)).run(
            query, tables
        )
        for b in (None, 7, 4096)
    ]
    for other in runs[1:]:
        assert other.output == runs[0].output
        assert other.faults == runs[0].faults
        assert _counters(other) == _counters(runs[0])


# ---------------------------------------------------------------------------
# run results carry a usable registry
# ---------------------------------------------------------------------------


def test_run_result_report_structure(tables):
    result = Cluster(workers=3).run(bigdata.query1_filter_count(), tables)
    report = result.report()
    assert report["query"] == result.query
    assert report["op_kind"] == "filter"
    assert report["workers"] == 3
    totals = report["totals"]
    assert totals["streamed"] == totals["forwarded"] + totals["pruned"]
    assert report["phases"], "expected at least one phase"
    for phase in report["phases"]:
        assert phase["seconds"] is not None and phase["seconds"] >= 0.0
    metrics = report["metrics"]
    counters = {entry["name"] for entry in metrics["counters"]}
    assert "pruner_entries_processed_total" in counters
    assert "phase_entries_streamed_total" in counters
    assert "worker_entries_streamed_total" in counters
    assert metrics["gauges"], "expected at least one health gauge"
    assert {span["name"] for span in metrics["spans"]} >= {"stream"}
    assert set(report["compile_cache"]["fit_pack"]) == {"hits", "misses"}
    json.dumps(report)  # must be JSON-serializable as-is


def test_per_worker_volumes_sum_to_phase(tables):
    result = Cluster(workers=3).run(
        QUERIES["distinct"](), tables
    )
    counters = _counters(result)
    streamed = sum(
        value
        for key, value in counters.items()
        if key.startswith("worker_entries_streamed_total{")
    )
    assert streamed == result.total_streamed


def test_run_packed_keeps_per_query_registries_isolated(tables):
    queries = [
        Query(DistinctOp("UserVisits", ("userAgent",))),
        Query(CountOp("UserVisits", col("duration") > 1800)),
    ]
    packed = Cluster(workers=3).run_packed(queries, tables)
    assert packed.metrics is not None
    assert {s.name for s in packed.metrics.spans} >= {"packed-stream"}
    seen_pruners = []
    for result in packed.results:
        counters = _counters(result)
        pruner_keys = [
            key
            for key in counters
            if key.startswith("pruner_entries_processed_total{")
        ]
        assert len(pruner_keys) == 1, "each result reports exactly its own pruner"
        seen_pruners.append(pruner_keys[0])
        # every packed query sees the full shared stream
        assert counters[pruner_keys[0]] == tables["UserVisits"].num_rows
    assert len(set(seen_pruners)) == len(queries)


def test_registries_are_isolated_between_runs(tables):
    cluster = Cluster(workers=3)
    first = cluster.run(QUERIES["filter-count"](), tables)
    second = cluster.run(QUERIES["filter-count"](), tables)
    assert _counters(first) == _counters(second)  # no cross-run accumulation


# ---------------------------------------------------------------------------
# PipelineStats view
# ---------------------------------------------------------------------------


def test_pipeline_stats_forwarded_is_derived():
    stats = PipelineStats()
    stats.record(False)
    stats.record(True)
    stats.record(False)
    assert (stats.packets, stats.pruned, stats.forwarded) == (3, 1, 2)
    assert stats.pruning_rate == pytest.approx(1 / 3)


def test_pipeline_records_stage_and_phv_metrics():
    pipeline = Pipeline()
    pipeline.install(0, lambda stage, phv: None)
    phv = pipeline.new_phv()
    phv.declare("key", 32)
    pipeline.process(phv)
    values = pipeline.metrics.counter_values()
    assert values["pipeline_packets_total{}"] == 1
    assert values["pipeline_stage_packets_total{stage=0}"] == 1
    assert pipeline.metrics.gauge_values()["phv_used_bits{}"] == 32.0


# ---------------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------------


SQL = "SELECT COUNT(*) FROM UserVisits WHERE duration > 30"


def test_cli_metrics_out_and_pretty_print(tmp_path, capsys):
    out = tmp_path / "run.metrics.json"
    assert main(["query", SQL, "--rows", "2000", "--metrics-out", str(out)]) == 0
    assert f"written to {out}" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["totals"]["streamed"] > 0
    assert report["metrics"]["counters"]

    assert main(["metrics", str(out)]) == 0
    text = capsys.readouterr().out
    assert "query    :" in text
    assert "phase    :" in text and "wall=" in text
    assert "pruner_entries_processed_total" in text
    assert "gauge    :" in text


def test_cli_metrics_prom_export(tmp_path, capsys):
    out = tmp_path / "run.metrics.json"
    assert main(["query", SQL, "--rows", "2000", "--metrics-out", str(out)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(out), "--prom"]) == 0
    prom = capsys.readouterr().out
    assert "# TYPE pruner_entries_processed_total counter" in prom
    assert "span_seconds_bucket" in prom
