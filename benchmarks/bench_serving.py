"""Serving throughput: §6 packed scheduling vs solo-slot serving.

Drives the same mixed single-pass workload through two
:class:`~repro.serve.server.QueryService` instances — one with the
packing scheduler enabled, one restricted to solo slots — and compares
sustained throughput at *equal correctness*: every answer from both
services is asserted equal to the reference executor's output before
any number is recorded.

Every request is a distinct plan (unique ``Query.cache_key()``), so the
result cache contributes nothing and the comparison isolates the
scheduling policy.  Two throughput figures are reported:

* **wall qps** — requests completed per second of host wall time.  The
  simulator executes pruners in Python, so per-entry pruner compute
  (identical under both policies) dominates and the two modes land
  close together; this column is the honesty check, not the headline.
* **modeled qps** — requests per second of modeled completion time from
  :class:`~repro.engine.cost.CostModel` over the traffic each service
  actually moved.  This is where packing pays on real hardware: a
  packed slot streams the table once for up to ``max_pack`` queries, so
  the workers serialize and the network carries a fraction of the
  solo-slot volume.  The benchmark asserts packed > solo here, and that
  the packed service streamed strictly fewer entries.

Per-request p50/p99 latency (from the service's per-tenant histograms)
rides along in the emitted metrics envelope.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.engine.cluster import PhaseVolume, RunResult
from repro.engine.cost import SETUP_S, CostModel
from repro.engine.expressions import col
from repro.engine.plan import CountOp, DistinctOp, GroupByOp, Query, TopNOp
from repro.engine.reference import run_reference
from repro.engine.table import Table
from repro.serve import QueryService, ServeClient

from _harness import emit, table

BENCH_N = int(os.environ.get("CHEETAH_BENCH_N", "40000"))
REQUESTS = int(os.environ.get("CHEETAH_BENCH_REQUESTS", "32"))
WORKERS = 5
MAX_PACK = 4


def _tables(rows: int = BENCH_N) -> dict:
    rng = np.random.default_rng(11)
    return {
        "UserVisits": Table(
            "UserVisits",
            {
                "duration": rng.integers(0, 10_000, rows),
                "adRevenue": rng.integers(0, 1_000_000, rows),
                "userAgent": rng.integers(0, 60, rows),
                "languageCode": rng.integers(0, 25, rows),
            },
        )
    }


def _workload(requests: int = REQUESTS) -> list:
    """REQUESTS distinct packable plans cycling the single-pass kinds.

    DISTINCT and GROUP BY stay on the low-cardinality columns
    (``userAgent``, ``languageCode``) where switch pruning actually
    bites; a DISTINCT over a near-unique column forwards everything and
    would turn every packed slot it joins into a no-prune pass.
    """
    queries = []
    group_combos = [
        (key, value, agg)
        for key in ("userAgent", "languageCode")
        for value in ("adRevenue", "duration")
        for agg in ("max", "min")
    ]
    distinct_combos = [
        ("userAgent",), ("languageCode",),
        ("userAgent", "languageCode"), ("languageCode", "userAgent"),
    ]
    # An 8-slot cycle: selective filters and TOP N carry the unbounded
    # variety; DISTINCT appears once per cycle (4 unique plans exist).
    kinds = ("count", "distinct", "topn", "groupby",
             "count", "topn", "groupby", "topn")
    counters = {"count": 0, "distinct": 0, "topn": 0, "groupby": 0}
    for i in range(requests):
        kind = kinds[i % len(kinds)]
        j = counters[kind]
        counters[kind] += 1
        if kind == "count":
            queries.append(
                Query(CountOp("UserVisits", col("duration") > 8200 + 97 * j))
            )
        elif kind == "distinct":
            columns = distinct_combos[j % len(distinct_combos)]
            queries.append(Query(DistinctOp("UserVisits", columns)))
        elif kind == "topn":
            queries.append(Query(TopNOp("UserVisits", "adRevenue", 10 + j)))
        else:
            key, value, agg = group_combos[j % len(group_combos)]
            queries.append(Query(GroupByOp("UserVisits", key, value, agg)))
    keys = [q.cache_key() for q in queries]
    assert len(set(keys)) == len(keys), "workload plans must be distinct"
    return queries


def _serve_mode(tag: str, max_pack: int, tables, queries, expected):
    """Run the workload through one service; return (summary, figures)."""
    service = QueryService(
        tables,
        workers=WORKERS,
        max_queue=len(queries) + 8,
        worker_threads=2,
        max_pack=max_pack,
    )
    client = ServeClient(service, tenant=tag)
    try:
        # Submit the whole backlog while paused so the scheduler sees
        # every packing opportunity, then release and time the drain.
        service.pause()
        tickets = [client.submit(query) for query in queries]
        start = time.perf_counter()
        service.resume()
        outputs = [ticket.result() for ticket in tickets]
        wall = time.perf_counter() - start
        for query, output in zip(queries, outputs):
            assert output == expected[query.cache_key()], (
                f"{tag}: wrong answer for {query.describe()}"
            )
        report = service.report()
    finally:
        service.shutdown()
    summary = report["summary"]
    latency = report["latency_ms"][tag]
    slots = summary["slots_packed"] + summary["slots_solo"]
    # Modeled completion time of the traffic this service actually
    # moved: volume segments from the cost model, plus the fixed
    # per-run setup charged once per *slot* — a packed slot is one job
    # launch for up to max_pack queries, which is the §6 amortization.
    model = CostModel()
    breakdown = model.cheetah_breakdown(
        RunResult(
            query=f"serving-{tag}",
            output=None,
            phases=[
                PhaseVolume(
                    "serve",
                    streamed=summary["streamed"],
                    forwarded=summary["forwarded"],
                )
            ],
            used_cheetah=True,
            workers=WORKERS,
            op_kind="filter",
        )
    )
    modeled_s = (
        slots * SETUP_S
        + breakdown.worker
        + max(breakdown.network, breakdown.master)
    )
    figures = {
        "requests": len(queries),
        "slots_packed": summary["slots_packed"],
        "slots_solo": summary["slots_solo"],
        "packed_queries": summary["packed_queries"],
        "streamed": summary["streamed"],
        "forwarded": summary["forwarded"],
        "pruning_rate": summary["pruning_rate"],
        "wall_s": wall,
        "wall_qps": len(queries) / wall,
        "modeled_s": modeled_s,
        "modeled_qps": len(queries) / modeled_s,
        "p50_ms": latency["p50"],
        "p99_ms": latency["p99"],
    }
    return figures


def test_serving_report():
    """Packed vs solo serving at equal exactness; emit the table."""
    tables = _tables()
    queries = _workload()
    expected = {q.cache_key(): run_reference(q, tables) for q in queries}
    packed = _serve_mode("packed", MAX_PACK, tables, queries, expected)
    solo = _serve_mode("solo", 1, tables, queries, expected)
    # The §6 claim, in serving terms: same exact answers, strictly less
    # streamed traffic, higher modeled sustained throughput.
    assert packed["packed_queries"] > 0
    assert solo["packed_queries"] == 0
    assert packed["streamed"] < solo["streamed"]
    assert packed["modeled_qps"] > solo["modeled_qps"]
    rows = [
        [
            tag,
            figures["requests"],
            f"{figures['slots_packed']}+{figures['slots_solo']}",
            f"{figures['streamed']:,}",
            f"{figures['pruning_rate']:.2%}",
            f"{figures['wall_qps']:.1f}",
            f"{figures['modeled_qps']:.1f}",
            f"{figures['p50_ms']:.2f}",
            f"{figures['p99_ms']:.2f}",
        ]
        for tag, figures in (("packed", packed), ("solo", solo))
    ]
    lines = table(
        ["mode", "requests", "slots", "streamed", "pruned",
         "wall qps", "modeled qps", "p50 ms", "p99 ms"],
        rows,
    )
    lines.append("")
    lines.append(
        f"rows={BENCH_N:,}  max_pack={MAX_PACK}  workers={WORKERS}; all "
        f"{REQUESTS} answers asserted equal to the reference executor in "
        f"both modes"
    )
    lines.append(
        "modeled qps: CostModel over each service's streamed/forwarded "
        "volumes plus per-slot setup (one job launch per slot); wall qps "
        "is host wall time on the Python dataplane, where per-entry "
        "pruner compute dominates"
    )
    emit(
        "serving",
        lines,
        {
            "rows": BENCH_N,
            "requests": REQUESTS,
            "max_pack": MAX_PACK,
            "workers": WORKERS,
            "modes": {"packed": packed, "solo": solo},
        },
    )


if __name__ == "__main__":
    test_serving_report()
