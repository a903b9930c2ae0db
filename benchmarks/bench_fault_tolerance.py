"""Fault-tolerance tax: fault-free vs fault-injected runs.

Not a paper figure — the paper asserts graceful degradation (§3's
reboot-with-empty-state, §7.2's retransmission protocol); this bench
quantifies what surviving faults *costs*:

* **transport level** — `TimedReliableTransfer` goodput and
  retransmission counts under increasing scheduled fault load
  (drops + corruptions via a `FaultInjector`), with the completed
  DISTINCT verified exact every time;
* **cluster level** — per-operator stream/forward volumes and the
  degradation actions taken under a mixed fault schedule, with every
  output verified against the reference executor.

The table is the contract made visible: fault columns grow, the
"output" column never leaves "exact".
"""

from __future__ import annotations

import random

from repro.core.distinct import DistinctPruner, master_distinct
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.reference import run_reference
from repro.faults import FaultInjector, FaultPlan
from repro.net.reliability import packets_for
from repro.net.timed import TimedReliableTransfer
from repro.workloads import bigdata

from _harness import emit, table

ENTRIES = 400


def _timed_run(fault_count: int, seed: int):
    """One timed transfer of ENTRIES packets under `fault_count` faults."""
    rng = random.Random(seed)
    entries = [rng.randrange(80) for _ in range(ENTRIES)]
    injector = None
    if fault_count:
        plan = FaultPlan.random(
            seed, ENTRIES, kinds=("drop", "corrupt", "duplicate", "reorder"),
            count=fault_count,
        )
        injector = FaultInjector(plan)
    transfer = TimedReliableTransfer(DistinctPruner(rows=16, cols=2), injector=injector)
    transfer.run(packets_for(entries))
    exact = set(master_distinct(transfer.master_unique_entries)) == set(entries)
    return transfer, exact


def _cluster_run(name, query, tables, expected, plan):
    """One cluster run (optionally fault-injected), verified vs reference."""
    config = ClusterConfig(fault_plan=plan) if plan is not None else ClusterConfig()
    result = Cluster(workers=5, config=config).run(query, tables)
    exact = result.output == expected
    degradations = [] if result.faults is None else result.faults["degradations"]
    injected = 0 if result.faults is None else result.faults["injected"]
    return result, exact, injected, degradations


def test_fault_tolerance_tax(benchmark):
    # --- transport: goodput under scheduled drop/corrupt load -------------
    transport_rows = []
    goodputs = []
    fault_metrics = {}
    for fault_count in (0, 8, 24, 48):
        transfer, exact = _timed_run(fault_count, seed=fault_count + 1)
        stats = transfer.stats
        goodputs.append(transfer.goodput())
        transport_rows.append(
            (
                f"{fault_count} faults",
                f"{stats.transmissions / ENTRIES:.2f}",
                stats.retransmissions,
                stats.checksum_drops,
                stats.timeouts,
                f"{transfer.goodput():.2f}",
                "exact" if exact else "WRONG",
            )
        )
        fault_metrics[f"transport_{fault_count}_faults"] = {
            "tx_per_entry": stats.transmissions / ENTRIES,
            "retransmissions": stats.retransmissions,
            "checksum_drops": stats.checksum_drops,
            "timeouts": stats.timeouts,
            "goodput": transfer.goodput(),
        }

    # --- cluster: degradation cost per operator ---------------------------
    scale = bigdata.BigDataScale(
        rankings_rows=1500,
        uservisits_rows=3000,
        distinct_urls=600,
        distinct_user_agents=40,
        distinct_languages=8,
    )
    tables_ = bigdata.tables(scale, seed=5)
    tables_["Rankings"] = bigdata.permuted(tables_["Rankings"], seed=1)
    queries = bigdata.benchmark_queries()
    cluster_rows = []
    for name in ("Q2-distinct", "Q4-topn", "Q6-join", "Q7-having"):
        query = queries[name]
        expected = run_reference(query, tables_)
        baseline, base_exact, _, _ = _cluster_run(
            name, query, tables_, expected, plan=None
        )
        plan = FaultPlan.random(7, 1500, count=6)
        chaotic, chaos_exact, injected, degradations = _cluster_run(
            name, query, tables_, expected, plan
        )
        actions = ",".join(sorted({d["action"] for d in degradations})) or "-"
        cluster_rows.append(
            (
                name,
                baseline.total_forwarded,
                chaotic.total_forwarded,
                injected,
                len(degradations),
                actions,
                "exact" if (base_exact and chaos_exact) else "WRONG",
            )
        )
        fault_metrics[f"cluster_{name}"] = {
            "baseline_forwarded": baseline.total_forwarded,
            "faulted_forwarded": chaotic.total_forwarded,
            "faults_injected": injected,
            "degradations": len(degradations),
        }

    lines = table(
        ["load", "tx/entry", "retx", "crc drops", "timeouts", "goodput", "output"],
        transport_rows,
    )
    lines.append("")
    lines.extend(
        table(
            ["query", "fwd clean", "fwd chaos", "injected", "degr", "actions",
             "output"],
            cluster_rows,
        )
    )
    emit("fault_tolerance_tax", lines, metrics=fault_metrics)

    # Fault-free transport: no retransmissions, no CRC drops, no timers.
    assert transport_rows[0][2] == 0
    assert transport_rows[0][3] == 0
    # Faults cost goodput, monotonically in load.
    assert goodputs == sorted(goodputs, reverse=True)
    # The contract: every run, transport or cluster, stays exact.
    assert all(row[-1] == "exact" for row in transport_rows + cluster_rows)
    # Degradation is visible, not silent: every chaos run records its
    # injections, and every degradation names its recovery action.
    assert all(row[3] > 0 for row in cluster_rows)
    assert all(row[5] != "-" for row in cluster_rows if row[4] > 0)

    benchmark(lambda: _timed_run(8, seed=3))
