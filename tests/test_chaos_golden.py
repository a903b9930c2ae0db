"""Golden chaos record: fault accounts, phase volumes and counters.

``tests/data/chaos_golden.json`` was recorded from the per-entry chaos
loops (the commit before the segment driver) for the 7 queries x 5 seeds
of ``tests/test_chaos.py``.  The segment driver must reproduce every
fault log entry, degradation, phase volume and counter exactly: an event
scheduled at global position *k* still fires after entry *k-1* and
before entry *k*.

Re-record (only when a fault-visible behaviour changes on purpose) with
``PYTHONPATH=src python tests/test_chaos_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.cluster import Cluster, ClusterConfig
from repro.faults import FAULT_KINDS, FaultPlan
from repro.workloads import bigdata

GOLDEN = Path(__file__).parent / "data" / "chaos_golden.json"
SEEDS = range(5)
NAMES = [
    "Q1-filter",
    "Q2-distinct",
    "Q3-skyline",
    "Q4-topn",
    "Q5-groupby",
    "Q6-join",
    "Q7-having",
]
_SCALE = bigdata.BigDataScale(
    rankings_rows=1500,
    uservisits_rows=3000,
    distinct_urls=600,
    distinct_user_agents=40,
    distinct_languages=8,
)


def _tables():
    data = bigdata.tables(_SCALE, seed=5)
    data["Rankings"] = bigdata.permuted(data["Rankings"], seed=1)
    return data


def _snapshot(query, tables, seed: int, batch_size=None) -> dict:
    plan = FaultPlan.random(seed, 1500, kinds=FAULT_KINDS, count=6)
    config = ClusterConfig(fault_plan=plan, batch_size=batch_size)
    result = Cluster(workers=5, config=config).run(query, tables)
    # Through JSON so tuples/ints compare the way the file stores them.
    return json.loads(
        json.dumps(
            {
                "faults": result.faults,
                "phases": [(p.name, p.streamed, p.forwarded) for p in result.phases],
                "counters": result.metrics.counter_values(),
            }
        )
    )


@pytest.fixture(scope="module")
def tables():
    return _tables()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("batch_size", [None, 7, 4096])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_chaos_run_matches_the_per_entry_record(
    name, seed, batch_size, tables, golden
):
    query = bigdata.benchmark_queries()[name]
    assert _snapshot(query, tables, seed, batch_size) == golden[f"{name}/{seed}"]


if __name__ == "__main__":
    recorded_tables = _tables()
    queries = bigdata.benchmark_queries()
    record = {
        f"{name}/{seed}": _snapshot(queries[name], recorded_tables, seed)
        for name in NAMES
        for seed in SEEDS
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} chaos runs into {GOLDEN}")
