"""Property-based chaos suite: randomized fault schedules vs. reference.

The contract under test is the tentpole guarantee: for ANY seed-derived
fault schedule — packet drops, corruption, reordering, duplication,
switch reboots, register bit flips, stage exhaustion, worker crashes —
the cluster either produces exactly the reference output or records a
graceful degradation while still producing exactly the reference output.
There is no third outcome; a silent wrong answer is a failure.
"""

from __future__ import annotations

import pytest

from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.reference import run_reference
from repro.errors import ConfigurationError
from repro.engine.plan import CountOp, GroupByOp, HavingOp, Query
from repro.engine.expressions import col
from repro.faults import FAULT_KINDS, FaultEvent, FaultPlan
from repro.workloads import bigdata

SEEDS = range(5)

_SCALE = bigdata.BigDataScale(
    rankings_rows=1500,
    uservisits_rows=3000,
    distinct_urls=600,
    distinct_user_agents=40,
    distinct_languages=8,
)


@pytest.fixture(scope="module")
def tables():
    data = bigdata.tables(_SCALE, seed=5)
    data["Rankings"] = bigdata.permuted(data["Rankings"], seed=1)
    return data


@pytest.fixture(scope="module")
def queries():
    return bigdata.benchmark_queries()


@pytest.fixture(scope="module")
def references(tables, queries):
    return {name: run_reference(query, tables) for name, query in queries.items()}


def _run_chaos(query, tables, plan, **config):
    cluster = Cluster(
        workers=5, config=ClusterConfig(fault_plan=plan, **config)
    )
    return cluster.run(query, tables)


class TestEveryOperatorUnderChaos:
    """All operators x 5 seeds x schedules drawing from all 8 fault kinds."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "name",
        [
            "Q1-filter",
            "Q2-distinct",
            "Q3-skyline",
            "Q4-topn",
            "Q5-groupby",
            "Q6-join",
            "Q7-having",
        ],
    )
    def test_output_matches_reference(self, name, seed, tables, queries, references):
        plan = FaultPlan.random(seed, 1500, kinds=FAULT_KINDS, count=6)
        result = _run_chaos(queries[name], tables, plan)
        assert result.output == references[name], (
            f"{name} seed={seed}: chaos changed the output"
        )
        assert result.faults is not None
        # Whatever fired was recorded — nothing is silently absorbed.
        assert result.faults["injected"] == len(result.faults["events"])
        for degradation in result.faults["degradations"]:
            assert degradation["action"] in {
                "continue-empty-state",
                "passthrough-remainder",
                "passthrough",
                "rebuild",
                "rebuild-build",
                "refetch-all",
                "restart-replay",
            }


class TestRebootSafeDegradation:
    """Table 4 safe operators continue with empty state, never passthrough
    (unless a stage was exhausted)."""

    @pytest.mark.parametrize("name", ["Q2-distinct", "Q4-topn", "Q5-groupby"])
    def test_reboot_continues_with_empty_state(
        self, name, tables, queries, references
    ):
        plan = FaultPlan.random(3, 1500, kinds=("reboot",), count=2)
        result = _run_chaos(queries[name], tables, plan)
        assert result.output == references[name]
        actions = {d["action"] for d in result.faults["degradations"]}
        assert actions == {"continue-empty-state"}

    def test_exhaustion_forwards_the_remainder(self, tables, queries, references):
        plan = FaultPlan.random(1, 1500, kinds=("exhaust",), count=1)
        result = _run_chaos(queries["Q2-distinct"], tables, plan)
        assert result.output == references["Q2-distinct"]
        actions = {d["action"] for d in result.faults["degradations"]}
        assert actions == {"passthrough-remainder"}
        # Fail-open shows up as traffic: less pruning than fault-free.
        fault_free = Cluster(workers=5).run(queries["Q2-distinct"], tables)
        assert result.total_forwarded > fault_free.total_forwarded


class TestJoinDegradationPolicy:
    """JOIN is not reboot-safe: probe-phase loss must rebuild or forward-all,
    and must never be silently wrong."""

    def _probe_reboot_plan(self, seed=0):
        # Window (0.6, 0.95) of 2*(L+R) entries lands inside the probe pass.
        return FaultPlan.random(
            seed, 2 * (1500 + 3000), kinds=("reboot",), count=1, window=(0.6, 0.95)
        )

    @pytest.mark.parametrize("policy", ["auto", "rebuild", "passthrough"])
    def test_probe_reboot_never_wrong(self, policy, tables, queries, references):
        result = _run_chaos(
            queries["Q6-join"], tables, self._probe_reboot_plan(),
            degrade_policy=policy,
        )
        assert result.output == references["Q6-join"]
        degradations = result.faults["degradations"]
        assert len(degradations) == 1
        if policy == "rebuild":
            assert degradations[0]["action"] == "rebuild"
        elif policy == "passthrough":
            assert degradations[0]["action"] == "passthrough"
        else:
            assert degradations[0]["action"] in {"rebuild", "passthrough"}

    def test_rebuild_pays_extra_build_traffic(self, tables, queries):
        result = _run_chaos(
            queries["Q6-join"], tables, self._probe_reboot_plan(),
            degrade_policy="rebuild",
        )
        names = [phase.name for phase in result.phases]
        assert "join-rebuild" in names
        rebuild = next(p for p in result.phases if p.name == "join-rebuild")
        assert rebuild.streamed == 2 * (1500 + 3000) // 2  # one build re-stream

    def test_passthrough_forwards_more(self, tables, queries, references):
        passthrough = _run_chaos(
            queries["Q6-join"], tables, self._probe_reboot_plan(),
            degrade_policy="passthrough",
        )
        fault_free = Cluster(workers=5).run(queries["Q6-join"], tables)
        assert passthrough.output == references["Q6-join"]
        assert passthrough.total_forwarded > fault_free.total_forwarded

    def test_build_reboot_restarts_the_build(self, tables, queries, references):
        plan = FaultPlan.random(
            2, 2 * (1500 + 3000), kinds=("reboot",), count=1, window=(0.0, 0.4)
        )
        result = _run_chaos(queries["Q6-join"], tables, plan)
        assert result.output == references["Q6-join"]
        assert result.faults["degradations"][0]["action"] == "rebuild-build"

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(degrade_policy="shrug")


class TestUnsafeOperatorsDegradeLoudly:
    @pytest.mark.parametrize("kind", ["reboot", "bitflip", "exhaust"])
    def test_having_refetches_everything(
        self, kind, tables, queries, references
    ):
        plan = FaultPlan.random(4, 3000, kinds=(kind,), count=1)
        result = _run_chaos(queries["Q7-having"], tables, plan)
        assert result.output == references["Q7-having"]
        actions = {d["action"] for d in result.faults["degradations"]}
        assert actions == {"refetch-all"}
        # The partial second pass degraded to a full one.
        refetch = next(p for p in result.phases if p.name == "having-refetch")
        assert refetch.streamed == 3000

    def test_skyline_reboot_replays_prefix(self, tables, queries, references):
        plan = FaultPlan.random(6, 1500, kinds=("reboot",), count=1)
        result = _run_chaos(queries["Q3-skyline"], tables, plan)
        assert result.output == references["Q3-skyline"]
        assert {d["action"] for d in result.faults["degradations"]} == {
            "restart-replay"
        }
        # The replayed prefix is visible as extra streamed traffic.
        assert result.total_streamed > 1500

    def test_worker_crash_replay_is_deduplicated(
        self, tables, queries, references
    ):
        plan = FaultPlan.random(8, 1500, kinds=("crash",), count=2)
        result = _run_chaos(queries["Q1-filter"], tables, plan)
        # COUNT would double-count replayed rows without row-id dedup.
        assert result.output == references["Q1-filter"]
        assert result.total_streamed > 1500


class TestRowIdDedup:
    """Duplicated packets and crash replays reach the master more than
    once; completion dedups by row id, so aggregates never double-count."""

    #: Two duplicates and two worker crashes on the global entry cursor.
    #: Single-pass runs stream five 600-row partitions: the first crash
    #: makes partition 0 cross 901 entries, so 1000 and 1200 land in
    #: partition 1; multi-pass runs stream the 3000 rows as one partition.
    PLAN = FaultPlan(
        [
            FaultEvent(at=10, kind="duplicate"),
            FaultEvent(at=300, kind="crash"),
            FaultEvent(at=1000, kind="duplicate"),
            FaultEvent(at=1200, kind="crash"),
        ]
    )

    # The engine's GROUP BY prunes MIN/MAX only (§4); SUM and COUNT group
    # aggregates exist as HAVING, so those are the sum/count cases here.
    QUERIES = {
        "count-star": Query(CountOp("UserVisits", col("duration") > 10)),
        "groupby-max": Query(GroupByOp("UserVisits", "userAgent", "adRevenue", "max")),
        "having-sum": Query(HavingOp("UserVisits", "languageCode", "adRevenue", 500.0, "sum")),
        "having-count": Query(HavingOp("UserVisits", "languageCode", "adRevenue", 300, "count")),
    }

    @pytest.mark.parametrize("batch_size", [None, 7])
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_duplicates_and_crash_replays_never_double_count(
        self, name, batch_size, tables
    ):
        query = self.QUERIES[name]
        result = _run_chaos(query, tables, self.PLAN, batch_size=batch_size)
        assert result.output == run_reference(query, tables)
        assert result.faults["by_kind"] == {"crash": 2, "duplicate": 2}
        # Every repeated entry crossed the switch: two duplicates plus the
        # replayed prefixes of the two crashes.
        assert result.phases[0].streamed > 3000 + 500


class TestSkylineReplayAcrossBatches:
    def test_replay_longer_than_a_batch(self, tables, queries, references):
        plan = FaultPlan([FaultEvent(at=20, kind="reboot")])
        result = _run_chaos(queries["Q3-skyline"], tables, plan, batch_size=7)
        assert result.output == references["Q3-skyline"]
        (degradation,) = result.faults["degradations"]
        assert degradation["action"] == "restart-replay"
        # 20 points (almost three 7-row batches) went through the cache
        # before the reboot; all of them re-stream behind the remainder.
        assert degradation["reason"].startswith("switch reboot; 20 processed points")
        assert result.total_streamed == 1500 + 20
        per_entry_sized = _run_chaos(queries["Q3-skyline"], tables, plan, batch_size=1)
        assert (result.total_streamed, result.total_forwarded) == (
            per_entry_sized.total_streamed,
            per_entry_sized.total_forwarded,
        )


class TestChaosDeterminism:
    def test_same_plan_same_everything(self, tables, queries):
        plan = FaultPlan.random(11, 3000, kinds=FAULT_KINDS, count=8)

        def run():
            result = _run_chaos(queries["Q2-distinct"], tables, plan)
            return (result.output, result.faults, result.total_streamed,
                    result.total_forwarded)

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2:] == second[2:]

    def test_report_carries_the_fault_account(self, tables, queries):
        plan = FaultPlan.random(1, 3000, kinds=("reboot",), count=1)
        report = _run_chaos(queries["Q2-distinct"], tables, plan).report()
        assert report["faults"]["planned"] == 1
        assert report["faults"]["injected"] == 1
        fault_free = Cluster(workers=5).run(queries["Q2-distinct"], tables)
        assert fault_free.report()["faults"] is None
