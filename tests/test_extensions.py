"""Tests for the §9 extensions (repro.extensions)."""

from __future__ import annotations

import pytest

from repro.core.base import PruneDecision
from repro.core.distinct import DistinctPruner, master_distinct
from repro.core.groupby import GroupByPruner, master_groupby
from repro.core.topn import TopNRandomizedPruner, master_topn
from repro.errors import ConfigurationError, ResourceError
from repro.extensions.dag import EdgePruning, WorkerDag
from repro.extensions.multientry import MultiEntryPruner
from repro.extensions.multiswitch import SwitchTree
from repro.switch.resources import TOFINO
from repro.workloads.synthetic import keyed_values, random_order_stream


class TestMultiEntryPruner:
    def _adapter(self, k=4, rows=64):
        pruner = DistinctPruner(rows=rows, cols=2)
        return MultiEntryPruner(
            pruner, row_of=pruner._matrix.row_of, entries_per_packet=k
        )

    def test_distinct_contract_preserved(self):
        stream = random_order_stream(5000, 400, seed=2)
        adapter = self._adapter(k=4)
        survivors = adapter.prune_stream(stream)
        assert set(master_distinct(survivors)) == set(stream)

    def test_row_mates_forwarded_unprocessed(self):
        pruner = DistinctPruner(rows=1, cols=2)  # everything shares row 0
        adapter = MultiEntryPruner(
            pruner, row_of=pruner._matrix.row_of, entries_per_packet=3
        )
        decisions = adapter.process_packet(["a", "a", "a"])
        # First processed (forward, new); the other two are unprocessed
        # row-mates - forwarded even though they are duplicates.
        assert decisions == [PruneDecision.FORWARD] * 3
        assert adapter.unprocessed_forwards == 2

    def test_duplicate_in_next_packet_still_pruned(self):
        pruner = DistinctPruner(rows=1, cols=2)
        adapter = MultiEntryPruner(
            pruner, row_of=pruner._matrix.row_of, entries_per_packet=2
        )
        adapter.process_packet(["a"])
        decisions = adapter.process_packet(["a"])
        assert decisions == [PruneDecision.PRUNE]

    def test_packing_reduces_frames(self):
        adapter = self._adapter(k=4)
        assert adapter.packets_sent(1000) == 250
        assert adapter.packets_sent(1001) == 251

    def test_oversized_packet_rejected(self):
        adapter = self._adapter(k=2)
        with pytest.raises(ConfigurationError):
            adapter.process_packet([1, 2, 3])

    def test_k_bounded_by_alus(self):
        pruner = DistinctPruner(rows=8, cols=2)
        with pytest.raises(ConfigurationError):
            MultiEntryPruner(
                pruner,
                row_of=pruner._matrix.row_of,
                entries_per_packet=TOFINO.alus_per_stage + 1,
            )

    def test_footprint_multiplies_alus(self):
        adapter = self._adapter(k=4)
        base = adapter.pruner.footprint()
        packed = adapter.footprint()
        assert packed.alus == base.alus * 4
        assert packed.stages == base.stages
        assert packed.sram_bits == base.sram_bits

    def test_topn_contract_with_packing(self):
        import random

        rng = random.Random(5)
        stream = [rng.uniform(0, 1000) for _ in range(4000)]
        pruner = TopNRandomizedPruner(n=30, rows=64, cols=4, seed=3)
        adapter = MultiEntryPruner(
            pruner,
            row_of=lambda entry: pruner._row(),  # the row process() reads next
            entries_per_packet=4,
        )
        survivors = adapter.prune_stream(stream)
        assert sorted(master_topn(survivors, 30)) == sorted(master_topn(stream, 30))

    def test_groupby_contract_with_packing(self):
        stream = keyed_values(4000, 100, seed=7)
        pruner = GroupByPruner(rows=64, cols=4)
        adapter = MultiEntryPruner(
            pruner,
            row_of=lambda entry: pruner._matrix.row_of(entry[0]),
            entries_per_packet=4,
        )
        survivors = adapter.prune_stream(stream)
        expected = master_groupby(list(stream), "max")
        assert master_groupby(survivors, "max") == expected

    def test_reset(self):
        adapter = self._adapter()
        adapter.process_packet(["x"])
        adapter.reset()
        assert adapter.stats.processed == 0
        assert adapter.process_packet(["x"]) == [PruneDecision.FORWARD]


class TestSwitchTree:
    def test_distinct_contract(self):
        stream = random_order_stream(5000, 400, seed=3)
        tree = SwitchTree(
            leaves=[DistinctPruner(rows=64, cols=2, seed=i) for i in range(4)],
            root=DistinctPruner(rows=256, cols=2, seed=99),
        )
        survivors = tree.survivors(stream)
        assert set(master_distinct(survivors)) == set(stream)

    def test_tree_prunes_more_than_single_leaf(self):
        stream = random_order_stream(20_000, 2000, seed=5)
        single = DistinctPruner(rows=64, cols=2, seed=1)
        single_survivors = len(single.survivors(stream))
        tree = SwitchTree(
            leaves=[DistinctPruner(rows=64, cols=2, seed=i) for i in range(4)],
            root=DistinctPruner(rows=64, cols=2, seed=99),
        )
        tree_survivors = len(tree.survivors(list(stream)))
        assert tree_survivors < single_survivors

    def test_levels_both_contribute(self):
        stream = random_order_stream(10_000, 500, seed=7)
        tree = SwitchTree(
            leaves=[DistinctPruner(rows=16, cols=2, seed=i) for i in range(2)],
            root=DistinctPruner(rows=512, cols=2, seed=99),
        )
        tree.survivors(stream)
        assert tree.leaf_pruned > 0
        assert tree.root_pruned > 0

    def test_empty_leaves_rejected(self):
        with pytest.raises(ConfigurationError):
            SwitchTree(leaves=[], root=DistinctPruner())

    def test_reset(self):
        tree = SwitchTree(
            leaves=[DistinctPruner(rows=8, cols=2)],
            root=DistinctPruner(rows=8, cols=2),
        )
        tree.process("x")
        tree.reset()
        assert tree.stats.processed == 0
        assert tree.process("x") is PruneDecision.FORWARD


class TestWorkerDag:
    def test_two_level_distinct_then_groupby(self):
        stream = keyed_values(5000, 200, seed=9)
        # Edge 1 prunes per-key non-improving values; edge 2 dedupes keys
        # after a projection to the key alone.
        groupby = GroupByPruner(rows=256, cols=4)
        distinct = DistinctPruner(rows=256, cols=2)
        dag = WorkerDag(
            [
                EdgePruning("agg-edge", groupby),
                EdgePruning("dedup-edge", distinct),
            ]
        )
        # For the second edge, entries are (key, value) tuples; DISTINCT
        # on full tuples is still superset-safe for the final GROUP BY.
        output, reports = dag.run(stream)
        assert master_groupby(output, "max") == master_groupby(list(stream), "max")
        assert reports[0].arrived == len(stream)
        assert reports[1].arrived == reports[0].emitted

    def test_validate_packs_edges(self):
        dag = WorkerDag(
            [
                EdgePruning("a", DistinctPruner(rows=256, cols=2)),
                EdgePruning("b", GroupByPruner(rows=256, cols=4)),
            ],
        )
        footprint = dag.validate()
        assert footprint.fits(TOFINO)

    def test_validate_rejects_overcommit(self):
        from repro.core.join import JoinPruner

        # Two JOINs that each claim the whole Tofino's SRAM.
        memory = TOFINO.total_sram_bits
        dag = WorkerDag(
            [
                EdgePruning("a", JoinPruner("L", "R", memory_bits=memory)),
                EdgePruning("b", JoinPruner("X", "Y", memory_bits=memory)),
            ],
        )
        with pytest.raises(ResourceError):
            dag.validate()

    def test_duplicate_edge_names_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerDag(
                [
                    EdgePruning("e", DistinctPruner(rows=8, cols=2)),
                    EdgePruning("e", DistinctPruner(rows=8, cols=2)),
                ]
            )

    def test_empty_dag_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerDag([])

    def test_reset(self):
        pruner = DistinctPruner(rows=8, cols=2)
        dag = WorkerDag([EdgePruning("e", pruner)])
        dag.run([1, 1, 2])
        dag.reset()
        assert pruner.stats.processed == 0
