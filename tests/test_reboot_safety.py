"""Empirical verification of the reboot-safety analysis (core.summary).

§3: "If the switch fails, operators can simply reboot the switch with
empty states."  That is only sound for algorithms whose empty state
forwards everything already justified — these tests inject a mid-stream
``reset()`` (the reboot) and check which operators keep the pruning
contract and which demonstrably break, matching the TABLE4
classification.
"""

from __future__ import annotations

import random

import pytest

from repro.core.base import PruneDecision
from repro.core.distinct import DistinctPruner, master_distinct
from repro.core.groupby import GroupByPruner, master_groupby
from repro.core.having import HavingPruner, master_having, reference_having
from repro.core.join import JoinPruner
from repro.core.skyline import SkylinePruner, master_skyline
from repro.core.summary import TABLE4, render_table4
from repro.core.topn import (
    TopNDeterministicPruner,
    TopNRandomizedPruner,
    master_topn,
)
from repro.workloads.synthetic import keyed_values, random_order_stream, uniform_points


def _run_with_reboot(pruner, stream, reboot_at):
    """Survivors of a stream with a switch reboot after ``reboot_at`` entries."""
    survivors = []
    for i, entry in enumerate(stream):
        if i == reboot_at:
            pruner.reset()  # reboot with empty state
        if pruner.process(entry) is PruneDecision.FORWARD:
            survivors.append(entry)
    return survivors


def _run_with_reboot_batched(pruner, stream, reboot_at, chunk=256):
    """Batched twin of :func:`_run_with_reboot`.

    Feeds the stream through ``process_batch`` in ``chunk``-sized slices,
    injecting the reboot (``reset()``) at entry ``reboot_at`` exactly as
    the scalar helper does — the reboot may land mid-chunk, in which case
    the chunk is split around it.
    """
    survivors = []
    spans = [(0, reboot_at), (reboot_at, len(stream))]
    for lo, hi in spans:
        if lo == reboot_at:
            pruner.reset()  # reboot with empty state
        for start in range(lo, hi, chunk):
            piece = stream[start : min(start + chunk, hi)]
            if not piece:
                continue
            keep = pruner.process_batch(piece)
            survivors.extend(entry for entry, k in zip(piece, keep) if k)
    return survivors


class TestRebootSafeOperators:
    def test_distinct_survives_reboot(self):
        stream = random_order_stream(4000, 300, seed=1)
        pruner = DistinctPruner(rows=64, cols=2)
        survivors = _run_with_reboot(pruner, stream, reboot_at=2000)
        assert set(master_distinct(survivors)) == set(stream)

    def test_topn_deterministic_survives_reboot(self):
        rng = random.Random(2)
        stream = [rng.uniform(1, 10_000) for _ in range(3000)]
        pruner = TopNDeterministicPruner(n=40, thresholds=4)
        survivors = _run_with_reboot(pruner, stream, reboot_at=1500)
        assert sorted(master_topn(survivors, 40)) == sorted(master_topn(stream, 40))

    def test_topn_randomized_survives_reboot(self):
        rng = random.Random(3)
        stream = [rng.uniform(1, 10_000) for _ in range(3000)]
        pruner = TopNRandomizedPruner(n=30, rows=512, delta=1e-4, seed=4)
        survivors = _run_with_reboot(pruner, stream, reboot_at=1500)
        assert sorted(master_topn(survivors, 30)) == sorted(master_topn(stream, 30))

    def test_groupby_survives_reboot(self):
        stream = keyed_values(4000, 150, seed=5)
        pruner = GroupByPruner(rows=64, cols=4)
        survivors = _run_with_reboot(pruner, stream, reboot_at=2000)
        assert master_groupby(survivors, "max") == master_groupby(
            list(stream), "max"
        )

    def test_reboot_at_any_point_distinct(self):
        stream = random_order_stream(1000, 100, seed=6)
        for reboot_at in (0, 1, 500, 999):
            pruner = DistinctPruner(rows=16, cols=2)
            survivors = _run_with_reboot(pruner, stream, reboot_at)
            assert set(master_distinct(survivors)) == set(stream)


class TestRebootSafeOperatorsBatched:
    """Same TABLE4 classification, exercised through ``process_batch``.

    The batch dataplane must inherit the reboot-safety analysis verbatim:
    a reboot between (or inside) batches behaves exactly like one between
    scalar entries.
    """

    def test_distinct_survives_reboot_batched(self):
        stream = random_order_stream(4000, 300, seed=1)
        pruner = DistinctPruner(rows=64, cols=2)
        survivors = _run_with_reboot_batched(pruner, stream, reboot_at=2000)
        assert set(master_distinct(survivors)) == set(stream)

    def test_topn_deterministic_survives_reboot_batched(self):
        rng = random.Random(2)
        stream = [rng.uniform(1, 10_000) for _ in range(3000)]
        pruner = TopNDeterministicPruner(n=40, thresholds=4)
        survivors = _run_with_reboot_batched(pruner, stream, reboot_at=1500)
        assert sorted(master_topn(survivors, 40)) == sorted(master_topn(stream, 40))

    def test_topn_randomized_survives_reboot_batched(self):
        rng = random.Random(3)
        stream = [rng.uniform(1, 10_000) for _ in range(3000)]
        pruner = TopNRandomizedPruner(n=30, rows=512, delta=1e-4, seed=4)
        survivors = _run_with_reboot_batched(pruner, stream, reboot_at=1500)
        assert sorted(master_topn(survivors, 30)) == sorted(master_topn(stream, 30))

    def test_groupby_survives_reboot_batched(self):
        stream = list(keyed_values(4000, 150, seed=5))
        pruner = GroupByPruner(rows=64, cols=4)
        survivors = _run_with_reboot_batched(pruner, stream, reboot_at=2000)
        assert master_groupby(survivors, "max") == master_groupby(stream, "max")

    def test_mid_chunk_reboot_distinct(self):
        # reboot_at deliberately NOT on a chunk boundary
        stream = random_order_stream(1000, 100, seed=6)
        for reboot_at in (1, 131, 999):
            pruner = DistinctPruner(rows=16, cols=2)
            survivors = _run_with_reboot_batched(
                pruner, stream, reboot_at, chunk=128
            )
            assert set(master_distinct(survivors)) == set(stream)

    def test_join_breaks_on_reboot_batched(self):
        # The batch probe inherits JOIN's restart-required classification:
        # an emptied Bloom filter prunes genuinely matching keys.
        left, right = [1, 2, 3], [2, 3, 4]
        pruner = JoinPruner("L", "R", memory_bits=1 << 12)
        pruner.build(left, right)
        assert pruner.process_batch([("L", 2)])[0]
        pruner.reset()
        pruner.seal()  # naive continuation without rebuilding
        keep = pruner.process_batch([("L", 2), ("L", 3)])
        assert not keep.any()  # wrong! matching keys pruned


class TestRestartRequiredOperators:
    """The operators TABLE4 flags must demonstrably break on reboot."""

    def test_join_breaks_on_reboot(self):
        # A reboot empties the Bloom filters: matching keys get pruned.
        left, right = [1, 2, 3], [2, 3, 4]
        pruner = JoinPruner("L", "R", memory_bits=1 << 12)
        pruner.build(left, right)
        assert pruner.process(("L", 2)) is PruneDecision.FORWARD
        pruner.reset()
        pruner.seal()  # naive continuation without rebuilding
        assert pruner.process(("L", 3)) is PruneDecision.PRUNE  # wrong!

    def test_having_can_lose_a_straddling_key(self):
        # Key "k" needs both halves to cross the threshold; a reboot in
        # between means neither half crosses and the key never forwards.
        stream = [("k", 30.0)] * 4 + [("k", 30.0)] * 4  # true sum 240
        threshold = 150.0
        pruner = HavingPruner(threshold=threshold, width=64, depth=3)
        survivors = _run_with_reboot(pruner, stream, reboot_at=4)
        candidates = {key for key, _ in survivors}
        answer = set(master_having(candidates, stream, threshold))
        truth = set(reference_having(stream, threshold))
        assert truth == {"k"}
        assert answer != truth  # the reboot lost the output key

    def test_skyline_can_lose_stored_points(self):
        # The best point is absorbed into switch memory; a reboot before
        # the drain loses it.
        points = [(100.0, 100.0), (1.0, 1.0), (2.0, 2.0)]
        pruner = SkylinePruner(dims=2, points=4, score="sum")
        received = []
        for i, point in enumerate(points):
            if i == 1:
                pruner.reset()  # reboot: (100, 100) is gone
            if pruner.process(point) is PruneDecision.FORWARD:
                received.append(pruner.last_carried)
        received.extend(pruner.drain())
        assert (100.0, 100.0) not in set(master_skyline(received))


class TestSummaryTable:
    def test_table4_has_all_algorithms(self):
        names = {row.name for row in TABLE4}
        assert {"DISTINCT", "SKYLINE", "TOP N (det)", "TOP N (rand)",
                "GROUP BY", "JOIN", "HAVING"} <= names

    def test_reboot_safe_set_matches_analysis(self):
        safe = {row.name for row in TABLE4 if row.reboot_safe}
        assert "DISTINCT" in safe and "GROUP BY" in safe
        assert "JOIN" not in safe and "HAVING" not in safe and "SKYLINE" not in safe

    def test_render_produces_aligned_lines(self):
        lines = render_table4()
        assert len(lines) == 2 + len(TABLE4)
        assert "guarantee" in lines[0]
        assert all(len(line) > 10 for line in lines)

    def test_guarantees_match_pruner_classes(self):
        from repro.core.base import Guarantee

        by_name = {row.name: row for row in TABLE4}
        assert by_name["TOP N (rand)"].guarantee is Guarantee.PROBABILISTIC
        assert by_name["JOIN"].guarantee is Guarantee.DETERMINISTIC
        assert by_name["DISTINCT-FP"].guarantee is Guarantee.PROBABILISTIC
