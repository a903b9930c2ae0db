"""Tests for the §7.2 reliability protocol (repro.net.reliability)."""

from __future__ import annotations

import pytest

from repro.core.base import PassthroughPruner, PruneDecision, Pruner
from repro.core.distinct import DistinctPruner, master_distinct
from repro.core.topn import TopNDeterministicPruner, master_topn
from repro.errors import ProtocolError
from repro.net.packets import CheetahPacket
from repro.net.reliability import (
    LossyLink,
    ReliableTransfer,
    SwitchReliabilityState,
    packets_for,
)
from repro.switch.resources import ResourceFootprint
import random


class _PruneEven(Pruner):
    """Prunes even integers — a deterministic, stateless test pruner."""

    def process(self, entry):
        decision = PruneDecision.PRUNE if entry % 2 == 0 else PruneDecision.FORWARD
        self.stats.record(decision)
        return decision

    def footprint(self):
        return ResourceFootprint(label="EVEN")


class TestSwitchReliabilityState:
    def test_in_order_processing(self):
        state = SwitchReliabilityState(_PruneEven())
        packet = CheetahPacket(fid=0, seq=0, values=(2,))
        action, ack = state.on_packet(packet, 2)
        assert action == "prune"
        assert ack is not None and ack.seq == 0

    def test_forward_action_has_no_switch_ack(self):
        state = SwitchReliabilityState(_PruneEven())
        action, ack = state.on_packet(CheetahPacket(fid=0, seq=0, values=(3,)), 3)
        assert action == "forward"
        assert ack is None

    def test_retransmission_forwarded_without_reprocessing(self):
        # Y <= X: the switch must NOT run the pruner again (§7.2).
        pruner = _PruneEven()
        state = SwitchReliabilityState(pruner)
        state.on_packet(CheetahPacket(fid=0, seq=0, values=(2,)), 2)  # pruned
        processed_before = pruner.stats.processed
        action, ack = state.on_packet(CheetahPacket(fid=0, seq=0, values=(2,)), 2)
        assert action == "forward"  # even though it was pruned originally!
        assert pruner.stats.processed == processed_before

    def test_gap_drops_packet(self):
        state = SwitchReliabilityState(_PruneEven())
        action, _ = state.on_packet(CheetahPacket(fid=0, seq=5, values=(1,)), 1)
        assert action == "drop"
        assert state._last_seq.get(0, -1) == -1

    def test_per_fid_sequence_spaces(self):
        state = SwitchReliabilityState(PassthroughPruner())
        state.on_packet(CheetahPacket(fid=0, seq=0, values=(1,)), 1)
        action, _ = state.on_packet(CheetahPacket(fid=1, seq=0, values=(1,)), 1)
        assert action == "forward"
        assert state._last_seq.get(0, -1) == 0
        assert state._last_seq.get(1, -1) == 0


class TestReliableTransferNoLoss:
    def test_all_unpruned_delivered_once(self):
        transfer = ReliableTransfer(PassthroughPruner(), loss=0.0)
        entries = list(range(50))
        delivered = transfer.run(packets_for(entries))
        assert delivered == entries
        assert transfer.stats.retransmissions == 0
        assert transfer.stats.duplicates_at_master == 0

    def test_pruned_packets_acked_by_switch(self):
        transfer = ReliableTransfer(_PruneEven(), loss=0.0)
        delivered = transfer.run(packets_for(list(range(10))))
        assert delivered == [1, 3, 5, 7, 9]
        assert transfer.stats.switch_acks == 5
        assert transfer.stats.master_acks == 5

    def test_duplicate_seq_rejected(self):
        transfer = ReliableTransfer(PassthroughPruner())
        packets = [CheetahPacket(fid=0, seq=0, values=(1,))] * 2
        with pytest.raises(ProtocolError):
            transfer.run(packets)


class TestReliableTransferWithLoss:
    @pytest.mark.parametrize("loss", [0.05, 0.2, 0.4])
    def test_every_unpruned_entry_eventually_delivered(self, loss):
        transfer = ReliableTransfer(_PruneEven(), loss=loss, seed=7)
        entries = list(range(60))
        delivered = transfer.run(packets_for(entries))
        # At-least-once delivery of every forwarded entry.
        assert set(delivered) >= {e for e in entries if e % 2 == 1}

    def test_retransmissions_happen_under_loss(self):
        transfer = ReliableTransfer(PassthroughPruner(), loss=0.3, seed=3)
        transfer.run(packets_for(list(range(40))))
        assert transfer.stats.retransmissions > 0

    def test_pruned_retransmissions_may_reach_master(self):
        # The §7.2 subtlety: a pruned packet whose switch-ACK was lost is
        # retransmitted; the switch sees Y <= X and forwards it unprocessed,
        # so the master can receive entries the pruner dropped.  Query
        # correctness survives because pruners are superset-safe.
        found = False
        for seed in range(30):
            transfer = ReliableTransfer(_PruneEven(), loss=0.4, seed=seed)
            delivered = transfer.run(packets_for(list(range(30))))
            if any(e % 2 == 0 for e in delivered):
                found = True
                break
        assert found, "expected at least one pruned retransmission to slip through"

    def test_distinct_query_correct_under_loss(self):
        # End-to-end superset safety: DISTINCT output is exact even when
        # pruned retransmissions reach the master.
        rng = random.Random(11)
        entries = [rng.randrange(40) for _ in range(200)]
        transfer = ReliableTransfer(
            DistinctPruner(rows=16, cols=2), loss=0.3, seed=13
        )
        delivered = transfer.run(packets_for(entries))
        assert set(master_distinct(delivered)) == set(entries)

    def test_topn_query_correct_under_loss(self):
        rng = random.Random(17)
        entries = [rng.randrange(1, 10_000) for _ in range(300)]
        transfer = ReliableTransfer(
            TopNDeterministicPruner(n=20, thresholds=3), loss=0.25, seed=19
        )
        transfer.run(packets_for(entries))
        # The CMaster completes over seq-deduped entries: duplicates from
        # retransmissions must not double-count in a multiset query.
        delivered = transfer.master_unique_entries
        assert sorted(master_topn([float(d) for d in delivered], 20)) == sorted(
            master_topn([float(e) for e in entries], 20)
        )

    def test_max_rounds_guard(self):
        transfer = ReliableTransfer(
            PassthroughPruner(), loss=0.9, seed=1, max_rounds=2
        )
        with pytest.raises(ProtocolError):
            transfer.run(packets_for(list(range(100))))


class TestLossyLink:
    def test_zero_loss_always_delivers(self):
        link = LossyLink(0.0, random.Random(1))
        assert all(link.deliver() for _ in range(100))

    def test_loss_rate_approximate(self):
        link = LossyLink(0.3, random.Random(5))
        results = [link.deliver() for _ in range(10_000)]
        drop_rate = 1 - sum(results) / len(results)
        assert 0.25 < drop_rate < 0.35
        assert link.dropped == 10_000 - sum(results)

    def test_invalid_loss(self):
        with pytest.raises(ProtocolError):
            LossyLink(1.0, random.Random(1))


class TestPacketsFor:
    def test_integers(self):
        packets = packets_for([5, 6])
        assert packets[0].values == (5,)
        assert packets[1].seq == 1

    def test_tuples_spread_values(self):
        packets = packets_for([(1, 2, 3)])
        assert packets[0].values == (1, 2, 3)


class TestGilbertElliottLink:
    def _link(self, seed=1, **kwargs):
        from repro.net.reliability import GilbertElliottLink

        return GilbertElliottLink(random.Random(seed), **kwargs)

    def test_loss_between_good_and_bad_rates(self):
        link = self._link(good_loss=0.01, bad_loss=0.8)
        results = [link.deliver() for _ in range(20_000)]
        drop_rate = 1 - sum(results) / len(results)
        assert 0.01 < drop_rate < 0.8

    def test_losses_are_bursty(self):
        # Consecutive drops should cluster far above the independent-loss
        # expectation at the same average rate.
        link = self._link(seed=3, good_loss=0.0, bad_loss=0.9)
        outcomes = [link.deliver() for _ in range(50_000)]
        drops = sum(1 for x in outcomes if not x)
        pairs = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if not a and not b
        )
        rate = drops / len(outcomes)
        independent_pairs = rate * rate * len(outcomes)
        assert pairs > independent_pairs * 3

    def test_protocol_converges_under_bursts(self):
        from repro.core.distinct import DistinctPruner, master_distinct
        from repro.net.reliability import GilbertElliottLink, ReliableTransfer

        rng = random.Random(5)
        entries = [rng.randrange(50) for _ in range(150)]
        # Every hop becomes a bursty link; all four share one seeded RNG,
        # as the default LossyLink wiring does.
        transfer = ReliableTransfer(DistinctPruner(rows=8, cols=2), seed=7)
        shared = random.Random(7)
        for hop in ("uplink", "downlink", "ack_switch_link", "ack_master_link"):
            setattr(transfer, hop, GilbertElliottLink(shared))
        assert all(
            isinstance(link, GilbertElliottLink)
            for link in (transfer.uplink, transfer.downlink,
                         transfer.ack_switch_link, transfer.ack_master_link)
        )
        transfer.run(packets_for(entries))
        delivered = transfer.master_unique_entries
        assert set(master_distinct(delivered)) == set(entries)

    def test_invalid_params(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            self._link(good_loss=1.0)


class TestMultiFlowTransfer:
    def _flows(self, workers=3, per_worker=60, distinct=25, seed=1):
        rng = random.Random(seed)
        flows = {}
        entries = {}
        for fid in range(workers):
            values = [rng.randrange(distinct) for _ in range(per_worker)]
            entries[fid] = values
            flows[fid] = [
                CheetahPacket(fid=fid, seq=i, values=(v,))
                for i, v in enumerate(values)
            ]
        return flows, entries

    def test_shared_pruner_dedupes_across_workers(self):
        from repro.net.reliability import MultiFlowTransfer

        flows, entries = self._flows(seed=2)
        transfer = MultiFlowTransfer(DistinctPruner(rows=64, cols=2))
        delivered = transfer.run(flows)
        all_values = [v for vals in entries.values() for v in vals]
        # Aggregated dedup: far fewer forwards than total entries, and
        # the union of values survives exactly.
        assert len(delivered) < len(all_values) * 0.5
        assert set(master_distinct(delivered)) == set(all_values)

    def test_correct_under_loss(self):
        from repro.net.reliability import MultiFlowTransfer

        flows, entries = self._flows(workers=4, seed=3)
        transfer = MultiFlowTransfer(
            DistinctPruner(rows=32, cols=2), loss=0.25, seed=5
        )
        delivered = transfer.run(flows)
        all_values = [v for vals in entries.values() for v in vals]
        assert set(master_distinct(delivered)) == set(all_values)

    def test_per_fid_sequences_independent(self):
        from repro.net.reliability import MultiFlowTransfer

        flows, _ = self._flows(workers=2, per_worker=10, seed=4)
        transfer = MultiFlowTransfer(PassthroughPruner())
        transfer.run(flows)
        assert transfer.switch._last_seq.get(0, -1) == 9
        assert transfer.switch._last_seq.get(1, -1) == 9

    def test_mismatched_fid_rejected(self):
        from repro.net.reliability import MultiFlowTransfer

        transfer = MultiFlowTransfer(PassthroughPruner())
        with pytest.raises(ProtocolError):
            transfer.run({0: [CheetahPacket(fid=1, seq=0, values=(1,))]})

    def test_windowed_multiflow(self):
        from repro.net.reliability import MultiFlowTransfer

        flows, entries = self._flows(workers=3, seed=6)
        transfer = MultiFlowTransfer(
            DistinctPruner(rows=32, cols=2), loss=0.15, seed=7, window=8
        )
        delivered = transfer.run(flows)
        all_values = [v for vals in entries.values() for v in vals]
        assert set(master_distinct(delivered)) == set(all_values)

    def test_cworker_services_feed_multiflow(self):
        # Full stack: CWorkers -> MultiFlowTransfer -> CMaster.
        import numpy as np

        from repro.engine.table import Table
        from repro.net.reliability import MultiFlowTransfer
        from repro.net.services import CMaster, CWorker

        table = Table("T", {"v": np.arange(60) % 13})
        parts = table.partition(3)
        flows = {
            fid: list(CWorker(fid=fid, partition=part, columns=["v"]).packets())
            for fid, part in enumerate(parts)
        }
        transfer = MultiFlowTransfer(
            DistinctPruner(rows=16, cols=2),
            loss=0.2,
            seed=9,
        )
        transfer.run(flows)
        master = CMaster(expected_fids=range(3))
        for packet in transfer.master_unique_packets:
            master.receive(packet)
        assert master.complete
        received = {row[0] for row in master.rows()}
        assert received == set(range(13))

    def test_duplicate_seq_in_any_flow_rejected(self):
        # A repeated seq used to collapse silently into one packet.
        from repro.net.reliability import MultiFlowTransfer

        flows = {
            0: [CheetahPacket(fid=0, seq=0, values=(1,))],
            1: [
                CheetahPacket(fid=1, seq=0, values=(2,)),
                CheetahPacket(fid=1, seq=0, values=(3,)),
            ],
        }
        transfer = MultiFlowTransfer(PassthroughPruner())
        with pytest.raises(ProtocolError):
            transfer.run(flows)
        assert transfer.stats.transmissions == 0

    @pytest.mark.parametrize("window", [None, 4])
    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
    def test_one_flow_matches_reliable_transfer(self, loss, window):
        from repro.net.reliability import MultiFlowTransfer

        for seed in range(10):
            rng = random.Random(seed)
            packets = packets_for([rng.randrange(12) for _ in range(40)])
            single = ReliableTransfer(
                DistinctPruner(rows=8, cols=2), loss=loss, seed=seed,
                window=window,
            )
            multi = MultiFlowTransfer(
                DistinctPruner(rows=8, cols=2), loss=loss, seed=seed,
                window=window,
            )
            assert single.run(packets) is single.master_entries
            assert multi.run({0: packets}) is multi.master_unique_entries
            assert multi.stats == single.stats
            assert multi.master_entries == single.master_entries
            assert multi.master_unique_entries == single.master_unique_entries
