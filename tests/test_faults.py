"""Unit tests for the fault-injection subsystem (repro.faults et al.).

Covers the schedule layer (FaultPlan / scenarios), the injector's stream
and transport hooks, frame checksums (corrupted packets are detected and
never decoded), the per-pruner reboot/corruption hooks, and the timed
timeout-based transport.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import PruneDecision
from repro.core.distinct import DistinctPruner
from repro.core.filtering import Atom, FilterPruner, Var
from repro.core.groupby import GroupByPruner
from repro.core.having import HavingPruner
from repro.core.join import JoinPruner
from repro.core.skyline import SkylinePruner
from repro.core.summary import is_reboot_safe
from repro.core.topn import TopNDeterministicPruner, TopNRandomizedPruner
from repro.errors import ChecksumError, ConfigurationError, ProtocolError
from repro.faults import (
    FAULT_KINDS,
    ChaosLink,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    SCENARIOS,
    scenario,
)
from repro.net.packets import CheetahPacket
from repro.net.reliability import LossyLink, MultiFlowTransfer, ReliableTransfer
from repro.net.timed import LINK_DELAY, MAX_ATTEMPTS, RTO_INITIAL, RTO_MAX, TimedReliableTransfer


def _lossy(transfer, loss, seed):
    """Make all four hops of ``transfer`` drop with probability ``loss``,
    drawing from one RNG seeded with ``seed``."""
    shared = random.Random(seed)
    for hop in ("uplink", "downlink", "ack_switch_link", "ack_master_link"):
        setattr(transfer, hop, LossyLink(loss, shared))
    return transfer


def packets_for(entries, fid=0):
    """One single-value packet per entry (no FIN; transfer-level tests)."""
    return [
        CheetahPacket(fid=fid, seq=i, values=(v,)) for i, v in enumerate(entries)
    ]


class TestFaultPlan:
    def test_events_sort_and_validate(self):
        plan = FaultPlan(
            [FaultEvent(at=9, kind="drop"), FaultEvent(at=2, kind="reboot")]
        )
        assert [e.at for e in plan] == [2, 9]
        with pytest.raises(ConfigurationError):
            FaultEvent(at=1, kind="meteor")
        with pytest.raises(ConfigurationError):
            FaultEvent(at=-1, kind="drop")

    def test_random_is_deterministic_per_seed(self):
        a = FaultPlan.random(7, 1000, count=10)
        b = FaultPlan.random(7, 1000, count=10)
        c = FaultPlan.random(8, 1000, count=10)
        assert a.events == b.events
        assert a.events != c.events

    def test_random_respects_window_and_count(self):
        plan = FaultPlan.random(3, 1000, count=12, window=(0.6, 0.95))
        assert len(plan) == 12
        assert all(600 <= e.at < 950 for e in plan)

    def test_random_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.random(0, 0)
        with pytest.raises(ConfigurationError):
            FaultPlan.random(0, 100, kinds=("drop", "meteor"))

    def test_single_and_events_of(self):
        plan = FaultPlan([FaultEvent(at=5, kind="reboot")])
        assert len(plan) == 1
        assert [(e.kind, e.at) for e in plan] == [("reboot", 5)]

    def test_scenarios_all_build(self):
        for name, spec in SCENARIOS.items():
            plan = spec.build_plan(seed=1, length=500)
            assert len(plan) >= 1, name
            assert all(e.kind in spec.kinds for e in plan)

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            scenario("does-not-exist")


class TestFrameChecksum:
    def test_round_trip(self):
        packet = CheetahPacket(fid=3, seq=11, values=(42, -7))
        assert CheetahPacket.decode_frame(packet.encode_frame()) == packet

    def test_every_single_bit_flip_is_detected(self):
        frame = CheetahPacket(fid=1, seq=2, values=(1234,)).encode_frame()
        for bit in range(len(frame) * 8):
            corrupted = bytearray(frame)
            corrupted[bit >> 3] ^= 1 << (bit & 7)
            with pytest.raises(ChecksumError):
                CheetahPacket.decode_frame(bytes(corrupted))

    def test_truncated_frame_is_detected(self):
        frame = CheetahPacket(fid=1, seq=2, values=(5,)).encode_frame()
        with pytest.raises(ChecksumError):
            CheetahPacket.decode_frame(frame[:-1])


class TestInjectorStreamSide:
    def test_drop_and_corrupt_arrive_late(self):
        plan = FaultPlan(
            [FaultEvent(at=1, kind="drop"), FaultEvent(at=3, kind="corrupt")]
        )
        injector = FaultInjector(plan)
        out = injector.perturb_partition(list("abcde"), 0, 0, "stream")
        assert sorted(out) == list("abcde")  # nothing lost, only delayed
        assert out != list("abcde")
        assert injector.injected == 2

    def test_duplicate_and_reorder(self):
        injector = FaultInjector(FaultPlan([FaultEvent(at=2, kind="duplicate")]))
        out = injector.perturb_partition(list("abcd"), 0, 0, "stream")
        assert out == ["a", "b", "c", "c", "d"]
        injector = FaultInjector(FaultPlan([FaultEvent(at=0, kind="reorder")]))
        out = injector.perturb_partition(list("abcd"), 0, 0, "stream")
        assert out == ["b", "a", "c", "d"]

    def test_crash_replays_partition_prefix(self):
        injector = FaultInjector(FaultPlan([FaultEvent(at=2, kind="crash")]))
        out = injector.perturb_partition(list("abcd"), 0, 0, "stream")
        assert out == ["a", "b", "a", "b", "c", "d"]

    def test_events_outside_span_do_not_fire(self):
        plan = FaultPlan([FaultEvent(at=50, kind="drop")])
        injector = FaultInjector(plan)
        out = injector.perturb_partition(list("abc"), 0, 0, "stream")
        assert out == list("abc")
        assert injector.injected == 0

    def test_advance_pops_switch_events_in_order(self):
        plan = FaultPlan(
            [FaultEvent(at=0, kind="reboot"), FaultEvent(at=2, kind="bitflip")]
        )
        injector = FaultInjector(plan)
        assert [e.kind for e in injector.advance(1)] == ["reboot"]
        assert injector.advance(1) == []
        assert [e.kind for e in injector.advance(1)] == ["bitflip"]
        assert injector.cursor == 3

    def test_summary_shape(self):
        injector = FaultInjector(FaultPlan([FaultEvent(at=0, kind="drop")], seed=4))
        injector.perturb_partition([1, 2], 0, 0, "stream")
        injector.record_degradation("join", "rebuild", 0, "test")
        summary = injector.summary()
        assert summary["seed"] == 4
        assert summary["planned"] == 1
        assert summary["injected"] == 1
        assert summary["by_kind"] == {"drop": 1}
        assert summary["degradations"][0]["action"] == "rebuild"


class TestFaultCursorSegments:
    """The segment protocol (``entries_until_event`` + one ``advance`` per
    segment) fires every switch event exactly where a per-entry
    ``advance(1)`` loop fires it."""

    @pytest.mark.parametrize("batch", [1, 7, 997, 4096])
    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 5200),
                st.sampled_from(["reboot", "bitflip", "exhaust"]),
            ),
            max_size=8,
        ),
        prefix=st.integers(0, 64),
        length=st.integers(0, 5000),
    )
    def test_segments_match_per_entry_advance(self, batch, events, prefix, length):
        plan = FaultPlan([FaultEvent(at=at, kind=kind) for at, kind in events])
        oracle = FaultInjector(plan)
        # An earlier phase (e.g. JOIN's build) crossed ``prefix`` entries in
        # one step; events inside it are already consumed.
        assert oracle.advance(prefix) == [
            e for e in plan.events if e.at < prefix
        ]
        per_entry = [oracle.advance(1) for _ in range(length)]

        injector = FaultInjector(plan)
        injector.advance(prefix)
        position = 0
        while position < length:
            gap = injector.entries_until_event()
            count = min(length - position, batch, gap if gap is not None else length)
            assert count >= 1
            fired = injector.advance(count)
            # Everything due fires before the segment's first entry ...
            assert fired == per_entry[position]
            # ... and nothing fires inside the segment.
            assert not any(per_entry[position + 1 : position + count])
            position += count
        assert injector.cursor == oracle.cursor == prefix + length
        assert injector.entries_until_event() == oracle.entries_until_event()

    def test_no_later_event_means_unbounded_segment(self):
        injector = FaultInjector(FaultPlan([FaultEvent(at=3, kind="reboot")]))
        assert injector.entries_until_event() == 3
        assert injector.advance(3) == []
        # The event at the cursor is due at the next segment's start, so it
        # does not bound that segment.
        assert injector.entries_until_event() is None
        assert [e.at for e in injector.advance(10)] == [3]


class TestChaosLink:
    def test_scheduled_drops_fire_exactly(self):
        link = ChaosLink(0.0, random.Random(0), drop_at={1, 3})
        outcomes = [link.deliver() for _ in range(5)]
        assert outcomes == [True, False, True, False, True]
        assert link.scheduled_drops == 2

    def test_blackout_window(self):
        link = ChaosLink(0.0, random.Random(0), blackout=(2, 4))
        outcomes = [link.deliver() for _ in range(6)]
        assert outcomes == [True, True, False, False, True, True]

    def test_plugs_into_reliable_transfer(self):
        transfer = ReliableTransfer(DistinctPruner(rows=16, cols=2))
        transfer.uplink = ChaosLink(0.0, random.Random(0), drop_at={0, 5})
        entries = [1, 2, 3, 1, 2, 4]
        delivered = transfer.run(packets_for(entries))
        assert set(delivered) == {1, 2, 3, 4}
        assert transfer.stats.retransmissions > 0


class TestPrunerFaultHooks:
    def test_reboot_clears_state_but_keeps_metrics(self):
        pruner = DistinctPruner(rows=16, cols=2)
        assert pruner.process(7) is PruneDecision.FORWARD
        assert pruner.process(7) is PruneDecision.PRUNE
        pruner.reboot()
        # State gone: the duplicate forwards again (superset-safe)...
        assert pruner.process(7) is PruneDecision.FORWARD
        # ...but decision counts from before the reboot survive.
        assert pruner.stats.processed == 3
        reboots = pruner.metrics.counter(
            "pruner_reboots_total",
            "Mid-query switch reboots this pruner absorbed.",
            pruner="DistinctPruner",
        )
        assert reboots.value == 1

    def test_reset_remains_the_full_wipe(self):
        pruner = DistinctPruner(rows=16, cols=2)
        pruner.process(7)
        pruner.reset()
        assert pruner.stats.processed == 0

    def test_corrupt_state_hits_live_state(self):
        cases = [
            (DistinctPruner(rows=16, cols=2), [3.0, 4.0]),
            (GroupByPruner(rows=16, cols=4), [("k", 5.0), ("j", 6.0)]),
            (TopNRandomizedPruner(n=4, rows=64, delta=1e-3), [3.0, 4.0]),
            (HavingPruner(threshold=10.0, width=64, depth=2), [("k", 5.0)]),
            (SkylinePruner(dims=2, points=4), [(1.0, 2.0), (2.0, 1.0)]),
        ]
        for pruner, entries in cases:
            for entry in entries:
                pruner.process(entry)
            description = pruner.corrupt_state(random.Random(1))
            assert description is not None, type(pruner).__name__
            hits = pruner.metrics.counter(
                "pruner_state_corruptions_total",
                "Injected bit corruptions that hit live pruner state.",
                pruner=type(pruner).__name__,
            )
            assert hits.value == 1, type(pruner).__name__

    def test_topn_deterministic_corruption_raises_a_threshold(self):
        pruner = TopNDeterministicPruner(n=2, thresholds=2)
        for value in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
            pruner.process(value)
        assert pruner.corrupt_state(random.Random(0)) is not None

    def test_stateless_filter_has_nothing_to_corrupt(self):
        formula = Var(Atom(name="x>3", evaluate=lambda e: e > 3))
        pruner = FilterPruner(formula)
        assert pruner.corrupt_state(random.Random(0)) is None

    def test_join_corruption_flips_a_bloom_bit(self):
        pruner = JoinPruner("L", "R", memory_bits=1 << 12)
        pruner.build([1, 2], [2, 3])
        description = pruner.corrupt_state(random.Random(2))
        assert description is not None and "bloom" in description

    def test_is_reboot_safe_matches_table4(self):
        assert is_reboot_safe("filter")
        assert is_reboot_safe("distinct")
        assert is_reboot_safe("topn")
        assert is_reboot_safe("groupby")
        assert not is_reboot_safe("join")
        assert not is_reboot_safe("having")
        assert not is_reboot_safe("skyline")
        with pytest.raises(KeyError):
            is_reboot_safe("teleport")


class TestTransferWindowValidation:
    def test_reliable_transfer_rejects_bad_window(self):
        with pytest.raises(ProtocolError):
            ReliableTransfer(DistinctPruner(rows=8, cols=2), window=0)

    def test_multiflow_transfer_rejects_bad_window(self):
        # The historical gap: MultiFlowTransfer skipped this validation.
        with pytest.raises(ProtocolError):
            MultiFlowTransfer(DistinctPruner(rows=8, cols=2), window=0)
        with pytest.raises(ProtocolError):
            MultiFlowTransfer(DistinctPruner(rows=8, cols=2), window=-3)


class TestTimedTransfer:
    def test_lossless_run_has_no_retransmissions(self):
        entries = list(range(40))
        transfer = TimedReliableTransfer(DistinctPruner(rows=64, cols=2))
        delivered = transfer.run(packets_for(entries))
        assert set(delivered) == set(entries)
        assert transfer.stats.retransmissions == 0
        assert transfer.stats.timeouts == 0
        assert transfer.sim_time > 0
        assert transfer.goodput() > 0

    def test_converges_under_heavy_loss(self):
        rng = random.Random(9)
        entries = [rng.randrange(30) for _ in range(120)]
        transfer = _lossy(TimedReliableTransfer(DistinctPruner(rows=16, cols=2)), 0.3, 5)
        delivered = transfer.run(packets_for(entries))
        assert set(delivered) == set(entries)
        assert transfer.stats.retransmissions > 0
        assert transfer.stats.timeouts > 0
        # Every hop lost something, lost ACKs included.
        for hop in ("uplink", "downlink", "ack_switch_link", "ack_master_link"):
            assert getattr(transfer, hop).dropped > 0, hop

    def test_deterministic_for_fixed_seed(self):
        entries = list(range(60))

        def run():
            transfer = _lossy(TimedReliableTransfer(DistinctPruner(rows=32, cols=2)), 0.2, 3)
            transfer.run(packets_for(entries))
            return (
                transfer.sim_time,
                transfer.stats.transmissions,
                transfer.stats.retransmissions,
            )

        assert run() == run()

    def test_backoff_ladder_is_capped(self):
        transfer = TimedReliableTransfer(DistinctPruner(rows=8, cols=2))
        assert transfer._rto(1) == RTO_INITIAL == 4.0
        assert transfer._rto(2) == 8.0
        assert transfer._rto(5) == RTO_MAX == 64.0
        assert transfer._rto(10) == 64.0
        # The first timeout outlasts the ~3-hop round trip.
        assert transfer._rto(1) > 3 * LINK_DELAY

    def test_injected_corruption_is_checksum_detected(self):
        plan = FaultPlan(
            [FaultEvent(at=2, kind="corrupt"), FaultEvent(at=5, kind="corrupt")]
        )
        transfer = TimedReliableTransfer(
            DistinctPruner(rows=32, cols=2), injector=FaultInjector(plan)
        )
        entries = list(range(20))
        delivered = transfer.run(packets_for(entries))
        assert set(delivered) == set(entries)
        assert transfer.stats.checksum_drops == 2
        assert transfer.stats.retransmissions >= 2

    def test_injected_drop_duplicate_reorder_recover(self):
        plan = FaultPlan(
            [
                FaultEvent(at=1, kind="drop"),
                FaultEvent(at=4, kind="duplicate"),
                FaultEvent(at=7, kind="reorder"),
            ]
        )
        transfer = TimedReliableTransfer(
            DistinctPruner(rows=32, cols=2), injector=FaultInjector(plan)
        )
        entries = list(range(15))
        delivered = transfer.run(packets_for(entries))
        assert set(delivered) == set(entries)

    def test_downlink_targeted_fault(self):
        plan = FaultPlan([FaultEvent(at=0, kind="drop", target="downlink")])
        transfer = TimedReliableTransfer(
            DistinctPruner(rows=32, cols=2), injector=FaultInjector(plan)
        )
        delivered = transfer.run(packets_for([1, 2, 3]))
        assert set(delivered) == {1, 2, 3}
        assert transfer.downlink.dropped == 1

    def test_dead_link_gives_up_with_protocol_error(self):
        # Every uplink transmission is dropped: the link is down.
        plan = FaultPlan([FaultEvent(at=i, kind="drop") for i in range(2 * MAX_ATTEMPTS)])
        transfer = TimedReliableTransfer(
            DistinctPruner(rows=8, cols=2), injector=FaultInjector(plan)
        )
        with pytest.raises(ProtocolError, match="gave up"):
            transfer.run(packets_for([1, 2]))
