"""Tests for the CWorker/CMaster services (repro.net.services)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.table import Table
from repro.errors import ProtocolError
from repro.net.packets import CheetahPacket
from repro.net.services import CMaster, CWorker, ValueCodec


def stream_query_columns(table, columns, workers, codec=None):
    """Wire up one CWorker per partition plus the CMaster expecting them."""
    cworkers = [
        CWorker(fid=i, partition=part, columns=columns, codec=codec)
        for i, part in enumerate(table.partition(workers))
    ]
    return cworkers, CMaster(expected_fids=range(workers), codec=codec)


@pytest.fixture
def visits():
    return Table(
        "V",
        {
            "agent": np.array([3, 1, 3, 2, 1, 0]),
            "revenue": np.array([1.25, 2.5, 0.1, 9.0, 3.3, 4.4]),
        },
    )


class TestValueCodec:
    def test_int_roundtrip(self):
        codec = ValueCodec()
        assert codec.encode(42) == 42
        assert codec.encode(-7) == -7

    def test_bool(self):
        codec = ValueCodec()
        assert codec.encode(True) == 1

    def test_float_fixed_point_rounds_up(self):
        codec = ValueCodec(float_scale=1000)
        assert codec.encode(1.2501) == 1251  # ceil keeps sums one-sided

    def test_numpy_values(self):
        codec = ValueCodec()
        assert codec.encode(np.int64(5)) == 5
        assert codec.encode(np.float64(0.5)) == 500

    def test_string_fingerprints_are_stable(self):
        codec = ValueCodec()
        assert codec.encode("mozilla") == codec.encode("mozilla")
        assert codec.encode("mozilla") != codec.encode("chrome")

    def test_string_fits_signed_64(self):
        codec = ValueCodec()
        for s in ("a", "b", "long-user-agent-string"):
            word = codec.encode(s)
            assert -(1 << 63) <= word <= (1 << 63) - 1

    def test_unencodable_type(self):
        with pytest.raises(ProtocolError):
            ValueCodec().encode([1, 2])

    def test_overflow_rejected(self):
        with pytest.raises(ProtocolError):
            ValueCodec().encode(1 << 63)

    def test_encode_row(self):
        codec = ValueCodec()
        assert codec.encode_row([1, 2.0]) == (1, 2000)


class TestCWorker:
    def test_one_packet_per_row_plus_fin(self, visits):
        worker = CWorker(fid=0, partition=visits, columns=["agent"])
        packets = list(worker.packets())
        assert len(packets) == 7  # 6 data packets + one bare FIN
        assert [p.fin for p in packets] == [False] * 6 + [True]
        assert packets[-1].values == ()
        assert [p.seq for p in packets] == list(range(7))

    def test_projected_columns_only(self, visits):
        worker = CWorker(fid=0, partition=visits, columns=["agent", "revenue"])
        packet = next(worker.packets())
        assert len(packet.values) == 2
        assert packet.values[0] == 3

    def test_empty_partition_sends_bare_fin(self, visits):
        empty = visits.head(0) if False else Table("E", {"agent": np.array([], dtype=int)})
        worker = CWorker(fid=2, partition=empty, columns=["agent"])
        packets = list(worker.packets())
        assert len(packets) == 1
        assert packets[0].fin and packets[0].values == ()

    def test_packets_roundtrip_wire_format(self, visits):
        worker = CWorker(fid=1, partition=visits, columns=["revenue"])
        for packet in worker.packets():
            assert CheetahPacket.decode(packet.encode()) == packet


class TestCMaster:
    def test_collects_and_completes(self, visits):
        workers, master = stream_query_columns(visits, ["agent"], workers=3)
        for worker in workers:
            for packet in worker.packets():
                master.receive(packet)
        assert master.complete
        assert len(master.rows()) == 6

    def test_incomplete_until_all_fins(self, visits):
        workers, master = stream_query_columns(visits, ["agent"], workers=2)
        for packet in workers[0].packets():
            master.receive(packet)
        assert not master.complete

    def test_duplicate_seq_discarded(self, visits):
        workers, master = stream_query_columns(visits, ["agent"], workers=1)
        packets = list(workers[0].packets())
        master.receive(packets[0])
        assert master.receive(packets[0]) is False
        assert master.flows[0].duplicates == 1
        assert len(master.rows(0)) == 1

    def test_unknown_fid_rejected(self, visits):
        _, master = stream_query_columns(visits, ["agent"], workers=1)
        with pytest.raises(ProtocolError):
            master.receive(CheetahPacket(fid=9, seq=0, values=(1,)))

    def test_per_fid_rows(self, visits):
        workers, master = stream_query_columns(visits, ["agent"], workers=2)
        for worker in workers:
            for packet in worker.packets():
                master.receive(packet)
        assert len(master.rows(0)) + len(master.rows(1)) == 6


class TestEndToEndWithReliability:
    def test_services_over_lossy_links_distinct(self, visits):
        """CWorker packets -> reliability protocol -> CMaster, with pruning."""
        from repro.core.distinct import DistinctPruner
        from repro.net.reliability import ReliableTransfer

        worker = CWorker(fid=0, partition=visits, columns=["agent"])
        packets = list(worker.packets())
        pruner = DistinctPruner(rows=8, cols=2)
        transfer = ReliableTransfer(
            pruner, loss=0.25, seed=3
        )
        transfer.run(packets)
        master = CMaster(expected_fids=[0])
        for packet in transfer.master_unique_packets:
            master.receive(packet)
        received_agents = {row[0] for row in master.rows(0)}
        assert received_agents == set(visits["agent"].tolist())
        assert master.complete  # the bare FIN is never pruned


class TestWorkerAssistBits:
    def test_assist_bits_appended(self, visits):
        worker = CWorker(
            fid=0,
            partition=visits,
            columns=["agent"],
            assist_predicates=[lambda row: row[0] > 1],
        )
        packets = list(worker.packets())
        # agent values: 3,1,3,2,1,0 -> bits 1,0,1,1,0,0
        bits = [p.values[-1] for p in packets if p.values]
        assert bits == [1, 0, 1, 1, 0, 0]

    def test_switch_filters_on_assist_bit(self, visits):
        """Full §4.1 loop: CWorker computes the unsupported predicate,
        the switch filters exactly on the shipped bit."""
        from repro.core.filtering import Atom, FilterPruner, Var

        worker = CWorker(
            fid=0,
            partition=visits,
            columns=["agent"],
            # Pretend this is a LIKE the switch cannot run.
            assist_predicates=[lambda row: row[0] % 2 == 0],
        )
        # The switch-side formula reads the shipped bit (index 1).
        bit_atom = Var(Atom("assist-bit", lambda values: bool(values[1])))
        pruner = FilterPruner(bit_atom, worker_assist=True)
        survivors = [
            p.values[0]
            for p in worker.packets()
            if p.values and pruner.process(p.values) .value == "forward"
        ]
        expected = [a for a in visits["agent"].tolist() if a % 2 == 0]
        assert survivors == expected

    def test_multiple_assist_predicates(self, visits):
        worker = CWorker(
            fid=0,
            partition=visits,
            columns=["agent"],
            assist_predicates=[lambda r: r[0] > 1, lambda r: r[0] == 0],
        )
        packet = next(worker.packets())
        assert len(packet.values) == 3  # value + two bits
