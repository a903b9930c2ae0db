"""Tests for the Cheetah packet formats (repro.net.packets)."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.net.packets import (
    ACK_FROM_MASTER,
    ACK_FROM_SWITCH,
    CheetahAck,
    CheetahPacket,
)


class TestCheetahPacket:
    def test_roundtrip_single_value(self):
        packet = CheetahPacket(fid=3, seq=42, values=(123,))
        assert CheetahPacket.decode(packet.encode()) == packet

    def test_roundtrip_multi_value(self):
        # Variable-length header: JOIN/GROUP BY carry two or more values.
        packet = CheetahPacket(fid=1, seq=7, values=(10, -20, 30))
        decoded = CheetahPacket.decode(packet.encode())
        assert decoded.values == (10, -20, 30)

    def test_roundtrip_flags(self):
        packet = CheetahPacket(fid=0, seq=0, values=(), fin=True, retransmit=True)
        decoded = CheetahPacket.decode(packet.encode())
        assert decoded.fin and decoded.retransmit

    def test_fid_bounds(self):
        with pytest.raises(ProtocolError):
            CheetahPacket(fid=1 << 16, seq=0)

    def test_seq_bounds(self):
        with pytest.raises(ProtocolError):
            CheetahPacket(fid=0, seq=1 << 32)

    def test_value_count_bounded_by_n_field(self):
        with pytest.raises(ProtocolError):
            CheetahPacket(fid=0, seq=0, values=tuple(range(256)))

    def test_decode_rejects_truncated(self):
        packet = CheetahPacket(fid=0, seq=0, values=(1, 2))
        with pytest.raises(ProtocolError):
            CheetahPacket.decode(packet.encode()[:-1])

    def test_decode_rejects_too_short(self):
        with pytest.raises(ProtocolError):
            CheetahPacket.decode(b"abc")

    def test_as_retransmit(self):
        packet = CheetahPacket(fid=1, seq=2, values=(3,))
        retx = packet.as_retransmit()
        assert retx.retransmit
        assert retx.seq == packet.seq and retx.values == packet.values


class TestCheetahAck:
    def test_origin_distinguishes_pruned(self):
        # §7.2: the switch ACKs pruned packets; the master ACKs received ones.
        assert ACK_FROM_MASTER != ACK_FROM_SWITCH
