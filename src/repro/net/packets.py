"""Cheetah packet and ACK formats (paper §7.2, Figure 4).

Messages carry a flow id (to multiplex datasets/queries), an entry
identifier doubling as the sequence number, and a variable number of
64-bit column values (the ``n`` field).  Encoding round-trips through
bytes so the formats are genuinely wire-shaped, not just dataclasses.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Tuple

from ..errors import ChecksumError, ProtocolError

#: Header layout: fid (16b), seq (32b), flags (8b), n (8b).
_HEADER = struct.Struct("!HIBB")
_VALUE = struct.Struct("!q")
#: Frame trailer: a CRC-32 over header + values (fault-tolerant transport).
_CHECKSUM = struct.Struct("!I")


def frame_checksum(body: bytes) -> int:
    """CRC-32 of an encoded packet body — the frame's trailer value."""
    return zlib.crc32(body) & 0xFFFFFFFF

FLAG_FIN = 0x01
FLAG_RETRANSMIT = 0x02

MAX_VALUES = 255  # the n field is 8 bits


@dataclass(frozen=True)
class CheetahPacket:
    """A data packet: one entry, ``n`` column values (Fig. 4)."""

    fid: int
    seq: int
    values: Tuple[int, ...] = ()
    fin: bool = False
    retransmit: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.fid < 1 << 16:
            raise ProtocolError(f"fid must fit 16 bits, got {self.fid}")
        if not 0 <= self.seq < 1 << 32:
            raise ProtocolError(f"seq must fit 32 bits, got {self.seq}")
        if len(self.values) > MAX_VALUES:
            raise ProtocolError(
                f"at most {MAX_VALUES} values per packet, got {len(self.values)}"
            )

    def encode(self) -> bytes:
        """Serialize header + values to bytes."""
        flags = (FLAG_FIN if self.fin else 0) | (
            FLAG_RETRANSMIT if self.retransmit else 0
        )
        header = _HEADER.pack(self.fid, self.seq, flags, len(self.values))
        return header + b"".join(_VALUE.pack(v) for v in self.values)

    @classmethod
    def decode(cls, data: bytes) -> "CheetahPacket":
        """Parse bytes produced by :meth:`encode`."""
        if len(data) < _HEADER.size:
            raise ProtocolError(f"packet too short: {len(data)} bytes")
        fid, seq, flags, n = _HEADER.unpack_from(data)
        expected = _HEADER.size + n * _VALUE.size
        if len(data) != expected:
            raise ProtocolError(
                f"packet length {len(data)} does not match n={n} (expected {expected})"
            )
        values = tuple(
            _VALUE.unpack_from(data, _HEADER.size + i * _VALUE.size)[0]
            for i in range(n)
        )
        return cls(
            fid=fid,
            seq=seq,
            values=values,
            fin=bool(flags & FLAG_FIN),
            retransmit=bool(flags & FLAG_RETRANSMIT),
        )

    def encode_frame(self) -> bytes:
        """Serialize with a CRC-32 trailer (:func:`frame_checksum`).

        The checksummed frame is what the fault-tolerant transport puts
        on the wire, so bit corruption is *detected* at the receiver and
        the frame dropped — it never reaches the decode path silently.
        """
        body = self.encode()
        return body + _CHECKSUM.pack(frame_checksum(body))

    @classmethod
    def decode_frame(cls, data: bytes) -> "CheetahPacket":
        """Parse bytes produced by :meth:`encode_frame`, verifying the CRC.

        Raises :class:`~repro.errors.ChecksumError` when the trailer does
        not match the body — the caller must treat the frame as lost.
        """
        if len(data) < _HEADER.size + _CHECKSUM.size:
            raise ChecksumError(f"frame too short: {len(data)} bytes")
        body, trailer = data[: -_CHECKSUM.size], data[-_CHECKSUM.size :]
        if _CHECKSUM.unpack(trailer)[0] != frame_checksum(body):
            raise ChecksumError("frame checksum mismatch (corrupted in transit)")
        try:
            return cls.decode(body)
        except ProtocolError as error:  # pragma: no cover - CRC catches first
            raise ChecksumError(f"frame body undecodable: {error}") from error

    def as_retransmit(self) -> "CheetahPacket":
        """A copy flagged as a retransmission."""
        return CheetahPacket(
            fid=self.fid,
            seq=self.seq,
            values=self.values,
            fin=self.fin,
            retransmit=True,
        )


_ACK = struct.Struct("!HIB")

ACK_FROM_MASTER = 0
ACK_FROM_SWITCH = 1  # the switch ACKing a pruned packet


@dataclass(frozen=True)
class CheetahAck:
    """An acknowledgement for one sequence number (Fig. 4)."""

    fid: int
    seq: int
    origin: int = ACK_FROM_MASTER

    def encode(self) -> bytes:
        """Serialize to bytes."""
        return _ACK.pack(self.fid, self.seq, self.origin)

