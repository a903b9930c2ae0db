"""The CWorker / CMaster services (paper §3, §7.1).

``CWorker`` intercepts a worker's data flow: it projects the queried
columns out of a table partition, encodes each row into a
:class:`~repro.net.packets.CheetahPacket` (one entry per packet, FIN on
the last), and — when the query needs it — computes fingerprints or
worker-assist predicate bits before the packet leaves the host.

``CMaster`` is the other end: it demultiplexes flows by fid, decodes
values back into Python rows, discards duplicate sequence numbers, and
reports completion when every worker's FIN has arrived.

The value codec is explicit about what survives the wire: integers ride
as-is, floats as fixed-point (scaled, rounded **up** so one-sided sketch
arithmetic stays one-sided), and strings as 64-bit fingerprints — the
paper's CWorkers do exactly this for wide columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import math
from fractions import Fraction

import numpy as np

from ..engine.table import Table
from ..errors import ProtocolError
from ..sketches.hashing import hash64
from .packets import CheetahPacket

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class ValueCodec:
    """Encode heterogeneous column values into signed 64-bit wire words.

    Parameters
    ----------
    float_scale:
        Fixed-point scale for floats; ``value -> ceil(value * scale)``.
        Ceiling keeps encoded sums upper bounds of true sums, which the
        HAVING pruner's one-sidedness requires.
    string_seed:
        Seed for string fingerprinting (strings are not decodable; the
        master works with the fingerprint, as the paper's switch does).
    """

    float_scale: int = 1000
    string_seed: int = 0

    def encode(self, value: object) -> int:
        """One value to a wire word."""
        if isinstance(value, (bool, np.bool_)):
            return int(value)
        if isinstance(value, (int, np.integer)):
            word = int(value)
        elif isinstance(value, (float, np.floating)):
            # Exact rational ceil: naive float multiplication can round
            # *down* past the true product at large magnitudes, which
            # would break the one-sided (never-undercount) guarantee.
            word = math.ceil(Fraction(float(value)) * self.float_scale)
        elif isinstance(value, (str, np.str_)):
            # Signed 64-bit view of the fingerprint.
            raw = hash64(str(value), seed=self.string_seed)
            word = raw - (1 << 64) if raw > _INT64_MAX else raw
        else:
            raise ProtocolError(f"cannot encode value of type {type(value)!r}")
        if not _INT64_MIN <= word <= _INT64_MAX:
            raise ProtocolError(f"encoded value {word} exceeds 64-bit range")
        return word

    def encode_row(self, row: Sequence[object]) -> Tuple[int, ...]:
        """Encode a whole projected row."""
        return tuple(self.encode(value) for value in row)


class CWorker:
    """One worker's Cheetah module: table partition -> packet stream.

    ``assist_predicates`` implements §4.1's worker assist: each entry in
    the list is a callable over the projected row tuple whose boolean
    result is appended to the packet as a 0/1 value — the switch then
    evaluates the *full* WHERE formula because the predicates it cannot
    compute arrive precomputed.
    """

    def __init__(
        self,
        fid: int,
        partition: Table,
        columns: Sequence[str],
        codec: Optional[ValueCodec] = None,
        assist_predicates: Optional[Sequence] = None,
    ) -> None:
        self.fid = fid
        self.partition = partition
        self.columns = list(columns)
        self.codec = codec or ValueCodec()
        self.assist_predicates = list(assist_predicates or [])
        self.packets_sent = 0

    def packets(self) -> Iterator[CheetahPacket]:
        """Yield one packet per row, then a bare FIN control packet.

        FIN rides its own value-less packet: data packets can be pruned
        by the switch, and a pruned FIN would leave the master waiting
        forever.  The switch forwards value-less control packets
        unconditionally.
        """
        total = self.partition.num_rows
        for seq, row in enumerate(self.partition.iter_rows(self.columns)):
            self.packets_sent += 1
            values = list(self.codec.encode_row(row))
            for predicate in self.assist_predicates:
                values.append(1 if predicate(row) else 0)
            yield CheetahPacket(fid=self.fid, seq=seq, values=tuple(values))
        self.packets_sent += 1
        yield CheetahPacket(fid=self.fid, seq=total, values=(), fin=True)


@dataclass
class FlowState:
    """Per-fid reception state on the master."""

    rows: List[Tuple[int, ...]] = field(default_factory=list)
    seen_seqs: Set[int] = field(default_factory=set)
    duplicates: int = 0
    fin_received: bool = False


class CMaster:
    """The master's Cheetah module: packets -> decoded rows per flow."""

    def __init__(self, expected_fids: Iterable[int], codec: Optional[ValueCodec] = None) -> None:
        self.codec = codec or ValueCodec()
        self.flows: Dict[int, FlowState] = {fid: FlowState() for fid in expected_fids}

    def receive(self, packet: CheetahPacket) -> bool:
        """Ingest one packet; returns True if it carried a new entry."""
        try:
            flow = self.flows[packet.fid]
        except KeyError:
            raise ProtocolError(f"packet for unknown fid {packet.fid}") from None
        if packet.fin:
            flow.fin_received = True
        if not packet.values:
            return False
        if packet.seq in flow.seen_seqs:
            flow.duplicates += 1
            return False
        flow.seen_seqs.add(packet.seq)
        flow.rows.append(packet.values)
        return True

    @property
    def complete(self) -> bool:
        """True once every expected flow delivered its FIN."""
        return all(flow.fin_received for flow in self.flows.values())

    def rows(self, fid: Optional[int] = None) -> List[Tuple[int, ...]]:
        """Decoded-wire rows of one flow, or of all flows concatenated."""
        if fid is not None:
            return list(self.flows[fid].rows)
        merged: List[Tuple[int, ...]] = []
        for flow in self.flows.values():
            merged.extend(flow.rows)
        return merged
