"""The Cheetah reliability protocol over lossy UDP (paper §7.2).

The switch prunes packets, so a plain sequence-number scheme at the master
cannot tell "pruned" from "lost".  Cheetah makes the switch a protocol
participant: it tracks, per flow, the sequence number ``X`` of the last
packet it processed and

* ``Y == X + 1`` — processes the packet (prune or forward), increments
  ``X``, and **ACKs pruned packets itself**;
* ``Y <= X`` — a retransmission of an already-processed packet: forwarded
  *without* reprocessing (the master may therefore receive entries the
  switch pruned earlier — harmless, since every Cheetah algorithm
  tolerates forwarding supersets);
* ``Y > X + 1`` — an earlier packet is still missing: dropped, forcing
  in-order retransmission.

:class:`ReliableTransfer` runs the whole exchange over independently
lossy worker→switch, switch→master, and ACK links until every packet is
accounted for, and records what the master actually received.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.base import PruneDecision, Pruner
from ..errors import ProtocolError
from .packets import ACK_FROM_SWITCH, CheetahAck, CheetahPacket


class LossyLink:
    """A link that drops each message independently with probability ``loss``."""

    def __init__(self, loss: float, rng: random.Random) -> None:
        if not 0.0 <= loss < 1.0:
            raise ProtocolError(f"loss probability must be in [0, 1), got {loss}")
        self.loss = loss
        self._rng = rng
        self.sent = 0
        self.dropped = 0

    def deliver(self) -> bool:
        """True when the message survives the link."""
        self.sent += 1
        if self._rng.random() < self.loss:
            self.dropped += 1
            return False
        return True


class SwitchReliabilityState:
    """Per-flow sequence tracking on the switch (two pipeline stages)."""

    def __init__(self, pruner: Pruner) -> None:
        self.pruner = pruner
        self._last_seq: Dict[int, int] = {}

    def on_packet(self, packet: CheetahPacket, entry: object) -> Tuple[str, Optional[CheetahAck]]:
        """Apply the X/Y rules; returns (action, ack-to-worker-or-None).

        ``action`` is ``"forward"`` (send to master), ``"prune"`` (dropped,
        switch ACKs), or ``"drop"`` (out of order, silently dropped).
        """
        last = self._last_seq.get(packet.fid, -1)
        if packet.seq == last + 1:
            self._last_seq[packet.fid] = packet.seq
            if not packet.values:
                # Value-less control packet (bare FIN): never pruned, so
                # the master always learns the worker finished.
                return "forward", None
            decision = self.pruner.process(entry)
            if decision is PruneDecision.PRUNE:
                return "prune", CheetahAck(packet.fid, packet.seq, ACK_FROM_SWITCH)
            return "forward", None
        if packet.seq <= last:
            # Already processed: forward without reprocessing (§7.2).
            return "forward", None
        return "drop", None


@dataclass
class TransferStats:
    """What happened during one reliable transfer."""

    rounds: int = 0
    transmissions: int = 0
    retransmissions: int = 0
    switch_acks: int = 0
    master_acks: int = 0
    master_received: int = 0
    duplicates_at_master: int = 0
    #: Frames the receiver discarded on a CRC mismatch (timed transport).
    checksum_drops: int = 0
    #: Per-packet timer expirations (timed transport).
    timeouts: int = 0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"rounds={self.rounds} tx={self.transmissions} "
            f"retx={self.retransmissions} switch_acks={self.switch_acks} "
            f"master_acks={self.master_acks} delivered={self.master_received}"
        )


class TransferBase:
    """Shared plumbing for every transfer variant.

    Owns the four lossy links (sharing a single RNG, so loss patterns
    across hops stay reproducible; assign over ``uplink``/``downlink``/
    ``ack_switch_link``/``ack_master_link`` to swap one), the switch
    protocol state, the window validation every variant must perform,
    the master-side receive bookkeeping (arrival order, per-``(fid,
    seq)`` dedup, duplicate counting), and the round loop the
    round-based transfers share.

    Parameters
    ----------
    pruner:
        The dataplane pruning algorithm; a packet's entry is its values
        tuple, unwrapped when it has a single element.
    loss:
        Per-link drop probability applied independently to the uplink,
        the downlink, and both ACK paths.
    seed:
        RNG seed for reproducible loss patterns.
    max_rounds:
        Safety bound on retransmission rounds; exceeding it raises
        :class:`ProtocolError` (indicates a livelock, which the protocol
        does not have for loss < 1).
    window:
        Send at most this many unacked packets per round (None = all).
        The switch's in-order rule makes the protocol go-back-N, so an
        unbounded window wastes transmissions after an early loss; a
        modest window models the pacing a real CWorker does with its
        per-packet timers.
    """

    def __init__(
        self,
        pruner: Pruner,
        loss: float = 0.0,
        seed: int = 0,
        max_rounds: int = 10_000,
        window: Optional[int] = None,
    ) -> None:
        if window is not None and window <= 0:
            raise ProtocolError(f"window must be positive, got {window}")
        rng = random.Random(seed)
        self.switch = SwitchReliabilityState(pruner)
        self.uplink = LossyLink(loss, rng)
        self.downlink = LossyLink(loss, rng)
        self.ack_switch_link = LossyLink(loss, rng)
        self.ack_master_link = LossyLink(loss, rng)
        self.max_rounds = max_rounds
        self.window = window
        self.stats = TransferStats()
        self.master_entries: List[object] = []
        self.master_unique_entries: List[object] = []
        self.master_unique_packets: List[CheetahPacket] = []
        self._master_seen_seqs: Dict[Tuple[int, int], int] = {}

    def _master_receive(self, packet: CheetahPacket) -> None:
        """Master-side ingest: record arrival, dedupe by ``(fid, seq)``."""
        key = (packet.fid, packet.seq)
        entry = _default_decode(packet) if packet.values else None
        if key in self._master_seen_seqs:
            self.stats.duplicates_at_master += 1
        else:
            # The CMaster dedupes by (fid, seq): a retransmitted copy of an
            # already-received entry must not be double-counted.
            if packet.values:
                self.master_unique_entries.append(entry)
            self.master_unique_packets.append(packet)
        self._master_seen_seqs[key] = self._master_seen_seqs.get(key, 0) + 1
        self.stats.master_received += 1
        self.master_entries.append(entry)

    def _run_rounds(self, flows: Dict[int, List[CheetahPacket]]) -> None:
        """§7.2's round loop: send every flow until all its packets are ACKed.

        Each round takes each flow's next in-flight slice (the lowest
        ``window`` unacked seqs) and interleaves the slices packet by
        packet across flows; the master's and the switch's ACKs retire
        packets.  A repeated seq within a flow raises
        :class:`ProtocolError`: it could never be told apart on the wire.
        """
        unacked: Dict[int, Dict[int, CheetahPacket]] = {}
        for fid, packets in flows.items():
            unacked[fid] = {p.seq: p for p in packets}
            if len(unacked[fid]) != len(packets):
                raise ProtocolError("duplicate sequence numbers in input")
        first_attempt = True
        while any(unacked.values()):
            self.stats.rounds += 1
            if self.stats.rounds > self.max_rounds:
                raise ProtocolError(
                    f"transfer did not complete within {self.max_rounds} rounds"
                )
            slices = []
            for fid in sorted(unacked):
                pending = sorted(unacked[fid])
                if self.window is not None:
                    pending = pending[: self.window]
                slices.append([(fid, seq) for seq in pending])
            acked_now: List[Tuple[int, int]] = []
            for fid, seq in _roundrobin(slices):
                packet = unacked[fid][seq]
                self.stats.transmissions += 1
                if not first_attempt:
                    self.stats.retransmissions += 1
                    packet = packet.as_retransmit()
                if not self.uplink.deliver():
                    continue
                entry = _default_decode(packet) if packet.values else None
                action, _ = self.switch.on_packet(packet, entry)
                if action == "drop":
                    continue
                if action == "prune":
                    self.stats.switch_acks += 1
                    if self.ack_switch_link.deliver():
                        acked_now.append((fid, seq))
                    continue
                # Forwarded toward the master.
                if not self.downlink.deliver():
                    continue
                self._master_receive(packet)
                self.stats.master_acks += 1
                if self.ack_master_link.deliver():
                    acked_now.append((fid, seq))
            for fid, seq in acked_now:
                unacked[fid].pop(seq, None)
            first_attempt = False


class ReliableTransfer(TransferBase):
    """Drive one worker's stream through the switch to the master.

    Takes :class:`TransferBase`'s constructor parameters.
    """

    def run(self, packets: List[CheetahPacket]) -> List[object]:
        """Transfer ``packets`` (in seq order) until all are ACKed.

        Returns the entries the master received, in arrival order
        (duplicates included, as on the wire).
        """
        self._run_rounds({0: packets})
        return self.master_entries


def _default_decode(packet: CheetahPacket) -> object:
    if len(packet.values) == 1:
        return packet.values[0]
    return packet.values


def packets_for(entries: List[object]) -> List[CheetahPacket]:
    """Build in-order packets for a list of entries (one entry per packet).

    Integer entries become single-value packets; tuples spread across the
    values field, matching the variable-length header of Fig. 4.
    """
    packets = []
    for seq, entry in enumerate(entries):
        if isinstance(entry, tuple):
            values = tuple(int(v) for v in entry)
        else:
            values = (int(entry),)
        packets.append(CheetahPacket(fid=0, seq=seq, values=values))
    return packets


class GilbertElliottLink(LossyLink):
    """A bursty-loss link: the two-state Gilbert-Elliott channel model.

    Real networks drop packets in bursts (congestion events), not
    independently.  The channel alternates between a GOOD state (low
    loss) and a BAD state (high loss), entering BAD with probability
    0.05 and leaving it with probability 0.3 per packet; the §7.2
    protocol must converge under both regimes.
    """

    def __init__(
        self,
        rng: random.Random,
        good_loss: float = 0.01,
        bad_loss: float = 0.7,
    ) -> None:
        super().__init__(0.0, rng)
        for name, value in (
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ):
            if not 0.0 <= value < 1.0:
                raise ProtocolError(f"{name} must be in [0, 1), got {value}")
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self._bad_state = False

    def deliver(self) -> bool:
        """State transition, then a state-dependent coin flip."""
        if self._bad_state:
            if self._rng.random() < 0.3:
                self._bad_state = False
        else:
            if self._rng.random() < 0.05:
                self._bad_state = True
        self.sent += 1
        loss = self.bad_loss if self._bad_state else self.good_loss
        if self._rng.random() < loss:
            self.dropped += 1
            return False
        return True


class MultiFlowTransfer(TransferBase):
    """Several workers' flows interleaved through one switch (§3's rack).

    Each worker owns a fid and its own retransmission queue; the switch
    keeps per-fid sequence state but runs ONE shared pruner — that is the
    point of in-network pruning: the switch sees the aggregated stream
    across workers, so e.g. a DISTINCT cache dedupes across partitions,
    not just within one.

    Transmission interleaves round-robin across flows, so pruner state
    observes a realistic mix rather than one worker at a time.  Takes
    :class:`TransferBase`'s constructor parameters; a one-flow run
    transmits exactly what :class:`ReliableTransfer` does.
    """

    def run(self, flows: Dict[int, List[CheetahPacket]]) -> List[object]:
        """Transfer every flow to completion; returns deduped entries.

        ``flows`` maps fid -> in-seq-order packets (each packet's fid must
        match its key).
        """
        for fid, packets in flows.items():
            for packet in packets:
                if packet.fid != fid:
                    raise ProtocolError(
                        f"packet fid {packet.fid} under flow {fid}"
                    )
        self._run_rounds(flows)
        return self.master_unique_entries


def _roundrobin(slices: List[List]) -> List:
    """Interleave lists: [a1,a2],[b1] -> [a1,b1,a2]."""
    merged = []
    index = 0
    while True:
        emitted = False
        for s in slices:
            if index < len(s):
                merged.append(s[index])
                emitted = True
        if not emitted:
            return merged
        index += 1
