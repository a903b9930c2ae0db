"""Timeout-driven reliable transfer over a discrete-event clock.

The round-based :class:`~repro.net.reliability.ReliableTransfer` models
§7.2's protocol as synchronized retransmission rounds — fine for studying
convergence, but unable to express *time*: per-packet timers, RTT-shaped
pacing, or goodput.  :class:`TimedReliableTransfer` replaces the round
loop with an event queue:

* every transmission arms a **per-packet timeout** with capped
  exponential backoff (``rto = min(RTO_MAX, RTO_INITIAL * BACKOFF^(a-1))``
  for attempt ``a``), the way a real CWorker paces retransmissions;
* a **sliding window** keeps at most ``WINDOW`` packets in flight; the
  switch's in-order rule still yields go-back-N recovery, but driven by
  timers instead of lockstep rounds;
* frames travel as **CRC-checksummed bytes**
  (:meth:`~repro.net.packets.CheetahPacket.encode_frame`), so injected
  bit corruption is detected at the switch or master and the frame
  discarded — a corrupted packet can never reach the master's decode
  path as a wrong entry, it simply looks like a loss and the timer
  recovers it;
* an optional :class:`~repro.faults.injector.FaultInjector` maps
  transmission indices to scheduled drops, corruptions, reorders and
  duplicates.

Simulated time is deterministic: events at equal timestamps fire in
scheduling order, and all randomness comes from the injector's seeded RNG
and from any seeded links assigned over the lossless defaults.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set, Tuple

from ..core.base import Pruner
from ..errors import ChecksumError, ProtocolError
from .packets import CheetahPacket
from .reliability import TransferBase, _default_decode

#: Event kinds, in the order they appear in the queue payloads.
_SWITCH, _MASTER, _ACK, _TIMEOUT = "switch", "master", "ack", "timeout"


#: At most this many packets in flight.
WINDOW = 32
#: One-way latency of every hop, in simulated time units.
LINK_DELAY = 1.0
#: The retransmission-timeout ladder: attempt ``a`` waits
#: ``min(RTO_MAX, RTO_INITIAL * BACKOFF**(a - 1))`` before firing.
#: ``RTO_INITIAL`` covers the ~3-hop round trip, so healthy packets do
#: not retransmit spuriously.
RTO_INITIAL = 4.0
RTO_MAX = 64.0
BACKOFF = 2.0
#: Per-packet give-up bound; exceeding it raises
#: :class:`~repro.errors.ProtocolError` (the link is down, not lossy).
MAX_ATTEMPTS = 50


class TimedReliableTransfer(TransferBase):
    """§7.2 reliability with per-packet timers on a discrete-event clock.

    The links are lossless; ``injector``, an optional
    :class:`~repro.faults.injector.FaultInjector`, applies its link-fault
    events by transmission index.
    """

    def __init__(self, pruner: Pruner, injector=None) -> None:
        super().__init__(pruner, window=WINDOW)
        self.injector = injector
        #: Final simulated clock value after :meth:`run`.
        self.sim_time = 0.0
        self._events: List[Tuple[float, int, str, int, object]] = []
        self._event_counter = 0
        self._tx_index = 0
        self._fwd_index = 0

    # -- event queue ---------------------------------------------------------

    def _schedule(self, when: float, kind: str, seq: int, payload: object = None) -> None:
        """Push an event; the counter makes equal-time ordering FIFO."""
        heapq.heappush(self._events, (when, self._event_counter, kind, seq, payload))
        self._event_counter += 1

    def _rto(self, attempt: int) -> float:
        """The capped exponential backoff ladder for attempt ``attempt``."""
        return min(RTO_MAX, RTO_INITIAL * BACKOFF ** (attempt - 1))

    # -- the transfer --------------------------------------------------------

    def run(self, packets: List[CheetahPacket]) -> List[object]:
        """Transfer ``packets`` until every one is ACKed; dedup at master.

        Returns the master's unique entries (``master_unique_entries``);
        arrival order with duplicates stays available on
        ``master_entries``, and :attr:`sim_time` holds the completion
        time on the simulated clock.
        """
        by_seq: Dict[int, CheetahPacket] = {p.seq: p for p in packets}
        if len(by_seq) != len(packets):
            raise ProtocolError("duplicate sequence numbers in input")
        self._by_seq = by_seq
        order = sorted(by_seq)
        attempts: Dict[int, int] = {seq: 0 for seq in order}
        acked: Set[int] = set()
        next_to_arm = 0  # index into `order` of the first never-sent packet

        def arm_window(now: float) -> None:
            """Send never-sent packets while the in-flight window has room."""
            nonlocal next_to_arm
            while next_to_arm < len(order):
                in_flight = sum(
                    1
                    for seq in order[: next_to_arm]
                    if seq not in acked
                )
                if in_flight >= WINDOW:
                    return
                self._send(order[next_to_arm], attempts, now)
                next_to_arm += 1

        arm_window(0.0)
        while self._events and len(acked) < len(order):
            now, _, kind, seq, payload = heapq.heappop(self._events)
            self.sim_time = now
            if kind == _TIMEOUT:
                self._on_timeout(seq, payload, attempts, acked, now)
            elif kind == _SWITCH:
                self._on_switch(seq, payload, by_seq, now)
            elif kind == _MASTER:
                self._on_master(seq, payload, now)
            elif kind == _ACK:
                if seq not in acked:
                    acked.add(seq)
                    arm_window(now)
        if len(acked) < len(order):  # pragma: no cover - timers always rearm
            raise ProtocolError("event queue drained with packets unacked")
        return self.master_unique_entries

    # -- per-event handlers --------------------------------------------------

    def _send(self, seq: int, attempts: Dict[int, int], now: float) -> None:
        """One (re)transmission: frame, injector verdict, uplink, timer."""
        attempts[seq] += 1
        attempt = attempts[seq]
        packet = self._packet_for(seq)
        self.stats.transmissions += 1
        if attempt > 1:
            self.stats.retransmissions += 1
            packet = packet.as_retransmit()
        frame = packet.encode_frame()
        self._schedule(now + self._rto(attempt), _TIMEOUT, seq, attempt)
        fault = None
        if self.injector is not None:
            fault = self.injector.transport_fault(self._tx_index, link="uplink")
        self._tx_index += 1
        if fault == "drop":
            self.uplink.sent += 1
            self.uplink.dropped += 1
            return
        if fault == "corrupt":
            frame = self.injector.corrupt_frame(frame)
        delay = LINK_DELAY
        if fault == "reorder":
            # Held in a queue long enough for the next packet to overtake.
            delay += 2.5 * LINK_DELAY
        if not self.uplink.deliver():
            return
        self._schedule(now + delay, _SWITCH, seq, frame)
        if fault == "duplicate":
            self._schedule(now + delay + 0.25 * LINK_DELAY, _SWITCH, seq, frame)

    def _packet_for(self, seq: int) -> CheetahPacket:
        """The original packet for ``seq`` (kept on the run's closure)."""
        return self._by_seq[seq]

    def _on_switch(
        self, seq: int, frame: bytes, by_seq: Dict[int, CheetahPacket], now: float
    ) -> None:
        """Frame arrives at the switch: CRC check, then the §7.2 rules."""
        try:
            packet = CheetahPacket.decode_frame(frame)
        except ChecksumError:
            self.stats.checksum_drops += 1
            return
        entry = _default_decode(packet) if packet.values else None
        action, _ = self.switch.on_packet(packet, entry)
        if action == "drop":
            return
        if action == "prune":
            self.stats.switch_acks += 1
            if self.ack_switch_link.deliver():
                self._schedule(now + LINK_DELAY, _ACK, seq, None)
            return
        fault = None
        if self.injector is not None:
            fault = self.injector.transport_fault(self._fwd_index, link="downlink")
        self._fwd_index += 1
        if fault == "drop":
            self.downlink.sent += 1
            self.downlink.dropped += 1
            return
        if fault == "corrupt":
            frame = self.injector.corrupt_frame(frame)
        if not self.downlink.deliver():
            return
        self._schedule(now + LINK_DELAY, _MASTER, seq, frame)

    def _on_master(self, seq: int, frame: bytes, now: float) -> None:
        """Frame arrives at the master: CRC check, ingest, ACK back."""
        try:
            packet = CheetahPacket.decode_frame(frame)
        except ChecksumError:
            self.stats.checksum_drops += 1
            return
        self._master_receive(packet)
        self.stats.master_acks += 1
        if self.ack_master_link.deliver():
            self._schedule(now + LINK_DELAY, _ACK, seq, None)

    def _on_timeout(
        self,
        seq: int,
        attempt: int,
        attempts: Dict[int, int],
        acked: Set[int],
        now: float,
    ) -> None:
        """A packet's timer fired: retransmit unless ACKed or superseded."""
        if seq in acked or attempts.get(seq) != attempt:
            return  # delivered, or a newer attempt owns the timer
        self.stats.timeouts += 1
        if attempt >= MAX_ATTEMPTS:
            raise ProtocolError(
                f"packet seq={seq} gave up after {attempt} attempts "
                f"(link effectively down)"
            )
        self._send(seq, attempts, now)

    def goodput(self) -> float:
        """Unique master deliveries per simulated time unit."""
        if self.sim_time <= 0:
            return 0.0
        return len(self.master_unique_packets) / self.sim_time
