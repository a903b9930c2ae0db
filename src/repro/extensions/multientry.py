"""Packing multiple entries per packet (paper §9).

The prototype sends one entry per minimum-size Ethernet frame, which
makes Cheetah network-bound.  §9 observes that a packet can carry several
entries as long as the per-stage ALU budget covers them, and that
DISTINCT, TOP N and GROUP BY stay correct under a simple rule: **if two
entries of one packet map to the same matrix row, process the first and
forward the rest unprocessed** (never prune an entry the stage had no
ALU slot to examine).

:class:`MultiEntryPruner` wraps any single-entry pruner that exposes a
row assignment and applies exactly that rule per packet (batch).
Forwarding unprocessed entries is always safe — every Cheetah algorithm
tolerates forwarding supersets.
"""

from __future__ import annotations

from typing import Callable, Generic, List, Sequence

from ..core.base import Entry, PruneDecision, Pruner, PruneStats
from ..errors import ConfigurationError
from ..switch.resources import TOFINO, ResourceFootprint


class MultiEntryPruner(Generic[Entry]):
    """Batch adapter for a row-partitioned pruner.

    Parameters
    ----------
    pruner:
        The underlying single-entry pruner (DISTINCT, randomized TOP N,
        GROUP BY...).
    row_of:
        Maps an entry to its matrix row.  Entries of one packet that share
        a row beyond the first are forwarded unprocessed.
    entries_per_packet:
        The packing factor ``k``; bounded by the Tofino's per-stage ALU
        budget (every algorithm uses at least one ALU per entry per stage).
    """

    def __init__(
        self,
        pruner: Pruner[Entry],
        row_of: Callable[[Entry], int],
        entries_per_packet: int = 4,
    ) -> None:
        if entries_per_packet < 1:
            raise ConfigurationError(
                f"entries_per_packet must be >= 1, got {entries_per_packet}"
            )
        if entries_per_packet > TOFINO.alus_per_stage:
            raise ConfigurationError(
                f"cannot process {entries_per_packet} entries per packet with "
                f"{TOFINO.alus_per_stage} ALUs per stage (one ALU per entry per stage)"
            )
        self.pruner = pruner
        self.row_of = row_of
        self.entries_per_packet = entries_per_packet
        self.stats = PruneStats()
        self.unprocessed_forwards = 0

    def process_packet(self, entries: Sequence[Entry]) -> List[PruneDecision]:
        """Decide each entry of one packet.

        At most one entry per matrix row is processed; row-mates are
        forwarded unprocessed (counted in ``unprocessed_forwards``).
        """
        if len(entries) > self.entries_per_packet:
            raise ConfigurationError(
                f"packet carries {len(entries)} entries, configured for "
                f"{self.entries_per_packet}"
            )
        decisions: List[PruneDecision] = []
        rows_used = set()
        for entry in entries:
            row = self.row_of(entry)
            if row in rows_used:
                decisions.append(PruneDecision.FORWARD)
                self.unprocessed_forwards += 1
                self.stats.record(PruneDecision.FORWARD)
                continue
            rows_used.add(row)
            decision = self.pruner.process(entry)
            decisions.append(decision)
            self.stats.record(decision)
        return decisions

    def prune_stream(self, entries: Sequence[Entry]) -> List[Entry]:
        """Pack a stream into k-entry packets and return the survivors."""
        survivors: List[Entry] = []
        k = self.entries_per_packet
        for start in range(0, len(entries), k):
            batch = entries[start : start + k]
            for entry, decision in zip(batch, self.process_packet(batch)):
                if decision is PruneDecision.FORWARD:
                    survivors.append(entry)
        return survivors

    def packets_sent(self, stream_length: int) -> int:
        """Frames on the wire for ``stream_length`` entries."""
        k = self.entries_per_packet
        return (stream_length + k - 1) // k

    def footprint(self) -> ResourceFootprint:
        """Hardware cost: the base algorithm with k ALUs per logical stage.

        Each stage must examine up to ``k`` entries, so the ALU count
        multiplies by the packing factor while stages and SRAM stay put.
        """
        base = self.pruner.footprint()
        return ResourceFootprint(
            stages=base.stages,
            alus=base.alus * self.entries_per_packet,
            sram_bits=base.sram_bits,
            tcam_entries=base.tcam_entries,
            phv_bits=base.phv_bits * self.entries_per_packet,
            stage_sram_bits=dict(base.stage_sram_bits),
            label=f"{base.label}x{self.entries_per_packet}",
        )

    def reset(self) -> None:
        """Clear adapter and underlying pruner state."""
        self.pruner.reset()
        self.stats = PruneStats()
        self.unprocessed_forwards = 0
