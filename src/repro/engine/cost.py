"""Analytic completion-time model (testbed substitution; DESIGN.md §2).

The paper's completion-time figures (5, 6, 8, 9) come from a DPDK/Tofino
testbed we cannot run.  What *produces* their shape is structural:

* Spark is **compute-bound**: workers run the per-entry task (hash
  aggregation, join probing, skyline comparison...) and move little data,
  so faster NICs do not help it (Fig. 8) and first runs pay an
  indexing/JIT penalty (§8.2.1).
* Cheetah is **network-bound**: workers only serialize; all streamed
  entries cross the wire (64 B minimum frames, one entry per packet); the
  master handles only the unpruned remainder, with a queueing penalty
  that grows super-linearly in the unpruned rate (Fig. 9).

This module encodes exactly those mechanics with per-operator per-entry
costs.  Absolute times are calibration constants; every benchmark
compares *ratios and trends*, which the structure determines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigurationError
from .cluster import RunResult

#: Per-entry worker task cost for the software (Spark) path, microseconds.
#: Aggregation-style operators dominate query time (§2.1); plain filtering
#: is a cheap columnar scan.
SPARK_TASK_US: Dict[str, float] = {
    "filter": 0.12,
    "distinct": 0.50,
    "topn": 0.35,
    "groupby": 0.55,
    "having": 0.50,
    "join": 0.80,
    "skyline": 1.40,
}

#: Per-entry master completion cost for Cheetah survivors, microseconds.
MASTER_ENTRY_US: Dict[str, float] = {
    "filter": 0.05,
    "distinct": 0.20,
    "topn": 0.10,
    "groupby": 0.25,
    "having": 0.20,
    "join": 0.40,
    "skyline": 1.40,
}


@dataclass(frozen=True)
class Breakdown:
    """Completion time split into the Fig. 8 segments (seconds)."""

    worker: float
    network: float
    master: float
    setup: float = 0.0

    @property
    def total(self) -> float:
        """End-to-end completion.

        Cheetah pipelines sending with master processing, so the slower of
        the two overlapped segments dominates; the worker segment and the
        fixed setup are serial.
        """
        return self.setup + self.worker + max(self.network, self.master)


@dataclass
class CostModel:
    """Calibrated completion-time model.

    Parameters
    ----------
    network_gbps:
        NIC/link limit toward the master (the paper restricts 40G NICs to
        10G and 20G).
    bytes_per_entry:
        Wire bytes per streamed entry; Cheetah sends one entry per minimum
        64-byte Ethernet frame.
    entries_per_packet:
        The §9 extension: packing k entries per packet divides the frame
        overhead (k = 1 reproduces the paper's prototype).
    worker_serialize_us:
        CWorker per-entry serialization cost.
    master_queue_factor:
        Strength of the super-linear buffering penalty at the master
        (Fig. 9): effective per-entry cost is multiplied by
        ``1 + factor * unpruned_ratio``.
    spark_first_run_factor:
        Slowdown of Spark's first run before caching/indexing/JIT kick in.
    spark_serial_fraction:
        Amdahl-style fraction of the software path that does not
        parallelize across workers (stage barriers, scheduling, the
        master-side merge).  This is what keeps the Cheetah/Spark ratio
        roughly stable as workers vary (Fig. 6b) — small Spark clusters
        are far from linear scaling [Ousterhout et al., NSDI'15].
    spark_result_fraction:
        Fraction of input entries Spark moves to the master after worker-
        side reduction (compressed, many entries per MTU).
    setup_s:
        Fixed per-query overhead (rule installation takes < 1 ms; job
        launch dominates).
    """

    network_gbps: float = 10.0
    bytes_per_entry: int = 64
    entries_per_packet: int = 1
    worker_serialize_us: float = 0.08
    master_queue_factor: float = 8.0
    spark_first_run_factor: float = 1.6
    spark_serial_fraction: float = 0.4
    spark_result_fraction: float = 0.02
    spark_result_bytes_per_entry: float = 8.0
    setup_s: float = 0.05
    spark_task_us: Dict[str, float] = field(default_factory=lambda: dict(SPARK_TASK_US))
    master_entry_us: Dict[str, float] = field(default_factory=lambda: dict(MASTER_ENTRY_US))

    def __post_init__(self) -> None:
        if self.network_gbps <= 0:
            raise ConfigurationError(f"network rate must be positive, got {self.network_gbps}")
        if self.entries_per_packet < 1:
            raise ConfigurationError(
                f"entries_per_packet must be >= 1, got {self.entries_per_packet}"
            )

    # -- helpers ---------------------------------------------------------------

    def _wire_seconds(self, entries: int) -> float:
        packets = entries / self.entries_per_packet
        bytes_on_wire = packets * self.bytes_per_entry
        return bytes_on_wire * 8 / (self.network_gbps * 1e9)

    def _task_us(self, op_kind: str) -> float:
        try:
            return self.spark_task_us[op_kind]
        except KeyError:
            raise ConfigurationError(f"no Spark task cost for op kind {op_kind!r}") from None

    def _master_us(self, op_kind: str) -> float:
        try:
            return self.master_entry_us[op_kind]
        except KeyError:
            raise ConfigurationError(f"no master cost for op kind {op_kind!r}") from None

    # -- Cheetah ---------------------------------------------------------------

    def cheetah_breakdown(self, result: RunResult) -> Breakdown:
        """Completion-time breakdown for a Cheetah run.

        The queueing inflation is driven by the *pruning* phases only: a
        refetch pass (HAVING's partial second pass) forwards everything by
        design and is consumed as a stream, so it adds linear master work
        but no buffering pressure.
        """
        streamed = result.total_streamed
        forwarded = result.total_forwarded
        per_worker = streamed / result.workers
        worker = per_worker * self.worker_serialize_us * 1e-6
        network = self._wire_seconds(streamed)
        pruning_phases = [p for p in result.phases if p.forwarded < p.streamed]
        ratio_streamed = sum(p.streamed for p in pruning_phases)
        ratio_forwarded = sum(p.forwarded for p in pruning_phases)
        if ratio_streamed > 0:
            unpruned_ratio = ratio_forwarded / ratio_streamed
        else:
            unpruned_ratio = 1.0 if streamed else 0.0
        inflation = 1.0 + self.master_queue_factor * unpruned_ratio
        master = forwarded * self._master_us(result.op_kind) * inflation * 1e-6
        return Breakdown(worker=worker, network=network, master=master, setup=self.setup_s)

    # -- Spark -----------------------------------------------------------------

    def spark_breakdown(self, result: RunResult, first_run: bool = False) -> Breakdown:
        """Completion-time breakdown for the software baseline.

        Uses the same run volumes but charges worker-side task compute per
        input entry and moves only the reduced result over the wire.
        """
        streamed = result.total_streamed
        factor = self.spark_first_run_factor if first_run else 1.0
        efficiency = (
            self.spark_serial_fraction
            + (1.0 - self.spark_serial_fraction) / result.workers
        )
        worker = streamed * efficiency * self._task_us(result.op_kind) * factor * 1e-6
        result_entries = streamed * self.spark_result_fraction
        network = (
            result_entries * self.spark_result_bytes_per_entry * 8 / (self.network_gbps * 1e9)
        )
        master = result_entries * self._master_us(result.op_kind) * 1e-6
        return Breakdown(worker=worker, network=network, master=master, setup=self.setup_s)

    # -- comparisons -------------------------------------------------------------

    def speedup(self, result: RunResult, first_run: bool = False) -> float:
        """Spark time / Cheetah time for the same run volumes."""
        spark = self.spark_breakdown(result, first_run=first_run).total
        cheetah = self.cheetah_breakdown(result).total
        return spark / cheetah
