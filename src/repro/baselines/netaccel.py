"""The NetAccel comparison model (paper §8.2.4, Appendix F; Figs. 7, 12, 13).

NetAccel offloads *entire* queries: results accumulate in switch
registers and must be **drained** to the master when the query finishes,
and operators that exceed dataplane resources overflow to the **switch
CPU**.  The paper itself models NetAccel with a measured lower bound
(time to read the output from the switch, assuming perfect dataplane
execution and Cheetah-equal pruning); we implement the same two
mechanisms analytically:

* :func:`drain_time` — reading ``result_entries`` from dataplane
  registers through the control plane; this latency is serial with the
  rest of the query and blocks pipelining into the next operator.
* :func:`switch_cpu_time` vs :func:`server_time` — processing the
  overflow share on the weak switch CPU behind a thin dataplane-to-CPU
  channel, versus on the master server (Figs. 12/13).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class NetAccelModel:
    """Calibration constants for the NetAccel lower-bound model.

    Parameters
    ----------
    drain_entries_per_s:
        Register read-out rate through the control plane.  Draining is a
        control-plane operation (RPC per register batch), orders of
        magnitude slower than dataplane forwarding.
    drain_setup_s:
        Fixed cost to initiate the drain.
    switch_cpu_entries_per_s:
        Processing rate of the switch CPU (a small embedded core).
    cpu_channel_gbps:
        Bandwidth of the dataplane-to-CPU channel.
    server_entries_per_s:
        Processing rate of the master server for the same operator.
    bytes_per_entry:
        Entry width crossing the CPU channel.
    """

    drain_entries_per_s: float = 250_000.0
    drain_setup_s: float = 0.01
    switch_cpu_entries_per_s: float = 400_000.0
    cpu_channel_gbps: float = 1.0
    server_entries_per_s: float = 5_000_000.0
    bytes_per_entry: int = 64

    def drain_time(self, result_entries: int) -> float:
        """Seconds to move ``result_entries`` from switch registers to the master."""
        if result_entries < 0:
            raise ConfigurationError(f"result size cannot be negative: {result_entries}")
        return self.drain_setup_s + result_entries / self.drain_entries_per_s

    def switch_cpu_time(self, entries: int) -> float:
        """Seconds for the switch CPU to process ``entries`` overflow entries.

        Includes the dataplane-to-CPU transfer, which shares one thin
        channel with everything else on the CPU.
        """
        if entries < 0:
            raise ConfigurationError(f"entry count cannot be negative: {entries}")
        transfer = entries * self.bytes_per_entry * 8 / (self.cpu_channel_gbps * 1e9)
        compute = entries / self.switch_cpu_entries_per_s
        return transfer + compute

    def server_time(self, entries: int) -> float:
        """Seconds for the master server to process the same ``entries``."""
        if entries < 0:
            raise ConfigurationError(f"entry count cannot be negative: {entries}")
        return entries / self.server_entries_per_s

    def cheetah_total(self, result_entries: int, master_entry_us: float = 0.4) -> float:
        """Cheetah's equivalent tail: survivors stream straight to the master.

        No drain: results never reside on the switch, so the next operator
        can consume them as they arrive (pipelining).
        """
        return result_entries * master_entry_us * 1e-6
