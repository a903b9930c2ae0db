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

from ..errors import ConfigurationError

#: Register read-out rate through the control plane.  Draining is a
#: control-plane operation (RPC per register batch), orders of magnitude
#: slower than dataplane forwarding.
DRAIN_ENTRIES_PER_S = 250_000.0
#: Fixed cost to initiate the drain.
DRAIN_SETUP_S = 0.01
#: Processing rate of the switch CPU (a small embedded core).
SWITCH_CPU_ENTRIES_PER_S = 400_000.0
#: Bandwidth of the dataplane-to-CPU channel.
CPU_CHANNEL_GBPS = 1.0
#: Processing rate of the master server for the same operator.
SERVER_ENTRIES_PER_S = 5_000_000.0
#: Entry width crossing the CPU channel.
BYTES_PER_ENTRY = 64
#: Master per-entry cost of a Cheetah survivor, microseconds.
MASTER_ENTRY_US = 0.4


class NetAccelModel:
    """The NetAccel lower-bound model over the calibration constants above."""

    def drain_time(self, result_entries: int) -> float:
        """Seconds to move ``result_entries`` from switch registers to the master."""
        if result_entries < 0:
            raise ConfigurationError(f"result size cannot be negative: {result_entries}")
        return DRAIN_SETUP_S + result_entries / DRAIN_ENTRIES_PER_S

    def switch_cpu_time(self, entries: int) -> float:
        """Seconds for the switch CPU to process ``entries`` overflow entries.

        Includes the dataplane-to-CPU transfer, which shares one thin
        channel with everything else on the CPU.
        """
        if entries < 0:
            raise ConfigurationError(f"entry count cannot be negative: {entries}")
        transfer = entries * BYTES_PER_ENTRY * 8 / (CPU_CHANNEL_GBPS * 1e9)
        compute = entries / SWITCH_CPU_ENTRIES_PER_S
        return transfer + compute

    def server_time(self, entries: int) -> float:
        """Seconds for the master server to process the same ``entries``."""
        if entries < 0:
            raise ConfigurationError(f"entry count cannot be negative: {entries}")
        return entries / SERVER_ENTRIES_PER_S

    def cheetah_total(self, result_entries: int) -> float:
        """Cheetah's equivalent tail: survivors stream straight to the master.

        No drain: results never reside on the switch, so the next operator
        can consume them as they arrive (pipelining).
        """
        return result_entries * MASTER_ENTRY_US * 1e-6
