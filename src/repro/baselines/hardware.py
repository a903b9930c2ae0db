"""The hardware-choice catalog behind Table 3 (paper §2.1, §10).

Static figures cited by the paper for commodity servers, GPUs, FPGAs,
SmartNICs, and the Tofino V2 switch.  The Table 3 benchmark prints this
catalog and derives the headline ratios (switch throughput two orders of
magnitude above servers; sub-microsecond latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class HardwareProfile:
    """Throughput/latency envelope of one acceleration substrate."""

    name: str
    throughput_gbps_low: float
    throughput_gbps_high: float
    latency_us_low: float
    latency_us_high: float


#: The rows of Table 3 as the paper reports them.
TABLE3: List[HardwareProfile] = [
    HardwareProfile("Server", 10, 100, 10, 100),
    HardwareProfile("GPU", 40, 120, 8, 25),
    HardwareProfile("FPGA", 10, 100, 10, 10),
    HardwareProfile("SmartNIC", 10, 100, 5, 10),
    HardwareProfile("Tofino V2", 12_800, 12_800, 0.5, 1.0),
]


def profile(name: str) -> HardwareProfile:
    """Look up one Table 3 row by name."""
    for row in TABLE3:
        if row.name.lower() == name.lower():
            return row
    raise KeyError(f"no hardware profile named {name!r}")


def switch_vs_server_throughput() -> float:
    """The headline ratio: Tofino V2 throughput over best server NIC."""
    return profile("Tofino V2").throughput_gbps_high / profile("Server").throughput_gbps_high
