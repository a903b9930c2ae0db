"""Transport substrate: Cheetah packet formats and the reliability protocol."""

from .packets import (
    ACK_FROM_MASTER,
    ACK_FROM_SWITCH,
    FLAG_FIN,
    FLAG_RETRANSMIT,
    MAX_VALUES,
    CheetahAck,
    CheetahPacket,
    frame_checksum,
)
from .reliability import (
    GilbertElliottLink,
    LossyLink,
    MultiFlowTransfer,
    ReliableTransfer,
    SwitchReliabilityState,
    TransferStats,
    packets_for,
)
from .timed import TimedReliableTransfer
from .services import CMaster, CWorker, FlowState, ValueCodec

__all__ = [
    "ACK_FROM_MASTER",
    "ACK_FROM_SWITCH",
    "FLAG_FIN",
    "FLAG_RETRANSMIT",
    "MAX_VALUES",
    "CheetahAck",
    "CheetahPacket",
    "GilbertElliottLink",
    "LossyLink",
    "MultiFlowTransfer",
    "ReliableTransfer",
    "SwitchReliabilityState",
    "TimedReliableTransfer",
    "TransferStats",
    "frame_checksum",
    "packets_for",
    "CMaster",
    "CWorker",
    "FlowState",
    "ValueCodec",
]
