"""The distributed timestamp protocol and uplink (paper sections 2.3-2.4).

One protocol round: the leader broadcasts a query; every other device
responds in a TDM slot derived from its device ID — synchronising to
the leader's message when it heard it, or to the first message it heard
otherwise. Each device records local timestamps for every message it
receives; two-way timestamp differences cancel the unknown clock
offsets and yield pairwise distances. Reports flow back to the leader
over simultaneous per-band FSK.
"""

from repro.protocol.slots import assigned_slot_time, round_duration
from repro.protocol.messages import Beacon, TimestampReport
from repro.protocol.sync import infer_transmit_slot
from repro.protocol.ranging_matrix import (
    pairwise_distances_from_reports,
    two_way_distance,
)
from repro.protocol.uplink import (
    encode_report,
    decode_report,
    report_num_bits,
    communication_latency_s,
)

__all__ = [
    "assigned_slot_time",
    "round_duration",
    "Beacon",
    "TimestampReport",
    "infer_transmit_slot",
    "pairwise_distances_from_reports",
    "two_way_distance",
    "encode_report",
    "decode_report",
    "report_num_bits",
    "communication_latency_s",
]
