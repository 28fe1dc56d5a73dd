"""pcap + radiotap + 802.11 MAC codec (the scapy substitute).

Writes simulated traces as real radiotap pcap files and reads them back,
so the analysis front-end can ingest byte-level captures exactly as the
paper's tethereal-based pipeline did.
"""

from .dot11_codec import DecodedFrame, decode_frame, encode_frame, mac_to_node, node_to_mac
from .pcapio import (
    LINKTYPE_RADIOTAP,
    PAPER_SNAPLEN,
    CaptureError,
    TruncatedPcapError,
    read_trace,
    read_trace_batches,
    write_trace,
)
from .radiotap import CHANNEL_FREQ_MHZ, RadiotapHeader, channel_from_freq

__all__ = [
    "CHANNEL_FREQ_MHZ",
    "CaptureError",
    "DecodedFrame",
    "LINKTYPE_RADIOTAP",
    "PAPER_SNAPLEN",
    "RadiotapHeader",
    "TruncatedPcapError",
    "channel_from_freq",
    "decode_frame",
    "encode_frame",
    "mac_to_node",
    "node_to_mac",
    "read_trace",
    "read_trace_batches",
    "write_trace",
]
