"""Capture codec: radiotap pcap and RFC 1761 snoop, each optionally
gzipped, plus the radiotap and 802.11 MAC codecs (the scapy substitute).

Writes simulated traces as real capture files and reads them back, so
the analysis front-end can ingest byte-level captures exactly as the
paper's tethereal-based pipeline did.  This package alone decides which
container a file is: :func:`detect_format` and
:func:`read_trace_batches` sniff content, :func:`write_trace` goes by
suffix, and the corpus catalog asks :func:`detect_format`,
:data:`CAPTURE_FORMATS` and :data:`CAPTURE_SUFFIXES`.
"""

from .dot11_codec import DecodedFrame, decode_frame, encode_frame, mac_to_node, node_to_mac
from .pcapio import (
    CAPTURE_FORMATS,
    CAPTURE_SUFFIXES,
    LINKTYPE_RADIOTAP,
    PAPER_SNAPLEN,
    CaptureError,
    TruncatedPcapError,
    TruncatedSnoopError,
    detect_format,
    read_trace,
    read_trace_batches,
    write_trace,
)
from .radiotap import CHANNEL_FREQ_MHZ, RadiotapHeader, channel_from_freq

__all__ = [
    "CAPTURE_FORMATS",
    "CAPTURE_SUFFIXES",
    "CHANNEL_FREQ_MHZ",
    "CaptureError",
    "DecodedFrame",
    "LINKTYPE_RADIOTAP",
    "PAPER_SNAPLEN",
    "RadiotapHeader",
    "TruncatedPcapError",
    "TruncatedSnoopError",
    "channel_from_freq",
    "decode_frame",
    "detect_format",
    "encode_frame",
    "mac_to_node",
    "node_to_mac",
    "read_trace",
    "read_trace_batches",
    "write_trace",
]
