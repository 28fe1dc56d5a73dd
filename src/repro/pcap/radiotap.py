"""Radiotap header encode/decode (the RFMon side information, §4.2).

The paper's sniffers ran in RFMon mode, which prepends per-frame radio
metadata — timestamp, data rate, channel and signal/noise — to each
captured 802.11 frame.  The modern on-disk encoding of that metadata is
the radiotap header (pcap linktype 127); we implement the subset of
fields the paper's analysis uses:

* TSFT (bit 0)          — 64-bit microsecond timestamp
* Flags (bit 1)         — (emitted as 0; presence keeps parsers happy)
* Rate (bit 2)          — data rate in 0.5 Mbps units
* Channel (bit 3)       — frequency + flags
* Antenna signal (bit 5)— dBm, signed byte
* Antenna noise (bit 6) — dBm, signed byte

Field alignment follows the radiotap specification: every field is
aligned to its natural size from the start of the header body.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..frames.dot11 import CHANNEL_FREQ_MHZ

__all__ = ["RadiotapHeader", "CHANNEL_FREQ_MHZ", "channel_from_freq"]

_TSFT = 1 << 0
_FLAGS = 1 << 1
_RATE = 1 << 2
_CHANNEL = 1 << 3
_ANT_SIGNAL = 1 << 5
_ANT_NOISE = 1 << 6

_PRESENT = _TSFT | _FLAGS | _RATE | _CHANNEL | _ANT_SIGNAL | _ANT_NOISE

#: Channel flags: 2 GHz spectrum + CCK modulation.
_CHAN_FLAGS_B = 0x00A0


def channel_from_freq(freq_mhz: int) -> int:
    """Map a 2.4 GHz centre frequency back to its channel number."""
    for channel, freq in CHANNEL_FREQ_MHZ.items():
        if freq == freq_mhz:
            return channel
    raise ValueError(f"not an 802.11b/g channel frequency: {freq_mhz} MHz")


@dataclass(frozen=True)
class RadiotapHeader:
    """Decoded radiotap fields for one captured frame."""

    tsft_us: int
    rate_mbps: float
    channel: int
    signal_dbm: int
    noise_dbm: int

    def encode(self) -> bytes:
        """Serialise to radiotap bytes (little-endian throughout)."""
        if not 0 <= self.tsft_us < 2**64:
            raise ValueError("TSFT out of range")
        rate_units = int(round(self.rate_mbps * 2))
        if not 0 < rate_units <= 0xFF:
            raise ValueError(f"rate {self.rate_mbps} Mbps not encodable")
        freq = CHANNEL_FREQ_MHZ.get(self.channel)
        if freq is None:
            raise ValueError(f"unknown channel {self.channel}")
        # Body: TSFT(8, align 8) Flags(1) Rate(1) Channel(2+2, align 2)
        #       Signal(1) Noise(1)  -> offsets 8..16, 16, 17, 18..22, 22, 23
        body = struct.pack(
            "<QBBHHbb",
            self.tsft_us,
            0,  # flags
            rate_units,
            freq,
            _CHAN_FLAGS_B,
            _clamp_dbm(self.signal_dbm),
            _clamp_dbm(self.noise_dbm),
        )
        header = struct.pack("<BBHI", 0, 0, 8 + len(body), _PRESENT)
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> tuple["RadiotapHeader", int]:
        """Parse a radiotap header; returns (header, total_length)."""
        if len(data) < 8:
            raise ValueError("truncated radiotap header")
        version, _pad, length, present = struct.unpack_from("<BBHI", data, 0)
        if version != 0:
            raise ValueError(f"unsupported radiotap version {version}")
        if length > len(data):
            raise ValueError("radiotap length exceeds capture")
        if present & (1 << 31):
            raise ValueError("chained present words not supported")

        offset = 8
        tsft_us = 0
        rate_mbps = 1.0
        channel = 1
        signal_dbm = -50
        noise_dbm = -96

        def align(o: int, a: int) -> int:
            return (o + a - 1) & ~(a - 1)

        if present & _TSFT:
            offset = align(offset, 8)
            (tsft_us,) = struct.unpack_from("<Q", data, offset)
            offset += 8
        if present & _FLAGS:
            offset += 1
        if present & _RATE:
            rate_mbps = data[offset] / 2.0
            offset += 1
        if present & _CHANNEL:
            offset = align(offset, 2)
            (freq,) = struct.unpack_from("<H", data, offset)
            channel = channel_from_freq(freq)
            offset += 4  # freq + flags
        if present & (1 << 4):  # FHSS, unused but must be skipped
            offset += 2
        if present & _ANT_SIGNAL:
            (signal_dbm,) = struct.unpack_from("<b", data, offset)
            offset += 1
        if present & _ANT_NOISE:
            (noise_dbm,) = struct.unpack_from("<b", data, offset)
            offset += 1

        return (
            cls(
                tsft_us=tsft_us,
                rate_mbps=rate_mbps,
                channel=channel,
                signal_dbm=signal_dbm,
                noise_dbm=noise_dbm,
            ),
            length,
        )

    @property
    def snr_db(self) -> float:
        """Signal-to-noise ratio implied by the antenna fields."""
        return float(self.signal_dbm - self.noise_dbm)


def _clamp_dbm(value: int) -> int:
    return max(-128, min(127, int(value)))
