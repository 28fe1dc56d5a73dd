"""IEEE 802.11 frame taxonomy used throughout the reproduction.

The paper's analysis only distinguishes a handful of frame kinds:
DATA, ACK, RTS, CTS, BEACON and "other management".  We model them with a
compact integer enum so that traces can be stored in numpy arrays, while
still carrying the (type, subtype) pair needed to serialize real 802.11
MAC headers in :mod:`repro.pcap`.
"""

from __future__ import annotations

import enum

__all__ = [
    "FrameType",
    "DOT11_RATES_MBPS",
    "CHANNEL_FREQ_MHZ",
    "RATE_CODES",
    "rate_to_code",
    "code_to_rate",
    "MAC_HEADER_BYTES",
    "ACK_FRAME_BYTES",
    "RTS_FRAME_BYTES",
    "CTS_FRAME_BYTES",
    "BEACON_BODY_BYTES",
    "ASSOC_FRAME_BYTES",
    "is_control",
    "is_management",
    "is_data",
    "BROADCAST",
    "NO_NODE",
]

#: Pseudo node id meaning "broadcast destination".
BROADCAST = 0xFFFF

#: Pseudo node id meaning "no node" (e.g. CTS frames carry only an RA).
NO_NODE = 0xFFFE


class FrameType(enum.IntEnum):
    """Frame kinds distinguished by the paper's trace analysis.

    Values are stable and compact so they can live in ``uint8`` columns.
    """

    DATA = 0
    ACK = 1
    RTS = 2
    CTS = 3
    BEACON = 4
    MGMT = 5  # association, probe, auth... lumped together like the paper

    @property
    def dot11_type_subtype(self) -> tuple[int, int]:
        """Return the (type, subtype) pair used in a real 802.11 header."""
        return _TYPE_SUBTYPE[self]


_TYPE_SUBTYPE = {
    FrameType.DATA: (2, 0),
    FrameType.ACK: (1, 13),
    FrameType.RTS: (1, 11),
    FrameType.CTS: (1, 12),
    FrameType.BEACON: (0, 8),
    FrameType.MGMT: (0, 0),  # association request as representative subtype
}

_SUBTYPE_TO_FRAMETYPE = {v: k for k, v in _TYPE_SUBTYPE.items()}


def frame_type_from_dot11(ftype: int, subtype: int) -> FrameType:
    """Map a raw 802.11 (type, subtype) pair back onto :class:`FrameType`.

    Unknown management subtypes collapse to :data:`FrameType.MGMT` and
    unknown data subtypes to :data:`FrameType.DATA`, mirroring how the
    paper lumps frame kinds together.
    """
    exact = _SUBTYPE_TO_FRAMETYPE.get((ftype, subtype))
    if exact is not None:
        return exact
    if ftype == 0:
        return FrameType.MGMT
    if ftype == 2:
        return FrameType.DATA
    raise ValueError(f"unsupported 802.11 type/subtype: {ftype}/{subtype}")


#: The four 802.11b data rates, in Mbps, in ascending order (paper §6).
DOT11_RATES_MBPS = (1.0, 2.0, 5.5, 11.0)

#: 2.4 GHz centre frequency of each 802.11b channel.
CHANNEL_FREQ_MHZ = {ch: 2407 + 5 * ch for ch in range(1, 14)}
CHANNEL_FREQ_MHZ[14] = 2484

#: Compact rate codes for columnar storage: index into DOT11_RATES_MBPS.
RATE_CODES = {rate: code for code, rate in enumerate(DOT11_RATES_MBPS)}


def rate_to_code(rate_mbps: float) -> int:
    """Return the compact storage code for an 802.11b ``rate_mbps``.

    Raises ``ValueError`` for rates outside the 802.11b set, because the
    paper's 16-category taxonomy is defined only over 1/2/5.5/11 Mbps.
    """
    try:
        return RATE_CODES[float(rate_mbps)]
    except KeyError:
        raise ValueError(
            f"{rate_mbps!r} is not an 802.11b rate {DOT11_RATES_MBPS}"
        ) from None


def code_to_rate(code: int) -> float:
    """Inverse of :func:`rate_to_code`."""
    return DOT11_RATES_MBPS[code]


# Frame size constants (bytes).  The 34-byte MAC overhead in the paper's
# D_DATA equation is the 802.11 data header (24) + FCS (4) + SNAP/LLC
# footprint they fold in; we keep their accounting.
MAC_HEADER_BYTES = 34
ACK_FRAME_BYTES = 14
RTS_FRAME_BYTES = 20
CTS_FRAME_BYTES = 14
BEACON_BODY_BYTES = 80  # representative beacon payload incl. IEs
ASSOC_FRAME_BYTES = 64  # (re)association management frame body


def is_control(ftype: FrameType) -> bool:
    """True for RTS/CTS/ACK control frames."""
    return ftype in (FrameType.ACK, FrameType.RTS, FrameType.CTS)


def is_management(ftype: FrameType) -> bool:
    """True for beacon and other management frames."""
    return ftype in (FrameType.BEACON, FrameType.MGMT)


def is_data(ftype: FrameType) -> bool:
    """True for data frames."""
    return ftype == FrameType.DATA
