"""Capture-format registry: content-sniffed container identification.

Same shape as the pipeline's consumer registry — each on-disk capture
container registers a descriptor under a unique name, and everything
else (the indexer, the CLI, path expansion) asks the registry instead
of hard-coding magic bytes or suffix lists.  Registering a third
container here is all it takes for the corpus to catalogue it.

Identification is by leading bytes, never by file name: a mislabelled
``.pcap`` that actually holds snoop indexes as snoop.  Gzip is treated
as a transparent wrapper, not a format — ``detect_format`` reports
``(name, compressed)`` after peeking through the gzip header.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path

from ..pcap.pcapio import _GZIP_ERRORS, _GZIP_MAGIC, _MAGIC, CaptureError

__all__ = [
    "CaptureFormat",
    "CAPTURE_FORMATS",
    "register_format",
    "capture_suffixes",
    "detect_format",
]

#: Leading bytes of a gzip member (RFC 1952).
GZIP_MAGIC = _GZIP_MAGIC


@dataclass(frozen=True)
class CaptureFormat:
    """One capture container the corpus can catalogue."""

    name: str
    suffix: str
    magic: bytes
    description: str


CAPTURE_FORMATS: dict[str, CaptureFormat] = {}


def register_format(fmt: CaptureFormat) -> CaptureFormat:
    if fmt.name in CAPTURE_FORMATS:
        raise ValueError(f"capture format {fmt.name!r} is already registered")
    CAPTURE_FORMATS[fmt.name] = fmt
    return fmt


register_format(
    CaptureFormat(
        name="pcap",
        suffix=".pcap",
        magic=_MAGIC.to_bytes(4, "little"),
        description="classic little-endian pcap, linktype radiotap",
    )
)
register_format(
    CaptureFormat(
        name="snoop",
        suffix=".snoop",
        magic=b"snoop\x00\x00\x00",
        description="RFC 1761 snoop, datalink radiotap (127)",
    )
)


def capture_suffixes() -> tuple[str, ...]:
    """Every suffix a capture file may carry, plain then gzipped."""
    plain = tuple(f.suffix for f in CAPTURE_FORMATS.values())
    return plain + tuple(s + ".gz" for s in plain)


def _sniff(head: bytes) -> str | None:
    for fmt in CAPTURE_FORMATS.values():
        if head.startswith(fmt.magic):
            return fmt.name
    return None


def detect_format(path: str | Path) -> tuple[str, bool]:
    """Identify ``path`` by content: ``(format name, compressed)``.

    Raises :class:`~repro.pcap.CaptureError` for anything no registered
    format claims, including unreadably corrupt gzip wrappers.
    """
    path = Path(path)
    with path.open("rb") as fp:
        head = fp.read(8)
    if head.startswith(GZIP_MAGIC):
        try:
            with gzip.open(path, "rb") as zp:
                inner = zp.read(8)
        except _GZIP_ERRORS as error:
            raise CaptureError(
                f"{path}: corrupt gzip stream "
                f"({type(error).__name__}: {error})",
                path=path,
            ) from error
        name = _sniff(inner)
        if name is None:
            raise CaptureError(
                f"{path}: gzipped data is not a recognised capture "
                f"format (known: {sorted(CAPTURE_FORMATS)})",
                path=path,
            )
        return name, True
    name = _sniff(head)
    if name is None:
        raise CaptureError(
            f"{path}: not a recognised capture format "
            f"(known: {sorted(CAPTURE_FORMATS)})",
            path=path,
        )
    return name, False
