"""Corpus fixtures: small multi-format capture trees built on disk."""

from __future__ import annotations

import gzip
import zlib

import pytest

from repro.frames import Trace
from repro.pcap import write_trace

from ..conftest import ack, data

HOUR_US = 3_600 * 1_000_000


def burst_rows(channel, t0_us, n_pairs=10):
    """``n_pairs`` DATA/ACK exchanges on one channel starting at ``t0_us``."""
    rows = []
    t = t0_us
    for i in range(n_pairs):
        rows.append(data(t, src=10, dst=1, seq=i, channel=channel))
        rows.append(ack(t + 1_400, src=1, dst=10, channel=channel))
        t += 10_000
    return rows


def burst_trace(channel, t0_us, n_pairs=10):
    return Trace.from_rows(burst_rows(channel, t0_us, n_pairs))


def write_capture(path, channel=1, t0_us=HOUR_US, n_pairs=10):
    """Write one burst capture; format picked by ``path`` suffix."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_trace(burst_trace(channel, t0_us, n_pairs), path)
    return path


def corrupt_deflate(path):
    """Rewrite a gzipped capture so its deflate stream turns invalid
    midway: the first half of the capture compresses cleanly, then
    comes a block of the reserved type 3, which zlib rejects with
    ``zlib.error``."""
    plain = gzip.decompress(path.read_bytes())
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = deflate.compress(plain[: len(plain) // 2])
    body += deflate.flush(zlib.Z_FULL_FLUSH)  # next block byte-aligned
    gzip_header = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xff"
    path.write_bytes(gzip_header + body + b"\x06" + bytes(16))
    return path


@pytest.fixture
def corrupt_gzip_dir(tmp_path):
    """A good capture beside a zlib-corrupt ``.pcap.gz`` and ``.snoop.gz``."""
    root = tmp_path / "corpus"
    write_capture(root / "good.pcap", channel=6)
    corrupt_deflate(write_capture(root / "bad.pcap.gz", n_pairs=200))
    corrupt_deflate(write_capture(root / "bad.snoop.gz", n_pairs=200))
    return root


@pytest.fixture
def corpus_dir(tmp_path):
    """A three-capture corpus spanning formats, channels and hours.

    ======================  =======  ==========  ========
    path                    channel  starts at   format
    ======================  =======  ==========  ========
    ``day1/morning.pcap``   6        13:00       pcap
    ``day1/night.snoop``    1        02:00       snoop
    ``late.pcap.gz``        11       13:30       pcap.gz
    ======================  =======  ==========  ========
    """
    root = tmp_path / "corpus"
    write_capture(root / "day1" / "morning.pcap", channel=6, t0_us=13 * HOUR_US)
    write_capture(root / "day1" / "night.snoop", channel=1, t0_us=2 * HOUR_US)
    write_capture(
        root / "late.pcap.gz", channel=11, t0_us=13 * HOUR_US + HOUR_US // 2
    )
    return root
