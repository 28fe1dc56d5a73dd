"""Capture codec micro-benchmark: the columnar codec vs the per-record oracles.

For each container (``.pcap``, ``.pcap.gz``, ``.snoop``, ``.snoop.gz``)
a realistic simulated capture is written twice — through the per-row
oracle (one ``encode_packet`` and one write per record piece, as the
per-row writers did) and through :func:`repro.pcap.write_trace`'s block
encoder — and read twice — record by record through
``_decode_record_scalar`` and through :func:`repro.pcap.read_trace`'s
vectorized decoder.  Writes must be byte-identical and reads
field-identical.

Exits non-zero, so CI can run it as a gate, on any mismatch; unless
the columnar path is at least 3x faster for plain-container writes and
for snoop reads and faster for every other case; or when a gzipped
container's columnar write costs more beyond the same container's plain
columnar write than GZIP_EXTRA_CEILING times what a level-6
``zlib.compressobj`` takes to deflate the plain file's bytes in the
same run (a ratio, so host speed cancels out)::

    python benchmarks/bench_capture_codec.py
    python benchmarks/bench_capture_codec.py --frames 50000 --repeats 5
"""

from __future__ import annotations

import argparse
import gzip
import sys
import tempfile
import time
import zlib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

import numpy as np  # noqa: E402

from repro.frames import TRACE_COLUMNS, Trace  # noqa: E402
from repro.pcap import read_trace, write_trace  # noqa: E402
from repro.sim import build_scenario  # noqa: E402
from tests.pcap.capture_oracle import (  # noqa: E402
    SUFFIXES,
    oracle_write,
    scalar_read,
)

#: Minimum speedups of the columnar path over the per-record oracle;
#: every other (op, container) must merely be faster.
GATES = {
    ("write", ".pcap"): 3.0,
    ("write", ".snoop"): 3.0,
    ("read", ".snoop"): 3.0,
}

#: Most a gzipped container's columnar write may cost beyond its plain
#: container's columnar write, as a multiple of a level-6 deflate of the
#: plain file's bytes.  Deflate is most of that extra cost: level-6
#: writers read 0.70-1.56x on a 2-vCPU host, level-9 writers 5.9-9.4x,
#: and the ceiling sits near the geometric middle of the two.
GZIP_EXTRA_CEILING = 3.0


def make_trace(min_frames: int) -> Trace:
    """Simulate until at least ``min_frames`` frames are captured."""
    traces = []
    total = 0
    seed = 7
    while total < min_frames:
        built = build_scenario(
            "uniform",
            n_stations=12,
            duration_s=8.0,
            seed=seed,
            rtscts_fraction=0.3,
        )
        trace = built.run().ground_truth
        traces.append(trace)
        total += len(trace)
        seed += 1
    return Trace.concatenate(traces) if len(traces) > 1 else traces[0]


def write_oracle(trace: Trace, path: Path) -> None:
    with path.open("wb") as fp:
        oracle_write(fp, trace, path.name[path.name.index(".") :])


def read_scalar(path: Path) -> Trace:
    raw = path.read_bytes()
    if path.name.endswith(".gz"):
        raw = gzip.decompress(raw)
    batches, error = scalar_read(path, 1 << 30, raw=raw)
    if error is not None:
        raise error
    return batches[0]


def deflate_s(data: bytes, repeats: int) -> float:
    """Best time to gzip ``data`` at level 6 in one zlib stream."""

    def deflate():
        stream = zlib.compressobj(6, zlib.DEFLATED, 31)
        stream.compress(data)
        stream.flush()

    return best_of(deflate, repeats)[0]


def best_of(fn, repeats: int):
    best, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=40_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    trace = make_trace(args.frames)
    n = len(trace)
    print(f"capture: {n} frames")
    print(
        f"{'container':10s} {'op':5s} {'oracle us/f':>12s} "
        f"{'columnar us/f':>14s} {'speedup':>8s}"
    )
    failures = []
    columnar_write = {}
    with tempfile.TemporaryDirectory() as tmp:
        for suffix in SUFFIXES:
            oracle_path = Path(tmp) / f"oracle{suffix}"
            columnar_path = Path(tmp) / f"columnar{suffix}"
            oracle_write_s, _ = best_of(
                lambda: write_oracle(trace, oracle_path), args.repeats
            )
            columnar_write_s, _ = best_of(
                lambda: write_trace(trace, columnar_path), args.repeats
            )
            columnar_write[suffix] = columnar_write_s
            if oracle_path.read_bytes() != columnar_path.read_bytes():
                failures.append(f"{suffix}: written bytes differ")
            scalar_read_s, scalar_trace = best_of(
                lambda: read_scalar(columnar_path), args.repeats
            )
            columnar_read_s, columnar_trace = best_of(
                lambda: read_trace(columnar_path), args.repeats
            )
            for name in TRACE_COLUMNS:
                a, b = scalar_trace.column(name), columnar_trace.column(name)
                if a.dtype != b.dtype or not np.array_equal(a, b):
                    failures.append(f"{suffix}: read column {name!r} differs")
            for op, oracle_s, columnar_s in (
                ("write", oracle_write_s, columnar_write_s),
                ("read", scalar_read_s, columnar_read_s),
            ):
                speedup = oracle_s / columnar_s
                print(
                    f"{suffix:10s} {op:5s} {oracle_s / n * 1e6:12.2f} "
                    f"{columnar_s / n * 1e6:14.2f} {speedup:7.1f}x"
                )
                floor = GATES.get((op, suffix))
                if speedup <= 1.0 or (floor and speedup < floor):
                    failures.append(
                        f"{suffix} {op}: {speedup:.2f}x, needs "
                        + (f">= {floor:g}x" if floor else "> 1x")
                    )
        for suffix, write_s in columnar_write.items():
            if suffix.endswith(".gz"):
                plain = suffix.removesuffix(".gz")
                extra = write_s - columnar_write[plain]
                deflate = deflate_s(
                    (Path(tmp) / f"columnar{plain}").read_bytes(), args.repeats
                )
                ratio = extra / deflate
                print(
                    f"{suffix:10s} write costs {extra / n * 1e6:.2f} us/f beyond "
                    f"the plain write, {ratio:.2f}x a level-6 deflate of the "
                    f"plain bytes ({deflate / n * 1e6:.2f} us/f)"
                )
                if ratio > GZIP_EXTRA_CEILING:
                    failures.append(
                        f"{suffix} write: {ratio:.2f}x a level-6 deflate beyond "
                        f"the plain write, needs <= {GZIP_EXTRA_CEILING:g}x"
                    )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print("writes byte-identical, reads field-identical, gates met")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
