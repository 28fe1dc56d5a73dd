"""The capture codec stands alone: ``repro.pcap`` loads no other layer.

Which container a file is — pcap or snoop, plain or gzipped — is
decided inside :mod:`repro.pcap`, so writing, reading and sniffing any
of the four containers must not import a module above it (the corpus
catalog, the analysis core, the store).  The check runs in a fresh
interpreter, so modules other tests imported cannot hide a lazy import.
"""

import os
import subprocess
import sys

CODE = """\
import sys
from pathlib import Path

from repro import pcap
from repro.frames import FrameRow, FrameType, Trace

before = {name for name in sys.modules if name.split(".")[0] == "repro"}
trace = Trace.from_rows(
    [
        FrameRow(time_us=1_000 * i, ftype=FrameType.DATA, rate_mbps=11.0,
                 size=500, src=2, dst=1, seq=i, channel=6, snr_db=20.0)
        for i in range(5)
    ]
)
for suffix in (".pcap", ".pcap.gz", ".snoop", ".snoop.gz"):
    path = Path(sys.argv[1]) / f"capture{suffix}"
    pcap.write_trace(trace, path)
    assert pcap.read_trace(path) == trace, suffix
    expected = (suffix.split(".")[1], suffix.endswith(".gz"))
    assert pcap.detect_format(path) == expected, suffix
print(*sorted(
    name for name in sys.modules
    if name.split(".")[0] == "repro" and name not in before
))
"""


def test_codec_loads_no_module_above_it(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", CODE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []
