"""run_batch fault capture: one bad capture never aborts the batch.

The campaign's failure contract at the analysis layer — a failed file
becomes a :class:`~repro.jobs.JobError` record (name, source, error
type, message, traceback) keyed like any report, and every healthy
capture still returns its numbers.
"""

import pytest

from repro.core import CongestionReport
from repro.frames import Trace
from repro.pcap import write_trace
from repro.jobs import JobError
from repro.pipeline import run_batch

from ..conftest import ack, data


@pytest.fixture
def pcap_pair(tmp_path):
    """One clean pcap and one truncated mid-record."""
    rows = [
        data(1_000, src=10, dst=1, seq=0),
        ack(2_400, src=1, dst=10),
        data(11_000, src=10, dst=1, seq=1),
        ack(12_400, src=1, dst=10),
    ]
    good = tmp_path / "good.pcap"
    write_trace(Trace.from_rows(rows), good)
    raw = good.read_bytes()
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(raw[: len(raw) - 7])
    return good, bad


def test_failure_captured_others_succeed(pcap_pair):
    good, bad = pcap_pair
    results = run_batch({"good": good, "bad": bad}, max_workers=1)
    assert isinstance(results["good"], CongestionReport)
    assert results["good"].summary.n_frames == 4
    failure = results["bad"]
    assert isinstance(failure, JobError)
    assert failure.name == "bad"
    assert failure.error_type == "TruncatedPcapError"
    assert "truncated" in failure.error
    assert "TruncatedPcapError" in failure.traceback


def test_failure_records_preserve_order(pcap_pair):
    good, bad = pcap_pair
    results = run_batch([("bad", bad), ("good", good)], max_workers=1)
    assert list(results) == ["bad", "good"]


def test_capture_in_parallel_pool(pcap_pair):
    """Failure records pickle across the process pool."""
    good, bad = pcap_pair
    results = run_batch({"good": good, "bad": bad}, max_workers=2)
    assert isinstance(results["good"], CongestionReport)
    assert isinstance(results["bad"], JobError)
    assert results["bad"].error_type == "TruncatedPcapError"


def test_missing_file_is_captured_too(tmp_path, pcap_pair):
    good, _ = pcap_pair
    results = run_batch(
        {"good": good, "ghost": tmp_path / "nope.pcap"}, max_workers=1
    )
    assert isinstance(results["good"], CongestionReport)
    assert results["ghost"].error_type == "FileNotFoundError"


def test_failed_analysis_source_is_recorded(pcap_pair):
    _, bad = pcap_pair
    results = run_batch({"bad": bad}, max_workers=1)
    assert results["bad"].source == str(bad)


@pytest.mark.skipif(
    __import__("multiprocessing").get_start_method() != "fork",
    reason="the patched run_all reaches pool workers via fork",
)
def test_killed_pool_worker_fails_its_capture_only(pcap_pair, monkeypatch):
    """A SIGKILLed worker breaks the pool: every name still comes back,
    and the killed capture is a BrokenProcessPool failure record."""
    import os
    import signal

    import repro.pipeline.executor as executor

    good, _ = pcap_pair
    real_run_all = executor.run_all

    def run_all(source, *, name, **kwargs):
        if name == "victim":
            os.kill(os.getpid(), signal.SIGKILL)
        return real_run_all(source, name=name, **kwargs)

    monkeypatch.setattr(executor, "run_all", run_all)
    results = run_batch({"a": good, "victim": good, "b": good}, max_workers=2)
    assert list(results) == ["a", "victim", "b"]
    assert isinstance(results["victim"], JobError)
    assert results["victim"].error_type == "BrokenProcessPool"
    assert all(
        isinstance(r, (CongestionReport, JobError))
        for r in results.values()
    )
