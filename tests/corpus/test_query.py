"""Query grammar and matching — records in, booleans out, no files.

Every test here operates on hand-built :class:`CaptureRecord` values;
nothing touches a capture file, by construction.
"""

import pytest

from repro.corpus import CaptureRecord, CorpusError, filter_records, parse_query

HOUR_US = 3_600 * 1_000_000


def record(
    path="a.pcap",
    channels=(6,),
    n_frames=100,
    start=13 * HOUR_US,
    end=13 * HOUR_US + 60_000_000,
    file_format="pcap",
    compressed=False,
    status="ok",
    duplicate_paths=(),
):
    return CaptureRecord(
        content_hash=f"hash-{path}",
        path=path,
        file_format=file_format,
        compressed=compressed,
        byte_size=1_000,
        mtime_ns=0,
        n_frames=n_frames,
        time_start_us=start,
        time_end_us=end,
        channels=tuple(channels),
        frames_per_channel={str(c): n_frames for c in channels},
        status=status,
        duplicate_paths=tuple(duplicate_paths),
    )


def matches(where, rec):
    return parse_query(where).matches(rec)


class TestClauses:
    def test_empty_query_matches_everything(self):
        assert matches(None, record())
        assert matches("", record())
        assert matches("   ", record())

    def test_channel_membership(self):
        multi = record(channels=(1, 6))
        assert matches("channel=6", multi)
        assert not matches("channel=11", multi)
        assert matches("channel=11,6", multi)  # any-member semantics
        assert matches("channel!=11", multi)
        assert not matches("channel!=6", multi)

    def test_frames_comparisons_and_suffixes(self):
        rec = record(n_frames=12_000)
        assert matches("frames>10k", rec)
        assert matches("frames>=12000", rec)
        assert matches("frames<0.1M", rec)
        assert not matches("frames<10k", rec)
        assert matches("frames!=1", rec)

    def test_format_compression_agnostic_unless_explicit(self):
        gz = record(file_format="pcap", compressed=True)
        assert matches("format=pcap", gz)
        assert matches("format=pcap.gz", gz)
        assert not matches("format=snoop", gz)
        plain = record(file_format="pcap", compressed=False)
        assert not matches("format=pcap.gz", plain)

    def test_status(self):
        assert matches("status=ok", record())
        assert matches("status!=truncated", record())
        assert not matches("status=truncated", record())

    def test_path_glob_covers_duplicates(self):
        rec = record(path="day1/a.pcap", duplicate_paths=("mirror/a.pcap",))
        assert matches("path=day1/*", rec)
        assert matches("path=mirror/*", rec)
        assert not matches("path=day2/*", rec)
        assert matches("path!=day2/*", rec)

    def test_start_end_absolute(self):
        rec = record(start=10_000_000, end=20_000_000)
        assert matches("start>=10s", rec)
        assert matches("end<=20s", rec)
        assert matches("start>9999999", rec)
        assert not matches("end>20s", rec)

    def test_clauses_and_together(self):
        rec = record(channels=(6,), n_frames=50)
        assert matches("channel=6 frames>10", rec)
        assert not matches("channel=6 frames>100", rec)

    def test_trailing_commas_tolerated(self):
        assert matches("channel=6, frames>10,", record(n_frames=50))


class TestOverlaps:
    def test_time_of_day_window(self):
        rec = record(start=13 * HOUR_US, end=13 * HOUR_US + HOUR_US // 2)
        assert matches("overlaps=13:00-14:00", rec)
        assert matches("overlaps=13:15-13:20", rec)
        assert not matches("overlaps=14:00-15:00", rec)
        # The en dash the paper's prose uses works too.
        assert matches("overlaps=13:00–14:00", rec)

    def test_time_of_day_ignores_the_date(self):
        # Day 3 of the capture, same wall-clock hour.
        rec = record(
            start=3 * 24 * HOUR_US + 13 * HOUR_US,
            end=3 * 24 * HOUR_US + 13 * HOUR_US + HOUR_US // 4,
        )
        assert matches("overlaps=13:00-14:00", rec)

    def test_window_crossing_midnight(self):
        late = record(start=int(23.5 * HOUR_US), end=int(23.75 * HOUR_US))
        early = record(start=HOUR_US // 2, end=HOUR_US)
        midday = record(start=12 * HOUR_US, end=13 * HOUR_US)
        assert matches("overlaps=23:00-01:00", late)
        assert matches("overlaps=23:00-01:00", early)
        assert not matches("overlaps=23:00-01:00", midday)

    def test_capture_span_crossing_midnight(self):
        rec = record(start=int(23.5 * HOUR_US), end=int(24.5 * HOUR_US))
        assert matches("overlaps=00:00-01:00", rec)
        assert matches("overlaps=23:00-23:45", rec)
        assert not matches("overlaps=02:00-03:00", rec)

    def test_absolute_window(self):
        rec = record(start=10_000_000, end=20_000_000)
        assert matches("overlaps=15s-30s", rec)
        assert matches("overlaps=0-10000000", rec)  # touching endpoint
        assert not matches("overlaps=21s-30s", rec)

    def test_unreadable_record_never_overlaps(self):
        rec = record(start=None, end=None, status="unreadable")
        assert not matches("overlaps=13:00-14:00", rec)


class TestErrors:
    def test_unknown_key_suggests(self):
        with pytest.raises(CorpusError, match="chanel"):
            parse_query("chanel=6")
        with pytest.raises(CorpusError, match="channel"):
            parse_query("chanel=6")  # did-you-mean names the fix

    def test_malformed_clause(self):
        with pytest.raises(CorpusError, match="malformed"):
            parse_query("justaword")

    def test_missing_value(self):
        with pytest.raises(CorpusError, match="no value"):
            parse_query("channel=")

    def test_wrong_operator_for_key(self):
        with pytest.raises(CorpusError, match="not valid"):
            parse_query("channel>6")

    def test_bad_format_value_suggests(self):
        with pytest.raises(CorpusError, match="snoop"):
            parse_query("format=snop")

    def test_bad_window(self):
        with pytest.raises(CorpusError, match="window"):
            parse_query("overlaps=13:00")
        with pytest.raises(CorpusError, match="mixes"):
            parse_query("overlaps=13:00-500")

    def test_reversed_absolute_window_rejected_when_parsed(self):
        # Not only when a record with timestamps is matched: a catalog
        # of empty captures must not let the bad window through.
        with pytest.raises(CorpusError, match="empty window: 200-100"):
            parse_query("overlaps=200-100")
        with pytest.raises(CorpusError, match="empty window"):
            parse_query("overlaps=20s-10s")

    def test_bad_time_of_day(self):
        with pytest.raises(CorpusError, match="time of day"):
            parse_query("overlaps=25:00-26:00")


def test_filter_records_sorts_by_path():
    records = {
        "h2": record(path="b.pcap", channels=(6,)),
        "h1": record(path="a.pcap", channels=(6,)),
        "h3": record(path="c.pcap", channels=(1,)),
    }
    out = filter_records(records, "channel=6")
    assert [r.path for r in out] == ["a.pcap", "b.pcap"]
    assert len(filter_records(records.values(), None)) == 3
