"""Catalog behaviour: incremental refresh, content addressing, damage.

The index answers everything from JSON records — tests that assert
"without opening capture files" literally delete the captures and
query the catalog afterwards.
"""

import json
import os

import pytest

from repro.corpus import CorpusError, CorpusIndex
from repro.corpus.index import INDEX_DIRNAME

from .conftest import HOUR_US, write_capture


def test_refresh_catalogs_every_capture(corpus_dir):
    index = CorpusIndex(corpus_dir)
    stats = index.refresh()
    assert stats.scanned == 3
    assert stats.added == 3
    assert stats.hashed == 3
    assert stats.failed == 0
    records = index.records()
    assert len(records) == 3
    by_path = {r.path: r for r in records.values()}
    assert set(by_path) == {"day1/morning.pcap", "day1/night.snoop", "late.pcap.gz"}
    morning = by_path["day1/morning.pcap"]
    assert morning.status == "ok"
    assert morning.n_frames == 20
    assert morning.channels == (6,)
    assert morning.frames_per_channel == {"6": 20}
    assert morning.time_start_us == 13 * HOUR_US
    assert morning.file_format == "pcap" and not morning.compressed
    gz = by_path["late.pcap.gz"]
    assert gz.file_format == "pcap" and gz.compressed
    assert by_path["day1/night.snoop"].file_format == "snoop"


def test_second_refresh_is_a_fast_path(corpus_dir):
    index = CorpusIndex(corpus_dir)
    index.refresh()
    stats = index.refresh()
    assert stats.hashed == 0  # size+mtime trusted, nothing re-read
    assert stats.unchanged == 3
    assert stats.added == stats.updated == stats.removed == 0


def test_verify_rehashes_everything(corpus_dir):
    index = CorpusIndex(corpus_dir)
    index.refresh()
    stats = index.refresh(verify=True)
    assert stats.hashed == 3
    assert stats.unchanged == 3


def test_rename_is_a_metadata_update(corpus_dir):
    index = CorpusIndex(corpus_dir)
    index.refresh()
    hashes = set(index.records())
    (corpus_dir / "day1" / "morning.pcap").rename(corpus_dir / "renamed.pcap")
    stats = index.refresh()
    assert stats.updated == 1
    assert stats.added == stats.removed == 0
    assert set(index.records()) == hashes  # same content, same key
    by_path = {r.path: r for r in index.records().values()}
    assert "renamed.pcap" in by_path


def test_duplicates_collapse_into_one_record(corpus_dir):
    source = corpus_dir / "day1" / "morning.pcap"
    copy = corpus_dir / "day1" / "copy.pcap"
    copy.write_bytes(source.read_bytes())
    index = CorpusIndex(corpus_dir)
    index.refresh()
    records = index.records()
    assert len(records) == 3  # 4 files, 3 distinct contents
    dup = next(r for r in records.values() if r.duplicate_paths)
    # Sorted walk: copy.pcap sorts first and becomes the primary.
    assert dup.path == "day1/copy.pcap"
    assert dup.duplicate_paths == ("day1/morning.pcap",)


def test_deleted_capture_drops_its_record(corpus_dir):
    index = CorpusIndex(corpus_dir)
    index.refresh()
    (corpus_dir / "late.pcap.gz").unlink()
    stats = index.refresh()
    assert stats.removed == 1
    assert len(index.records()) == 2


def test_damaged_capture_is_catalogued_not_fatal(corpus_dir):
    raw = (corpus_dir / "day1" / "morning.pcap").read_bytes()
    (corpus_dir / "cut.pcap").write_bytes(raw[:-30])
    index = CorpusIndex(corpus_dir)
    stats = index.refresh()
    assert stats.failed == 1
    record = next(
        r for r in index.records().values() if r.path == "cut.pcap"
    )
    assert record.status == "truncated"
    assert record.error is not None
    assert record.n_frames == 19  # partial stats from the clean prefix


def test_zlib_corrupt_gzip_is_catalogued_not_fatal(corrupt_gzip_dir):
    """Corrupt deflate data (zlib.error, not EOFError/OSError) is damage
    like any other: typed, catalogued, and the refresh carries on."""
    index = CorpusIndex(corrupt_gzip_dir)
    stats = index.refresh()
    assert stats.failed == 2
    status = {r.path: r.status for r in index.records().values()}
    assert status == {
        "good.pcap": "ok",
        "bad.pcap.gz": "truncated",
        "bad.snoop.gz": "truncated",
    }
    for record in index.records().values():
        if record.status != "ok":
            assert "corrupt gzip stream" in record.error
            assert "decompressed byte offset" in record.error


def test_queries_answered_after_captures_deleted(corpus_dir):
    """Records are self-contained: the catalog outlives the captures."""
    index = CorpusIndex(corpus_dir)
    index.refresh()
    for record in index.records().values():
        (corpus_dir / record.path).unlink()
    fresh = CorpusIndex(corpus_dir)  # new instance, catalog only
    records = fresh.records()
    assert len(records) == 3
    assert {r.n_frames for r in records.values()} == {20}


def test_corrupt_record_quarantined(corpus_dir):
    index = CorpusIndex(corpus_dir)
    index.refresh()
    record_path = next(index.index_dir.glob("*/*.json"))
    record_path.write_text("{not json")
    records = index.records()
    assert len(records) == 2
    assert record_path.with_name(record_path.name + ".corrupt").exists()
    # The quarantined capture is re-catalogued on the next refresh.
    stats = index.refresh()
    assert stats.added == 1
    assert len(index.records()) == 3


def test_index_dir_not_walked_as_captures(corpus_dir):
    index = CorpusIndex(corpus_dir)
    index.refresh()
    # Drop a capture-suffixed file inside the catalog directory.
    decoy = corpus_dir / INDEX_DIRNAME / "decoy.pcap"
    decoy.parent.mkdir(parents=True, exist_ok=True)
    decoy.write_bytes(b"junk")
    stats = index.refresh()
    assert stats.scanned == 3


def test_missing_root_rejected(tmp_path):
    with pytest.raises(CorpusError, match="not a directory"):
        CorpusIndex(tmp_path / "nope")


def test_record_payload_is_plain_json(corpus_dir):
    index = CorpusIndex(corpus_dir)
    index.refresh()
    path = next(index.index_dir.glob("*/*.json"))
    payload = json.loads(path.read_text())
    assert payload["kind"] == "capture"
    assert payload["format"] == 1
    assert payload["content_hash"] == path.stem


def test_touched_file_rehashes_but_stays_unchanged(corpus_dir):
    index = CorpusIndex(corpus_dir)
    index.refresh()
    target = corpus_dir / "day1" / "morning.pcap"
    os.utime(target, ns=(1, 1))  # new mtime, same bytes
    stats = index.refresh()
    assert stats.hashed == 1
    assert stats.updated == 1  # mtime metadata rewritten
    assert len(index.records()) == 3
