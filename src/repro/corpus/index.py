"""Content-addressed capture catalog: one JSON record per capture.

The catalog lives under ``<root>/.repro-corpus/captures/`` as a
:class:`repro.store.RecordStore`: one small JSON file per record, keyed
by content hash, written atomically, and quarantined — never silently
deleted — when it no longer reads as a capture record.

A record holds everything the query layer needs so that predicates
("channel 6, >10k frames, overlapping 13:00–14:00") are answered from
the catalog alone, **without opening capture files**: frame count,
time span, per-channel frame counts, container format, byte size and
read status.  Damaged captures are catalogued too (status
``truncated``/``unreadable`` with the error text) so a corpus sweep
reports them instead of tripping over them.

Refresh is incremental: a capture whose path, byte size and mtime all
match its record is trusted without re-reading (``verify=True`` forces
re-hashing).  Because records are keyed by content, renaming a capture
is a metadata update, and byte-identical duplicates collapse into one
record carrying ``duplicate_paths``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ..pcap.pcapio import (
    TruncatedPcapError,
    detect_format,
    read_trace_batches,
)
from ..store import RecordStore
from .paths import CorpusError, iter_capture_files

__all__ = [
    "INDEX_DIRNAME",
    "CaptureRecord",
    "RefreshStats",
    "CorpusIndex",
]

#: Catalog directory name under the corpus root (dot-prefixed so the
#: capture walk never indexes the index).
INDEX_DIRNAME = ".repro-corpus"

_HASH_CHUNK = 1 << 20


@dataclass(frozen=True)
class CaptureRecord:
    """Everything the catalog knows about one capture's content."""

    content_hash: str
    path: str  # primary path, POSIX-style, relative to the corpus root
    file_format: str  # a repro.pcap.CAPTURE_FORMATS name, or "unknown"
    compressed: bool
    byte_size: int
    mtime_ns: int
    n_frames: int
    time_start_us: int | None
    time_end_us: int | None
    channels: tuple[int, ...]
    frames_per_channel: dict[str, int]
    status: str  # "ok" | "truncated" | "unreadable"
    error: str | None = None
    duplicate_paths: tuple[str, ...] = ()

    def to_payload(self) -> dict:
        payload = asdict(self)
        payload["channels"] = list(self.channels)
        payload["duplicate_paths"] = list(self.duplicate_paths)
        return {"kind": "capture", **payload}

    @classmethod
    def from_payload(cls, payload: dict) -> "CaptureRecord":
        """Rebuild a record, dropping keys older layouts carried."""
        names = set(cls.__dataclass_fields__)
        data = {k: v for k, v in payload.items() if k in names}
        data["channels"] = tuple(data.get("channels", ()))
        data["duplicate_paths"] = tuple(data.get("duplicate_paths", ()))
        return cls(**data)


@dataclass
class RefreshStats:
    """What one :meth:`CorpusIndex.refresh` pass did, and the catalog it
    left: ``records`` is what :meth:`CorpusIndex.records` would return
    right after, so a caller need not walk the catalog again."""

    scanned: int = 0  # capture files seen on disk
    hashed: int = 0  # files whose bytes were (re-)hashed
    added: int = 0  # new content hashes catalogued
    updated: int = 0  # records rewritten (moved/duplicated/changed stat)
    unchanged: int = 0
    removed: int = 0  # stale records dropped
    quarantined: int = 0  # corrupt record files set aside
    failed: int = 0  # captures catalogued as truncated/unreadable
    records: dict[str, CaptureRecord] = field(
        default_factory=dict, compare=False, repr=False
    )

    def summary(self) -> str:
        return (
            f"{self.scanned} scanned, {self.added} added, "
            f"{self.updated} updated, {self.unchanged} unchanged, "
            f"{self.removed} removed, {self.failed} failed, "
            f"{self.quarantined} quarantined"
        )


def _content_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fp:
        while True:
            block = fp.read(_HASH_CHUNK)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _scan_capture(path: Path) -> dict:
    """Read ``path`` once, accumulating the record's content fields."""
    try:
        file_format, compressed = detect_format(path)
    except ValueError as error:
        return {
            "file_format": "unknown",
            "compressed": False,
            "n_frames": 0,
            "time_start_us": None,
            "time_end_us": None,
            "channels": (),
            "frames_per_channel": {},
            "status": "unreadable",
            "error": str(error),
        }
    n_frames = 0
    t_min: int | None = None
    t_max: int | None = None
    per_channel: dict[int, int] = {}
    status, error = "ok", None
    try:
        for batch in read_trace_batches(path):
            if not len(batch):
                continue
            n_frames += len(batch)
            times = batch.column("time_us")
            lo, hi = int(times.min()), int(times.max())
            t_min = lo if t_min is None else min(t_min, lo)
            t_max = hi if t_max is None else max(t_max, hi)
            values, counts = np.unique(
                batch.column("channel"), return_counts=True
            )
            for value, count in zip(values, counts):
                per_channel[int(value)] = (
                    per_channel.get(int(value), 0) + int(count)
                )
    except TruncatedPcapError as err:
        status, error = "truncated", str(err)
    except ValueError as err:
        status, error = "unreadable", str(err)
    return {
        "file_format": file_format,
        "compressed": compressed,
        "n_frames": n_frames,
        "time_start_us": t_min,
        "time_end_us": t_max,
        "channels": tuple(sorted(per_channel)),
        "frames_per_channel": {
            str(ch): per_channel[ch] for ch in sorted(per_channel)
        },
        "status": status,
        "error": error,
    }


class CorpusIndex:
    """The on-disk capture catalog rooted at a corpus directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise CorpusError(f"corpus root is not a directory: {self.root}")
        self.index_dir = self.root / INDEX_DIRNAME / "captures"
        self._store = RecordStore(self.index_dir, kinds=("capture",))

    # -- reading -----------------------------------------------------------

    def records(self) -> dict[str, CaptureRecord]:
        """All records, keyed by content hash in hash order.  Never opens
        captures."""
        out: dict[str, CaptureRecord] = {}
        for _, payload in self._store.walk():
            record = CaptureRecord.from_payload(payload)
            out[record.content_hash] = record
        return out

    def get(self, content_hash: str) -> CaptureRecord | None:
        payload = self._store.get(content_hash)
        if payload is None:
            return None
        return CaptureRecord.from_payload(payload)

    # -- refreshing --------------------------------------------------------

    def refresh(self, verify: bool = False) -> RefreshStats:
        """Bring the catalog in line with the capture files on disk.

        ``verify=True`` re-hashes every file even when its path, size
        and mtime match the stored record (defence against in-place
        edits that preserve both).
        """
        stats = RefreshStats()
        quarantined_before = self._store.quarantined
        existing = self.records()
        by_path = {
            record.path: record for record in existing.values()
        }

        # hash -> (primary rel path, file, stat, duplicate rel paths);
        # iter_capture_files sorts, so the first path seen is primary.
        groups: dict[str, dict] = {}
        for file in iter_capture_files(self.root):
            stats.scanned += 1
            rel = file.relative_to(self.root).as_posix()
            stat = file.stat()
            prior = by_path.get(rel)
            if (
                prior is not None
                and not verify
                and prior.byte_size == stat.st_size
                and prior.mtime_ns == stat.st_mtime_ns
            ):
                content_hash = prior.content_hash
            else:
                content_hash = _content_hash(file)
                stats.hashed += 1
            group = groups.setdefault(
                content_hash,
                {"path": rel, "file": file, "stat": stat, "dups": []},
            )
            if rel != group["path"]:
                group["dups"].append(rel)

        catalog: dict[str, CaptureRecord] = {}
        for content_hash, group in groups.items():
            stat = group["stat"]
            prior = existing.get(content_hash)
            if prior is None:
                scan = _scan_capture(group["file"])
                record = CaptureRecord(
                    content_hash=content_hash,
                    path=group["path"],
                    byte_size=stat.st_size,
                    mtime_ns=stat.st_mtime_ns,
                    duplicate_paths=tuple(group["dups"]),
                    **scan,
                )
                stats.added += 1
                if record.status != "ok":
                    stats.failed += 1
                self._write(record)
                catalog[content_hash] = record
                continue
            # Same content: the scan fields are still valid by
            # construction; only location/stat metadata can drift.
            record = replace(
                prior,
                path=group["path"],
                byte_size=stat.st_size,
                mtime_ns=stat.st_mtime_ns,
                duplicate_paths=tuple(group["dups"]),
            )
            if record.status != "ok":
                stats.failed += 1
            if record == prior:
                stats.unchanged += 1
            else:
                stats.updated += 1
                self._write(record)
            catalog[content_hash] = record

        for content_hash in set(existing) - set(groups):
            if self._store.discard(content_hash):
                stats.removed += 1
        stats.quarantined = self._store.quarantined - quarantined_before
        # The store files a record under its hash, so a walk reads the
        # catalog in hash order.
        stats.records = {key: catalog[key] for key in sorted(catalog)}
        return stats

    def _write(self, record: CaptureRecord) -> None:
        self._store.put(record.content_hash, record.to_payload())
