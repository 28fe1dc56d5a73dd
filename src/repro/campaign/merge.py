"""Loss-free merge of campaign store shards.

Distributed workers write finished cells into their *own*
:class:`~repro.campaign.store.CampaignStore` shard (no write contention,
no partial-visibility races), and the coordinator folds the shards into
the main store.  Because every record is content-addressed — the key
already encodes scenario, parameters, resolved config, seed and code
salt — the merge is a **union**: a key present in one place only is
copied; a key present in both must describe the *same simulation*, so
the records are asserted identical (modulo per-run wall-clock fields)
and one copy is kept.  A mismatch is never papered over: it means two
stores claim different results for the same keyed work (code-version
skew past the salt, or corruption), and :class:`MergeConflictError`
names the key and both paths.

The merge is also the crash-recovery path: a coordinator restarting
over an interrupted campaign first merges whatever the shards hold, so
cells a worker finished — even if their completion report never reached
the old coordinator — are recovered, not recomputed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..store import BLOB_SUFFIX, RecordStore, write_atomic
from .store import CampaignStore

__all__ = [
    "MergeConflictError",
    "MergeReport",
    "merge_shard",
    "merge_shards",
    "shard_roots",
]

#: Record fields that legitimately differ between two computations of
#: the same cell (wall-clock measurements), excluded from the
#: bit-identity assertion.
VOLATILE_RESULT_FIELDS = ("elapsed_s",)


class MergeConflictError(RuntimeError):
    """Two stores hold *different* records under the same content key."""


@dataclass
class MergeReport:
    """What one merge pass did, per record kind."""

    results_merged: int = 0
    results_identical: int = 0
    failures_merged: int = 0
    failures_skipped: int = 0
    reports_merged: int = 0
    quarantined: int = 0
    shards: list[str] = field(default_factory=list)

    @property
    def merged(self) -> int:
        return self.results_merged + self.failures_merged

    def __iadd__(self, other: "MergeReport") -> "MergeReport":
        self.results_merged += other.results_merged
        self.results_identical += other.results_identical
        self.failures_merged += other.failures_merged
        self.failures_skipped += other.failures_skipped
        self.reports_merged += other.reports_merged
        self.quarantined += other.quarantined
        self.shards.extend(other.shards)
        return self


def _comparable(payload: dict) -> dict:
    """A record stripped of its per-run wall-clock fields, deep-copied."""
    data = json.loads(json.dumps(payload, sort_keys=True))
    result = data.get("result")
    if isinstance(result, dict):
        for name in VOLATILE_RESULT_FIELDS:
            result.pop(name, None)
    data.pop("elapsed_s", None)  # failure records carry it at top level
    return data


def merge_shard(target: CampaignStore, shard_root: str | os.PathLike) -> MergeReport:
    """Union one shard directory into ``target``; see module docstring.

    Raises :class:`MergeConflictError` if the shard and the target
    disagree about a key's result (compared minus
    :data:`VOLATILE_RESULT_FIELDS`).  Unreadable shard records are
    quarantined in place (``*.corrupt``) and counted, never trusted.
    """
    shard = RecordStore(shard_root, CampaignStore.KINDS)
    report = MergeReport(shards=[str(shard.root)])
    for path, payload in shard.walk():
        key = payload.get("key")
        if not isinstance(key, str) or not key:
            shard.quarantine(path)
            continue
        if payload["kind"] == "result":
            existing = target.result_record(key)
            if existing is None:
                target.put_record(payload)
                report.results_merged += 1
            elif _comparable(existing) != _comparable(payload):
                raise MergeConflictError(
                    f"store records disagree for key {key}: "
                    f"{target.result_path(key)} vs {path} — same content "
                    "key must mean the same simulation (code-version skew "
                    "or corruption)"
                )
            else:
                report.results_identical += 1
            blob = shard.path(key, BLOB_SUFFIX)
            if blob.exists() and not target.report_path(key).exists():
                write_atomic(target.report_path(key), blob.read_bytes())
                report.reports_merged += 1
        elif target.result_path(key).exists() or target.failure_path(key).exists():
            # A success outranks a failure record; between two failure
            # records the first one kept is as good as any.
            report.failures_skipped += 1
        else:
            target.put_record(payload)
            report.failures_merged += 1
    report.quarantined = shard.quarantined
    return report


def shard_roots(store_root: str | os.PathLike) -> list[Path]:
    """The worker shard directories under a campaign store."""
    shards_dir = Path(store_root) / "shards"
    if not shards_dir.is_dir():
        return []
    return sorted(p for p in shards_dir.iterdir() if p.is_dir())


def merge_shards(
    target: CampaignStore, shards: Sequence[str | os.PathLike] | Iterable
) -> MergeReport:
    """Union every shard into ``target``, accumulating one report."""
    total = MergeReport()
    for shard in shards:
        total += merge_shard(target, shard)
    return total
