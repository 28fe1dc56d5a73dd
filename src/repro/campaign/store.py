"""Content-addressed, crash-safe on-disk store for campaign cells.

A campaign is only "production-scale" if interrupting it costs nothing:
every finished cell must survive a worker crash, a Ctrl-C at cell 199
of 200, or a power cut, and re-invoking the campaign must redo *only*
the missing work.  The :class:`CampaignStore` provides that guarantee:

* **Content-addressed keys.**  Each cell is keyed by a SHA-256 over
  (scenario name, the cell's parameters, the *resolved*
  :class:`~repro.sim.scenarios.ScenarioConfig` the scenario library
  would run with, the seed, and a code-version salt).  Two cells with
  the same key would simulate the same frames, so a stored result is a
  safe substitute for re-running; anything that changes the simulation
  — a parameter, a seed, a library default, the simulator source —
  changes the key and transparently invalidates the entry.
* **Failure records.**  A cell that raises is persisted from its
  :class:`~repro.jobs.JobError` (exception type, message, traceback)
  in a ``.fail.json`` sidecar; the campaign completes, reports the
  failure, and a ``--retry-failed`` pass re-runs exactly those cells.
  A result always outranks a failure for the same key.

Layout, atomic writes, corruption quarantine, the report sidecar and
the code-version salt are the shared :mod:`repro.store` disciplines.  A
damaged record is renamed ``<key>.json.corrupt``, counted in
:attr:`CampaignStore.quarantined` and recomputed as a plain miss;
campaign summaries and ``campaign-status`` surface the count so
corruption is investigated, not papered over.  Set ``salt=`` (or the
``REPRO_CAMPAIGN_SALT`` environment variable) to pin the salt across
code changes you know are behaviour-preserving.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from ..jobs import JobError
from ..store import (
    BLOB_SUFFIX,
    FORMAT,
    RECORD_SUFFIX,
    RecordStore,
    canonical,
    canonical_key,
    code_version_salt,
    write_atomic,
)
from .grid import CampaignCell

if TYPE_CHECKING:  # pragma: no cover
    from .runner import CellResult

__all__ = [
    "CampaignStore",
    "StoreStatus",
    "cell_key",
]

_FAILURE_SUFFIX = ".fail.json"


def cell_key(cell: CampaignCell, salt: str) -> str:
    """Content hash identifying ``cell``'s simulation work.

    The key covers the scenario *name*, the cell parameters, the fully
    resolved scenario config those parameters produce, the seed and the
    code-version ``salt``.  Cells whose parameters do not resolve to a
    valid config (the cell will fail when run) are keyed by name and
    parameters alone, so their failure records are still addressable.
    """
    payload: dict[str, object] = {
        "scenario": cell.scenario,
        "params": canonical(dict(cell.params)),
        "seed": canonical(cell.seed),
        "salt": salt,
    }
    if cell.fidelity is not None:
        # Added only when set, so default-engine cells keep the keys
        # their results were stored under before fidelity existed.
        payload["fidelity"] = cell.fidelity
    try:
        from ..sim import scenario_config

        payload["config"] = canonical(scenario_config(cell.scenario, **cell.kwargs))
    except Exception as error:
        payload["config_error"] = f"{type(error).__name__}: {error}"
    return canonical_key(payload)


# -- records ---------------------------------------------------------------


@dataclass(frozen=True)
class StoreStatus:
    """Cells of a grid partitioned by what the store holds, by index."""

    keys: list[str]  # every cell's content key
    done: dict[int, "CellResult"]  # stored results
    failed: dict[int, JobError]  # recorded failures a resume keeps
    pending: list[int]  # still to run

    @property
    def counts(self) -> dict[str, int]:
        return {
            "done": len(self.done),
            "pending": len(self.pending),
            "failed": len(self.failed),
        }


def _json_safe(value):
    """Cell parameter values for the on-disk record (display/rebuild)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    return repr(value)


def _cell_payload(cell: CampaignCell) -> dict[str, object]:
    payload = {
        "scenario": cell.scenario,
        "params": [[k, _json_safe(v)] for k, v in cell.params],
        "seed": _json_safe(cell.seed),
        "name": cell.name,
    }
    if cell.fidelity is not None:
        payload["fidelity"] = cell.fidelity
    return payload


#: CellResult fields persisted to JSON (everything except ``cell`` and
#: the optional ``report``, which goes to a compressed sidecar).
_RESULT_FIELDS = (
    "n_frames",
    "frames_transmitted",
    "offered_packets",
    "duration_s",
    "delivery_ratio",
    "capture_ratio",
    "mode_utilization",
    "peak_throughput_mbps",
    "peak_throughput_utilization",
    "high_congestion_fraction",
    "unrecorded_percent",
    "elapsed_s",
    "events_processed",
    "events_cancelled",
)


def cell_result(
    cell: CampaignCell, record: object, report: object = None
) -> "CellResult | None":
    """The :class:`CellResult` a ``result`` record holds for ``cell``.

    ``None`` when the record lacks a numeric field: a store read treats
    that as a miss (recompute), the coordinator as a malformed report.
    """
    from .runner import CellResult

    numbers = record.get("result") if isinstance(record, Mapping) else None
    if not isinstance(numbers, Mapping) or not all(
        isinstance(numbers.get(f), (int, float)) for f in _RESULT_FIELDS
    ):
        return None
    return CellResult(
        cell=cell, report=report, **{f: numbers[f] for f in _RESULT_FIELDS}
    )


class CampaignStore:
    """On-disk map: content key → finished cell result (or failure).

    A :class:`~repro.store.RecordStore` holding ``result`` records at
    ``ab/<key>.json``, ``failure`` records at ``ab/<key>.fail.json`` and
    optional report sidecars; readers either see a complete record or
    none at all.
    """

    #: Record kinds a campaign store (or a worker's shard) holds.
    KINDS = ("result", "failure")

    def __init__(self, root: str | os.PathLike, *, salt: str | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.salt = salt if salt is not None else code_version_salt()
        self._records = RecordStore(self.root, self.KINDS)
        meta_path = self.root / "store-meta.json"
        if not meta_path.exists():
            meta = {"format": FORMAT, "salt": self.salt}
            write_atomic(meta_path, json.dumps(meta, indent=1, sort_keys=True).encode())

    @property
    def quarantined(self) -> int:
        """Corrupt records renamed to ``*.corrupt`` by this instance."""
        return self._records.quarantined

    # -- paths ------------------------------------------------------------

    def key_for(self, cell: CampaignCell) -> str:
        return cell_key(cell, self.salt)

    def result_path(self, key: str) -> Path:
        return self._records.path(key)

    def failure_path(self, key: str) -> Path:
        return self._records.path(key, _FAILURE_SUFFIX)

    def report_path(self, key: str) -> Path:
        return self._records.path(key, BLOB_SUFFIX)

    # -- writing ----------------------------------------------------------

    def result_payload(self, result: "CellResult", key: str) -> dict:
        """The on-disk JSON record for a finished cell (pure).

        Factored out of :meth:`put` because the distributed dispatch
        protocol ships exactly this dict over the wire: the bytes a
        worker writes into its shard are the bytes the coordinator
        writes into the main store, which is what makes the final shard
        merge a checkable no-op.
        """
        return {
            "kind": "result",
            "key": key,
            "salt": self.salt,
            "cell": _cell_payload(result.cell),
            "result": {f: getattr(result, f) for f in _RESULT_FIELDS},
            "has_report": result.report is not None,
        }

    def failure_payload(self, failed: JobError, key: str) -> dict:
        """The on-disk JSON record for a failed cell (pure);
        ``failed.source`` is the cell."""
        return {
            "kind": "failure",
            "key": key,
            "salt": self.salt,
            "cell": _cell_payload(failed.source),
            "error": {
                "type": failed.error_type,
                "message": failed.error,
                "traceback": failed.traceback,
            },
            "elapsed_s": failed.elapsed_s,
        }

    def put_record(self, payload: Mapping) -> Path:
        """Persist a raw record dict (e.g. one received over the wire).

        Every write goes through here, so one rule decides precedence:
        a result clears any failure record for its key; a failure never
        overwrites an existing result (a completed cell outranks any
        later report of trouble).
        """
        kind = payload.get("kind")
        key = payload.get("key")
        if kind not in self.KINDS or not isinstance(key, str) or not key:
            raise ValueError(f"not a store record: kind={kind!r} key={key!r}")
        if kind == "result":
            path = self._records.put(key, payload)
            self._records.discard(key, [_FAILURE_SUFFIX])
            return path
        if self.result_path(key).exists():
            return self.failure_path(key)
        return self._records.put(key, payload, _FAILURE_SUFFIX)

    def put(self, result: "CellResult", *, key: str | None = None) -> Path:
        """Persist a finished cell atomically; clears any failure record."""
        key = key or self.key_for(result.cell)
        if result.report is not None:
            self._records.put_blob(key, result.report)
        return self.put_record(self.result_payload(result, key))

    def put_failure(self, failed: JobError, *, key: str | None = None) -> Path:
        """Persist a failure record (never overwrites a success)."""
        key = key or self.key_for(failed.source)
        return self.put_record(self.failure_payload(failed, key))

    # -- reading ----------------------------------------------------------

    def result_record(self, key: str) -> dict | None:
        """The raw result record stored under ``key``, or ``None``."""
        record = self._records.get(key)
        if record is None or record["kind"] != "result":
            return None
        return record

    def get(
        self,
        cell: CampaignCell,
        *,
        key: str | None = None,
        with_report: bool = False,
    ) -> "CellResult | None":
        """Stored :class:`CellResult` for ``cell``, or ``None`` on miss.

        The returned result carries the *live* ``cell`` object (not the
        JSON reconstruction), so resumed campaigns aggregate exactly
        like fresh ones.
        """
        key = key or self.key_for(cell)
        payload = self.result_record(key)
        if payload is None:
            return None
        report = None
        if with_report:
            # A record persisted without a report (or whose sidecar was
            # lost) cannot satisfy a keep_reports request: miss, so the
            # cell is recomputed with its report this time.
            if not payload.get("has_report"):
                return None
            report = self._records.get_blob(key)
            if report is None:
                return None
        return cell_result(cell, payload, report)

    def get_failure(
        self, cell: CampaignCell, *, key: str | None = None
    ) -> JobError | None:
        """Stored failure record for ``cell``, or ``None``."""
        key = key or self.key_for(cell)
        payload = self._records.get(key, _FAILURE_SUFFIX)
        if payload is None or payload["kind"] != "failure":
            return None
        error = payload.get("error", {})
        return JobError(
            error_type=str(error.get("type", "Exception")),
            error=str(error.get("message", "")),
            traceback=str(error.get("traceback", "")),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            name=cell.name,
            source=cell,
        )

    def __contains__(self, cell: CampaignCell) -> bool:
        return self.result_path(self.key_for(cell)).exists()

    def discard(self, cell: CampaignCell) -> bool:
        """Remove any records for ``cell``; True if something was removed."""
        return self._records.discard(
            self.key_for(cell), [RECORD_SUFFIX, _FAILURE_SUFFIX, BLOB_SUFFIX]
        )

    # -- inventory --------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """Every readable record in the store (results and failures).

        Corrupt record files encountered during the walk are quarantined
        (renamed ``*.corrupt``, counted in :attr:`quarantined`) rather
        than silently skipped.
        """
        for _, record in self._records.walk():
            yield record

    def __len__(self) -> int:
        return sum(1 for r in self.records() if r["kind"] == "result")

    def partition(
        self,
        cells: Sequence[CampaignCell],
        *,
        retry_failed: bool = False,
        with_report: bool = False,
    ) -> StoreStatus:
        """The one resume rule: which of ``cells`` the store answers.

        A stored result is done, a recorded failure stays failed unless
        ``retry_failed``, and the rest is pending.  "Done" means the
        record parses (and has its report, ``with_report``): a corrupt
        record is quarantined and its cell is pending.
        """
        keys = [self.key_for(cell) for cell in cells]
        done: dict[int, "CellResult"] = {}
        failed: dict[int, JobError] = {}
        pending: list[int] = []
        for index, (cell, key) in enumerate(zip(cells, keys)):
            result = self.get(cell, key=key, with_report=with_report)
            if result is not None:
                done[index] = result
                continue
            failure = None if retry_failed else self.get_failure(cell, key=key)
            if failure is not None:
                failed[index] = failure
            else:
                pending.append(index)
        return StoreStatus(keys=keys, done=done, failed=failed, pending=pending)
