"""Catalog queries: predicate strings answered from records alone.

A query is whitespace-separated ``key<op>value`` clauses, implicitly
AND-ed, evaluated against :class:`~repro.corpus.index.CaptureRecord`
fields — never against capture files.  Trailing commas on clauses are
ignored, so prose-adjacent spellings work::

    channel=6, frames>10k, overlaps=13:00-14:00
    format=snoop status=ok path=*/day2/*

Keys:

``channel``
    ``=``/``!=`` against the record's channel inventory; a comma list
    (``channel=1,6,11``) matches any member.
``frames``
    frame count; all comparison ops; ``k``/``M`` suffixes.
``format``
    container name (``pcap``/``snoop``, compression-agnostic) or the
    compressed variant explicitly (``pcap.gz``); ``=``/``!=``.
``status``
    ``ok``/``truncated``/``unreadable``; ``=``/``!=``.
``path``
    :mod:`fnmatch` glob over the primary and duplicate relative paths.
``start`` / ``end``
    the capture's first/last timestamp in absolute µs (or seconds with
    an ``s`` suffix); all comparison ops.
``overlaps``
    a window ``lo-hi``.  ``HH:MM[:SS]`` endpoints compare by time of
    day (wraparound-aware: both a window and a capture span may cross
    midnight); bare µs or ``s``-suffixed endpoints compare absolutely,
    and a reversed absolute window is rejected when the query is parsed.

Malformed clauses and unknown keys raise
:class:`~repro.corpus.paths.CorpusError` with a did-you-mean hint; an
empty query matches every record.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, Mapping

from .._suggest import unknown_name_message
from ..pcap import CAPTURE_FORMATS
from .index import CaptureRecord
from .paths import CorpusError

__all__ = ["Query", "parse_query", "filter_records"]

_DAY_US = 24 * 3600 * 1_000_000

#: Longest first, so ``>=`` is never misread as ``>``.
_OPS = (">=", "<=", "!=", "=", ">", "<")

_ORDER_OPS = frozenset(_OPS)
_EQ_OPS = frozenset(("=", "!="))


def _compare(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == ">":
        return left > right
    if op == "<":
        return left < right
    if op == ">=":
        return left >= right
    return left <= right


def _parse_count(text: str) -> int:
    scale = 1
    suffix = text[-1:].lower()
    if suffix == "k":
        scale, text = 1_000, text[:-1]
    elif suffix == "m":
        scale, text = 1_000_000, text[:-1]
    try:
        return int(float(text) * scale) if "." in text else int(text) * scale
    except ValueError:
        raise CorpusError(f"not a frame count: {text!r}") from None


def _parse_abs_us(text: str) -> int:
    if text.lower().endswith("s"):
        try:
            return int(float(text[:-1]) * 1_000_000)
        except ValueError:
            raise CorpusError(f"not a time: {text!r}") from None
    try:
        return int(text)
    except ValueError:
        raise CorpusError(f"not a time: {text!r}") from None


def _parse_tod_us(text: str) -> int:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise CorpusError(f"not a time of day: {text!r}")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise CorpusError(f"not a time of day: {text!r}") from None
    hour, minute = numbers[0], numbers[1]
    second = numbers[2] if len(numbers) == 3 else 0
    if not (0 <= hour < 24 and 0 <= minute < 60 and 0 <= second < 60):
        raise CorpusError(f"not a time of day: {text!r}")
    return ((hour * 60 + minute) * 60 + second) * 1_000_000


def _parse_window(text: str) -> tuple[str, int, int]:
    """``lo-hi`` → ``(kind, lo_us, hi_us)`` with kind abs|tod."""
    normalized = text.replace("–", "-")  # accept the en dash
    lo_text, sep, hi_text = normalized.partition("-")
    if not sep or not lo_text or not hi_text:
        raise CorpusError(f"not a window (expected lo-hi): {text!r}")
    tod = ":" in lo_text or ":" in hi_text
    if tod and not (":" in lo_text and ":" in hi_text):
        raise CorpusError(
            f"window mixes time-of-day and absolute endpoints: {text!r}"
        )
    if tod:
        return "tod", _parse_tod_us(lo_text), _parse_tod_us(hi_text)
    lo, hi = _parse_abs_us(lo_text), _parse_abs_us(hi_text)
    if lo > hi:
        raise CorpusError(f"empty window: {lo}-{hi}")
    return "abs", lo, hi


def _tod_intervals(start_us: int, end_us: int) -> list[tuple[int, int]]:
    """A closed absolute span as half-open time-of-day intervals."""
    length = end_us - start_us + 1
    if length >= _DAY_US:
        return [(0, _DAY_US)]
    lo = start_us % _DAY_US
    hi = lo + length
    if hi <= _DAY_US:
        return [(lo, hi)]
    return [(lo, _DAY_US), (0, hi - _DAY_US)]


def _window_intervals(lo: int, hi: int) -> list[tuple[int, int]]:
    if lo == hi:
        return [(lo, lo + 1)]  # an instant
    if lo < hi:
        return [(lo, hi)]
    return [(lo, _DAY_US), (0, hi)]  # crosses midnight


def _overlaps(record: CaptureRecord, kind: str, lo: int, hi: int) -> bool:
    if record.time_start_us is None or record.time_end_us is None:
        return False
    if kind == "abs":
        return record.time_start_us <= hi and record.time_end_us >= lo
    spans = _tod_intervals(record.time_start_us, record.time_end_us)
    windows = _window_intervals(lo, hi)
    return any(
        s_lo < w_hi and w_lo < s_hi
        for s_lo, s_hi in spans
        for w_lo, w_hi in windows
    )


@dataclass(frozen=True)
class _Clause:
    key: str
    op: str
    value: object

    def matches(self, record: CaptureRecord) -> bool:
        if self.key == "channel":
            hit = any(ch in record.channels for ch in self.value)
            return hit if self.op == "=" else not hit
        if self.key == "frames":
            return _compare(self.op, record.n_frames, self.value)
        if self.key == "format":
            name, compressed = self.value
            hit = record.file_format == name and (
                compressed is None or record.compressed == compressed
            )
            return hit if self.op == "=" else not hit
        if self.key == "status":
            return _compare(self.op, record.status, self.value)
        if self.key == "path":
            hit = any(
                fnmatchcase(path, self.value)
                for path in (record.path, *record.duplicate_paths)
            )
            return hit if self.op == "=" else not hit
        if self.key == "start":
            if record.time_start_us is None:
                return False
            return _compare(self.op, record.time_start_us, self.value)
        if self.key == "end":
            if record.time_end_us is None:
                return False
            return _compare(self.op, record.time_end_us, self.value)
        kind, lo, hi = self.value  # overlaps
        return _overlaps(record, kind, lo, hi)


_KEY_OPS = {
    "channel": _EQ_OPS,
    "frames": _ORDER_OPS,
    "format": _EQ_OPS,
    "status": _EQ_OPS,
    "path": _EQ_OPS,
    "start": _ORDER_OPS,
    "end": _ORDER_OPS,
    "overlaps": frozenset(("=",)),
}

_STATUSES = ("ok", "truncated", "unreadable")


def _parse_value(key: str, raw: str):
    if key == "channel":
        try:
            return tuple(int(ch) for ch in raw.split(",") if ch)
        except ValueError:
            raise CorpusError(f"not a channel list: {raw!r}") from None
    if key == "frames":
        return _parse_count(raw)
    if key == "format":
        name, compressed = raw, None
        if raw.endswith(".gz"):
            name, compressed = raw[:-3], True
        if name not in CAPTURE_FORMATS:
            raise CorpusError(
                unknown_name_message(
                    "capture format",
                    raw,
                    sorted(CAPTURE_FORMATS)
                    + [f"{n}.gz" for n in sorted(CAPTURE_FORMATS)],
                )
            )
        return name, compressed
    if key == "status":
        if raw not in _STATUSES:
            raise CorpusError(
                unknown_name_message("status", raw, _STATUSES)
            )
        return raw
    if key == "path":
        return raw
    if key in ("start", "end"):
        return _parse_abs_us(raw)
    return _parse_window(raw)  # overlaps


@dataclass(frozen=True)
class Query:
    """A parsed predicate; ``matches`` consults records only."""

    text: str
    clauses: tuple[_Clause, ...]

    def matches(self, record: CaptureRecord) -> bool:
        return all(clause.matches(record) for clause in self.clauses)


def parse_query(text: str | None) -> Query:
    """Parse a ``where`` string; empty/None matches everything."""
    clauses: list[_Clause] = []
    for token in (text or "").split():
        token = token.rstrip(",")
        if not token:
            continue
        for op in _OPS:
            key, sep, raw = token.partition(op)
            if sep:
                break
        else:
            raise CorpusError(
                f"malformed clause {token!r} (expected key<op>value, "
                f"ops: {' '.join(_OPS)})"
            )
        if key not in _KEY_OPS:
            raise CorpusError(
                unknown_name_message("query key", key, sorted(_KEY_OPS))
            )
        if op not in _KEY_OPS[key]:
            raise CorpusError(
                f"operator {op!r} not valid for {key!r} "
                f"(valid: {' '.join(sorted(_KEY_OPS[key]))})"
            )
        if not raw:
            raise CorpusError(f"clause {token!r} has no value")
        clauses.append(_Clause(key, op, _parse_value(key, raw)))
    return Query(text=text or "", clauses=tuple(clauses))


def filter_records(
    records: "Iterable[CaptureRecord] | Mapping[str, CaptureRecord]",
    where: str | Query | None,
) -> list[CaptureRecord]:
    """Records matching ``where``, sorted by primary path.

    Accepts the hash-keyed mapping :meth:`CorpusIndex.records` returns
    or any iterable of records.
    """
    if isinstance(records, Mapping):
        records = records.values()
    query = where if isinstance(where, Query) else parse_query(where)
    return sorted(
        (record for record in records if query.matches(record)),
        key=lambda record: record.path,
    )
