"""Capture discovery: deterministic directory walks and glob expansion.

Shared by the corpus indexer and the CLI (`repro analyze dir/ '*.pcap'`).
Expansion is deterministic — results are sorted by POSIX-style relative
path — so the same arguments always produce the same capture order on
every platform, which in turn keeps batch naming and planner output
stable.
"""

from __future__ import annotations

import glob
from pathlib import Path
from typing import Iterable, Iterator

from ..pcap import CAPTURE_SUFFIXES

__all__ = ["CorpusError", "iter_capture_files", "expand_captures"]

_GLOB_CHARS = frozenset("*?[")


class CorpusError(ValueError):
    """A corpus operation failed in a way the user can fix.

    Raised for empty expansions ("no captures matched"), missing paths
    and malformed queries — the CLI prints these cleanly instead of a
    traceback.
    """


def _is_capture_name(name: str) -> bool:
    return name.lower().endswith(CAPTURE_SUFFIXES)


def iter_capture_files(root: Path) -> Iterator[Path]:
    """Capture files under ``root``, sorted by relative POSIX path.

    Hidden directories (dot-prefixed, e.g. the corpus's own
    ``.repro-corpus`` catalog) are skipped.
    """
    found: list[tuple[str, Path]] = []
    for path in root.rglob("*"):
        rel = path.relative_to(root)
        if any(part.startswith(".") for part in rel.parts):
            continue
        if path.is_file() and _is_capture_name(path.name):
            found.append((rel.as_posix(), path))
    for _, path in sorted(found):
        yield path


def expand_captures(patterns: Iterable[str | Path]) -> list[Path]:
    """Expand paths / directories / glob patterns into capture files.

    Each argument may be a capture file, a directory (searched
    recursively for known capture suffixes) or a glob pattern
    (``**`` supported).  Expansion of each argument is sorted.
    *Discovered* paths (from directories or globs) are de-duplicated
    against everything already listed, first occurrence winning; a
    plain file named explicitly is always kept — repeating a capture
    on purpose (``repro analyze a.pcap a.pcap``) is a request to
    analyze it twice, and downstream naming suffixes the repeats.
    Raises :class:`CorpusError` when an argument matches nothing.
    """
    out: list[Path] = []
    seen: set[Path] = set()

    def add(path: Path, *, explicit: bool = False) -> None:
        resolved = path.resolve()
        if explicit or resolved not in seen:
            seen.add(resolved)
            out.append(path)

    for pattern in patterns:
        text = str(pattern)
        path = Path(text)
        if path.is_dir():
            matched = list(iter_capture_files(path))
            if not matched:
                raise CorpusError(
                    f"no captures matched: directory {text!r} contains no "
                    f"capture files ({', '.join(CAPTURE_SUFFIXES)})"
                )
            for item in matched:
                add(item)
        elif _GLOB_CHARS.intersection(text):
            matched = sorted(
                Path(m) for m in glob.glob(text, recursive=True)
                if Path(m).is_file()
            )
            if not matched:
                raise CorpusError(f"no captures matched: pattern {text!r}")
            for item in matched:
                add(item)
        elif path.is_file():
            add(path, explicit=True)
        else:
            raise CorpusError(f"capture not found: {text}")
    return out
