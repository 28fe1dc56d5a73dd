"""The one value object every lint layer exchanges: a :class:`Finding`.

A finding is immutable and orderable (path, line, col, rule) so output
is deterministic, and it knows its own *key* — ``rule:path`` — the
granularity the JSON output counts findings at.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SEVERITIES", "Finding"]

#: Valid severities, strongest first (order matters for summaries).
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  #: repo-relative posix path
    line: int  #: 1-based
    col: int  #: 0-based (ast convention)
    rule: str
    severity: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"finding severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )

    @property
    def key(self) -> str:
        """``rule:path``: findings are counted per (rule, file)."""
        return f"{self.rule}:{self.path}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def to_jsonable(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "key": self.key,
        }
