"""The pluggable rule registry.

Every rule is a :class:`Rule` record registered by id via the
:func:`rule` decorator.  Adding a rule is: write a generator that
yields findings from a file (or project) context, decorate it, and
drop one positive + one negative fixture into ``tests/lint/`` — the
engine, CLI, pragma layer and ``--list-rules`` catalog all pick it up
from the registry.

Two rule shapes exist:

* **per-file** (the default): ``check(ctx)`` is called once per
  scanned file whose repo-relative path satisfies ``scope``; ``ctx``
  carries ``path``/``tree``/``source``/``lines``.
* **project** (``project=True``): ``check(project)`` is called once
  per run with the whole-tree context — for cross-file invariants
  like the protocol schema.

Some ids (the ``pragma-*`` meta rules and ``parse-error``) are
implemented by the engine itself and registered here with
``check=None`` so they participate in suppression validation,
``--select`` and the catalog like any other rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..findings import Finding

__all__ = ["RULES", "Rule", "in_dirs", "make", "rule"]


@dataclass(frozen=True)
class Rule:
    id: str
    family: str
    severity: str
    summary: str
    check: Callable | None
    scope: Callable[[str], bool] | None = None
    project: bool = False


#: The registry itself: rule id → :class:`Rule`.
RULES: dict[str, Rule] = {}


def rule(
    id: str,
    *,
    family: str,
    severity: str,
    summary: str,
    scope: Callable[[str], bool] | None = None,
    project: bool = False,
) -> Callable:
    """Register a rule check function under ``id``."""

    def wrap(fn: Callable) -> Callable:
        if id in RULES:
            raise ValueError(f"duplicate lint rule id {id!r}")
        RULES[id] = Rule(
            id=id,
            family=family,
            severity=severity,
            summary=summary,
            check=fn,
            scope=scope,
            project=project,
        )
        return fn

    return wrap


def register_meta(id: str, *, family: str, severity: str, summary: str) -> None:
    """Register an engine-implemented rule (no check function)."""
    RULES[id] = Rule(
        id=id, family=family, severity=severity, summary=summary, check=None
    )


def in_dirs(*prefixes: str) -> Callable[[str], bool]:
    """Scope predicate: path lives under one of the given directories."""

    def applies(path: str) -> bool:
        return any(path.startswith(prefix) for prefix in prefixes)

    return applies


def make(ctx, rule_id: str, node, message: str) -> Finding:
    """Build a finding for ``rule_id`` at an AST node (or bare line)."""
    spec = RULES[rule_id]
    line = getattr(node, "lineno", node if isinstance(node, int) else 1)
    col = getattr(node, "col_offset", 0)
    return Finding(
        path=ctx.path,
        line=line,
        col=col,
        rule=rule_id,
        severity=spec.severity,
        message=message,
    )


# Engine-implemented meta rules (see repro/lint/engine.py).
register_meta(
    "parse-error",
    family="engine",
    severity="error",
    summary="a scanned file failed to parse as Python",
)
register_meta(
    "pragma-malformed",
    family="pragma",
    severity="error",
    summary="a lint-ok pragma without a [rule-id] bracket or a reason",
)
register_meta(
    "pragma-unknown-rule",
    family="pragma",
    severity="error",
    summary="a lint-ok pragma naming a rule id that does not exist",
)
register_meta(
    "pragma-unused",
    family="pragma",
    severity="warning",
    summary="a lint-ok pragma that suppresses nothing (stale)",
)

# Importing the family modules populates the registry.
from . import (  # noqa: E402  (registration happens at import)
    blocking,
    determinism,
    exceptions,
    hygiene,
    protocol,
    resources,
)
