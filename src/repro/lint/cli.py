"""CLI for the analyzer: ``repro lint`` and ``python -m repro.lint``.

Both entries share this module: :func:`add_lint_arguments` installs
the flags on whatever parser hosts the verb, and :func:`run_from_args`
executes it.  The standalone module form exists so the linter runs on
any interpreter with zero third-party imports (the CI ``lint-gate``
job exercises it on a bare Python 3.10 with no numpy installed).

Exit codes: 0 clean, 1 findings, 2 usage errors.  Suppress one site
with a reasoned ``# repro: lint-ok[rule] why`` pragma.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import run_lint
from .findings import Finding
from .rules import RULES

__all__ = ["add_lint_arguments", "main", "run_from_args"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``lint`` flags on ``parser`` (shared by both CLIs)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/ and tests/)",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="repository root (default: walk up from cwd to pyproject.toml)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULE-ID",
        help="report only these rule ids (repeatable; did-you-mean on typos)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, severity, summary) and exit",
    )


def find_root(start: Path | None = None) -> Path | None:
    """Nearest ancestor of ``start`` (default cwd) with a pyproject.toml."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def _rule_catalog() -> str:
    lines = ["rule id              sev      summary"]
    for spec in sorted(RULES.values(), key=lambda s: (s.family, s.id)):
        lines.append(f"{spec.id:<20s} {spec.severity:<8s} {spec.summary}")
    return "\n".join(lines)


def _render_text(findings: list[Finding], *, files_scanned: int) -> str:
    lines = [finding.render() for finding in findings]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    lines.append(
        f"{len(findings)} finding(s) ({errors} error, {warnings} warning) "
        f"across {files_scanned} file(s)"
    )
    return "\n".join(lines)


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(_rule_catalog())
        return 0

    root = Path(args.root).resolve() if args.root else find_root()
    if root is None:
        print(
            "repro lint: cannot find the repository root (no "
            "pyproject.toml above cwd) — pass --root DIR",
            file=sys.stderr,
        )
        return 2
    if not root.is_dir():
        print(f"repro lint: --root {root} is not a directory", file=sys.stderr)
        return 2

    try:
        result = run_lint(root, args.paths or None, select=args.select or None)
    except ValueError as error:  # unknown --select id, with did-you-mean
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    ok = not result.findings
    if args.format == "json":
        payload = {
            "ok": ok,
            "files_scanned": result.files_scanned,
            "findings": [f.to_jsonable() for f in result.findings],
            "counts": dict(sorted(result.counts.items())),
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(_render_text(result.findings, files_scanned=result.files_scanned))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism & protocol-safety analyzer "
        "(stdlib-only; see docs/ARCHITECTURE.md 'Static analysis')",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
