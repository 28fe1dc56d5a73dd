"""The real repository must lint clean.

This is the self-hosting test: the analyzer runs over the actual tree
(not fixtures) inside tier-1, so a PR that introduces a violation
fails the test suite locally exactly as the CI ``lint-gate`` job
would.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_lints_clean_against_committed_baseline():
    """Zero findings; suppress one site with a reasoned pragma."""
    result = run_lint(REPO_ROOT)
    assert not result.findings, "lint findings:\n" + "\n".join(
        f.render() for f in result.findings
    )


def test_scan_covers_the_whole_tree():
    result = run_lint(REPO_ROOT)
    assert result.files_scanned > 150  # src/ + tests/ today; grows
