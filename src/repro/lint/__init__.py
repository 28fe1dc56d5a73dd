"""repro.lint — AST-based determinism & protocol-safety analyzer.

Machine-checks the invariants the rest of the repo only enforces by
convention and by after-the-fact tests: seed-driven RNG discipline and
no wall-clock reads on cell-execution paths, nothing blocking on the
serve event loop, exception hygiene, one declared wire-protocol
vocabulary, sleep-free tier-1 tests, and timeouts on socket connects.

Run it::

    repro lint                     # exit 1 on any finding (what CI runs)
    python -m repro.lint           # same tool, stdlib-only entry
    repro lint --list-rules        # the catalog

Suppress a finding *with a reason*::

    stamp = time.time()  # repro: lint-ok[det-wall-clock] status file stamp

See ``docs/ARCHITECTURE.md`` ("Static analysis") for the rule catalog
and how to add a rule.  The package imports no third-party modules —
it must run anywhere, first.
"""

from __future__ import annotations

from .engine import FileContext, LintResult, ProjectContext, run_lint
from .findings import Finding
from .pragmas import Pragma, parse_pragmas
from .rules import RULES, Rule, rule

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Pragma",
    "ProjectContext",
    "RULES",
    "Rule",
    "parse_pragmas",
    "rule",
    "run_lint",
]
