"""CLI semantics: exit codes and formats.

``python -m repro.lint`` and ``repro lint`` share one implementation;
these tests drive it through both front doors.
"""

from __future__ import annotations

import json

import pytest

from repro.lint.cli import main as lint_main

CLEAN = "def fine():\n    return 1\n"
DIRTY = "import time\n\ndef stamp():\n    return time.time()\n"


@pytest.fixture
def fixture_root(lint_tree):
    return lint_tree


class TestExitCodes:
    def test_clean_tree_exits_zero(self, fixture_root, capsys):
        fixture_root.write("src/repro/sim/foo.py", CLEAN)
        assert lint_main(["--root", str(fixture_root.root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, fixture_root, capsys):
        fixture_root.write("src/repro/sim/foo.py", DIRTY)
        assert lint_main(["--root", str(fixture_root.root)]) == 1
        out = capsys.readouterr().out
        assert "det-wall-clock" in out and "[error]" in out

    def test_missing_root_dir_is_usage_error(self, tmp_path, capsys):
        assert lint_main(["--root", str(tmp_path / "nowhere")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_no_pyproject_above_cwd_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert lint_main([]) == 2
        assert "pyproject.toml" in capsys.readouterr().err

    def test_bad_select_is_usage_error(self, fixture_root, capsys):
        fixture_root.write("src/repro/sim/foo.py", CLEAN)
        rc = lint_main(
            ["--root", str(fixture_root.root), "--select", "det-wall-clok"]
        )
        assert rc == 2
        assert "did you mean 'det-wall-clock'" in capsys.readouterr().err


class TestOutput:
    def test_json_format_is_machine_readable(self, fixture_root, capsys):
        fixture_root.write("src/repro/sim/foo.py", DIRTY)
        rc = lint_main(["--root", str(fixture_root.root), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["ok"] is False
        assert payload["counts"] == {"det-wall-clock:src/repro/sim/foo.py": 1}
        (finding,) = payload["findings"]
        assert finding["rule"] == "det-wall-clock"
        assert finding["path"] == "src/repro/sim/foo.py"

    def test_list_rules_prints_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("det-wall-clock", "async-open", "proto-op-unknown",
                        "test-sleep", "sock-no-timeout", "exc-bare"):
            assert rule_id in out

    def test_paths_argument_narrows_the_scan(self, fixture_root, capsys):
        fixture_root.write("src/repro/sim/dirty.py", DIRTY)
        fixture_root.write("src/repro/sim/clean.py", CLEAN)
        rc = lint_main(
            ["--root", str(fixture_root.root), "src/repro/sim/clean.py"]
        )
        assert rc == 0


class TestToolsIntegration:
    def test_repro_lint_verb_routes_here(self, fixture_root, capsys):
        from repro.tools import main as tools_main

        fixture_root.write("src/repro/sim/foo.py", DIRTY)
        rc = tools_main(["lint", "--root", str(fixture_root.root)])
        assert rc == 1
        assert "det-wall-clock" in capsys.readouterr().out

    def test_module_entry_is_dependency_free(self):
        """``python -m repro.lint`` must not drag in numpy — it is the
        form CI runs on a bare interpreter."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.lint.cli\n"
            "heavy = [m for m in ('numpy', 'tomllib') if m in sys.modules]\n"
            "sys.exit(1 if heavy else 0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[2]),
        )
        assert proc.returncode == 0
