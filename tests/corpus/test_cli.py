"""The ``repro corpus`` verbs and capture expansion in ``repro analyze``.

All in-process through ``tools.main`` — asserting exit codes, the
machine-parseable analyze summary line, and that "no captures matched"
is a clean diagnostic rather than a traceback.
"""

import pytest

from repro.tools import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCorpusIndex:
    def test_index_reports_catalog_counts(self, corpus_dir, capsys):
        code, out, err = run_cli(capsys, "corpus", "index", str(corpus_dir))
        assert code == 0
        assert "3 capture(s) catalogued" in out
        assert "3 added" in out

    def test_second_index_is_unchanged(self, corpus_dir, capsys):
        run_cli(capsys, "corpus", "index", str(corpus_dir))
        code, out, _ = run_cli(capsys, "corpus", "index", str(corpus_dir))
        assert code == 0
        assert "3 unchanged" in out

    def test_damaged_record_is_reported_quarantined(self, corpus_dir, capsys):
        from repro.corpus import CorpusIndex

        run_cli(capsys, "corpus", "index", str(corpus_dir))
        victim = next(CorpusIndex(corpus_dir).index_dir.glob("*/*.json"))
        victim.write_bytes(b'{"kind": "\xff"}')  # not UTF-8
        code, out, _ = run_cli(capsys, "corpus", "index", str(corpus_dir))
        assert code == 0
        assert "1 added" in out and "1 quarantined" in out

    def test_zlib_corrupt_gzip_captures_are_counted_failed(
        self, corrupt_gzip_dir, capsys
    ):
        code, out, err = run_cli(
            capsys, "corpus", "index", str(corrupt_gzip_dir)
        )
        assert code == 0
        assert "3 capture(s) catalogued" in out
        assert "2 failed" in out
        assert "Traceback" not in out + err

    def test_missing_root_is_clean_error(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "corpus", "index", str(tmp_path / "nope")
        )
        assert code == 2
        assert "corpus error" in err
        assert not out


class TestCorpusQuery:
    def test_query_lists_matches_and_count(self, corpus_dir, capsys):
        code, out, _ = run_cli(
            capsys, "corpus", "query", str(corpus_dir),
            "--where", "channel=6 frames>10",
        )
        assert code == 0
        assert "day1/morning.pcap" in out
        assert out.strip().endswith("1 matched")

    def test_bad_query_is_clean_error(self, corpus_dir, capsys):
        code, _, err = run_cli(
            capsys, "corpus", "query", str(corpus_dir),
            "--where", "chanel=6",
        )
        assert code == 2
        assert "corpus error" in err
        assert "channel" in err  # did-you-mean

    def test_no_refresh_serves_stale_catalog(self, corpus_dir, capsys):
        run_cli(capsys, "corpus", "index", str(corpus_dir))
        for name in ("day1/morning.pcap", "day1/night.snoop", "late.pcap.gz"):
            (corpus_dir / name).unlink()
        code, out, _ = run_cli(
            capsys, "corpus", "query", str(corpus_dir), "--no-refresh"
        )
        assert code == 0
        assert out.strip().endswith("3 matched")


class TestCorpusAnalyze:
    def test_summary_line_and_warm_rerun(self, corpus_dir, capsys):
        code, out, _ = run_cli(
            capsys, "corpus", "analyze", str(corpus_dir), "--workers", "1"
        )
        assert code == 0
        assert "3 matched, 0 cached, 3 dispatched, 0 failed" in out
        code, out, _ = run_cli(
            capsys, "corpus", "analyze", str(corpus_dir), "--workers", "1"
        )
        assert code == 0
        assert "3 matched, 3 cached, 0 dispatched, 0 failed" in out

    def test_report_flag_renders(self, corpus_dir, capsys):
        code, out, _ = run_cli(
            capsys, "corpus", "analyze", str(corpus_dir),
            "--where", "channel=6", "--workers", "1", "--report",
        )
        assert code == 0
        assert "1 matched" in out
        assert "Congestion report" in out

    def test_skipped_captures_reported_on_stderr(self, corpus_dir, capsys):
        raw = (corpus_dir / "day1" / "morning.pcap").read_bytes()
        (corpus_dir / "cut.pcap").write_bytes(raw[:-30])
        code, out, err = run_cli(
            capsys, "corpus", "analyze", str(corpus_dir), "--workers", "1"
        )
        assert code == 0  # skips are not failures
        assert "cut.pcap: skipped (truncated)" in err


class TestAnalyzeExpansion:
    def test_directory_argument(self, corpus_dir, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", str(corpus_dir / "day1"), "--workers", "1"
        )
        assert code == 0
        assert out.count("Congestion report") == 2

    def test_glob_pattern(self, corpus_dir, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", str(corpus_dir / "**" / "*.snoop"),
            "--workers", "1",
        )
        assert code == 0
        assert out.count("Congestion report") == 1
        assert "night.snoop" in out

    def test_no_captures_matched_is_clean(self, corpus_dir, capsys):
        code, out, err = run_cli(
            capsys, "analyze", str(corpus_dir / "*.missing")
        )
        assert code == 2
        assert "no captures matched" in err
        assert not out

    def test_empty_directory_is_clean(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(capsys, "analyze", str(empty))
        assert code == 2
        assert "no captures matched" in err

    def test_missing_file_is_clean(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "a.pcap"))
        assert code == 2
        assert "capture not found" in err
