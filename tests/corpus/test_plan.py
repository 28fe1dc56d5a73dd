"""Query-planned analysis: warm runs dispatch nothing, keys invalidate.

The acceptance bar from the issue: a repeated ``analyze_corpus`` over
an unchanged corpus dispatches **zero** captures, and deleting exactly
one stored analysis recomputes exactly that one.
"""

import shutil

import pytest

from repro.core.report import CongestionReport
from repro.corpus import (
    AnalysisStore,
    CorpusIndex,
    analysis_key,
    analyze_corpus,
    plan_analysis,
)
from repro.store import RecordStore

from ..pipeline.test_equivalence import assert_reports_equal
from .conftest import write_capture

SALT = "test-salt"  # pin: key stability under the repo's real salt is
# covered by test_salt_change_invalidates below.


@pytest.fixture
def analyzed(corpus_dir):
    """A corpus analyzed once (cold), serially for determinism."""
    first = analyze_corpus(corpus_dir, workers=1, salt=SALT)
    return corpus_dir, first


class TestAnalysisKey:
    def test_every_ingredient_changes_the_key(self):
        base = analysis_key("hash", salt=SALT)
        assert analysis_key("hash", salt=SALT) == base
        assert analysis_key("other", salt=SALT) != base
        assert analysis_key("hash", salt="other") != base

    def test_key_is_a_full_sha256(self):
        key = analysis_key("hash", salt=SALT)
        assert len(key) == 64
        int(key, 16)


class TestColdAndWarmRuns:
    def test_cold_run_dispatches_everything(self, analyzed):
        _, first = analyzed
        assert first.matched == 3
        assert first.cached == 0
        assert first.dispatched == 3
        assert len(first.reports) == 3
        assert not first.failures
        assert all(
            isinstance(r, CongestionReport) for r in first.reports.values()
        )

    def test_warm_run_dispatches_zero(self, analyzed):
        corpus_dir, first = analyzed
        second = analyze_corpus(corpus_dir, workers=1, salt=SALT)
        assert second.dispatched == 0
        assert second.cached == 3
        assert sorted(second.reports) == sorted(first.reports)
        # Served reports carry the same headline numbers.
        for path, report in first.reports.items():
            assert (
                second.reports[path].summary.n_frames
                == report.summary.n_frames
            )

    def test_deleting_one_record_recomputes_exactly_one(self, analyzed):
        corpus_dir, _ = analyzed
        index = CorpusIndex(corpus_dir)
        store = AnalysisStore(corpus_dir)
        victim = next(
            r for r in index.records().values() if r.path == "late.pcap.gz"
        )
        store.drop(analysis_key(victim.content_hash, salt=SALT))
        rerun = analyze_corpus(corpus_dir, workers=1, salt=SALT)
        assert rerun.dispatched == 1
        assert rerun.cached == 2
        assert "late.pcap.gz" in rerun.reports

    def test_salt_change_invalidates_everything(self, analyzed):
        corpus_dir, _ = analyzed
        rerun = analyze_corpus(corpus_dir, workers=1, salt="new-salt")
        assert rerun.dispatched == 3
        assert rerun.cached == 0

    def test_new_capture_dispatches_only_itself(self, analyzed):
        corpus_dir, _ = analyzed
        write_capture(corpus_dir / "fresh.pcap", channel=3, t0_us=1_000_000)
        rerun = analyze_corpus(corpus_dir, workers=1, salt=SALT)
        assert rerun.dispatched == 1
        assert rerun.cached == 3
        assert "fresh.pcap" in rerun.reports

    def test_query_narrows_the_run(self, corpus_dir):
        run = analyze_corpus(corpus_dir, "channel=6", workers=1, salt=SALT)
        assert run.matched == 1
        assert sorted(run.reports) == ["day1/morning.pcap"]
        # The other captures were never analyzed — a full run still
        # has work to do for exactly those two.
        full = analyze_corpus(corpus_dir, workers=1, salt=SALT)
        assert full.cached == 1
        assert full.dispatched == 2

    def test_damaged_capture_skipped_not_fatal(self, corpus_dir):
        raw = (corpus_dir / "day1" / "morning.pcap").read_bytes()
        (corpus_dir / "cut.pcap").write_bytes(raw[:-30])
        run = analyze_corpus(corpus_dir, workers=1, salt=SALT)
        assert run.skipped == {"cut.pcap": "truncated"}
        assert run.matched == 4
        assert run.dispatched == 3


class TestCatalogWalk:
    def test_one_catalog_walk_per_call(self, corpus_dir, tmp_path, monkeypatch):
        """``analyze_corpus`` analyses the records ``refresh()`` reconciled:
        one ``RecordStore.walk`` pass, and the analysis that refreshing
        and then walking the catalog again gives, field for field and in
        dict order."""
        raw = (corpus_dir / "day1" / "morning.pcap").read_bytes()
        (corpus_dir / "cut.pcap").write_bytes(raw[:-30])
        twin = tmp_path / "twin"
        shutil.copytree(corpus_dir, twin)
        CorpusIndex(twin).refresh()
        walked = analyze_corpus(twin, workers=1, salt=SALT, refresh=False)

        walks = []
        real_walk = RecordStore.walk

        def counting_walk(store):
            walks.append(store.root)
            return real_walk(store)

        monkeypatch.setattr(RecordStore, "walk", counting_walk)
        run = analyze_corpus(corpus_dir, workers=1, salt=SALT)
        assert len(walks) == 1
        assert (run.where, run.matched, run.cached, run.dispatched) == (
            walked.where, walked.matched, walked.cached, walked.dispatched
        )
        assert list(run.skipped.items()) == list(walked.skipped.items())
        assert list(run.failures) == list(walked.failures) == []
        assert list(run.reports) == list(walked.reports)
        for path, report in run.reports.items():
            assert_reports_equal(report, walked.reports[path])

    def test_refresh_returns_the_catalog_records_reads(self, corpus_dir):
        index = CorpusIndex(corpus_dir)
        cold = index.refresh()
        assert list(cold.records.items()) == list(index.records().items())
        (corpus_dir / "late.pcap.gz").rename(corpus_dir / "moved.pcap.gz")
        warm = index.refresh()
        assert warm.updated == 1
        assert list(warm.records.items()) == list(index.records().items())


class TestPlanOrdering:
    def test_largest_capture_dispatches_first(self, corpus_dir):
        write_capture(corpus_dir / "big.pcap", channel=2, n_pairs=200)
        index = CorpusIndex(corpus_dir)
        index.refresh()
        store = AnalysisStore(corpus_dir)
        plan = plan_analysis(
            store, list(index.records().values()), salt=SALT
        )
        sizes = [record.byte_size for record, _ in plan.to_run]
        assert sizes == sorted(sizes, reverse=True)
        assert plan.to_run[0][0].path == "big.pcap"


class TestInterruptedRun:
    def test_interrupt_keeps_every_finished_report(
        self, corpus_dir, monkeypatch
    ):
        """Reports are stored as each capture resolves: a Ctrl-C in the
        4th of 4 captures keeps 3, and the rerun dispatches only 1."""
        import repro.pipeline.executor as executor

        write_capture(corpus_dir / "extra.pcap", channel=3)
        real_run_all = executor.run_all
        calls = []

        def interrupted(source, **kwargs):
            calls.append(source)
            if len(calls) == 4:
                raise KeyboardInterrupt
            return real_run_all(source, **kwargs)

        monkeypatch.setattr(executor, "run_all", interrupted)
        with pytest.raises(KeyboardInterrupt):
            analyze_corpus(corpus_dir, workers=1, salt=SALT)
        monkeypatch.undo()
        store = AnalysisStore(corpus_dir)
        assert len(list(store.store_dir.glob("*/*.json"))) == 3
        rerun = analyze_corpus(corpus_dir, workers=1, salt=SALT)
        assert (rerun.matched, rerun.cached, rerun.dispatched) == (4, 3, 1)


class TestRunBatchWiring:
    def test_traces_still_required_without_corpus(self):
        from repro.pipeline import run_batch

        with pytest.raises(TypeError, match="traces"):
            run_batch()


class TestStore:
    def test_corrupt_sidecar_recomputes(self, analyzed):
        corpus_dir, _ = analyzed
        store = AnalysisStore(corpus_dir)
        sidecar = next(store.store_dir.glob("*/*.report.pkl.gz"))
        sidecar.write_bytes(b"garbage")
        rerun = analyze_corpus(corpus_dir, workers=1, salt=SALT)
        assert rerun.dispatched == 1
        assert rerun.cached == 2

    def test_drop_is_idempotent(self, corpus_dir):
        AnalysisStore(corpus_dir).drop("0" * 64)  # nothing to drop: fine

    def test_results_merges_sorted(self, analyzed):
        corpus_dir, first = analyzed
        assert list(first.results) == sorted(first.reports)
