"""Tests for the content-addressed campaign store and resumable runs.

The contract under test is the acceptance bar of the crash-safe
campaign work: resume is *bit-exact* (a resumed campaign's numbers are
identical to an uninterrupted run), *incremental* (only missing cells
are simulated; a fully-stored campaign dispatches zero work) and
*failure-tolerant* (a raising cell becomes a persisted record, not a
lost campaign).
"""

import json

import numpy as np
import pytest

from repro.campaign import (
    CampaignCell,
    CampaignStore,
    ParameterGrid,
    cell_key,
    render_campaign,
    run_campaign,
)
from repro.campaign import runner as campaign_runner
from repro.sim import available_scenarios, class_mixture, scenario_config
from repro.store import canonical

from .test_dispatch import failed_cell, fake_result

#: Small but real: 4 cells, ~1 s of simulation each.
GRID = ParameterGrid(
    "ramp",
    axes={"n_stations": [4, 6]},
    seeds=2,
    fixed={"duration_s": 1.0},
)

#: CellResult fields compared at full precision between runs.  Excludes
#: ``elapsed_s`` (wall-clock jitter) and ``report``/``cell`` (objects).
NUMERIC_FIELDS = (
    "n_frames",
    "frames_transmitted",
    "offered_packets",
    "duration_s",
    "delivery_ratio",
    "capture_ratio",
    "mode_utilization",
    "peak_throughput_mbps",
    "peak_throughput_utilization",
    "high_congestion_fraction",
    "unrecorded_percent",
    "events_processed",
    "events_cancelled",
)


def _numbers(result):
    return [_numbers_of(c) for c in result.cells]


def _numbers_of(cell_result):
    return (cell_result.name, tuple(getattr(cell_result, f) for f in NUMERIC_FIELDS))


class TestCellKey:
    def test_key_is_stable(self, tmp_path):
        cell = GRID.cells()[0]
        assert cell_key(cell, "salt") == cell_key(cell, "salt")
        store_a = CampaignStore(tmp_path / "a", salt="s")
        store_b = CampaignStore(tmp_path / "b", salt="s")
        assert store_a.key_for(cell) == store_b.key_for(cell)

    def test_key_covers_params_seed_scenario_and_salt(self):
        base = CampaignCell("ramp", params=(("duration_s", 1.0),), seed=0)
        variants = [
            CampaignCell("ramp", params=(("duration_s", 2.0),), seed=0),
            CampaignCell("ramp", params=(("duration_s", 1.0),), seed=1),
            CampaignCell("day", params=(("duration_s", 1.0),), seed=0),
        ]
        keys = {cell_key(c, "s") for c in [base] + variants}
        assert len(keys) == 4
        assert cell_key(base, "s") != cell_key(base, "other-salt")

    def test_key_sees_through_to_resolved_config(self):
        """Parameters that alter the resolved ScenarioConfig via library
        *defaults* (not just the literal cell params) separate keys —
        the hash covers the config the cell would actually run."""
        a = CampaignCell("hidden-terminal", params=(("uplink_pps", 22.0),))
        b = CampaignCell("hidden-terminal", params=(("uplink_pps", 44.0),))
        assert cell_key(a, "s") != cell_key(b, "s")

    def test_unresolvable_config_still_keyed(self):
        """A cell whose params cannot build a config (it will fail when
        run) still gets a usable, distinct key for its failure record."""
        bad = CampaignCell("ramp", params=(("n_stations", -1),), seed=0)
        worse = CampaignCell("ramp", params=(("n_stations", -2),), seed=0)
        assert cell_key(bad, "s") != cell_key(worse, "s")

    def test_mutable_schedule_caches_do_not_shift_keys(self):
        """ModulatedRate memoises multipliers as it runs; a warmed cache
        must hash identically to a cold one."""
        from repro.sim import scenario_config

        cell = CampaignCell("hotspot-plenary", params=(("duration_s", 1.0),))
        before = cell_key(cell, "s")
        config = scenario_config("hotspot-plenary", duration_s=1.0)
        config.uplink.rate_at(0)  # populate the epoch cache
        assert cell_key(cell, "s") == before

    def test_size_mixes_key_by_their_weights(self):
        def key(mix):
            return cell_key(CampaignCell("uniform", params=(("size_mix", mix),)), "s")

        a = class_mixture({"S": 0.5, "XL": 0.5})
        b = class_mixture({"S": 0.5, "XL": 0.5})
        assert a is not b and key(a) == key(b)
        assert key(class_mixture({"S": 0.6, "XL": 0.4})) != key(a)

    def test_placement_enters_the_key(self):
        """The config holds the placement, so two hotspot spreads key
        apart (and a cell key with them)."""
        tight = scenario_config("hotspot-plenary", spread_m=2.0)
        loose = scenario_config("hotspot-plenary", spread_m=4.0)
        assert tight != loose
        assert canonical(tight) != canonical(loose)
        keys = {
            cell_key(CampaignCell("hotspot-plenary", params=(("spread_m", s),)), "s")
            for s in (2.0, 4.0)
        }
        assert len(keys) == 2

    def test_numpy_seed_keys_and_stores_like_its_int(self, tmp_path):
        plain = CampaignCell("uniform", seed=3)
        wide = CampaignCell("uniform", seed=np.int64(3))
        assert cell_key(wide, "s") == cell_key(plain, "s")
        store = CampaignStore(tmp_path / "s", salt="s")
        store.put(fake_result(wide))
        assert store.get(plain) is not None
        record = json.loads(store.result_path(store.key_for(plain)).read_text())
        assert record["cell"]["seed"] == 3 and record["cell"]["name"] == plain.name
        store.put(fake_result(plain))
        assert _numbers_of(store.get(wide)) == _numbers_of(fake_result(plain))

    @pytest.mark.parametrize("name", available_scenarios())
    def test_every_library_config_is_declared_data(self, name):
        canonical(scenario_config(name))  # raises TypeError on anything else

    def test_undeclared_ingredient_fails_before_dispatch(self, tmp_path, monkeypatch):
        """Two lambdas share a qualified name; keyed by it, a store
        would answer one cell with the other's result.  Refused instead,
        naming the function, before any cell runs."""
        grid = ParameterGrid(
            "uniform",
            axes={
                "activity": [
                    lambda j, rng: (0, 1_000_000),
                    lambda j, rng: (1_000_000, 2_000_000),
                ]
            },
            fixed={"duration_s": 2.0},
        )
        dispatched = []

        def run_jobs(fn, jobs, *args, **kwargs):
            dispatched.extend(jobs)

        monkeypatch.setattr(campaign_runner, "run_jobs", run_jobs)
        with pytest.raises(TypeError, match="<lambda>"):
            run_campaign(grid, workers=1, store_dir=tmp_path / "s")
        assert dispatched == []


class TestStoreRoundtrip:
    def test_put_get_roundtrip_full_precision(self, tmp_path):
        result = run_campaign(
            [GRID.cells()[0]], workers=1, store_dir=tmp_path / "s"
        )
        store = CampaignStore(tmp_path / "s")
        loaded = store.get(result.cells[0].cell)
        assert loaded is not None
        for field_name in NUMERIC_FIELDS + ("elapsed_s",):
            assert getattr(loaded, field_name) == getattr(
                result.cells[0], field_name
            ), field_name

    def test_no_partial_records_left_behind(self, tmp_path):
        run_campaign(GRID, workers=1, store_dir=tmp_path / "s")
        leftovers = list((tmp_path / "s").rglob("*.tmp"))
        assert leftovers == []

    def test_corrupt_record_treated_as_miss(self, tmp_path):
        store_dir = tmp_path / "s"
        first = run_campaign(GRID, workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        victim = first.cells[2].cell
        path = store.result_path(store.key_for(victim))
        path.write_text('{"kind": "result", "result": {"trunca')
        assert store.get(victim) is None
        resumed = run_campaign(GRID, workers=1, store_dir=store_dir, resume=True)
        assert resumed.dispatched == 1
        assert _numbers(resumed) == _numbers(first)

    def test_report_sidecar(self, tmp_path):
        store_dir = tmp_path / "s"
        cell = GRID.cells()[0]
        run_campaign([cell], workers=1, store_dir=store_dir, keep_reports=True)
        store = CampaignStore(store_dir)
        with_report = store.get(cell, with_report=True)
        assert with_report is not None and with_report.report is not None
        assert with_report.report.summary.n_frames == with_report.n_frames
        without = store.get(cell)
        assert without is not None and without.report is None

    def test_reportless_record_is_a_miss_for_keep_reports(self, tmp_path):
        """Regression: a store written without reports must not satisfy
        a keep_reports=True resume with report=None cells — the cell is
        recomputed (and re-stored, this time with its report)."""
        store_dir = tmp_path / "s"
        cell = GRID.cells()[0]
        run_campaign([cell], workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        assert store.get(cell, with_report=True) is None
        upgraded = run_campaign(
            [cell], workers=1, store_dir=store_dir, keep_reports=True
        )
        assert upgraded.dispatched == 1
        assert upgraded.cells[0].report is not None
        # ...and the upgraded record now serves report-ful resumes.
        again = run_campaign(
            [cell], workers=1, store_dir=store_dir, keep_reports=True
        )
        assert again.dispatched == 0
        assert again.cells[0].report is not None

    def test_status_partition(self, tmp_path):
        store_dir = tmp_path / "s"
        subset = GRID.cells()[:2]
        run_campaign(subset, workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        status = store.partition(GRID.cells())
        assert status.counts == {"done": 2, "pending": 2, "failed": 0}
        assert [r.name for r in status.done.values()] == [c.name for c in subset]


class TestResume:
    def test_full_store_dispatches_zero_work(self, tmp_path):
        store_dir = tmp_path / "s"
        first = run_campaign(GRID, workers=1, store_dir=store_dir)
        assert first.dispatched == len(GRID) and first.store_hits == 0
        again = run_campaign(GRID, workers=1, store_dir=store_dir)
        # Zero simulation work on re-invocation: everything store-served.
        assert again.dispatched == 0
        assert again.store_hits == len(GRID)
        assert _numbers(again) == _numbers(first)
        # elapsed_s is persisted too, so even the wall column matches.
        assert [c.elapsed_s for c in again.cells] == [
            c.elapsed_s for c in first.cells
        ]

    def test_interrupted_campaign_resumes_bit_exact(self, tmp_path):
        """Kill-after-N-cells semantics: a store holding a prefix of the
        grid plus a resumed run equals an uninterrupted run, and only
        the missing cells are simulated."""
        uninterrupted = run_campaign(GRID, workers=1)
        store_dir = tmp_path / "s"
        # "Interrupted": only the first 3 of 4 cells completed.
        run_campaign(GRID.cells()[:3], workers=1, store_dir=store_dir)
        resumed = run_campaign(GRID, workers=1, store_dir=store_dir)
        assert resumed.dispatched == 1
        assert resumed.store_hits == 3
        assert _numbers(resumed) == _numbers(uninterrupted)
        summary_a = render_campaign(resumed)
        summary_b = render_campaign(uninterrupted)
        # Identical aggregation: every non-header line except the wall
        # column's jitter; compare the knee/curve sections exactly.
        tail_a = summary_a.split("\n\n", 2)[2]
        tail_b = summary_b.split("\n\n", 2)[2]
        assert tail_a == tail_b

    def test_resume_false_recomputes(self, tmp_path):
        store_dir = tmp_path / "s"
        run_campaign(GRID, workers=1, store_dir=store_dir)
        fresh = run_campaign(GRID, workers=1, store_dir=store_dir, resume=False)
        assert fresh.dispatched == len(GRID)
        assert fresh.store_hits == 0

    def test_resume_false_into_an_empty_store_persists_every_cell(
        self, tmp_path
    ):
        """``resume=False`` (what ``campaign --store`` passes) still
        stores every cell, although an empty store is falsy: it has
        ``__len__``."""
        store_dir = tmp_path / "s"
        store_dir.mkdir()
        result = run_campaign(
            GRID, workers=1, store_dir=store_dir, resume=False
        )
        assert result.dispatched == len(GRID)
        store = CampaignStore(store_dir)
        assert len(store) == len(GRID)
        assert all(cell in store for cell in GRID.cells())

    def test_deleted_cell_file_recomputed_alone(self, tmp_path):
        store_dir = tmp_path / "s"
        first = run_campaign(GRID, workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        victim = first.cells[1].cell
        assert store.discard(victim)
        resumed = run_campaign(GRID, workers=1, store_dir=store_dir)
        assert resumed.dispatched == 1
        assert resumed.store_hits == len(GRID) - 1
        assert _numbers(resumed) == _numbers(first)

    def test_parallel_resume_matches_serial(self, tmp_path):
        store_a = tmp_path / "a"
        store_b = tmp_path / "b"
        serial = run_campaign(GRID, workers=1, store_dir=store_a)
        parallel = run_campaign(GRID, workers=2, store_dir=store_b)
        assert _numbers(serial) == _numbers(parallel)
        # Cross-resume: a store written by the pool serves the serial run.
        resumed = run_campaign(GRID, workers=1, store_dir=store_b)
        assert resumed.dispatched == 0
        assert _numbers(resumed) == _numbers(serial)

    def test_salt_change_invalidates(self, tmp_path):
        store_dir = tmp_path / "s"
        cell = GRID.cells()[0]
        run_campaign([cell], workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir, salt="different-code")
        assert store.get(cell) is None


class TestGridExtension:
    def test_extended_axis_runs_only_new_cells(self, tmp_path):
        store_dir = tmp_path / "s"
        first = run_campaign(GRID, workers=1, store_dir=store_dir)
        grown = GRID.extend(axes={"n_stations": [8]})
        assert len(grown) == len(GRID) + 2  # one new value x two seeds
        second = run_campaign(grown, workers=1, store_dir=store_dir)
        assert second.store_hits == len(GRID)
        assert second.dispatched == 2
        by_name = second.by_name()
        for cell in first.cells:  # original numbers served verbatim
            for field_name in NUMERIC_FIELDS:
                assert getattr(by_name[cell.name], field_name) == getattr(
                    cell, field_name
                )

    def test_extended_seeds_run_only_new_cells(self, tmp_path):
        store_dir = tmp_path / "s"
        run_campaign(GRID, workers=1, store_dir=store_dir)
        grown = GRID.extend(seeds=3)
        second = run_campaign(grown, workers=1, store_dir=store_dir)
        assert second.store_hits == len(GRID)
        assert second.dispatched == len(grown) - len(GRID)


class TestFailureRecords:
    #: GRID plus one cell whose config raises (n_stations must be >= 1).
    BAD_CELL = CampaignCell(
        "ramp", params=(("duration_s", 1.0), ("n_stations", -1)), seed=0
    )

    def test_failure_persisted_and_not_retried(self, tmp_path):
        store_dir = tmp_path / "s"
        cells = GRID.cells() + [self.BAD_CELL]
        first = run_campaign(cells, workers=1, store_dir=store_dir)
        assert len(first.cells) == len(GRID)
        assert [f.name for f in first.failed] == [self.BAD_CELL.name]
        assert first.failed[0].error_type == "ValueError"
        assert "ValueError" in first.failed[0].traceback
        again = run_campaign(cells, workers=1, store_dir=store_dir)
        assert again.dispatched == 0  # failure remembered, not retried
        assert len(again.failed) == 1

    def test_retry_failed_redispatches_only_failures(self, tmp_path):
        store_dir = tmp_path / "s"
        cells = GRID.cells() + [self.BAD_CELL]
        run_campaign(cells, workers=1, store_dir=store_dir)
        retried = run_campaign(
            cells, workers=1, store_dir=store_dir, retry_failed=True
        )
        assert retried.dispatched == 1
        assert retried.store_hits == len(GRID)
        assert len(retried.failed) == 1  # still fails, still recorded

    def test_success_clears_failure_record(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        cell = GRID.cells()[0]
        store.put_failure(
            failed_cell(cell, "RuntimeError", "boom", "tb", 0.1)
        )
        assert store.get_failure(cell) is not None
        result = run_campaign([cell], workers=1, store_dir=tmp_path / "s",
                              retry_failed=True)
        assert len(result.cells) == 1
        assert store.get_failure(cell) is None

    def test_failure_never_overwrites_a_stored_result(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        cell = GRID.cells()[0]
        store.put(fake_result(cell))
        store.put_failure(failed_cell(cell, "RuntimeError", "late", "tb", 0.1))
        assert [r["kind"] for r in store.records()] == ["result"]
        assert store.get_failure(cell) is None

    def test_dead_worker_does_not_poison_store(self, tmp_path):
        """Regression: a worker process dying breaks the whole pool and
        fails every queued future — those synthesized failures must not
        be persisted, or a plain --resume would report never-started
        cells as failed instead of re-running them."""
        from repro.sim import ScenarioConfig
        from repro.sim.library import SCENARIO_LIBRARY

        def _die_at_build(_index, _rng):
            import os as _os

            _os._exit(3)  # simulate an OOM-killed worker

        def _kamikaze(**params):
            # The factory itself must stay benign: the parent resolves
            # it for key hashing.  Only *building* the scenario — which
            # happens in the worker — invokes the activity hook and
            # kills the process.
            return ScenarioConfig(duration_s=0.5, activity=_die_at_build)

        SCENARIO_LIBRARY["_kamikaze-store-test"] = _kamikaze
        try:
            cells = GRID.cells() + [CampaignCell("_kamikaze-store-test")]
            store_dir = tmp_path / "s"
            result = run_campaign(cells, workers=2, store_dir=store_dir)
            # The campaign completed; pool-death failures are visible...
            assert result.failed
            assert all("Broken" in f.error_type or f.traceback == ""
                       for f in result.failed)
            # ...but none were persisted as failure records.
            assert list(store_dir.glob("*/*.fail.json")) == []
            # A plain resume re-dispatches everything not actually done.
            stored = len(list(store_dir.glob("*/*.json")))  # sharded records
            resumed = run_campaign(
                GRID.cells(), workers=1, store_dir=store_dir
            )
            assert resumed.dispatched == len(GRID) - stored
            assert len(resumed.cells) == len(GRID)
            assert resumed.failed == []
        finally:
            SCENARIO_LIBRARY.pop("_kamikaze-store-test", None)

    def test_failure_record_contents(self, tmp_path):
        store_dir = tmp_path / "s"
        run_campaign([self.BAD_CELL], workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        payload = json.loads(
            store.failure_path(store.key_for(self.BAD_CELL)).read_text()
        )
        assert payload["kind"] == "failure"
        assert payload["cell"]["name"] == self.BAD_CELL.name
        assert payload["error"]["type"] == "ValueError"
        assert "Traceback" in payload["error"]["traceback"]


class TestQuarantine:
    """Corrupt records are renamed, counted and surfaced — never trusted
    or silently destroyed."""

    def test_corrupt_record_quarantined_with_evidence(self, tmp_path):
        store_dir = tmp_path / "s"
        cell = GRID.cells()[0]
        first = run_campaign([cell], workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        path = store.result_path(store.key_for(cell))
        path.write_text('{"kind": "result", "trunca')
        resumed = run_campaign([cell], workers=1, store_dir=store_dir)
        assert resumed.quarantined == 1
        assert resumed.dispatched == 1
        assert _numbers(resumed) == _numbers(first)
        corpse = path.with_name(path.name + ".corrupt")
        assert corpse.exists()
        assert corpse.read_text().startswith('{"kind"')  # evidence kept

    def test_quarantine_count_surfaces_in_summary_header(self, tmp_path):
        store_dir = tmp_path / "s"
        cell = GRID.cells()[0]
        run_campaign([cell], workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        store.result_path(store.key_for(cell)).write_text("garbage")
        result = run_campaign([cell], workers=1, store_dir=store_dir)
        header = render_campaign(result).splitlines()[0]
        assert "1 corrupt record(s) quarantined" in header
        clean = run_campaign([cell], workers=1, store_dir=store_dir)
        assert clean.quarantined == 0
        assert "quarantined" not in render_campaign(clean).splitlines()[0]

    def test_campaign_status_reports_quarantined(self, tmp_path, capsys):
        from repro.tools import main

        store_dir = tmp_path / "s"
        cell = GRID.cells()[0]
        run_campaign([cell], workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        store.result_path(store.key_for(cell)).write_text("garbage")
        assert main(["campaign-status", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 corrupt record(s) quarantined" in out

    def test_records_walk_quarantines_instead_of_skipping(self, tmp_path):
        store_dir = tmp_path / "s"
        run_campaign(GRID.cells()[:2], workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        victim = store.result_path(store.key_for(GRID.cells()[0]))
        victim.write_text("\x00\x01 not json")
        records = list(store.records())
        assert len(records) == 1
        assert store.quarantined == 1
        assert victim.with_name(victim.name + ".corrupt").exists()

    def test_status_never_counts_unreadable_work_as_done(self, tmp_path):
        store_dir = tmp_path / "s"
        cells = GRID.cells()[:2]
        run_campaign(cells, workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        store.result_path(store.key_for(cells[0])).write_text("junk")
        status = store.partition(cells)
        assert status.counts == {"done": 1, "pending": 1, "failed": 0}
        assert store.quarantined == 1
