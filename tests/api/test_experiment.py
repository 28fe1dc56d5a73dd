"""Experiment fluent builder: construction, routing, run semantics."""

import pytest

from repro.api import Experiment, ExperimentSpec, SpecError

TINY = dict(n_stations=3, duration_s=1.5)


@pytest.fixture(scope="module")
def tiny_pcap(tmp_path_factory):
    """A small real capture written to disk once per module."""
    from repro.pcap import write_trace
    from repro.sim import build_scenario

    path = tmp_path_factory.mktemp("api") / "tiny.pcap"
    write_trace(build_scenario("uniform", **TINY).run().trace, path)
    return str(path)


class TestFluentBuilding:
    def test_methods_return_new_instances(self):
        base = Experiment.scenario("ramp")
        varied = base.vary(n_stations=[4, 6])
        assert base.spec().vary == ()
        assert varied.spec().vary == (("n_stations", (4, 6)),)

    def test_fix_merges_and_overrides(self):
        exp = Experiment.scenario("ramp", duration_s=4.0).fix(
            duration_s=2.0, n_stations=4
        )
        assert dict(exp.spec().params) == {"duration_s": 2.0, "n_stations": 4}

    def test_vary_redeclared_axis_replaces(self):
        exp = Experiment.scenario("ramp").vary(n_stations=[4]).vary(
            n_stations=[6, 8]
        )
        assert exp.spec().vary == (("n_stations", (6, 8)),)

    def test_seeds_int_and_list(self):
        assert Experiment.scenario("ramp").seeds(3).spec().seeds == 3
        assert Experiment.scenario("ramp").seeds([7, 11]).spec().seeds == (7, 11)

    def test_cells_matches_hand_built_grid(self):
        from repro.campaign import ParameterGrid

        exp = (
            Experiment.scenario("ramp")
            .vary(n_stations=[4, 6])
            .seeds(2)
            .fix(duration_s=2.0)
        )
        grid = ParameterGrid(
            "ramp",
            axes={"n_stations": [4, 6]},
            seeds=2,
            fixed={"duration_s": 2.0},
        )
        assert exp.cells() == grid.cells()

    def test_cells_rejected_outside_campaign_mode(self):
        with pytest.raises(SpecError, match="no cells"):
            Experiment.scenario("ramp").cells()

    def test_from_spec_accepts_spec_mapping_and_path(self, tmp_path):
        spec = Experiment.scenario("ramp").seeds(2).spec()
        assert Experiment.from_spec(spec).spec() == spec
        assert Experiment.from_spec(spec.to_mapping()).spec() == spec
        path = spec.save(tmp_path / "s.toml")
        assert Experiment.from_spec(path).spec() == spec

    def test_pcaps_requires_paths(self):
        with pytest.raises(SpecError, match="at least one"):
            Experiment.pcaps()

    def test_validate_catches_typo(self):
        with pytest.raises(SpecError, match="did you mean"):
            Experiment.scenario("ramp", n_statoins=4).validate()


class TestSingleMode:
    def test_run_returns_full_report(self):
        result = Experiment.scenario("uniform", **TINY).run()
        assert result.mode == "single"
        assert result.report.summary.n_frames > 0
        assert result.report.name == "uniform"
        assert result.table()[0]["frames"] == result.report.summary.n_frames

    def test_named_sets_report_title(self):
        result = Experiment.scenario("uniform", **TINY).named("my-run").run()
        assert result.report.name == "my-run"

    def test_keep_trace_attaches_scenario_result(self):
        result = Experiment.scenario("uniform", **TINY).run(keep_trace=True)
        assert result.scenario_result is not None
        assert len(result.scenario_result.trace) == result.report.summary.n_frames

    def test_analyses_subset_returns_metrics(self):
        result = (
            Experiment.scenario("uniform", **TINY)
            .analyses("utilization", "delays")
            .run()
        )
        assert result.reports == {}
        assert sorted(result.metrics["uniform"]) == ["delays", "utilization"]

    def test_keep_trace_rejected_for_campaign(self):
        exp = Experiment.scenario("uniform", **TINY).seeds(2)
        with pytest.raises(ValueError, match="keep_trace"):
            exp.run(keep_trace=True)

    def test_provenance_fields(self):
        from repro.campaign import code_version_salt

        result = Experiment.scenario("uniform", **TINY).run()
        assert result.provenance["code_salt"] == code_version_salt()
        assert result.provenance["spec_hash"] == result.spec().hash
        assert result.provenance["mode"] == "single"


class TestAnalysisMode:
    def test_pcap_reports(self, tiny_pcap):
        result = Experiment.pcaps(tiny_pcap).run()
        assert result.mode == "analysis"
        assert result.report.summary.n_frames > 0
        assert result.sources == ((tiny_pcap, tiny_pcap),)

    def test_named_single_pcap(self, tiny_pcap):
        result = Experiment.pcap(tiny_pcap).named("session").run()
        assert list(result.reports) == ["session"]

    def test_duplicate_paths_get_distinct_names(self, tiny_pcap):
        result = Experiment.pcaps(tiny_pcap, tiny_pcap).run(workers=1)
        assert list(result.reports) == [tiny_pcap, f"{tiny_pcap}#2"]

    def test_subset_metrics(self, tiny_pcap):
        result = Experiment.pcaps(tiny_pcap).analyses("summary").run()
        assert list(result.metrics[tiny_pcap]) == ["summary"]


class TestCampaignMode:
    def test_campaign_runs_and_renders(self):
        result = (
            Experiment.scenario("ramp")
            .fix(duration_s=1.5)
            .vary(n_stations=[3, 4])
            .run(workers=1)
        )
        assert result.mode == "campaign"
        assert len(result.campaign.cells) == 2
        assert len(result.table()) == 2
        assert "ramp" in result.knees()
        text = result.render()
        assert "Campaign [ramp]" in text

    def test_run_overrides_store(self, tmp_path):
        exp = Experiment.scenario("ramp").fix(duration_s=1.5).vary(
            n_stations=[3]
        )
        first = exp.run(workers=1, store_dir=tmp_path / "store")
        assert first.campaign.dispatched == 1
        again = exp.run(workers=1, store_dir=tmp_path / "store")
        assert again.campaign.dispatched == 0
        assert again.campaign.store_hits == 1

    def test_keep_reports_populates_reports(self):
        result = (
            Experiment.scenario("ramp")
            .fix(duration_s=1.5)
            .vary(n_stations=[3])
            .keep_reports()
            .run(workers=1)
        )
        (name,) = result.reports
        assert name == "ramp/duration_s=1.5/n_stations=3/seed=0"

    def test_to_json_parses(self):
        import json

        result = (
            Experiment.scenario("ramp")
            .fix(duration_s=1.5)
            .vary(n_stations=[3])
            .run(workers=1)
        )
        payload = json.loads(result.to_json())
        assert payload["mode"] == "campaign"
        assert payload["spec"]["scenario"] == "ramp"
        assert len(payload["table"]) == 1
        assert payload["perf"]["cells"] == 1


class TestUniformScenario:
    def test_uniform_matches_bare_scenario_config(self):
        """The 'uniform' library entry == a hand-built ScenarioConfig
        (the old simulate-CLI construction), field for field."""
        from repro.sim import ConstantRate, ScenarioConfig, scenario_config

        via_library = scenario_config(
            "uniform",
            n_stations=4,
            n_aps=1,
            duration_s=2.0,
            seed=9,
            uplink_pps=6.0,
            downlink_pps=10.0,
            rate_algorithm="snr",
            rtscts_fraction=0.5,
            obstructed_fraction=0.0,
        )
        by_hand = ScenarioConfig(
            n_stations=4,
            n_aps=1,
            duration_s=2.0,
            seed=9,
            uplink=ConstantRate(6.0),
            downlink=ConstantRate(10.0),
            rate_algorithm="snr",
            rtscts_fraction=0.5,
            obstructed_fraction=0.0,
        )
        assert via_library == by_hand

    def test_uniform_accepts_config_overrides(self):
        from repro.sim import scenario_config

        config = scenario_config("uniform", room_width_m=50.0, **TINY)
        assert config.room_width_m == 50.0


class TestAnalysisSubsetWorkers:
    def test_subset_honors_worker_pool(self, tiny_pcap, tmp_path):
        """The analyses-subset branch parallelises like run_batch does
        (and a pool run equals a serial run)."""
        import shutil

        other = tmp_path / "copy.pcap"
        shutil.copy(tiny_pcap, other)
        exp = Experiment.pcaps(tiny_pcap, str(other)).analyses("summary")
        serial = exp.run(workers=1)
        pooled = exp.run(workers=2)
        assert sorted(serial.metrics) == sorted(pooled.metrics)
        for name in serial.metrics:
            assert (
                serial.metrics[name]["summary"].as_row()
                == pooled.metrics[name]["summary"].as_row()
            )


class TestAnalysisFailures:
    """A broken capture becomes a failure record, not an aborted run."""

    @pytest.fixture
    def broken_pcap(self, tiny_pcap, tmp_path):
        from pathlib import Path

        raw = Path(tiny_pcap).read_bytes()
        path = tmp_path / "broken.pcap"
        path.write_bytes(raw[: len(raw) - 11])
        return str(path)

    def test_failures_captured_alongside_reports(self, tiny_pcap, broken_pcap):
        result = Experiment.pcaps(tiny_pcap, broken_pcap).run(workers=1)
        assert list(result.reports) == [tiny_pcap]
        (failure,) = result.failures
        assert failure.name == broken_pcap
        assert failure.error_type == "TruncatedPcapError"

    def test_render_names_the_failure(self, tiny_pcap, broken_pcap):
        result = Experiment.pcaps(tiny_pcap, broken_pcap).run(workers=1)
        text = result.render()
        assert "analysis failed" in text
        assert "TruncatedPcapError" in text

    def test_to_json_lists_failed_captures(self, tiny_pcap, broken_pcap):
        import json

        result = Experiment.pcaps(tiny_pcap, broken_pcap).run(workers=1)
        payload = json.loads(result.to_json())
        (record,) = payload["failed_captures"]
        assert record["name"] == broken_pcap
        assert record["error_type"] == "TruncatedPcapError"

    def test_all_good_runs_have_no_failures(self, tiny_pcap):
        result = Experiment.pcaps(tiny_pcap).run(workers=1)
        assert result.failures == ()

    @pytest.fixture
    def capture_dir(self, tiny_pcap, broken_pcap, tmp_path):
        """A directory of two good captures and one truncated one."""
        import shutil

        folder = tmp_path / "caps"
        folder.mkdir()
        shutil.copy(tiny_pcap, folder / "a.pcap")
        shutil.copy(tiny_pcap, folder / "b.pcap")
        shutil.copy(broken_pcap, folder / "c.pcap")
        return folder

    @pytest.mark.parametrize("workers", [1, 2])
    def test_subset_failure_keeps_the_good_metrics(self, capture_dir, workers):
        result = (
            Experiment.pcaps(str(capture_dir))
            .analyses("utilization")
            .run(workers=workers)
        )
        assert list(result.metrics) == [
            str(capture_dir / "a.pcap"),
            str(capture_dir / "b.pcap"),
        ]
        (failure,) = result.failures
        assert failure.name == str(capture_dir / "c.pcap")
        assert failure.error_type == "TruncatedPcapError"
        text = result.render()
        assert "computed: utilization" in text
        assert "c.pcap] analysis failed [TruncatedPcapError" in text
