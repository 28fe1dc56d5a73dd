"""Corpus experiments through the spec layer and the fluent builder.

``pcaps = {corpus = "...", where = "..."}`` in a spec file routes an
analysis through :func:`repro.corpus.analyze_corpus` — same reports,
plus the stored-analysis warm path.
"""

import pytest

from repro.api import Experiment, ExperimentSpec, SpecError, run_spec

from ..corpus.conftest import write_capture

HOUR_US = 3_600 * 1_000_000


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    write_capture(root / "a.pcap", channel=6, t0_us=13 * HOUR_US)
    write_capture(root / "b.snoop", channel=1, t0_us=2 * HOUR_US)
    return root


class TestParsing:
    def test_corpus_table(self):
        spec = ExperimentSpec.from_mapping(
            {"pcaps": {"corpus": "captures", "where": "channel=6"}}
        )
        assert spec.corpus == "captures"
        assert spec.corpus_where == "channel=6"
        assert spec.pcaps == ()
        assert spec.mode == "analysis"

    def test_corpus_without_where(self):
        spec = ExperimentSpec.from_mapping({"pcaps": {"corpus": "captures"}})
        assert spec.corpus == "captures"
        assert spec.corpus_where is None

    def test_unknown_table_key_suggests(self):
        with pytest.raises(SpecError, match="where"):
            ExperimentSpec.from_mapping(
                {"pcaps": {"corpus": "captures", "were": "channel=6"}}
            )

    def test_toml_round_trip(self, corpus_dir):
        spec = ExperimentSpec.from_mapping(
            {"pcaps": {"corpus": str(corpus_dir), "where": "channel=6"}}
        )
        again = ExperimentSpec.from_toml(spec.to_toml())
        assert again == spec

    def test_mapping_round_trip(self):
        spec = ExperimentSpec.from_mapping({"pcaps": {"corpus": "captures"}})
        out = spec.to_mapping()
        assert out["pcaps"] == {"corpus": "captures"}
        assert ExperimentSpec.from_mapping(out) == spec


class TestValidation:
    def test_missing_corpus_dir(self):
        spec = ExperimentSpec.from_mapping({"pcaps": {"corpus": "/nope"}})
        with pytest.raises(SpecError, match="corpus not found"):
            spec.validate()

    def test_bad_query_caught_up_front(self, corpus_dir):
        spec = ExperimentSpec.from_mapping(
            {"pcaps": {"corpus": str(corpus_dir), "where": "chanel=6"}}
        )
        with pytest.raises(SpecError, match="bad corpus query"):
            spec.validate()

    def test_reversed_window_caught_up_front(self, corpus_dir):
        spec = ExperimentSpec.from_mapping(
            {"pcaps": {"corpus": str(corpus_dir), "where": "overlaps=200-100"}}
        )
        with pytest.raises(SpecError, match="empty window"):
            spec.validate()

    def test_pcaps_and_corpus_both_rejected(self, corpus_dir):
        spec = ExperimentSpec(pcaps=("a.pcap",), corpus=str(corpus_dir))
        with pytest.raises(SpecError, match="not both"):
            spec.validate()

    def test_where_without_corpus_rejected(self):
        spec = ExperimentSpec(pcaps=("a.pcap",), corpus_where="channel=6")
        with pytest.raises(SpecError, match="corpus"):
            spec.validate()

    def test_analyses_subset_rejected(self, corpus_dir):
        spec = ExperimentSpec(
            corpus=str(corpus_dir), analyses=("utilization",)
        )
        with pytest.raises(SpecError, match="always complete"):
            spec.validate()

    def test_scenario_and_corpus_both_rejected(self, corpus_dir):
        spec = ExperimentSpec(scenario="ramp", corpus=str(corpus_dir))
        with pytest.raises(SpecError):
            spec.validate()


class TestExecution:
    def test_spec_file_runs_corpus(self, corpus_dir, tmp_path):
        study = tmp_path / "study.toml"
        spec = ExperimentSpec.from_mapping(
            {
                "pcaps": {"corpus": str(corpus_dir), "where": "channel=6"},
                "run": {"workers": 1},
            }
        )
        study.write_text(spec.to_toml())
        result = run_spec(study)
        assert result.mode == "analysis"
        assert sorted(result.reports) == ["a.pcap"]
        assert result.reports["a.pcap"].summary.n_frames == 20

    def test_fluent_corpus_and_warm_rerun(self, corpus_dir):
        exp = Experiment.corpus(corpus_dir)
        first = exp.run(workers=1)
        assert sorted(first.reports) == ["a.pcap", "b.snoop"]
        second = exp.run(workers=1)  # warm: served from the store
        assert sorted(second.reports) == sorted(first.reports)

    def test_where_refines(self, corpus_dir):
        result = (
            Experiment.corpus(corpus_dir).where("format=snoop").run(workers=1)
        )
        assert sorted(result.reports) == ["b.snoop"]

    def test_where_on_non_corpus_rejected(self):
        with pytest.raises(SpecError, match="corpus"):
            Experiment.pcaps("a.pcap").where("channel=6")

    def test_sources_point_into_the_corpus(self, corpus_dir):
        result = Experiment.corpus(corpus_dir).run(workers=1)
        assert dict(result.sources) == {
            "a.pcap": str(corpus_dir / "a.pcap"),
            "b.snoop": str(corpus_dir / "b.snoop"),
        }
