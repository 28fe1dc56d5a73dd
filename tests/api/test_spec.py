"""ExperimentSpec: parsing, validation, serialization round-trips."""

import json

import pytest

from repro.api import ExperimentSpec, SpecError, load_spec
from repro.api._toml import dumps as toml_dumps

CAMPAIGN_TOML = """\
name = "study"
scenario = "ramp"
seeds = 2
analyses = ["utilization", "delays"]

[params]
duration_s = 4.0

[vary]
n_stations = [6, 10]

[run]
workers = 2
store = "campaign-store"
resume = false
"""


class TestParsing:
    def test_toml_campaign(self):
        spec = ExperimentSpec.from_toml(CAMPAIGN_TOML)
        assert spec.scenario == "ramp"
        assert spec.mode == "campaign"
        assert spec.seeds == 2
        assert spec.params == (("duration_s", 4.0),)
        assert spec.vary == (("n_stations", (6, 10)),)
        assert spec.analyses == ("utilization", "delays")
        assert spec.workers == 2
        assert spec.store == "campaign-store"
        assert spec.resume is False

    def test_single_mode(self):
        spec = ExperimentSpec.from_toml('scenario = "day"\n')
        assert spec.mode == "single"
        assert spec.seeds is None

    def test_analysis_mode(self):
        spec = ExperimentSpec.from_mapping({"pcaps": ["a.pcap", "b.pcap"]})
        assert spec.mode == "analysis"
        assert spec.pcaps == ("a.pcap", "b.pcap")

    def test_single_pcap_string(self):
        assert ExperimentSpec.from_mapping({"pcaps": "a.pcap"}).pcaps == ("a.pcap",)

    def test_seeds_list(self):
        spec = ExperimentSpec.from_mapping({"scenario": "ramp", "seeds": [7, 11]})
        assert spec.seeds == (7, 11)
        assert spec.mode == "campaign"

    def test_json_equivalent(self):
        toml_spec = ExperimentSpec.from_toml(CAMPAIGN_TOML)
        json_spec = ExperimentSpec.from_json(json.dumps(toml_spec.to_mapping()))
        assert json_spec == toml_spec

    def test_from_file_toml_and_json(self, tmp_path):
        toml_path = tmp_path / "s.toml"
        toml_path.write_text(CAMPAIGN_TOML)
        spec = load_spec(toml_path)
        json_path = tmp_path / "s.json"
        json_path.write_text(spec.to_json())
        assert load_spec(json_path) == spec

    def test_from_file_bad_extension(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("scenario: ramp")
        with pytest.raises(SpecError, match="unsupported spec extension"):
            load_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec"):
            load_spec(tmp_path / "nope.toml")

    def test_non_utf8_file_names_path_and_offset(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b'{"scenario": "ramp", "name": "\xc3"}')
        with pytest.raises(SpecError, match=r"s\.json is not UTF-8: byte 0xc3 at offset 30"):
            load_spec(path)

    def test_crlf_file_reads_like_lf(self, tmp_path):
        crlf, lf = tmp_path / "crlf.toml", tmp_path / "lf.toml"
        crlf.write_bytes(CAMPAIGN_TOML.replace("\n", "\r\n").encode())
        lf.write_bytes(CAMPAIGN_TOML.encode())
        assert load_spec(crlf) == load_spec(lf)

    def test_invalid_toml(self):
        with pytest.raises(SpecError, match="invalid TOML"):
            ExperimentSpec.from_toml("scenario = [unterminated")


class TestStrictKeys:
    def test_unknown_top_key_suggests(self):
        with pytest.raises(SpecError, match="did you mean 'vary'"):
            ExperimentSpec.from_mapping({"scenario": "ramp", "varry": {}})

    def test_unknown_run_key_suggests(self):
        with pytest.raises(SpecError, match="did you mean 'workers'"):
            ExperimentSpec.from_mapping(
                {"scenario": "ramp", "run": {"worker": 2}}
            )

    def test_chunk_frames_is_not_a_run_option(self):
        """Segment size belongs to the sources, not to a spec."""
        with pytest.raises(SpecError, match="unknown run option 'chunk_frames'"):
            ExperimentSpec.from_toml(
                'scenario = "ramp"\n[run]\nchunk_frames = 4096\n'
            )

    def test_vary_scalar_rejected(self):
        with pytest.raises(SpecError, match="must be a list"):
            ExperimentSpec.from_mapping(
                {"scenario": "ramp", "vary": {"n_stations": 10}}
            )

    def test_seeds_bool_rejected(self):
        with pytest.raises(SpecError, match="'seeds'"):
            ExperimentSpec.from_mapping({"scenario": "ramp", "seeds": True})

    def test_source_names_file_in_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('scenrio = "ramp"\n')
        with pytest.raises(SpecError, match="bad.toml"):
            load_spec(path)


class TestValidate:
    def test_both_sources_rejected(self):
        spec = ExperimentSpec.from_mapping(
            {"scenario": "ramp", "pcaps": ["a.pcap"]}
        )
        with pytest.raises(SpecError, match="not both"):
            spec.validate()

    def test_no_source_rejected(self):
        with pytest.raises(SpecError, match="needs a source"):
            ExperimentSpec().validate()

    def test_unknown_scenario_suggests(self):
        spec = ExperimentSpec.from_mapping({"scenario": "rampp"})
        with pytest.raises(SpecError, match="did you mean 'ramp'"):
            spec.validate()

    def test_unknown_param_suggests(self):
        spec = ExperimentSpec.from_mapping(
            {"scenario": "ramp", "vary": {"n_statoins": [4]}}
        )
        with pytest.raises(SpecError, match="did you mean 'n_stations'"):
            spec.validate()

    def test_unknown_analysis_suggests(self):
        spec = ExperimentSpec.from_mapping(
            {"scenario": "ramp", "analyses": ["utilzation"]}
        )
        with pytest.raises(SpecError, match="did you mean 'utilization'"):
            spec.validate()

    def test_param_vary_overlap_rejected(self):
        spec = ExperimentSpec.from_mapping(
            {
                "scenario": "ramp",
                "params": {"n_stations": 4},
                "vary": {"n_stations": [4, 6]},
            }
        )
        with pytest.raises(SpecError, match="both"):
            spec.validate()

    def test_store_needs_campaign(self):
        spec = ExperimentSpec.from_mapping(
            {"scenario": "ramp", "run": {"store": "dir"}}
        )
        with pytest.raises(SpecError, match="needs a campaign"):
            spec.validate()

    def test_pcaps_with_vary_rejected(self):
        spec = ExperimentSpec.from_mapping(
            {"pcaps": ["a.pcap"], "vary": {"n_stations": [4]}}
        )
        with pytest.raises(SpecError, match="pcap analysis"):
            spec.validate()

    def test_valid_campaign_passes(self):
        ExperimentSpec.from_toml(CAMPAIGN_TOML).validate()


class TestSerialization:
    def test_toml_round_trip(self):
        spec = ExperimentSpec.from_toml(CAMPAIGN_TOML)
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_json_round_trip(self):
        spec = ExperimentSpec.from_toml(CAMPAIGN_TOML)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_save_round_trip(self, tmp_path):
        spec = ExperimentSpec.from_toml(CAMPAIGN_TOML)
        assert load_spec(spec.save(tmp_path / "x.toml")) == spec
        assert load_spec(spec.save(tmp_path / "x.json")) == spec

    def test_hash_stable_and_distinct(self):
        a = ExperimentSpec.from_toml(CAMPAIGN_TOML)
        b = ExperimentSpec.from_toml(CAMPAIGN_TOML)
        assert a.hash == b.hash
        c = ExperimentSpec.from_mapping({"scenario": "day"})
        assert a.hash != c.hash

    def test_live_object_fails_toml_loudly(self):
        from repro.sim import ConstantRate

        spec = ExperimentSpec(
            scenario="ramp", params=(("uplink", ConstantRate(3.0)),)
        )
        with pytest.raises(TypeError, match="not TOML-serializable"):
            spec.to_toml()

    def test_with_options_none_keeps(self):
        spec = ExperimentSpec.from_toml(CAMPAIGN_TOML)
        assert spec.with_options(workers=None) == spec
        assert spec.with_options(workers=8).workers == 8


class TestTomlEmitter:
    def test_escaping_and_types(self):
        import tomllib

        data = {
            "name": 'quote " backslash \\ unicode é',
            "flag": True,
            "n": 3,
            "x": 1.5,
            "xs": [1, 2, 3],
            "table": {"a": 1, "nested key": "v"},
        }
        assert tomllib.loads(toml_dumps(data)) == data

    def test_non_finite_float_rejected(self):
        with pytest.raises(TypeError, match="non-finite"):
            toml_dumps({"x": float("nan")})


class TestPcapExistence:
    def test_missing_pcap_rejected_at_validate(self, tmp_path):
        spec = ExperimentSpec.from_mapping(
            {"pcaps": [str(tmp_path / "nope.pcap")]}
        )
        with pytest.raises(SpecError, match="capture not found"):
            spec.validate()

    def test_existing_pcap_passes(self, tmp_path):
        path = tmp_path / "t.pcap"
        path.write_bytes(b"")
        ExperimentSpec.from_mapping({"pcaps": [str(path)]}).validate()
