"""Tests for the command-line toolkit and the report renderer."""

import pytest

from repro.core import analyze_trace
from repro.core.render import render_report
from repro.tools import build_parser, main


class TestRenderReport:
    def test_sections_present(self, small_scenario):
        report = analyze_trace(
            small_scenario.trace, small_scenario.roster, name="render-test"
        )
        text = render_report(report)
        assert "render-test" in text
        assert "Capture summary" in text
        assert "Utilization per second" in text
        assert "Congestion classes" in text
        assert "Fig 6" in text
        assert "Unrecorded-frame estimate" in text
        assert "Most active APs" in text

    def test_render_without_roster(self, small_scenario):
        report = analyze_trace(small_scenario.trace, name="no-roster")
        text = render_report(report)
        assert "Most active APs" not in text  # AP section needs a roster


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["simulate", "out.pcap", "--set", "n_stations=4"]
        )
        assert args.command == "simulate"
        assert args.scenario == "uniform"
        assert args.params == ["n_stations=4"]

    def test_simulate_then_analyze_then_info(self, tmp_path, capsys):
        pcap = tmp_path / "cli.pcap"
        rc = main(
            [
                "simulate", str(pcap),
                "--set", "n_stations=4", "--set", "duration_s=4",
                "--set", "uplink_pps=6", "--set", "downlink_pps=10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert pcap.exists()

        rc = main(["analyze", str(pcap), "--name", "cli-session"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-session" in out
        assert "Congestion classes" in out

        rc = main(["info", str(pcap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Capture summary" in out


    @pytest.mark.parametrize("assignment", ["uplink=3", "placement=x"])
    def test_simulate_wrong_kind_is_one_line_exit_2(
        self, tmp_path, capsys, assignment
    ):
        pcap = tmp_path / "o.pcap"
        rc = main(["simulate", str(pcap), "--set", assignment])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        field = assignment.partition("=")[0]
        assert f"{field} must be " in err
        assert not pcap.exists()

    @pytest.mark.parametrize(
        "assignment", ["room_width_m=-3", "uplink_pps=x", "downlink_pps=-5"]
    )
    def test_simulate_out_of_range_is_one_line_exit_2(
        self, tmp_path, capsys, assignment
    ):
        pcap = tmp_path / "o.pcap"
        rc = main(
            ["simulate", str(pcap), "--set", assignment, "--set", "duration_s=0.5"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        field = assignment.partition("=")[0]
        assert f"{field} must be " in err
        assert not pcap.exists()

    def test_analyze_empty_capture_fails(self, tmp_path, capsys):
        from repro.frames import Trace
        from repro.pcap import write_trace

        pcap = tmp_path / "empty.pcap"
        write_trace(Trace.empty(), pcap)
        rc = main(["analyze", str(pcap)])
        assert rc == 1
        assert "empty capture" in capsys.readouterr().err

    def test_analyze_mixed_empty_still_prints_nonempty(self, tmp_path, capsys):
        """One empty capture must not swallow the other reports."""
        from repro.frames import Trace
        from repro.pcap import write_trace

        good = tmp_path / "good.pcap"
        rc = main(
            [
                "simulate", str(good),
                "--set", "n_stations=3", "--set", "duration_s=3",
                "--set", "uplink_pps=5", "--set", "downlink_pps=8",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        empty = tmp_path / "empty.pcap"
        write_trace(Trace.empty(), empty)

        rc = main(["analyze", str(good), str(empty)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Congestion classes" in captured.out  # good report printed
        assert "empty capture" in captured.err

    def test_analyze_bad_worker_and_chunk_args(self, tmp_path, capsys):
        rc = main(["analyze", "whatever.pcap", "--workers", "0"])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "spec.toml"],
            ["analyze", "x.pcap"],
            ["corpus", "analyze", "root"],
            ["campaign"],
            ["campaign-coordinator", "--store", "s"],
            ["serve"],
        ],
        ids=[
            "run", "analyze", "corpus-analyze", "campaign",
            "campaign-coordinator", "serve",
        ],
    )
    def test_chunk_frames_flag_is_gone(self, argv, capsys):
        """Segment size is not a run option: the flag is a usage error."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--chunk-frames", "4096"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --chunk-frames" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["cut", "foreign", "missing"])
    def test_info_reports_bad_capture_in_one_line(
        self, tmp_path, capsys, damage
    ):
        """info fails like analyze: one stderr line naming the path (and
        the byte offset, where there is one), never a traceback."""
        from repro.frames import Trace
        from repro.pcap import write_trace

        from ..conftest import data

        path = tmp_path / "capture.pcap"
        if damage == "cut":
            rows = [data(i * 1_000, src=10, dst=1, seq=i) for i in range(20)]
            write_trace(Trace.from_rows(rows), path)
            path.write_bytes(path.read_bytes()[:-9])
        elif damage == "foreign":
            path.write_text("not a capture\n" * 8)
        rc = main(["info", str(path)])
        captured = capsys.readouterr()
        assert rc == (2 if damage == "missing" else 1)
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert str(path) in lines[0]
        if damage == "cut":
            assert "byte offset" in lines[0]
        assert "Traceback" not in captured.err + captured.out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCampaignCli:
    def test_list_scenarios(self, capsys):
        assert main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out
        assert "ramp" in out and "hidden-terminal" in out

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["campaign", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_vary_syntax_rejected(self, capsys):
        rc = main(["campaign", "--vary", "n_stations"])
        assert rc == 2
        assert "campaign error" in capsys.readouterr().err

    def test_small_grid_runs_and_writes_summary(self, tmp_path, capsys):
        out_path = tmp_path / "campaign.txt"
        rc = main(
            [
                "campaign",
                "--scenario", "ramp",
                "--vary", "n_stations=4,6",
                "--fix", "duration_s=1.5",
                "--workers", "1",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "n_stations=4" in out
        assert out_path.exists()
        assert "utilization knee" in out_path.read_text()


class TestProfileFlag:
    def test_simulate_profile_prints_cprofile_table(self, tmp_path, capsys):
        from repro.tools import main

        rc = main(
            [
                "simulate",
                str(tmp_path / "prof.pcap"),
                "--set", "n_stations=3",
                "--set", "duration_s=1",
                "--profile",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cProfile [fidelity=default]: top 20 by cumulative time" in out
        assert "cumtime" in out

    def test_campaign_profile_forces_serial(self, capsys):
        from repro.tools import main

        rc = main(
            [
                "campaign",
                "--scenario", "ramp",
                "--vary", "n_stations=3",
                "--fix", "duration_s=1.0",
                "--workers", "4",
                "--profile",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "cProfile [fidelity=default]: top 20 by cumulative time" in captured.out
        assert "forces --workers 1" in captured.err

    def test_campaign_profile_refuses_distributed_dispatch(
        self, monkeypatch, capsys
    ):
        """Distributed cells run in worker subprocesses the profiler
        cannot see, so the combination is a usage error, not a profile
        of the coordinator's wait loop."""
        from repro.campaign import dispatch

        def never(*args, **kwargs):
            raise AssertionError("a distributed campaign was started")

        monkeypatch.setattr(dispatch, "_drive_local_workers", never)
        rc = main(
            [
                "campaign",
                "--vary", "n_stations=3",
                "--fix", "duration_s=1.0",
                "--dispatch", "distributed",
                "--profile",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "--profile" in captured.err
        assert "--dispatch distributed" in captured.err
        assert "cProfile" not in captured.out


SPEC_TOML = """\
name = "cli-spec"
scenario = "ramp"

[params]
duration_s = 1.5

[vary]
n_stations = [3, 4]
"""


class TestRunCli:
    """The `run <spec>` subcommand (the repro.api front door on the CLI)."""

    def test_run_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "study.toml"
        spec.write_text(SPEC_TOML)
        rc = main(["run", str(spec), "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-spec" in out
        assert "n_stations=3" in out and "n_stations=4" in out

    def test_validate_only(self, tmp_path, capsys):
        spec = tmp_path / "study.toml"
        spec.write_text(SPEC_TOML)
        rc = main(["run", str(spec), "--validate-only"])
        assert rc == 0
        assert "OK (campaign, 2 cells)" in capsys.readouterr().out

    def test_non_utf8_spec_is_one_line_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.toml"
        spec.write_bytes(b'scenario = "ramp"\nname = "x\xff"\n')
        rc = main(["run", str(spec), "--validate-only"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(spec) in err and "byte 0xff at offset 27" in err

    def test_non_finite_duration_is_one_line_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "forever.toml"
        spec.write_text('scenario = "ramp"\n[params]\nduration_s = inf\n')
        rc = main(["run", str(spec)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "duration_s must be finite, got inf" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                "[params]\nduration_s = inf\n",
                "duration_s=inf: duration_s must be finite, got inf",
            ),
            (
                "[params]\nn_stations = 0\n",
                "n_stations=0: need at least one station and one AP",
            ),
            (
                "[vary]\nn_stations = [0, 2]\n",
                "n_stations=0: need at least one station and one AP",
            ),
            (
                '[params]\nrate_algorithm = "bogus"\n',
                "rate_algorithm=bogus: rate_algorithm: unknown rate adaptation "
                "algorithm 'bogus'",
            ),
            (
                "[params]\nrate_adaptation_kwargs = {bogus = 1}\n",
                "rate_adaptation_kwargs: got an unexpected keyword argument 'bogus'",
            ),
            (
                "[params]\nroom_width_m = -3\n",
                "room_width_m=-3: room_width_m must be finite and positive",
            ),
        ],
        ids=[
            "infinite-duration", "no-stations", "vary-no-stations",
            "bogus-rate-algorithm", "bogus-rate-kwarg", "negative-room",
        ],
    )
    def test_validate_only_checks_parameter_values(
        self, tmp_path, capsys, body, message
    ):
        """Each grid point's config is resolved while validating, so a
        value the run would refuse is refused before anything runs."""
        spec = tmp_path / "bad.toml"
        spec.write_text('scenario = "uniform"\n' + body)
        rc = main(["run", str(spec), "--validate-only"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message in err

    def test_set_overrides_params(self, tmp_path, capsys):
        spec = tmp_path / "study.toml"
        spec.write_text('scenario = "ramp"\n[params]\nduration_s = 1.5\n')
        rc = main(
            ["run", str(spec), "--set", "n_stations=3", "--validate-only"]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["run", str(spec), "--set", "n_statoins=3"])
        assert rc == 2
        assert "did you mean 'n_stations'" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        import json

        spec = tmp_path / "study.toml"
        spec.write_text(SPEC_TOML.replace("[3, 4]", "[3]"))
        rc = main(["run", str(spec), "--workers", "1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "campaign"
        assert payload["spec"]["name"] == "cli-spec"

    def test_store_resume_round_trip(self, tmp_path, capsys):
        spec = tmp_path / "study.toml"
        spec.write_text(SPEC_TOML)
        store = tmp_path / "store"
        rc = main(["run", str(spec), "--workers", "1", "--store", str(store)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["run", str(spec), "--workers", "1", "--store", str(store)])
        assert rc == 0
        assert "2 from store" in capsys.readouterr().out

    def test_missing_spec_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.toml")])
        assert rc == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_unknown_spec_key_suggests(self, tmp_path, capsys):
        spec = tmp_path / "bad.toml"
        spec.write_text('scenario = "ramp"\n[varry]\nn_stations = [3]\n')
        rc = main(["run", str(spec)])
        assert rc == 2
        assert "did you mean 'vary'" in capsys.readouterr().err

    def test_out_writes_rendered_result(self, tmp_path, capsys):
        spec = tmp_path / "study.toml"
        spec.write_text(SPEC_TOML.replace("[3, 4]", "[3]"))
        out_path = tmp_path / "result.txt"
        rc = main(["run", str(spec), "--workers", "1", "--out", str(out_path)])
        assert rc == 0
        assert "n_stations=3" in out_path.read_text()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_subset_spec_over_a_truncated_capture_exits_1(
        self, tmp_path, monkeypatch, capsys, workers
    ):
        """One truncated capture in a subset spec's directory is a
        failure record, not a lost batch or a traceback."""
        from repro.frames import Trace
        from repro.pcap import write_trace

        from ..conftest import ack, data

        caps = tmp_path / "caps"
        caps.mkdir()
        rows = [data(1_000, src=10, dst=1, seq=0), ack(2_400, src=1, dst=10)]
        for name in ("a.pcap", "b.pcap"):
            write_trace(Trace.from_rows(rows), caps / name)
        raw = (caps / "a.pcap").read_bytes()
        (caps / "c.pcap").write_bytes(raw[: len(raw) - 7])
        spec = tmp_path / "subset.toml"
        spec.write_text('pcaps = ["caps"]\nanalyses = ["utilization"]\n')
        monkeypatch.chdir(tmp_path)
        rc = main(["run", str(spec), "--workers", workers])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in captured.err
        assert "caps/c.pcap: analysis failed [TruncatedPcapError" in captured.err
        assert "[caps/a.pcap] computed: utilization" in captured.out
        assert "[caps/b.pcap] computed: utilization" in captured.out

    @staticmethod
    def _capture_dir(root, n):
        from repro.frames import Trace
        from repro.pcap import write_trace

        from ..conftest import ack, data

        root.mkdir()
        rows = [data(1_000, src=10, dst=1, seq=0), ack(2_400, src=1, dst=10)]
        for i in range(n):
            write_trace(Trace.from_rows(rows), root / f"{i}.pcap")

    def test_validate_only_counts_the_expanded_captures(
        self, tmp_path, monkeypatch, capsys
    ):
        self._capture_dir(tmp_path / "caps", 3)
        spec = tmp_path / "caps.toml"
        spec.write_text('pcaps = ["caps"]\n')
        monkeypatch.chdir(tmp_path)
        rc = main(["run", str(spec), "--validate-only"])
        assert rc == 0
        assert "OK (analysis, 3 capture(s))" in capsys.readouterr().out

    def test_validate_only_names_a_corpus_without_scanning_it(
        self, tmp_path, monkeypatch, capsys
    ):
        self._capture_dir(tmp_path / "caps", 3)
        spec = tmp_path / "corpus.toml"
        spec.write_text('pcaps = {corpus = "caps", where = "channel=1"}\n')
        monkeypatch.chdir(tmp_path)
        rc = main(["run", str(spec), "--validate-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK (analysis, corpus caps where 'channel=1')" in out
        assert "capture(s)" not in out
        # No catalog was built: validating never indexes the corpus.
        assert sorted(p.name for p in (tmp_path / "caps").iterdir()) == [
            "0.pcap", "1.pcap", "2.pcap"
        ]


@pytest.fixture
def refuse_coordinator(monkeypatch):
    """Fail the test if ``campaign-coordinator`` gets as far as serving."""
    from repro.campaign import dispatch

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the coordinator opened a socket")

    monkeypatch.setattr(dispatch, "Coordinator", Refused)


class TestGridSubcommandsValidateAlike:
    """campaign-status and campaign-coordinator reject what campaign
    rejects, before touching the store or opening a socket."""

    def test_status_vary_typo_suggests(self, tmp_path, capsys):
        rc = main(
            [
                "campaign-status", "--store", str(tmp_path / "s"),
                "--scenario", "ramp", "--vary", "n_statoins=3,4",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "did you mean 'n_stations'" in captured.err
        assert "pending" not in captured.out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--timeout-s", "-1", "'timeout_s' must be > 0"),
        ],
    )
    def test_coordinator_rejects_bad_run_options(
        self, tmp_path, capsys, refuse_coordinator, flag, value, message
    ):
        rc = main(
            [
                "campaign-coordinator", "--store", str(tmp_path / "s"),
                "--vary", "n_stations=3,4", flag, value,
            ]
        )
        assert rc == 2
        assert message in capsys.readouterr().err


class TestCliParity:
    """campaign, campaign-status, campaign-coordinator and a spec file
    fold into one spec: the same cells under the same store keys."""

    GRID = ["--scenario", "ramp", "--vary", "n_stations=3,4", "--fix", "duration_s=1.0"]

    def test_one_store_answers_every_path(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        rc = main(["campaign", *self.GRID, "--workers", "1", "--store", store])
        assert rc == 0
        assert "(0 from store, 2 run, 0 failed)" in capsys.readouterr().out

        assert main(["campaign-status", "--store", store, *self.GRID]) == 0
        out = capsys.readouterr().out
        assert "2 done, 0 pending, 0 failed of 2 cells" in out
        assert out.count("  done     ramp/") == 2

        # Every cell is stored, so the coordinator finishes without a
        # worker ever connecting.
        assert main(["campaign-coordinator", "--store", store, *self.GRID]) == 0
        assert "(2 from store, 0 run, 0 failed)" in capsys.readouterr().out

        spec = tmp_path / "study.toml"
        spec.write_text(
            'scenario = "ramp"\n[params]\nduration_s = 1.0\n'
            "[vary]\nn_stations = [3, 4]\n"
        )
        rc = main(["run", str(spec), "--workers", "1", "--store", store])
        assert rc == 0
        assert "(2 from store, 0 run, 0 failed)" in capsys.readouterr().out


class TestTypoSuggestions:
    """Silent-typo fix: unknown keys fail fast with suggestions."""

    def test_campaign_vary_typo_suggests(self, capsys):
        rc = main(
            ["campaign", "--scenario", "ramp", "--vary", "n_statoins=3,4"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "did you mean 'n_stations'" in err

    def test_campaign_fix_typo_suggests(self, capsys):
        rc = main(
            [
                "campaign",
                "--scenario", "ramp",
                "--vary", "n_stations=3",
                "--fix", "durration_s=1.0",
            ]
        )
        assert rc == 2
        assert "did you mean 'duration_s'" in capsys.readouterr().err

    def test_campaign_scenario_typo_suggests(self, capsys):
        rc = main(["campaign", "--scenario", "rampp", "--vary", "n_stations=3"])
        assert rc == 2
        assert "did you mean 'ramp'" in capsys.readouterr().err


class TestServeCli:
    def test_parser_serve_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.host == "127.0.0.1"
        assert args.queue_chunks == 8
        assert args.max_feeds == 64
        assert args.port_file is None

    def test_analyze_truncated_capture_reports_failure(self, tmp_path, capsys):
        """A broken file is reported on stderr; good reports still print."""
        good = tmp_path / "good.pcap"
        rc = main(
            [
                "simulate", str(good),
                "--set", "n_stations=3", "--set", "duration_s=3",
                "--set", "uplink_pps=5", "--set", "downlink_pps=8",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        broken = tmp_path / "broken.pcap"
        broken.write_bytes(good.read_bytes()[:-11])

        rc = main(["analyze", str(good), str(broken)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Congestion classes" in captured.out
        assert "TruncatedPcapError" in captured.err

    def test_serve_subprocess_end_to_end(self, tmp_path):
        """Boot the real daemon process, drive it with urllib, SIGINT it."""
        import json
        import os
        import signal
        import subprocess
        import sys
        import urllib.request

        from tests.waiting import wait_until

        def _assert_alive(proc):
            assert proc.poll() is None, proc.stdout.read().decode()

        port_file = tmp_path / "ports.json"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--port-file", str(port_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            wait_until(
                port_file.exists,
                timeout_s=60,
                message="daemon never wrote ports",
                on_tick=lambda: _assert_alive(proc),
            )
            port = json.loads(port_file.read_text())["http_port"]
            base = f"http://127.0.0.1:{port}"
            health = json.load(
                urllib.request.urlopen(base + "/health", timeout=10)
            )
            assert health["status"] == "ok"
            request = urllib.request.Request(
                base + "/feeds",
                data=json.dumps(
                    {
                        "kind": "scenario",
                        "scenario": "ramp",
                        "params": {"duration_s": 1},
                        "name": "sim",
                    }
                ).encode(),
            )
            feed = json.load(urllib.request.urlopen(request, timeout=30))
            assert feed["id"] == "sim"
            def _feed_settled():
                info = json.load(
                    urllib.request.urlopen(base + "/feeds/sim", timeout=10)
                )
                # "draining" is transitional: wait for a terminal state.
                return info if info["state"] in ("closed", "failed") else None

            info = wait_until(
                _feed_settled, timeout_s=60, message="scenario never finished"
            )
            assert info["state"] == "closed"
            report = json.load(
                urllib.request.urlopen(base + "/feeds/sim/report", timeout=10)
            )
            assert report["summary"]["frames"] == info["frames_in"]
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
