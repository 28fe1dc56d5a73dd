"""Command-line interface: run specs, simulate, analyze, sweep, inspect.

Usage (``repro`` and ``python -m repro`` are the same program)::

    repro run study.toml --workers 4
    repro run study.toml --validate-only
    repro simulate out.pcap --set n_stations=10 --set duration_s=20
    repro simulate day.pcap --scenario day --fidelity fast
    repro analyze capture.pcap
    repro analyze day.pcap plenary.pcap --workers 2
    repro analyze captures/ 'sniffers/**/*.snoop' --workers 4
    repro corpus index captures/
    repro corpus query captures/ --where "channel=6 frames>10k"
    repro corpus analyze captures/ --where "overlaps=13:00-14:00"
    repro campaign --scenario ramp \\
        --vary n_stations=10,20,40 --seeds 2 --workers 4 \\
        --store campaign-store --resume
    repro campaign-status --store campaign-store \\
        --scenario ramp --vary n_stations=10,20,40 --seeds 2
    repro campaign-coordinator --store campaign-store \\
        --scenario ramp --vary n_stations=10,20,40 --seeds 2 --port 9300
    repro campaign-worker --connect 127.0.0.1:9300
    repro info capture.pcap
    repro serve --port 8433
    repro lint

Every experiment subcommand is a spec builder over :mod:`repro.api`:
``run`` loads a declarative spec file (TOML/JSON — see
:mod:`repro.api.spec`), and ``simulate``, ``analyze``, ``corpus
analyze``, ``campaign``, ``campaign-status`` and
``campaign-coordinator`` build one from their arguments.  The flags that set
:class:`~repro.api.ExperimentSpec` fields are declared once
(``_SPEC_FLAGS``, each ``dest`` a field name — the grid flags
``--scenario --vary --fix --seeds --fidelity`` and the run flags
``--workers --store --resume --retry-failed --timeout-s --dispatch
--out``); ``_spec_from_args`` folds whichever a subcommand
takes into its spec, and ``ExperimentSpec.validate()`` checks the
result, so a flag means the same on every subcommand and in a spec
file.

``simulate`` runs a library scenario (``uniform`` unless ``--scenario``
names another, its parameters set with ``--set``) and writes the
sniffer capture as a real radiotap pcap; ``analyze`` streams
one or more pcaps through the single-pass :mod:`repro.pipeline` and
prints the rendered congestion report(s) — multiple captures are
analyzed in parallel; ``campaign`` sweeps a parameter grid over a
library scenario across a process pool (each cell streamed live
through the pipeline, bounded memory) and prints/saves the campaign
summary — with ``--store`` every finished cell persists immediately
(crash-safe) and ``--resume`` re-runs only missing cells;
``campaign-status`` lists done/pending/failed cells of a stored grid
(and the live cluster state when a coordinator is running over it);
``campaign-coordinator``/``campaign-worker`` run the same sweep as a
fault-tolerant cluster — workers lease cell batches over a socket and
may be killed, added or restarted freely (:mod:`repro.campaign.dispatch`);
``corpus`` manages an indexed capture library (content-addressed
catalog, catalog-only queries, query-planned batch analysis that skips
already-stored reports — see :mod:`repro.corpus`);
``info`` prints the Table-1 style summary only (``analyze`` with just
the ``summary`` consumer, so it fails as ``analyze`` does); ``serve``
runs the always-on multi-feed analysis daemon (:mod:`repro.serve`);
``lint`` runs the AST-based determinism & protocol-safety analyzer
(:mod:`repro.lint`), which exits 1 on any finding.  No
subcommand takes a segment size: captures stream in
:data:`~repro.pipeline.DEFAULT_CHUNK_FRAMES` batches and simulations in
one-second windows.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

from .api import Experiment, ExperimentResult, ExperimentSpec, SpecError
from .api.execute import execute, grid_for
from .campaign import CampaignStore
from .core.render import render_report
from .lint.cli import add_lint_arguments
from .lint.cli import run_from_args as _run_lint_args
from .pcap import write_trace
from .sim import available_scenarios
from .viz import table

__all__ = ["main", "build_parser"]

#: Every flag that sets an :class:`ExperimentSpec` field, declared once:
#: ``dest`` → (option strings, argparse options).  Each ``dest`` is the
#: field name, except ``out`` (the file the rendered result goes to).
_SPEC_FLAGS: dict[str, tuple[tuple[str, ...], dict]] = {
    "scenario": (
        ("--scenario",),
        {"help": "library scenario name (see campaign --list)"},
    ),
    "vary": (
        ("--vary",),
        {
            "action": "append",
            "metavar": "KEY=V1,V2,...",
            "help": "sweep axis (repeatable), e.g. --vary n_stations=10,20,40",
        },
    ),
    "params": (
        ("--fix", "--set"),
        {
            "action": "append",
            "metavar": "KEY=VALUE",
            "help": "scenario parameter for every run/cell (repeatable; "
            "overrides a spec file's [params] entry)",
        },
    ),
    "seeds": (("--seeds",), {"type": int, "help": "seeds per grid point"}),
    "fidelity": (
        ("--fidelity",),
        {
            "metavar": "MODE",
            "help": "simulation engine (see repro.sim.FIDELITY_MODES; "
            "store keys include it)",
        },
    ),
    "workers": (
        ("--workers",),
        {"type": int, "help": "worker processes (default: pool size; 1 = serial)"},
    ),
    "store": (
        ("--store",),
        {
            "metavar": "DIR",
            "help": "content-addressed cell store: results persist as they "
            "complete (crash-safe), and --resume reuses them",
        },
    ),
    "resume": (
        ("--resume",),
        {
            "action": argparse.BooleanOptionalAction,
            "help": "answer cells already in --store without re-simulating",
        },
    ),
    "retry_failed": (
        ("--retry-failed",),
        {
            "action": argparse.BooleanOptionalAction,
            "help": "with --resume, re-run cells that previously failed",
        },
    ),
    "timeout_s": (
        ("--timeout-s",),
        {
            "type": float,
            "metavar": "SECONDS",
            "help": "per-cell wall-clock budget: a cell still running at the "
            "deadline fails as type=Timeout instead of stalling its worker",
        },
    ),
    "dispatch": (
        ("--dispatch",),
        {
            "metavar": "MODE",
            "help": "'local' = one process pool; 'distributed' = "
            "fault-tolerant coordinator + worker subprocesses",
        },
    ),
    "out": (("--out",), {"help": "also write the rendered result here"}),
}

_GRID_FLAGS = ("scenario", "vary", "params", "seeds", "fidelity")
_RUN_FLAGS = (
    "workers",
    "store",
    "resume",
    "retry_failed",
    "timeout_s",
    "dispatch",
    "out",
)


def _spec_flags(*dests: str, required: tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """A parent parser holding the ``_SPEC_FLAGS`` entries named by ``dests``.

    Built fresh per subcommand, so ``set_defaults`` on one subcommand
    never leaks into another through a shared argparse action.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for dest in dests:
        flags, options = _SPEC_FLAGS[dest]
        parent.add_argument(*flags, dest=dest, required=dest in required, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="802.11b congestion-analysis toolkit (IMC 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        parents=[_spec_flags(*_GRID_FLAGS, *_RUN_FLAGS)],
        help="execute a declarative experiment spec file (.toml/.json); "
        "flags override the spec",
    )
    run.add_argument("spec", help="spec file path (see repro.api.spec)")
    run.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable result summary instead of text",
    )
    run.add_argument(
        "--validate-only",
        action="store_true",
        help="parse + validate the spec (and count its cells), run nothing",
    )

    simulate = sub.add_parser(
        "simulate",
        parents=[_spec_flags("scenario", "params", "fidelity")],
        help="run a library scenario (default: uniform) and write the "
        "capture as pcap; --set KEY=VALUE sets its parameters",
    )
    simulate.set_defaults(scenario="uniform")
    simulate.add_argument("output", help="output .pcap path")
    simulate.add_argument(
        "--profile",
        action="store_true",
        help="print a cProfile top-20 cumulative table after the run",
    )

    analyze = sub.add_parser(
        "analyze",
        parents=[_spec_flags("workers")],
        help="full congestion report from one or more captures (single-pass pipeline)",
    )
    analyze.add_argument(
        "captures",
        nargs="+",
        help="capture file(s), directories or glob patterns "
        "(.pcap/.snoop, optionally .gz; expanded sorted)",
    )
    analyze.add_argument(
        "--name", default=None, help="report title (single capture only)"
    )

    corpus = sub.add_parser(
        "corpus",
        help="index, query and batch-analyze a capture library",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    corpus_index = corpus_sub.add_parser(
        "index",
        help="build/refresh the content-addressed capture catalog",
    )
    corpus_index.add_argument("root", help="corpus directory")
    corpus_index.add_argument(
        "--verify",
        action="store_true",
        help="re-hash every capture even when its size+mtime match",
    )

    corpus_query = corpus_sub.add_parser(
        "query",
        help="list catalogued captures matching a predicate "
        "(answered from the catalog — capture files are not opened)",
    )
    corpus_query.add_argument("root", help="corpus directory")
    corpus_query.add_argument(
        "--where",
        default=None,
        metavar="QUERY",
        help='e.g. "channel=6 frames>10k overlaps=13:00-14:00" '
        "(see repro.corpus.query)",
    )
    corpus_query.add_argument(
        "--no-refresh",
        action="store_true",
        help="answer from the existing catalog without rescanning disk",
    )

    corpus_analyze = corpus_sub.add_parser(
        "analyze",
        parents=[_spec_flags("workers")],
        help="query-planned batch analysis: stored reports are served, "
        "the rest dispatch largest-first",
    )
    corpus_analyze.add_argument("root", help="corpus directory")
    corpus_analyze.add_argument(
        "--where", default=None, metavar="QUERY", help="catalog predicate"
    )
    corpus_analyze.add_argument(
        "--no-refresh",
        action="store_true",
        help="trust the existing catalog without rescanning disk",
    )
    corpus_analyze.add_argument(
        "--report",
        action="store_true",
        help="print each capture's rendered report after the plan summary",
    )

    campaign = sub.add_parser(
        "campaign",
        parents=[_spec_flags(*_GRID_FLAGS, *_RUN_FLAGS)],
        help="sweep a parameter grid over a library scenario in parallel",
    )
    campaign.set_defaults(scenario="ramp", seeds=1, resume=False)
    campaign.add_argument(
        "--list",
        action="store_true",
        help="list library scenarios and exit",
    )
    campaign.add_argument(
        "--profile",
        action="store_true",
        help="print a cProfile top-20 cumulative table after the sweep "
        "(forces --workers 1 so cell work is visible to the profiler)",
    )

    status = sub.add_parser(
        "campaign-status",
        parents=[_spec_flags(*_GRID_FLAGS, "store", required=("store",))],
        help="list done/pending/failed cells of a stored campaign grid "
        "(omit --scenario to list store contents)",
    )
    status.set_defaults(seeds=1)

    coordinator = sub.add_parser(
        "campaign-coordinator",
        parents=[
            _spec_flags(
                *_GRID_FLAGS,
                "store",
                "resume",
                "retry_failed",
                "timeout_s",
                "out",
                required=("store",),
            )
        ],
        help="serve a campaign grid to campaign-worker processes "
        "(lease-based fault-tolerant dispatch)",
    )
    coordinator.set_defaults(scenario="ramp", seeds=1)
    coordinator.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    coordinator.add_argument(
        "--port", type=int, default=0, help="listen port (0 = ephemeral)"
    )
    coordinator.add_argument(
        "--lease-s",
        type=float,
        default=30.0,
        help="lease lifetime without a heartbeat before cells are reclaimed",
    )
    coordinator.add_argument(
        "--batch", type=int, default=2, help="cells granted per lease"
    )
    coordinator.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="tries per cell before it is recorded as a permanent failure",
    )

    worker = sub.add_parser(
        "campaign-worker",
        help="lease and simulate cells from a campaign-coordinator",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (printed by campaign-coordinator)",
    )
    worker.add_argument(
        "--id", default=None, metavar="NAME", help="worker name for status output"
    )
    worker.add_argument(
        "--shard",
        default=None,
        metavar="DIR",
        help="override the shard directory the coordinator assigns",
    )
    worker.add_argument(
        "--connect-timeout-s",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="initial connect timeout (the session itself blocks)",
    )

    lint = sub.add_parser(
        "lint",
        help="AST-based determinism & protocol-safety analyzer",
    )
    add_lint_arguments(lint)

    info = sub.add_parser("info", help="capture summary only")
    info.add_argument("capture", help="input .pcap path")

    serve = sub.add_parser(
        "serve",
        help="run the always-on analysis daemon (HTTP JSON + TCP ingest)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8433,
        help="HTTP port (0 = ephemeral; see --port-file)",
    )
    serve.add_argument(
        "--ingest-port",
        type=int,
        default=0,
        metavar="PORT",
        help="TCP frame-batch ingest port (0 = ephemeral, -1 = disabled)",
    )
    serve.add_argument(
        "--queue-chunks",
        type=int,
        default=8,
        help="per-feed ingest queue bound, in segments (backpressure knob)",
    )
    serve.add_argument(
        "--max-feeds", type=int, default=64, help="concurrent feed limit"
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write bound ports as JSON once listening "
        "(the reliable way to use ephemeral ports)",
    )

    return parser


def _parse_value(text: str):
    """CLI parameter literal: int, float, bool or bare string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text


def _parse_assignments(
    entries: list[str], multi: bool
) -> dict[str, object]:
    """Parse ``KEY=VALUE`` / ``KEY=V1,V2,...`` command-line entries."""
    out: dict[str, object] = {}
    for entry in entries:
        key, sep, rest = entry.partition("=")
        key = key.strip()
        if not sep or not key or not rest:
            raise SpecError(f"expected KEY=VALUE, got {entry!r}")
        if key in out:
            raise SpecError(f"duplicate parameter {key!r}")
        if multi:
            out[key] = [_parse_value(v) for v in rest.split(",") if v != ""]
        else:
            out[key] = _parse_value(rest)
    return out


def _spec_from_args(
    args: argparse.Namespace, base: ExperimentSpec = ExperimentSpec()
) -> ExperimentSpec:
    """Fold the ``_SPEC_FLAGS`` given on ``args`` into ``base``, validated.

    A flag left unset keeps ``base``'s value; ``--fix``/``--vary``
    entries merge into its params and axes like ``Experiment.fix`` and
    ``Experiment.vary``.  Raises :class:`SpecError`.
    """
    given = {
        dest: getattr(args, dest)
        for dest in _SPEC_FLAGS
        if dest != "out" and getattr(args, dest, None) is not None
    }
    # Checked ahead of validate() so that the message names the flag.
    if given.get("workers", 1) < 1:
        raise SpecError("--workers must be >= 1")
    if (given.get("resume") or given.get("retry_failed")) and not (
        given.get("store") or base.store
    ):
        raise SpecError("--resume/--retry-failed require --store DIR")
    params = _parse_assignments(given.pop("params", []), multi=False)
    axes = _parse_assignments(given.pop("vary", []), multi=True)
    experiment = Experiment(base.with_options(**given)).fix(**params).vary(**axes)
    return experiment.spec().validate()


def _execute(spec: ExperimentSpec, keep_trace: bool = False) -> ExperimentResult:
    """Run a validated spec; a configuration error raised mid-run is a
    :class:`SpecError` too (exit 2), never a traceback."""
    try:
        return execute(spec, keep_trace=keep_trace)
    except (ValueError, TypeError, OSError) as error:
        raise SpecError(str(error)) from error


def _failure_line(where: str, failure) -> str:
    return f"{where}: analysis failed [{failure.error_type}: {failure.error}]"


def _report_failures(result: ExperimentResult) -> int:
    """Print failed cells, empty captures and failed analyses on stderr.

    Returns the exit code: 1 if anything failed or came back empty.
    """
    lines = []
    if result.campaign is not None and result.campaign.failed:
        store = result.spec().store
        lines.append(
            f"{len(result.campaign.failed)} cell(s) failed"
            + (f"; retry with --store {store} --resume --retry-failed" if store else "")
        )
    paths = dict(result.sources)
    lines += [
        f"{paths.get(name, name)}: empty capture"
        for name, report in result.reports.items()
        if report.summary.n_frames == 0
    ]
    lines += [_failure_line(f.source, f) for f in result.failures]
    for line in lines:
        print(line, file=sys.stderr)
    return 1 if lines else 0


def _finish(result: ExperimentResult, out: str | None, as_json: bool = False) -> int:
    """Print the rendered result (and write it to ``out``); the exit code."""
    text = result.to_json() + "\n" if as_json else result.render()
    print(text, end="" if text.endswith("\n") else "\n")
    if out:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"result written to {out}", file=sys.stderr)
    return _report_failures(result)


def _profiled(enabled: bool, fidelity: str | None = None):
    """Context manager: cProfile the body and print the top-20 table.

    The evidence-gathering hook behind every perf PR: ``--profile`` on
    the ``simulate``/``campaign`` subcommands shows exactly where the
    simulator spends its time, cumulative-sorted.  The header names the
    fidelity mode so profiles from different engines (event-stepped
    default vs batch-stepped fast) are never confused side by side.
    """

    class _Profiler:
        def __enter__(self):
            self.profile = cProfile.Profile() if enabled else None
            if self.profile is not None:
                self.profile.enable()
            return self

        def __exit__(self, exc_type, exc, tb):
            # Print even when the body raised: a slow-then-crashed run
            # is exactly when the profile is most wanted.
            if self.profile is not None:
                self.profile.disable()
                label = f" [fidelity={fidelity or 'default'}]"
                print(
                    f"\n-- cProfile{label}: top 20 by cumulative time " + "-" * 24
                )
                stats = pstats.Stats(self.profile, stream=sys.stdout)
                stats.strip_dirs().sort_stats("cumulative").print_stats(20)
            return False

    return _Profiler()


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, ExperimentSpec.from_file(args.spec))
    if args.validate_only:
        if spec.mode == "campaign":
            detail = f"{len(grid_for(spec))} cells"
        elif spec.corpus is not None:
            # Name the corpus instead of counting it: validating must
            # not scan (or index) the capture library.
            where = f" where {spec.corpus_where!r}" if spec.corpus_where else ""
            detail = f"corpus {spec.corpus}{where}"
        elif spec.pcaps:
            from .corpus import expand_captures

            detail = f"{len(expand_captures(spec.pcaps))} capture(s)"
        else:
            detail = "1 run"
        print(f"{args.spec}: OK ({spec.mode}, {detail})")
        return 0
    return _finish(_execute(spec), args.out, as_json=args.json)


def _cmd_simulate(args: argparse.Namespace) -> int:
    # A buffered run with only the cheap summary consumer.
    spec = _spec_from_args(args, ExperimentSpec(analyses=("summary",)))
    with _profiled(args.profile, spec.fidelity):
        result = _execute(spec, keep_trace=True).scenario_result
    n = write_trace(result.trace, args.output)
    print(
        f"wrote {n} frames to {args.output} "
        f"(captured {result.capture_ratio:.0%} of "
        f"{len(result.ground_truth)} transmitted)"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    # Hand paths (not traces) to the api layer: each worker streams its
    # capture from disk in bounded chunks, so decode parallelises with
    # --workers and memory stays flat however many captures are named.
    # Directories and glob patterns expand (sorted) inside the spec
    # layer; the name is applied only when exactly one capture results.
    spec = _spec_from_args(
        args, ExperimentSpec(pcaps=tuple(args.captures), name=args.name)
    )
    result = _execute(spec)
    failed = {f.name for f in result.failures}
    reports = [result.reports[name] for name, _ in result.sources if name not in failed]
    rendered = [render_report(report) for report in reports if report.summary.n_frames]
    if rendered:
        print("\n\n".join(rendered))
    return _report_failures(result)


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import CorpusError, CorpusIndex, analyze_corpus, filter_records

    try:
        if args.corpus_command == "index":
            stats = CorpusIndex(args.root).refresh(verify=args.verify)
            print(
                f"{args.root}: {len(stats.records)} capture(s) catalogued "
                f"({stats.summary()})"
            )
            return 0
        if args.corpus_command == "query":
            index = CorpusIndex(args.root)
            catalog = index.records() if args.no_refresh else index.refresh().records
            matched = filter_records(catalog, args.where)
            for record in matched:
                suffix = ".gz" if record.compressed else ""
                channels = ",".join(str(c) for c in record.channels) or "-"
                print(
                    f"{record.path}  {record.file_format}{suffix}  "
                    f"{record.n_frames} frames  ch {channels}  {record.status}"
                )
            print(f"{len(matched)} matched")
            return 0
        # corpus analyze
        spec = _spec_from_args(
            args, ExperimentSpec(corpus=args.root, corpus_where=args.where)
        )
        analysis = analyze_corpus(
            spec.corpus,
            spec.corpus_where,
            workers=spec.workers,
            refresh=not args.no_refresh,
        )
    except CorpusError as error:
        raise SpecError(str(error)) from None
    print(
        f"{analysis.matched} matched, {analysis.cached} cached, "
        f"{analysis.dispatched} dispatched, {len(analysis.failures)} failed"
    )
    for path, status in sorted(analysis.skipped.items()):
        print(f"{path}: skipped ({status})", file=sys.stderr)
    for path in sorted(analysis.failures):
        print(_failure_line(path, analysis.failures[path]), file=sys.stderr)
    if args.report:
        for path in sorted(analysis.reports):
            print()
            print(render_report(analysis.reports[path]))
    return 1 if analysis.failures else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.list:
        print("\n".join(available_scenarios()))
        return 0
    spec = _spec_from_args(args)
    if args.profile and spec.dispatch == "distributed":
        raise SpecError(
            "--profile cannot be combined with --dispatch distributed: "
            "every cell runs in a worker subprocess the profiler cannot see"
        )
    if args.profile and spec.workers != 1:
        print(
            "--profile forces --workers 1 (a process pool would hide "
            "cell work from the profiler)",
            file=sys.stderr,
        )
        spec = spec.with_options(workers=1)
    with _profiled(args.profile, spec.fidelity):
        result = _execute(spec)
    return _finish(result, args.out)


def _cmd_campaign_coordinator(args: argparse.Namespace) -> int:
    from .campaign.dispatch import Coordinator

    spec = _spec_from_args(args)
    try:
        with Coordinator(
            grid_for(spec),
            spec.store,
            host=args.host,
            port=args.port,
            lease_s=args.lease_s,
            batch=args.batch,
            max_attempts=args.max_attempts,
            resume=spec.resume,
            retry_failed=spec.retry_failed,
            timeout_s=spec.timeout_s,
        ) as coordinator:
            host, port = coordinator.address
            print(
                f"coordinator listening on {host}:{port} "
                f"({coordinator.state.outstanding} of "
                f"{len(coordinator.run.cells)} cells to run) — start workers "
                f"with: repro campaign-worker --connect {host}:{port}",
                file=sys.stderr,
            )
            try:
                while not coordinator.wait(timeout=1.0):
                    pass
            except KeyboardInterrupt:
                print(
                    "interrupted; finished cells are in the store and a "
                    "re-run resumes from them",
                    file=sys.stderr,
                )
                return 130
            result = coordinator.result()
    except (ValueError, TypeError, OSError) as error:
        raise SpecError(str(error)) from error
    return _finish(ExperimentResult(spec, "campaign", campaign=result), args.out)


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    from .campaign.worker import run_worker

    host, sep, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
        if not sep or not host:
            raise ValueError
    except ValueError:
        print(
            f"--connect expects HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    try:
        completed = run_worker(
            host,
            port,
            worker_id=args.id,
            shard_dir=args.shard,
            connect_timeout_s=args.connect_timeout_s,
        )
    except (ConnectionError, TimeoutError, OSError) as error:
        print(f"worker: coordinator unreachable ({error})", file=sys.stderr)
        return 1
    print(f"worker done: {completed} cell(s) computed", file=sys.stderr)
    return 0


def _render_cluster_state(store_dir: str) -> bool:
    """Print the coordinator's live status file, if one exists."""
    import json
    from pathlib import Path

    from .campaign.dispatch import STATE_FILENAME

    path = Path(store_dir) / STATE_FILENAME
    try:
        state = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    host, port = state.get("address", ["?", "?"])
    print(
        f"cluster [{state.get('phase', '?')}] coordinator {host}:{port} — "
        f"{state.get('done', 0)}/{state.get('cells', 0)} done, "
        f"{state.get('failed', 0)} failed, {state.get('ready', 0)} ready, "
        f"{state.get('leased', 0)} leased, {state.get('delayed', 0)} "
        f"backing off ({state.get('reclaims', 0)} lease reclaims, "
        f"{state.get('retries', 0)} retries)"
    )
    for lease in state.get("leases", []):
        print(
            f"  lease {lease['lease']:6s} {lease['worker']}: "
            f"cells {lease['cells']} (expires in {lease['expires_in_s']}s)"
        )
    for name, stats in state.get("workers", {}).items():
        print(
            f"  worker {name}: {stats['completed']} completed, "
            f"{stats['failed']} failed, last seen {stats['idle_s']}s ago"
        )
    if state.get("quarantined"):
        print(f"  {state['quarantined']} corrupt record(s) quarantined")
    return True


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    # Without --scenario there is no grid: inventory the store instead.
    spec = _spec_from_args(args) if args.scenario is not None else None
    store = CampaignStore(args.store)
    _render_cluster_state(args.store)
    if spec is not None:
        cells = grid_for(spec).cells()
        status = store.partition(cells)
        counts = status.counts
        print(
            f"{args.store}: {counts['done']} done, {counts['pending']} "
            f"pending, {counts['failed']} failed of {len(cells)} cells"
        )
        for label, indices in (("done", status.done), ("pending", status.pending)):
            for index in indices:
                print(f"  {label:8s} {cells[index].name}")
        for failure in status.failed.values():
            message = failure.error.splitlines()[0] if failure.error else ""
            print(f"  {'failed':8s} {failure.name}  [{failure.error_type}: {message}]")
        if store.quarantined:
            print(
                f"  {store.quarantined} corrupt record(s) quarantined "
                "(*.corrupt — inspect before re-running)"
            )
        return 0
    n_done = n_failed = 0
    for record in store.records():
        name = record.get("cell", {}).get("name", record.get("key", "?"))
        if record["kind"] == "result":
            n_done += 1
            print(f"  {'done':8s} {name}")
        else:
            n_failed += 1
            error = record.get("error", {})
            print(
                f"  {'failed':8s} {name}  "
                f"[{error.get('type', '?')}: {error.get('message', '')}]"
            )
    print(f"{args.store}: {n_done} done, {n_failed} failed")
    if store.quarantined:
        print(
            f"  {store.quarantined} corrupt record(s) quarantined "
            "(*.corrupt — inspect before re-running)"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    # analyze's spec path with only the summary consumer: the capture
    # streams from disk, and a damaged, foreign or missing file is one
    # stderr line, never a traceback.
    spec = ExperimentSpec(
        pcaps=(args.capture,), name=args.capture, analyses=("summary",)
    )
    result = _execute(spec)
    rows = [metrics["summary"].as_row() for metrics in result.metrics.values()]
    if rows:
        print(table(rows, title="Capture summary"))
    return _report_failures(result)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import serve_main

    try:
        return asyncio.run(
            serve_main(
                args.host,
                args.port,
                None if args.ingest_port < 0 else args.ingest_port,
                queue_chunks=args.queue_chunks,
                max_feeds=args.max_feeds,
                port_file=args.port_file,
            )
        )
    except KeyboardInterrupt:  # signal handler not installable: still drain
        return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return _run_lint_args(args)


_COMMANDS = {
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "corpus": _cmd_corpus,
    "campaign": _cmd_campaign,
    "campaign-status": _cmd_campaign_status,
    "campaign-coordinator": _cmd_campaign_coordinator,
    "campaign-worker": _cmd_campaign_worker,
    "lint": _cmd_lint,
    "info": _cmd_info,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SpecError as error:
        print(f"{args.command} error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (e.g. `... | head`): not an error,
        # but Python would print a traceback at interpreter shutdown
        # unless stdout is detached from the dead pipe first.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
