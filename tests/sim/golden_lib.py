"""Golden-trace fixtures: canonical configs and digests for determinism.

The simulator hot-path work (audibility culling, cached delivery plans,
columnar capture, draws made when events fire) must not change a single
emitted frame.  The enforcement is a set of *golden digests*: SHA-256
over the raw column bytes of the capture and ground-truth traces for a
spread of library scenarios and feature-exercising ad-hoc configs, all
at fixed seeds.  The committed fixture ``golden_traces.json`` was
generated from the pre-optimization simulator; any optimization that
perturbs RNG draw order, event scheduling order or per-frame arithmetic
shows up as a digest mismatch.

Regenerate (only when a change *deliberately* changes simulator physics)
with::

    PYTHONPATH=src python -m tests.sim.golden_lib

The same module checks a change that must not alter the simulator at
all.  ``--identity`` prints one JSON document (and writes nothing)
describing every library scenario on both engines.  ``--against REV``
extracts ``REV`` with ``git archive`` into a temporary directory, runs
that dump with this module on this tree's ``src/`` and on ``REV``'s,
and prints ``identical`` (exit 0) or a summary (exit 1): for each
engine's runs, then for the cell keys and the scenario parameter lists,
``identical`` or how many key paths differ and the first of them::

    PYTHONPATH=src:. python -m tests.sim.golden_lib --identity --against HEAD~1

At import and in ``--identity`` it uses only names the library has
long exported (the ad-hoc golden cases import ``build`` when they
run), so it runs unchanged against an archive of an earlier commit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from repro.frames import TRACE_COLUMNS, Trace
from repro.sim import ScenarioConfig, build_scenario
from repro.sim.builder import BuiltScenario
from repro.sim.dcf import MacConfig
from repro.sim.traffic import ConstantRate

FIXTURE_PATH = Path(__file__).with_name("golden_traces.json")
#: The checkout this module belongs to.
REPO_ROOT = Path(__file__).resolve().parents[2]


def trace_digest(trace: Trace) -> str:
    """SHA-256 over the raw bytes of every column, schema order."""
    digest = hashlib.sha256()
    for name in TRACE_COLUMNS:
        digest.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    return digest.hexdigest()


def _channel_mgmt() -> BuiltScenario:
    """Ad-hoc config exercising ChannelManager mid-run channel switches.

    Stations pile into one corner so one channel carries most of the
    load and the manager provably moves an AP during the run.
    """
    from repro.sim import build
    from repro.sim.topology import HotspotPlacement

    return build(
        ScenarioConfig(
            n_stations=12,
            n_aps=4,
            channels=(1, 6),
            duration_s=12.0,
            seed=5,
            placement=HotspotPlacement(centres=((0.05, 0.1),), spread_m=3.0),
            channel_management=True,
            uplink=ConstantRate(12.0),
            downlink=ConstantRate(25.0),
        )
    )


def _tpc_frag() -> BuiltScenario:
    """Ad-hoc config exercising TPC (per-destination tx power) and
    fragmentation bursts plus a heavy RTS/CTS population."""
    from repro.sim import build

    return build(
        ScenarioConfig(
            n_stations=8,
            duration_s=6.0,
            seed=9,
            power_control=True,
            mac_config=MacConfig(
                fragmentation_threshold=600, rts_threshold=900
            ),
            rtscts_fraction=0.5,
        )
    )


#: name -> zero-arg factory returning a fresh, unconsumed BuiltScenario.
#: Durations are trimmed so the whole golden suite stays test-suite fast
#: while covering every library scenario and the mid-run mutation paths
#: (roaming and channel management both re-target MAC channels, TPC
#: varies per-destination transmit power, fragmentation re-enters
#: ``_send_data`` outside contention).
GOLDEN_CASES: dict[str, Callable[[], BuiltScenario]] = {
    "ramp": lambda: build_scenario("ramp", duration_s=8.0),
    "day": lambda: build_scenario("day", duration_s=8.0),
    "plenary": lambda: build_scenario("plenary", duration_s=6.0),
    "hidden-terminal": lambda: build_scenario("hidden-terminal", duration_s=6.0),
    "hotspot-plenary": lambda: build_scenario("hotspot-plenary", duration_s=6.0),
    "co-channel": lambda: build_scenario("co-channel", duration_s=6.0),
    "roaming-storm": lambda: build_scenario("roaming-storm", duration_s=10.0),
    "channel-mgmt": _channel_mgmt,
    "tpc-frag": _tpc_frag,
}


def case_fingerprint(name: str) -> dict[str, object]:
    """Run one golden case and produce its digest record."""
    result = GOLDEN_CASES[name]().run()
    return {
        "trace_sha256": trace_digest(result.trace.sorted_by_time()),
        "ground_truth_sha256": trace_digest(result.ground_truth),
        "frames_transmitted": result.medium.frames_transmitted,
        "frames_captured": len(result.trace),
    }


#: (duration_s, seed) pairs the identity dump runs every scenario at.
IDENTITY_PARAMS = ((3.0, 1), (2.5, 5))


def _after_run(built) -> dict[str, object]:
    """What a finished run reports besides its frames."""
    return {
        "delivery_ratio": built.delivery_ratio,
        "offered_packets": built.offered_packets,
        "perf_counters": built.perf_counters,
    }


def identity() -> dict[str, object]:
    """Everything a behaviour-preserving simulator change must keep.

    Per library scenario: ``scenario_parameters``, and for each engine
    and :data:`IDENTITY_PARAMS` pair the campaign cell key (salt
    ``"pinned"``), the ``stream()`` segment lengths with a digest of
    their concatenation, the digests of ``run()``'s trace and ground
    truth, and the delivery ratio, offered packets and perf counters
    after each of the two runs.
    """
    from repro.campaign import CampaignCell
    from repro.campaign.store import cell_key
    from repro.sim import available_scenarios, scenario_parameters

    doc: dict[str, object] = {}
    for name in available_scenarios():
        cases = {}
        for fidelity in ("default", "fast"):
            for duration_s, seed in IDENTITY_PARAMS:
                cell = CampaignCell(
                    name,
                    (("duration_s", duration_s),),
                    seed,
                    None if fidelity == "default" else fidelity,
                )
                built = build_scenario(name, fidelity, **cell.kwargs)
                segments = list(built.stream())
                streamed = {
                    "segment_lengths": [len(s) for s in segments],
                    "sha256": trace_digest(Trace.concatenate(segments)),
                    **_after_run(built),
                }
                built = build_scenario(name, fidelity, **cell.kwargs)
                result = built.run()
                ran = {
                    "trace_sha256": trace_digest(result.trace),
                    "ground_truth_sha256": trace_digest(result.ground_truth),
                    **_after_run(built),
                }
                cases[f"{fidelity}/{duration_s}s/seed={seed}"] = {
                    "cell_key": cell_key(cell, "pinned"),
                    "stream": streamed,
                    "run": ran,
                }
        doc[name] = {
            "parameters": list(scenario_parameters(name)),
            "cases": cases,
        }
    return doc


def differences(old: object, new: object, path: str = ""):
    """Every key path (``/``-joined, keys in sorted order, list indices
    as numbers) where two JSON documents differ, in that order."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            where = f"{path}/{key}"
            if key not in old or key not in new:
                yield where
            else:
                yield from differences(old[key], new[key], where)
    elif isinstance(old, list) and isinstance(new, list):
        for index, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}/{index}")
        if len(old) != len(new):
            yield f"{path}/{min(len(old), len(new))}"
    elif type(old) is not type(new) or old != new:
        yield path or "/"


def first_difference(old: object, new: object) -> str | None:
    """The first of :func:`differences`, or ``None``."""
    return next(differences(old, new), None)


#: The groups ``--identity --against`` counts differing paths in: each
#: engine's runs, then the cell keys and scenario parameter lists.
IDENTITY_GROUPS = ("default", "fast", "cell keys", "scenario parameters")


def identity_group(path: str) -> str:
    """The :data:`IDENTITY_GROUPS` entry an identity key path falls in
    (``scenarios`` for a scenario present on one side only)."""
    parts = path.split("/")
    if parts[-1] == "cell_key":
        return "cell keys"
    if len(parts) > 2 and parts[2] == "parameters":
        return "scenario parameters"
    if len(parts) > 3 and parts[2] == "cases":
        return parts[3]
    return "scenarios"


def identity_summary(old: object, new: object) -> str | None:
    """One line per group: ``identical``, or how many key paths differ
    between two identity dumps and the first; ``None`` when none do."""
    groups: dict[str, list[str]] = {group: [] for group in IDENTITY_GROUPS}
    for path in differences(old, new):
        groups.setdefault(identity_group(path), []).append(path)
    if not any(groups.values()):
        return None
    return "\n".join(
        f"{group}: {len(paths)} differing "
        f"{'path' if len(paths) == 1 else 'paths'}, first {paths[0]}"
        if paths
        else f"{group}: identical"
        for group, paths in groups.items()
    )


def _identity_on(src: Path) -> object:
    """This module's ``--identity`` dump with ``repro`` imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(REPO_ROOT))))
    out = subprocess.run(
        [sys.executable, "-m", "tests.sim.golden_lib", "--identity"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def identity_against(rev: str) -> str | None:
    """:func:`identity_summary` from ``rev``'s identity dump to this tree's."""
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        old = _identity_on(Path(tmp) / "src")
    return identity_summary(old, _identity_on(REPO_ROOT / "src"))


def load_fixture() -> dict[str, dict[str, object]]:
    return json.loads(FIXTURE_PATH.read_text())


def regenerate() -> None:
    fixture = {}
    for name in GOLDEN_CASES:
        record = case_fingerprint(name)
        fixture[name] = record
        print(f"{name}: {record['frames_transmitted']} frames "
              f"trace={record['trace_sha256'][:12]}…")
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(prog="python -m tests.sim.golden_lib")
    parser.add_argument(
        "--identity",
        action="store_true",
        help="print the identity dump as JSON instead of regenerating",
    )
    parser.add_argument(
        "--against",
        metavar="REV",
        help="with --identity: compare this tree's dump with REV's and "
        "print 'identical' (exit 0) or, per engine and for cell keys and "
        "scenario parameters, how many key paths differ and the first (exit 1)",
    )
    args = parser.parse_args()
    if args.against is not None:
        if not args.identity:
            parser.error("--against needs --identity")
        summary = identity_against(args.against)
        print("identical" if summary is None else summary)
        sys.exit(0 if summary is None else 1)
    if args.identity:
        print(json.dumps(identity(), indent=1, sort_keys=True))
    else:
        regenerate()
