"""One store primitive: every store handles a damaged record the same way.

Each case damages one record of a real store and asks that store for
it again.  The damage must end as ``<name>.corrupt`` on disk (evidence
kept), raise the store's quarantine count, and read as a miss, so the
work is recomputed — never a traceback, never a silent overwrite.
A damaged report sidecar is a plain miss.  A key holds only declared
data: anything else is refused by name.
"""

from __future__ import annotations

import gzip
import pickle
import random

import pytest

from repro.campaign import CampaignCell, CampaignStore, run_campaign
from repro.campaign.merge import merge_shard
from repro.corpus import (
    AnalysisStore,
    CorpusIndex,
    analyze_corpus,
    plan_analysis,
)
from repro.pipeline import run_all
from repro.sim import build_scenario
from repro.store import BLOB_SUFFIX, RecordStore, canonical

from .campaign.test_dispatch import fake_result
from .corpus.conftest import write_capture

SALT = "store-test"

#: A cell cheap enough to simulate when a case recomputes it.
CELL = CampaignCell("ramp", params=(("n_stations", 2), ("duration_s", 0.2)), seed=0)

DAMAGE = {
    "non-utf8": b'{"kind": "\xff\xfe"}',
    "not-json": b'{"kind": "trunca',
    "not-an-object": b"[]",
    "wrong-kind": b'{"kind": "unheard-of", "key": "x"}',
    "unhashable-kind": b'{"kind": ["result"]}',
}


def catalog_case(tmp_path):
    root = tmp_path / "corpus"
    write_capture(root / "a.pcap")
    index = CorpusIndex(root)
    index.refresh()

    def exercise():
        stats = CorpusIndex(root).refresh()
        return stats.quarantined, stats.added == 1

    return next(index.index_dir.glob("*/*.json")), exercise


def analysis_case(tmp_path):
    root = tmp_path / "corpus"
    write_capture(root / "a.pcap")
    analyze_corpus(root, workers=1, salt=SALT)
    store = AnalysisStore(root)

    def exercise():
        records = list(CorpusIndex(root).records().values())
        plan = plan_analysis(store, records, salt=SALT)
        return store.quarantined, len(plan.to_run) == 1

    return next(store.store_dir.glob("*/*.json")), exercise


def campaign_case(tmp_path):
    store_dir = tmp_path / "store"
    victim = CampaignStore(store_dir).put(fake_result(CELL))

    def exercise():
        resumed = run_campaign([CELL], workers=1, store_dir=store_dir)
        return resumed.quarantined, resumed.dispatched == 1

    return victim, exercise


def merge_case(tmp_path):
    shard = CampaignStore(tmp_path / "shard", salt=SALT)
    target = CampaignStore(tmp_path / "main", salt=SALT)

    def exercise():
        report = merge_shard(target, shard.root)
        return report.quarantined, target.get(CELL) is None

    return shard.put(fake_result(CELL)), exercise


CASES = {
    "catalog": catalog_case,
    "analysis": analysis_case,
    "campaign": campaign_case,
    "merge": merge_case,
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("store", sorted(CASES))
def test_damaged_record_quarantined_counted_and_recomputed(store, damage, tmp_path):
    victim, exercise = CASES[store](tmp_path)
    victim.write_bytes(DAMAGE[damage])
    quarantined, recomputed = exercise()
    corpse = victim.with_name(victim.name + ".corrupt")
    assert corpse.read_bytes() == DAMAGE[damage]
    assert quarantined == 1
    assert recomputed


def test_damaged_sidecar_reads_as_a_miss(tmp_path):
    """Seeded flips of 1-4 bytes in a real report's pickle, recompressed
    as ``put_blob`` writes it: every sidecar either loads or reads as a
    miss, and no exception escapes ``get_blob``."""
    built = build_scenario("uniform", fidelity="fast", duration_s=3.0, seed=1)
    report = run_all(built.stream(), roster=built.roster)
    data = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
    store = RecordStore(tmp_path, kinds=())
    key = "ab" * 32
    store.put_blob(key, report)
    sidecar = store.path(key, BLOB_SUFFIX)
    misses = 0
    for trial in range(300):
        rng = random.Random(trial)
        damaged = bytearray(data)
        for offset in rng.sample(range(len(data)), rng.randint(1, 4)):
            damaged[offset] ^= rng.randint(1, 255)
        sidecar.write_bytes(gzip.compress(bytes(damaged), compresslevel=6, mtime=0))
        misses += store.get_blob(key) is None
    assert 0 < misses < 300  # the flips both break and spare sidecars


def _activity(index, rng):
    return 0, 1_000_000


class _Plain:
    def __init__(self):
        self.start_us = 0


@pytest.mark.parametrize(
    "value, name",
    [
        (_activity, "_activity"),
        (lambda index, rng: (0, 1_000_000), "<lambda>"),
        (_Plain(), "_Plain"),
    ],
    ids=["function", "lambda", "plain-object"],
)
def test_canonical_refuses_undeclared_data(value, name):
    with pytest.raises(TypeError, match=name):
        canonical({"params": [("activity", value)]})
