"""One store primitive: every store handles a damaged record the same way.

Each case damages one record of a real store and asks that store for
it again.  The damage must end as ``<name>.corrupt`` on disk (evidence
kept), raise the store's quarantine count, and read as a miss, so the
work is recomputed — never a traceback, never a silent overwrite.
A key holds only declared data: anything else is refused by name.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignCell, CampaignStore, run_campaign
from repro.campaign.merge import merge_shard
from repro.corpus import (
    AnalysisStore,
    CorpusIndex,
    analyze_corpus,
    plan_analysis,
)
from repro.store import canonical

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
