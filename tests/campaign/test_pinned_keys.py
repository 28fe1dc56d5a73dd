"""Pinned campaign cell keys: stored results stay addressable.

A campaign cell's store key hashes its scenario name, parameters,
seed, engine and fully resolved scenario config
(``repro.store.canonical``), which holds only declared data: size
mixes, rate schedules and attendance blocks hash by their fields, never
by the code that draws them.  A change to that declared data, or to how
a key is composed, moves keys and orphans stored results.  These keys
were computed for every library scenario on both engines, at the
defaults with seed 1 and at ``duration_s=2.0`` with seed 3, under the
fixed salt ``"pinned"``.

A key may move only in a change whose CHANGES.md entry says which keys
moved and why; such a change regenerates this table with it by running
this file as a script (``PYTHONPATH=src python
tests/campaign/test_pinned_keys.py``), which prints ``PINNED_KEYS`` as
the code computes it.
"""

import pytest

from repro.campaign import CampaignCell
from repro.campaign.store import cell_key
from repro.sim import available_scenarios

#: (scenario, fidelity, seed) -> key; fidelity ``None`` is the default
#: engine, seed 1 runs the defaults and seed 3 sets ``duration_s=2.0``.
PINNED_KEYS = {
    ("co-channel", None, 1):
        "6d07a55c64cd3644384cb38192541f3eabe0c58b18da5e048954b42969dfaabf",
    ("co-channel", None, 3):
        "4659c2b1aac02b973837df51fa80a4e074121ff804de81c8ef712ad84c030c9f",
    ("co-channel", "fast", 1):
        "2ff6eda5dcb89f73a01ad5fb3f6505b734e2e17f85bcdb823a1766461c1c87e8",
    ("co-channel", "fast", 3):
        "425d4e2add9bc0a89e7a64e9009378a2e5d914ae8424d350b225d3ce2a56c6b0",
    ("day", None, 1):
        "aa84fb8e1a2c4024dd2222a47d61ea576fce54398ac39617b6fed8bcadb13a64",
    ("day", None, 3):
        "961b48b06f42c1784c9559013e31a9b72305359d42bb0c628f416e72667e87b6",
    ("day", "fast", 1):
        "a1d47f32b92f29f3273e49a3d34edb65a3686e136331e5487dd4291160482111",
    ("day", "fast", 3):
        "4b61f081679ab5b9b52611174febb6b7bc402504a7812f9a964f59049a8b89b3",
    ("hidden-terminal", None, 1):
        "860abf324ee1e8ee064f7bcd00426c6796c3b0b063324ea30f60d0589e588116",
    ("hidden-terminal", None, 3):
        "c561230ceadecace913503f7046d63105090e8733d3ead226354c8bf26b43190",
    ("hidden-terminal", "fast", 1):
        "97f26af19b5fdf1a0993797e3c941c81b84f24f616ce42b091c9b510e667a6de",
    ("hidden-terminal", "fast", 3):
        "2f7063086a42189ae9669dba0f4e1fa0f782a827c41817bb2a7b0bb02518b08c",
    ("hotspot-plenary", None, 1):
        "5a6c929f3f9b94bceaf3c211d2d7e527231d66cbc47a0c00d689010e126b4ec0",
    ("hotspot-plenary", None, 3):
        "7ecaa2f4ff6b8cdbb44249892539b326cfc80bed0ddf6283121b4bd4620a5608",
    ("hotspot-plenary", "fast", 1):
        "3e4b0e85c79c3fd98687c91fda7a3923b3a0a3a86180a1714704b85a5d95d629",
    ("hotspot-plenary", "fast", 3):
        "473094d798511a5f7746752b878b028f705903cae90bbf0f1a7a816c8e77977b",
    ("plenary", None, 1):
        "304dd4deaeb9037647d10da1f1e07f9f9e07142f56b6db84e6232c005099af54",
    ("plenary", None, 3):
        "3bfda9507079c61d5e706597916d8d0f17d3be1d2ccbb16c4eebf088b8da501c",
    ("plenary", "fast", 1):
        "3c863ee8a279a922e92d926c9768ade901cc0137ec90280fa7336009bf706f39",
    ("plenary", "fast", 3):
        "339ce8476096a15092d2d4a956fbf2f07d4e921effda302e3870fa262c114687",
    ("ramp", None, 1):
        "6b9bfc46841d85bbf75be0c21f14b8d27c61479a5a15a57d508002b613df1974",
    ("ramp", None, 3):
        "1fa2616a7e8388489e968e1c4aa6f7e6111b296338a59bfd24bd78db2c23125e",
    ("ramp", "fast", 1):
        "cefc2c5f97fbc1e7dc68a2be07b7daadea9a70da06293b8c67850838fae838c8",
    ("ramp", "fast", 3):
        "7efa9ec41c8cce45ef2d8fa7cf3ac3d2b59ae5fe8edda63b82ef26da91009628",
    ("roaming-storm", None, 1):
        "c7e37706241bc10c7f31034e3bf6050209a034e5192774ce4d54b7378f4dbb3b",
    ("roaming-storm", None, 3):
        "77eb67a4f6e834ae848f83fe3e09135b3590e616988f54a65bfea69b4bd88d69",
    ("roaming-storm", "fast", 1):
        "1e11aebd12764cc829e4417d157aa562d0a92fae8531b87c2b9388087b676096",
    ("roaming-storm", "fast", 3):
        "c7896c1c03130777867f183923e9d47d2711e6f93f970c3c033288f5342ab625",
    ("uniform", None, 1):
        "4ceb91226e9262ca76863e8880c936e3ea8094dd4ecac37279d0e30572d179ce",
    ("uniform", None, 3):
        "fc209f6d797c61cc1528c80be95f27ea3fc930983f226935d7978a18a640cfed",
    ("uniform", "fast", 1):
        "1e9364a9937cdac266103b24f57aa552ef1ccdf8bde2877dc1285fb7d22c53ad",
    ("uniform", "fast", 3):
        "e69116e8881c48b1646d572fa3a1528c142f0bce1560f449213aa94bc67d8ce5",
}

PARAMS = {1: (), 3: (("duration_s", 2.0),)}


def pinned_key(name, fidelity, seed):
    """The key of one pinned cell as the code computes it now."""
    return cell_key(CampaignCell(name, PARAMS[seed], seed, fidelity), "pinned")


def test_every_library_scenario_is_pinned():
    pinned = {name for name, _, _ in PINNED_KEYS}
    assert sorted(pinned) == sorted(available_scenarios())


@pytest.mark.parametrize("name, fidelity, seed", sorted(PINNED_KEYS, key=str))
def test_cell_key_is_pinned(name, fidelity, seed):
    assert pinned_key(name, fidelity, seed) == PINNED_KEYS[name, fidelity, seed]


if __name__ == "__main__":
    print("PINNED_KEYS = {")
    for name in available_scenarios():
        for fidelity in (None, "fast"):
            for seed in PARAMS:
                engine = "None" if fidelity is None else f'"{fidelity}"'
                print(f'    ("{name}", {engine}, {seed}):')
                print(f'        "{pinned_key(name, fidelity, seed)}",')
    print("}")
