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
        "435b2948270a028dcc01ade71568770b8f5d56a82b598f6d75630420b8b64471",
    ("co-channel", None, 3):
        "479bb325601a484ced4afc25f2726e3026b6b135e6bd46711a7bf3eae93e4794",
    ("co-channel", "fast", 1):
        "10b9f548433cd296e70289780d6458d9b2049b03ff679e08951a18bdce76c534",
    ("co-channel", "fast", 3):
        "1a4ffd7779e3aaf80542df1c95710809f67cb124913fd61acf10dc57d29cfedf",
    ("day", None, 1):
        "2df5d41c9768eb9d0601598ebd3540f2d54743b872f49c39df24dc46577fcb9c",
    ("day", None, 3):
        "e0d61088084b2d2219e9c6ca6d01f7da95c11fdd18c0f34791855db4f4d872f1",
    ("day", "fast", 1):
        "191a9dc39173d1204d17227edc52d245771e861b402bbd424cb0e0fadc51234e",
    ("day", "fast", 3):
        "1f2ffc957146c0db5dcf8493bb3e01c3714a925edef387a57c07fb50f9b5bd67",
    ("hidden-terminal", None, 1):
        "4ac0d62fcfc3b0e3b3290e16b0b8057552e5620d39e955791f300ea414a939aa",
    ("hidden-terminal", None, 3):
        "d21b8b9c6610380bf7c51eb45a0a3a95c6eb53c0c93430e2e39b1572d903fb4b",
    ("hidden-terminal", "fast", 1):
        "4b204d4abaf68d90450acf98b3c910f6742a6a4366fdb8c36619441eb8586e1c",
    ("hidden-terminal", "fast", 3):
        "a81c8f72b075078962f7651ce091eb333012ec236476265a8fd14decab030d73",
    ("hotspot-plenary", None, 1):
        "fdea3c7e9a9a0884caf4eec329f3c477ac737a2844b1cdbe7d5bde0a7d1d244f",
    ("hotspot-plenary", None, 3):
        "f280f69955e3d1efc3aa32e201385be70d12454bf99cb7d2e7780786777feac8",
    ("hotspot-plenary", "fast", 1):
        "8649f5c3c98b6375ede42b31af1564cafe1ebb1bd9ccfc5168eb23cd311633b1",
    ("hotspot-plenary", "fast", 3):
        "f75c6e1e2669a7793f2aceb08894bbb766a36c2495b759d565e464d8d1dc1117",
    ("plenary", None, 1):
        "9032917559976b974bc9b58c4461feaa33b32953c7248bbd270279d82067195a",
    ("plenary", None, 3):
        "9d416f783bf72557edb9e7a914e5c10b5d97fd1772d5273ef851247c9bd580f2",
    ("plenary", "fast", 1):
        "ffed79d2c53ce43b095472262ed160264efbf792767b2f73826917193ec46781",
    ("plenary", "fast", 3):
        "afd8b9c772bad98263d788426aa20a69cbe15640d92b34883f0b47d8325709e6",
    ("ramp", None, 1):
        "ecff1be4cf121676c1911bb319b28d12e1299c57623c3096bc9864d722e2b89b",
    ("ramp", None, 3):
        "877b4b7f1355254058e0b26d382fceb3f0dfbde92898e7ffb08353baec4161c3",
    ("ramp", "fast", 1):
        "73052c6cd3cd8121aa490f2c933635b1fd0efe2f6e71811d31700bcad6eba18c",
    ("ramp", "fast", 3):
        "607361fa64659bf7b25935697138e6d4120b7482eda48092053b1a34fd4e0437",
    ("roaming-storm", None, 1):
        "55ea94f5a58ac36dc7e5cc87cc3223d2da492e0a20e48d0a3a793f907767c384",
    ("roaming-storm", None, 3):
        "78e0cf10f1749a0ee6e870fd8b4f3a4710dc57708a00cf7ccfb61431532b3221",
    ("roaming-storm", "fast", 1):
        "8f251f42ecd5e1c1eddc09f7a5cc4e3234862c2be511714903212a4a4559924d",
    ("roaming-storm", "fast", 3):
        "dfb97d0684b53de49b7437425ea0228731298b0c7ab17233ed86ee43bfe38697",
    ("uniform", None, 1):
        "82458731269d69fb39d415bbebe55f5e2e8fb10c78d10600cfb4b65e5db14f27",
    ("uniform", None, 3):
        "2e8bb14fbcf3fdc710804492bbd88d079e91af460974a3f0197f13a002d54463",
    ("uniform", "fast", 1):
        "e1d4a72861210a58e8f54ea18a46c41deedfd1760d681381265ecd0195c5691e",
    ("uniform", "fast", 3):
        "2961d06015e081a4e775cfc72ee23da397ff255e1af4369488597ede741d63f4",
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
