"""Pinned campaign cell keys: stored results stay addressable.

A campaign cell's store key hashes its scenario name, parameters,
seed, engine and fully resolved scenario config, size-mix closures
included (``repro.store.canonical``).  So a refactor that moves no
trace can still move every key and orphan every stored result.  These
keys were computed for every library scenario on both engines, at the
defaults with seed 1 and at ``duration_s=2.0`` with seed 3, under the
fixed salt ``"pinned"``.

A key may move only in a change whose CHANGES.md entry says which keys
moved and why; such a change updates this table with it.
"""

import pytest

from repro.campaign import CampaignCell
from repro.campaign.store import cell_key
from repro.sim import available_scenarios

#: (scenario, fidelity, seed) -> key; fidelity ``None`` is the default
#: engine, seed 1 runs the defaults and seed 3 sets ``duration_s=2.0``.
PINNED_KEYS = {
    ("co-channel", None, 1):
        "da452feaa03001f85d3b3931cefb6853a49acc322ca7b73af6ca2addd966170a",
    ("co-channel", None, 3):
        "62f76b8e83e1235991ea3a08faf3b0cb85e9d7f3d439ebf028723bc9691cd148",
    ("co-channel", "fast", 1):
        "aac738356310b5a7266d760deabf3a34c8aa1246c32b88616b0490daf1f3f6df",
    ("co-channel", "fast", 3):
        "a40bf0bfbc039606f0f91d4d5c89a67e46c531f1aa20e4a27c191845e6e6c34c",
    ("day", None, 1):
        "eb1271ee9ee727808ab8f78dd05ff76215e72866893e29af7633a77cc673761f",
    ("day", None, 3):
        "eb46ce05ef1bfceb47b071096e546375c5c0ea5fbf0286ef2039e1b14168b47d",
    ("day", "fast", 1):
        "ccccd417d80a0c7d158387241b25b85bb31977ab50ddce213a6b870789910777",
    ("day", "fast", 3):
        "92c30c1de9c992043555254bfa26f455bbb94a4b37fa4c3552cef615272df228",
    ("hidden-terminal", None, 1):
        "d743eed1288b2da663f50ad98c719ee0694d00ad072901d543de49ce49755fc6",
    ("hidden-terminal", None, 3):
        "b980f03f298ac5620aef70dcd9b353c190ca68273af6f7c0a24fc04ca4a1790c",
    ("hidden-terminal", "fast", 1):
        "3d6d51bcda06f7b34a4d80870fa630f47efc86fb66139d9700ee5d8be1d4414f",
    ("hidden-terminal", "fast", 3):
        "99a3f6986acce77a5cfd8cebc95e088e270692790bfcab9962257cb076b47282",
    ("hotspot-plenary", None, 1):
        "4130a24f3c95afc9f462a11fb3b40c6542db18d30230b0d869c8a65be70c98da",
    ("hotspot-plenary", None, 3):
        "a4a099ab7bdf3270e8fc9c70604da301ab6b42f1f0615aef5b7d6a3753f5ac30",
    ("hotspot-plenary", "fast", 1):
        "35229df0ead0d958a70847680296badb8bb1449980f8c5f32662fbf0deb093ea",
    ("hotspot-plenary", "fast", 3):
        "1d879bfba53b7ad44eb0576454d4e42b76af5c5d74cd04e97d37a079ff68eab5",
    ("plenary", None, 1):
        "9e4fd3f4cedc64a68dfefc9870755171350cc05d87df9d7c4ecddad297249b7d",
    ("plenary", None, 3):
        "9c7b5bbc16f27c02f325867b327eda54a780d4f797828652843ff2e683589fc1",
    ("plenary", "fast", 1):
        "f36586acb8cd2a6352262706a6c4b0af2a6587af1b5f5636aa10ad024b6fecb4",
    ("plenary", "fast", 3):
        "182615343f7787e29bff7a233989d6c55b3a58e2823bb481f4ba68249c193309",
    ("ramp", None, 1):
        "430084939ddb24b39341b24c16ffdb3e379788ca9f31d878e7d4f623a988bb2f",
    ("ramp", None, 3):
        "e7b028baf4c833a042714cefb2eabe30620d089d118cbb6216115d61ab9bf9cb",
    ("ramp", "fast", 1):
        "97ea5b286cfe4ce3f70576cbf6473b8f0b9185cbf86366eec09b685c5c8e0932",
    ("ramp", "fast", 3):
        "ee9a67feaa7899952b6cffdb228bc472a75776d344d862c981d2c66fe1ad4158",
    ("roaming-storm", None, 1):
        "366567e59be9b52af44d3f267024206817efc10083aeec617debbc615a839f68",
    ("roaming-storm", None, 3):
        "c5391836481d5deb2a07f2a1a7af50afbaf0a9c7f6dc600e614eb7e656645660",
    ("roaming-storm", "fast", 1):
        "de6c60ba8152362cdce267d3f0793cb03da95ca4834c46d352ed124980d14c5e",
    ("roaming-storm", "fast", 3):
        "1d072624c899059163fb956265327e3ac24cce7237b58bf6a70af02af689b88e",
    ("uniform", None, 1):
        "b0589c562466e7c9b158dd420e6a79b39c6d47e92f5af691a8164665eece7a44",
    ("uniform", None, 3):
        "5e70c46ca640c0072acdb92d0f65843c987c72305c7d0f416045619afdfec4f2",
    ("uniform", "fast", 1):
        "cdc7c2a6cd2a62b38b7da3ae399ab102281fc05874bcaaf93d4926e03353c117",
    ("uniform", "fast", 3):
        "08ff0055a42373997d717a9b9f8ec5ecb5e9ca794fd86195b1d6be41885f6370",
}

PARAMS = {1: (), 3: (("duration_s", 2.0),)}


def test_every_library_scenario_is_pinned():
    pinned = {name for name, _, _ in PINNED_KEYS}
    assert sorted(pinned) == sorted(available_scenarios())


@pytest.mark.parametrize("name, fidelity, seed", sorted(PINNED_KEYS, key=str))
def test_cell_key_is_pinned(name, fidelity, seed):
    cell = CampaignCell(name, PARAMS[seed], seed, fidelity)
    assert cell_key(cell, "pinned") == PINNED_KEYS[name, fidelity, seed]
