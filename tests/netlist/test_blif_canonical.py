"""The canonical BLIF bytes are pinned.

``circuit_content_id`` is the SHA-256 of :func:`repro.netlist.blif.
write_blif`; the outcome cache and the serve circuit store key every
persisted entry on it, and result signatures hash mapped networks the
same way.  A writer change that alters one byte orphans every stored
entry, so the content ids of the 16 suite circuits and of their
TurboMap networks (K=5) are recorded here and must not move.
"""

import pytest

from repro.bench import suite
from repro.cache.store import circuit_content_id
from repro.core.turbomap import turbomap

#: name -> (content id of the suite circuit, of its TurboMap network)
CONTENT_IDS = {
    "bbara": (
        "f463b0d05ce61359f0c81f3edc201e9d1f006aec28f60851766f22ec7ac1335f",
        "6039b86de905c04916efa2b5424b5ee920889c04acfa4b424fa133cb0a05b5f7",
    ),
    "bbsse": (
        "ed7051b39cdbdb9deb8136dcb656cea200584e0a7b9c746a47ce7f9e57979912",
        "feabbbcfe09f2e16cdf875ab9ff683ebcf4e4c244f19ad31eaab9a8dd73bded7",
    ),
    "cse": (
        "ef00f281542ce39ed0ed206ae15d2af5eb33569494af7506436334002751054c",
        "c35c99dca10d0e2d01e74445e124aee32684c34f91b54b68ba3bb87cd34bda5d",
    ),
    "dk16": (
        "21cf9f996eb3b478bb3976d91c75e2ecb4e82a8203fd15a36a3cf92fad43cc88",
        "b7cd8583d98d65eca9869d26940c3d98ed3a02d55cd35d9f486f6199b918d2f1",
    ),
    "keyb": (
        "dbd43f73393bd26e5b3671197bb962881cddf6409e6fb96fff5f041088509a75",
        "c6e3a87de95fc22399f92e2e6af7037dc27ed48495d0db586cf74f7d45dfa899",
    ),
    "kirkman": (
        "cecb8640a8b2478eacc3f712581c58e051bd852822d685efac117369db3a2b6d",
        "f4487c981672a0ad6f8ec1fb35600dd8d264dfbfdd92e2aac93b14cbbbf6cc20",
    ),
    "planet": (
        "e1012fed3731d04de979ece9414d1a1194ae058032414fa4313ee0d176fc9721",
        "3510bb222a54345e7ed60f92fc35dbf8a1b27dc85e639bea33a5e0ca4bb925e3",
    ),
    "s1": (
        "ce90475025629f1e4277ecd714766498a91b21efb353bbae17c6c0a671bb954e",
        "193b9e8f003dc9eb8f076f95b0ab8366aeb5b68740d7fe08633afcac061a7a5e",
    ),
    "sand": (
        "3a6eb80574fba67a16efa4b8febd8440b81b23bae43d5590d5904ad15af5e4a5",
        "2f624b4b4d97e3f123721a59aabb5afe91fec7a2d4817e170169fd124e5b43e3",
    ),
    "scf": (
        "779bf9eb77818a2dbf3dc2c11f4fd6ec0b620629b83989017ba671c8e9ebde93",
        "4f250f8e49f782c5ebb2889f2cd1341b6bf181f8b0743c48dea8f3b6432f6599",
    ),
    "sse": (
        "e6fe35eed1d637a2166d0b658050b6e6fcd114d2b7d9e777f4a255422face7e4",
        "0efe1c071a2b043e148d78caeedac8e3ac563e6368f029f5be5f7b7d4fa3ca7d",
    ),
    "styr": (
        "e4c5ca41fab0ec43dfbf1876507838fb8f148a1b81a1f7975cffc1baa2f4653e",
        "c788e8ba7a04e8c955e18364553e06b94f7f2b117068cfbcf176b5320ab612a9",
    ),
    "s838": (
        "843d8b6778c6e911df3496f1412d98c680d22a2738a88e2fde05ef6232862296",
        "41921b11c34e2fbc257bdbda12de802cfe5706ec166047e806e26b6df771e49d",
    ),
    "s953": (
        "4c25144e4f0266e223517a0d5f6ad4427c2f4a7c2caab106c8de252d6e8108b1",
        "9b6809217432e5b84a6991f8fdfdaaff382ebcb80a3b183a029d2a9b1b0036ad",
    ),
    "s1423": (
        "77d2b86e911c48f1606332e641431fb450ae9d08c04555d492c69c608edab7f8",
        "3290ed0d7b548172212f35c40e13758d4218c40c4c2b5e7a70ab62d56455784c",
    ),
    "s5378": (
        "76ec2d3f865ee9296d8e7b7a75c3e760647c15ea0d9305a3081be8968899cdcf",
        "be6689d10be1ba186f57a01c7902c25b4372c8aa318a9417a604683cc7d9c83b",
    ),
}


def test_every_suite_circuit_is_pinned():
    assert set(CONTENT_IDS) == {e.name for e in suite.SUITE}


@pytest.mark.parametrize("name", sorted(CONTENT_IDS))
def test_content_ids_unchanged(name):
    circuit = suite.build(name)
    circuit_id, mapped_id = CONTENT_IDS[name]
    assert circuit_content_id(circuit) == circuit_id
    mapped = turbomap(circuit, 5, check=False).mapped
    assert circuit_content_id(mapped) == mapped_id
