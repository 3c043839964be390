"""Byte-identity of CLI output on fixed inputs, pinned by SHA-256.

The digests were taken from the eager record and the if/elif bound chain
that preceded the declarative bound table; any change in what ``verify``
or ``compute --invariant record`` prints shows up here. Regenerate a
digest only when a change of output is intended and documented.
"""

import hashlib

import pytest

from kforcing.cli import main

from conftest import DATA


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


VERIFY_CASES = {
    "trees_10": (
        ["-i", str(DATA / "trees_10.g6")],
        "3f2d8ce6222cf7e3d5b7ff0100ee5d2d4449ad1bc3f212ec79555af9451872cb",
        "38ce91d198892554db6bf28d88de8b4635e6831a28754c260daee356d6e534e6",
    ),
    "family_specs": (
        ["--spec", "cycle_tree:3..5,3..5", "--spec", "circulant:8:1,2..3",
         "--spec", "complete_bipartite:2..4:2..3"],
        "40c42124c405ab862ab28492b458d20513e7cccaa70deed30b6ee71b8d8a6df2",
        "74a0bf60316d7551f002a2eee3a3807b47c4a8feb0af5f8468b10d18b69c9730",
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_output_digest(name, tmp_path, capsys):
    args, jsonl_digest, csv_digest = VERIFY_CASES[name]
    jsonl, csv = tmp_path / "out.jsonl", tmp_path / "out.csv"
    code = main(["verify", *args, "--jobs", "1",
                 "--out-jsonl", str(jsonl), "--out-csv", str(csv)])
    capsys.readouterr()
    assert code == 0
    assert sha256(jsonl.read_bytes()) == jsonl_digest
    assert sha256(csv.read_bytes()) == csv_digest


RECORD_DIGESTS = {
    "Dhc": "7a910b1a1092d79802039ae10141b7c9c603b8d479277ab84b40d01d13a33972",
    "DLo": "8c90f6b06a69629a074104b52d6ff340402f508192ed731140108b60df3cb8ab",
    "G?~vf_": "2ea1d5bf7d62551057a71458f8da60bf070bf2894134e5506f784ba5fe1dd029",
    "I????B~~w": "d661e88d504a74d8796e0b6f2fb4c3c86800ad2956b7e71e0340e3464fdbf33a",
}


@pytest.mark.parametrize("g6", sorted(RECORD_DIGESTS))
def test_compute_record_output_digest(g6, capsys):
    code = main(["compute", "--graph6", g6, "--invariant", "record", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out.encode()) == RECORD_DIGESTS[g6]
