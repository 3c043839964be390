"""Byte-identity of CLI output on fixed inputs, pinned by SHA-256.

The digests were taken from the eager record and the if/elif bound chain
that preceded the declarative bound table; any change in what ``verify``
or ``compute --invariant record`` prints shows up here. Regenerate a
digest only when a change of output is intended and documented. The
compute, search and gen digests were recorded before the CLI moved to
table-driven dispatch and streamed ``verify`` output, and the
``connected_6`` digests before workers encoded their own JSONL.
Set KFORCING_ACCEPT_N8=1 to also check ``verify`` over all of
``connected_8``, and KFORCING_ACCEPT_N9=1 to enumerate the connected
graphs on 9 vertices and check ``verify`` over them (minutes).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kforcing
from kforcing.cli import main

from conftest import DATA, compute_invariant_choices


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


# JSONL, CSV and stdout of verify over connected_6 (9 of its graph6 strings
# hold a backslash, which JSON escapes), the same at every worker count
CONNECTED_6_DIGESTS = (
    "51a788ffb8149b8662173901d0a1ce964dfbc23e3d3d49767f1fc48c861c8c09",
    "de3cb0a4acdf083a558f6ffe5cbf8f21b9631a95a5eb95d36e854888c3626747",
    "bc175b7a7ce7a3854d8e41f11e029545e189e88d7c99328effa110594022f69d",
)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_connected_6_digest(jobs, tmp_path, capsys):
    jsonl, csv = tmp_path / "out.jsonl", tmp_path / "out.csv"
    code = main(["verify", "-i", str(DATA / "connected_6.g6"), "--jobs", jobs,
                 "--out-jsonl", str(jsonl), "--out-csv", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert (sha256(jsonl.read_bytes()), sha256(csv.read_bytes()),
            sha256(out.encode())) == CONNECTED_6_DIGESTS


# JSONL and CSV of verify over all of connected_8, and its summary line,
# recorded at commit 68524b8; the JSONL is 227 MB, so the check is opt-in
CONNECTED_8_DIGESTS = (
    "af14e54ec2c7de09fcb11dea039c09ce99185fbb350038b3f431654dbf642866",
    "5f230e1002e6d30462887c91eb0cf7d03a4e607da499f9f8f65fb1f0093ce7a3",
)
CONNECTED_8_SUMMARY = (
    "verify: checked=319169 satisfied=319169 equality=29356 "
    "not_applicable=747084 violations=0 skipped=0\n"
)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    path.unlink()
    return digest.hexdigest()


@pytest.mark.skipif(os.environ.get("KFORCING_ACCEPT_N8") != "1",
                    reason="set KFORCING_ACCEPT_N8=1 to verify all of connected_8")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_connected_8_digest(jobs, tmp_path, capsys):
    jsonl, csv = tmp_path / "out.jsonl", tmp_path / "out.csv"
    code = main(["verify", "-i", str(DATA / "connected_8.g6"), "--jobs", jobs,
                 "--out-jsonl", str(jsonl), "--out-csv", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert (file_sha256(jsonl), file_sha256(csv)) == CONNECTED_8_DIGESTS
    assert out == CONNECTED_8_SUMMARY


# the connected n = 9 campaign: its CSV and its summary line
CONNECTED_9_CSV_SHA256 = "06ecf388833d568ac391011a0db3f591640be2ff888d0dbecc0e470f72d9a070"
CONNECTED_9_SUMMARY = ("verify: checked=8132748 satisfied=8132748 equality=649520 "
                       "not_applicable=20057873 violations=0 skipped=0\n")


@pytest.mark.skipif(os.environ.get("KFORCING_ACCEPT_N9") != "1",
                    reason="set KFORCING_ACCEPT_N9=1 to verify all of connected_9 (minutes)")
def test_verify_connected_9_digest(tmp_path):
    corpus, csv = tmp_path / "connected_9.g6", tmp_path / "out.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(kforcing.__file__).resolve().parent.parent)}
    for argv in (["kforcing.smallgraphs", "9", "--connected", "-o", str(corpus)],
                 ["kforcing", "verify", "-i", str(corpus), "--jobs", "2",
                  "--out-jsonl", os.devnull, "--out-csv", str(csv)]):
        proc = subprocess.run([sys.executable, "-m", *argv], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout == CONNECTED_9_SUMMARY
    assert file_sha256(csv) == CONNECTED_9_CSV_SHA256


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


# exit code, stdout and stderr of every compute call on the RECORD_DIGESTS
# graphs at --k 1 and at --k 2 --all-min, as text and as --json
COMPUTE_DIGESTS = {
    "alpha": "ea0ca45de5dd1890385de35b8b27557e8512ddf0ed37dd2bd9b83912dcafb9d8",
    "cycle-tree": "f6b12e22e20a038ef4ea7e92463b25266167092b41a2e92b14f2a2c5baea6a70",
    "forcing": "3fbc33f78e458b49644efa1d40acb5a7ea91d5652522103b525dc11eba466b13",
    "gamma-c": "d6d66ba9e3f1501ae2bec6d8e5f3d7f5c1bbc42965a07c2d6556f06ca79259ab",
    "gamma-kc": "b30c5089118e213b9cd6b6b84f1959d096ffabb67e74d66180ce80519cbd5ae3",
    "hamiltonian": "3f9f3b3810a5cc30118e724e0616b0172465053676f6934a4b2f5a2ca89341ee",
    "path-cover": "2da098f772092cb368d4bfcee77363807188edc66975a77ae254b30dd2da14b0",
    "profile": "7d3da3ae66c1615ffa636eb3f89228a024f4ce0ceb1adb104e250b91b48941a1",
    "record": "5db28480f8eff6fcd2682eb026fc80c2e9bff063c619e643ead78b79ceda0e52",
    "star-free": "a80bbc9dbe9b10d31307f3f470fa55f7018bc76fec6d1a1c8c0232994fd78799",
}


def test_compute_digests_cover_every_invariant():
    assert sorted(COMPUTE_DIGESTS) == sorted(compute_invariant_choices())


@pytest.mark.parametrize("invariant", sorted(COMPUTE_DIGESTS))
def test_compute_output_digest(invariant, capsys):
    transcript = []
    for g6 in sorted(RECORD_DIGESTS):
        for extra in (["--k", "1"], ["--k", "2", "--all-min"]):
            for fmt in ([], ["--json"]):
                code = main(["compute", "--graph6", g6, "--invariant", invariant,
                             *extra, *fmt])
                out, err = capsys.readouterr()
                transcript.append(f"{code}\n{out}{err}")
    assert sha256("".join(transcript).encode()) == COMPUTE_DIGESTS[invariant]


# exit code, stdout and stderr of compute on every line of trees_1 .. trees_10
# (201 trees), as text and as --json: no RECORD_DIGESTS graph is a tree, so
# these pin the path cover partitions and the record's path_cover value
TREE_COMPUTE_DIGESTS = {
    "path-cover": "bcf6b2165f63bd1b918915cc0841317852fff4306b5d5c6e488d1491ea3e403a",
    "record": "a6e5f4305dbe7ff5abede9194bf0dc14920c9ce64af31c25711d48fa88f5f34e",
}


@pytest.mark.parametrize("invariant", sorted(TREE_COMPUTE_DIGESTS))
def test_compute_output_digest_over_shipped_trees(invariant, capsys):
    transcript = []
    for n in range(1, 11):
        for g6 in (DATA / f"trees_{n}.g6").read_text(encoding="ascii").split():
            for fmt in ([], ["--json"]):
                code = main(["compute", "--graph6", g6, "--invariant", invariant, *fmt])
                out, err = capsys.readouterr()
                transcript.append(f"{code}\n{out}{err}")
    assert len(transcript) == 402
    assert sha256("".join(transcript).encode()) == TREE_COMPUTE_DIGESTS[invariant]


SEARCH_DIGESTS = {  # target: (stdout, JSONL) over connected_7
    "conn-dom": (
        "6851cc6a63f58a060d204f1cff6b6d5a7dd9a7f3b874fe79eeded320a6d569d0",
        "8c6de0f466c5489e9ba3346b0234223e37cfbb8938c7642c66ac28ec1a792789",
    ),
    "cor3": (
        "6f11bea5c19f23c95509989112610ec39b3c112f19222710c75de965805f3a17",
        "17cd82050e57f759e4788217377bb1275337740334f1dc77a27adff7e56e0fde",
    ),
}


@pytest.mark.parametrize("target", sorted(SEARCH_DIGESTS))
def test_search_output_digest(target, tmp_path, capsys):
    jsonl = tmp_path / "out.jsonl"
    code = main(["search", "--target", target, "-i", str(DATA / "connected_7.g6"),
                 "--out-jsonl", str(jsonl)])
    out = capsys.readouterr().out
    assert code == 0
    assert (sha256(out.encode()), sha256(jsonl.read_bytes())) == SEARCH_DIGESTS[target]


GEN_DIGESTS = {  # space-separated specs: stdout
    "cycle:3..6 cycle_tree:3,3 cycle_tree:3..4,3":
        "12ebe30fd1f110293e5d31327fb12dea2f32c799b1abf03e36de96dd543a5157",
    "circulant:8:1,2..3 complete_bipartite:2..4:2..3":
        "f2afbf943efa1d6ed8053b330cfc6931e31a20bf58b3ecb8fa01e048261f20f1",
    "path:1..5 star:2..4 subdivided_star:3:2 double_leaf_caterpillar:2..4 pendant_path:3..5 complete:1..5":
        "ae052dfba764e32bd46bab517c495bb7f1abbc9ff702346a3a9cc192de6d18f4",
}


@pytest.mark.parametrize("specs", sorted(GEN_DIGESTS))
def test_gen_output_digest(specs, capsys):
    code = main(["gen", *specs.split()])
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out.encode()) == GEN_DIGESTS[specs]


def test_search_cor3_reads_no_solver_but_forcing(tmp_path, capsys, monkeypatch):
    # the COR3 gate and value read n, the max degree and connectivity only
    from kforcing import records

    solvers = ("connected_k_domination", "hamiltonian_cycle", "is_cycle_tree",
               "k_independence_numbers", "min_star_free_index", "vertex_connectivity")
    for name in solvers:
        monkeypatch.setattr(records, name, lambda *a, name=name: pytest.fail(name))
    test_search_output_digest("cor3", tmp_path, capsys)
