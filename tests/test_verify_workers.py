"""``verify --jobs N``: the forked runner writes what ``--jobs 1`` writes.

Every run here is in process, so the children are forked from the test
process; after each run none of them may be left, running or unreaped.
"""

import json
import os

import pytest

from kforcing import cli, verify
from kforcing.graph import GraphError

from conftest import DATA


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_verify(corpus, jobs, tmp_path, capsys):
    """(exit code, JSONL bytes, CSV bytes, stdout, stderr) of one run."""
    jsonl, csv = tmp_path / f"j{jobs}.jsonl", tmp_path / f"j{jobs}.csv"
    code = cli.main(["verify", "-i", str(DATA / f"{corpus}.g6"), "--jobs", str(jobs),
                     "--out-jsonl", str(jsonl), "--out-csv", str(csv)])
    out, err = capsys.readouterr()
    assert_no_child_left()
    return code, jsonl.read_bytes(), csv.read_bytes(), out, err


@pytest.mark.parametrize("corpus, jobs", [
    ("connected_6", 2),
    ("connected_6", 3),
    ("connected_4", 5),  # one chunk for five processes
    ("connected_5", 5),  # three chunks for five processes
])
def test_output_is_the_same_at_every_worker_count(corpus, jobs, tmp_path, capsys):
    serial = run_verify(corpus, 1, tmp_path, capsys)
    assert serial[0] == 0
    assert run_verify(corpus, jobs, tmp_path, capsys) == serial


# connected_6 has 14 chunks of 8 graphs: chunk 0 (graphs 0-7) runs in this
# process, chunk 1 (8-15) in the first child, chunk 2 in the second child
# at --jobs 3 and in this process at --jobs 2
@pytest.mark.parametrize("bad", [3, 13, 19, 111])
@pytest.mark.parametrize("jobs", [2, 3])
def test_an_error_stops_the_run_as_at_one_job(bad, jobs, tmp_path, capsys, monkeypatch):
    original = verify._verify_one

    def verify_one(task):
        if task[0] == bad:
            raise GraphError(f"cannot verify graph {bad}")
        return original(task)

    monkeypatch.setattr(verify, "_verify_one", verify_one)
    serial = run_verify("connected_6", 1, tmp_path, capsys)
    assert serial[0] == cli.EXIT_PARSE
    assert serial[4] == f"error: cannot verify graph {bad}\n"
    assert {json.loads(line)["index"] for line in serial[1].splitlines()} == set(range(bad))
    assert run_verify("connected_6", jobs, tmp_path, capsys) == serial


def test_a_child_that_dies_is_named(tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    original = verify._verify_one

    def verify_one(task):
        if task[0] == 13 and os.getpid() != parent:
            os._exit(3)
        return original(task)

    monkeypatch.setattr(verify, "_verify_one", verify_one)
    code, _, csv, out, err = run_verify("connected_6", 2, tmp_path, capsys)
    assert code == cli.EXIT_PARSE
    assert csv == b"" and out == ""  # the CSV is written only at the end
    assert err.startswith("error: verify worker 1 (pid ")
    assert err.endswith(") exited without a result\n")


def test_without_fork_one_process_runs_every_chunk(tmp_path, capsys, monkeypatch):
    serial = run_verify("connected_6", 1, tmp_path, capsys)
    monkeypatch.delattr(os, "fork")
    assert run_verify("connected_6", 2, tmp_path, capsys) == serial
