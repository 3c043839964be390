"""``verify --jobs N``: the forked runner writes what ``--jobs 1`` writes.

Every run here is in process, so the children are forked from the test
process; after each run none of them may be left, running or unreaped.
"""

import io
import json
import os
import pickle
import time

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

    def verify_one(index, **run):
        if index == bad:
            raise GraphError(f"cannot verify graph {bad}")
        return original(index, **run)

    monkeypatch.setattr(verify, "_verify_one", verify_one)
    serial = run_verify("connected_6", 1, tmp_path, capsys)
    assert serial[0] == cli.EXIT_PARSE
    assert serial[4] == f"error: cannot verify graph {bad}\n"
    assert {json.loads(line)["index"] for line in serial[1].splitlines()} == set(range(bad))
    assert len(serial[2].splitlines()) == 1 + bad  # the header and each earlier row
    assert run_verify("connected_6", jobs, tmp_path, capsys) == serial


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_an_error_leaves_the_csv_rows_before_it(jobs, tmp_path, capsys, monkeypatch):
    clean = run_verify("connected_6", 1, tmp_path, capsys)[2].splitlines(keepends=True)
    original = verify._verify_one

    def verify_one(index, **run):
        if index == 13:
            raise GraphError("cannot verify graph 13")
        return original(index, **run)

    monkeypatch.setattr(verify, "_verify_one", verify_one)
    code, _, csv, out, err = run_verify("connected_6", jobs, tmp_path, capsys)
    assert code == cli.EXIT_PARSE
    assert err == "error: cannot verify graph 13\n" and out == ""
    assert csv == b"".join(clean[:14])  # the header, then graphs 0-12


def first_chunk_csv(tmp_path, capsys) -> bytes:
    """The CSV header and rows 0-7, the main process's first chunk, of connected_6."""
    csv = run_verify("connected_6", 1, tmp_path, capsys)[2]
    return b"".join(csv.splitlines(keepends=True)[:9])


def test_a_child_that_dies_is_named(tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    original = verify._verify_one
    first_chunk = first_chunk_csv(tmp_path, capsys)

    def verify_one(index, **run):
        if index == 13 and os.getpid() != parent:
            os._exit(3)
        return original(index, **run)

    monkeypatch.setattr(verify, "_verify_one", verify_one)
    code, _, csv, out, err = run_verify("connected_6", 2, tmp_path, capsys)
    assert code == cli.EXIT_PARSE
    assert csv == first_chunk and out == ""  # each row is written as it lands
    assert err.startswith("error: verify worker 1 (pid ")
    assert err.endswith(") exited without a result\n")


def test_without_fork_one_process_runs_every_chunk(tmp_path, capsys, monkeypatch):
    serial = run_verify("connected_6", 1, tmp_path, capsys)
    monkeypatch.delattr(os, "fork")
    assert run_verify("connected_6", 2, tmp_path, capsys) == serial


class _ExitWhenPickled:
    def __reduce__(self):
        os._exit(3)


def test_a_child_that_dies_part_way_through_a_record_is_named(tmp_path, capsys,
                                                               monkeypatch):
    # graph 9's result, in the first child's first chunk, carries 256 KiB
    # that reach the pipe before the object after them ends the child
    parent = os.getpid()
    original = verify._verify_one
    first_chunk = first_chunk_csv(tmp_path, capsys)

    def verify_one(index, **run):
        result = original(index, **run)
        if index == 9 and os.getpid() != parent:
            return result + ("x" * (1 << 18), _ExitWhenPickled())
        return result

    records = []  # what this process read of each record
    pickle_load = pickle.load

    def load(file):  # the child ends part-way, so its pipe ends there too
        records.append(file.read())
        return pickle_load(io.BytesIO(records[-1]))

    monkeypatch.setattr(verify, "_verify_one", verify_one)
    monkeypatch.setattr(pickle, "load", load)
    code, jsonl, csv, out, err = run_verify("connected_6", 2, tmp_path, capsys)
    assert len(records) == 1 and len(records[0]) > 1 << 18  # cut after the padding
    assert code == cli.EXIT_PARSE
    assert {json.loads(line)["index"] for line in jsonl.splitlines()} == set(range(8))
    assert csv == first_chunk and out == ""
    assert err.startswith("error: verify worker 1 (pid ") and "\n" not in err[:-1]
    assert err.endswith(") exited without a result\n")


def test_a_child_runs_no_further_ahead_than_its_pipe_holds(tmp_path):
    # each result is 256 KiB, so one chunk of 8 overfills a 1 MiB pipe: while
    # this process holds its own first chunk, the child finishes its first
    # chunk and waits to write it, where a child that never waits would
    # run all 7
    parent = os.getpid()
    finished = tmp_path / "finished"
    finished.touch()

    def verify_one(index):
        if os.getpid() != parent:
            with open(finished, "a") as fh:
                fh.write(".")
        return index, "x" * (1 << 18)

    results = verify._verify_forked(verify_one, range(8 * 14), 2)
    assert next(results)[0] == 0  # the child is forked; chunk 0 is unfinished
    deadline = time.monotonic() + 60
    while finished.stat().st_size < 8 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.5)  # long enough for an unblocked child to finish its 56 tasks
    assert finished.stat().st_size == 8
    assert [index for index, _ in results] == list(range(1, 8 * 14))
    assert finished.stat().st_size == 8 * 7
    assert_no_child_left()


def test_a_task_is_an_index_into_the_loaded_graphs(tmp_path, capsys, monkeypatch):
    runs = []  # (work, each task the worker got) of each run
    forked, original = verify._verify_forked, verify._verify_one

    def recording(verify_one, work, jobs):
        runs.append((work, []))
        return forked(verify_one, work, jobs)

    def verify_one(index, **run):
        runs[-1][1].append(index)
        return original(index, **run)

    monkeypatch.setattr(verify, "_verify_forked", recording)
    monkeypatch.setattr(verify, "_verify_one", verify_one)
    serial = run_verify("connected_6", 1, tmp_path, capsys)
    assert serial[0] == 0
    assert runs == [(range(112), list(range(112)))]  # the whole corpus is a range
    runs.clear()
    assert cli.main(["verify", "-i", str(DATA / "connected_6.g6"), "--sample", "5",
                     "--jobs", "1", "--out-jsonl", str(tmp_path / "s.jsonl")]) == 0
    (work, tasks), = runs
    assert work == tasks and len(tasks) == 5 and all(type(i) is int for i in tasks)
    assert tasks == sorted(tasks)
