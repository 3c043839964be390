"""Tests of the benchmark itself: python3 -m pytest kbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer

sys.path.insert(0, str(run.SRC))


def test_tail_percentile_takes_highest_rung_with_ten_beyond():
    assert tracer.tail_percentile([1.0] * 19) is None
    assert tracer.tail_percentile(list(range(20))) == (50.0, 9)
    assert tracer.tail_percentile(list(range(100))) == (90.0, 89)
    assert tracer.tail_percentile(list(range(999)))[0] == 90.0
    assert tracer.tail_percentile(list(range(1000))) == (99.0, 989)
    pct, value = tracer.tail_percentile(list(range(20000)))
    assert pct == pytest.approx(99.9) and value == 19979


def test_failed_invocations_are_detected(tmp_path):
    assert run.run_child(["-c", "pass"], tmp_path / "ok").problems == []
    assert run.run_child(["-c", "raise SystemExit(3)"], tmp_path / "exit").problems
    wrote = "import sys; sys.stderr.write('Traceback (most recent call last):\\n')"
    assert run.run_child(["-c", wrote], tmp_path / "tb").problems


def test_tampered_whole_file_output_fails(tmp_path):
    refs = run.References.load()
    out = tmp_path / "out.g6"
    shutil.copyfile(run.DATA / "connected_7.g6", out)
    cmd = run.Command([], tmp_path, graphs=0, outputs={"enum_corpus.connected_7": out})
    assert refs.check(cmd, seed=1) == []
    data = bytearray(out.read_bytes())
    data[0] ^= 1
    out.write_bytes(bytes(data))
    assert refs.check(cmd, seed=1)


def _tamper(path, old: bytes, new: bytes) -> None:
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))


@pytest.mark.parametrize("target,old,new", [
    (None, b"", b""),
    ("out.jsonl", b'"satisfied": true', b'"satisfied": false'),
    ("out.jsonl", b"\n", b"\n\n"),
    ("out.csv", b",8,", b",9,"),
])
def test_tampered_campaign_output_fails(tmp_path, target, old, new):
    refs = run.References.load()
    ref = dict(refs.data["campaign_c8"], sample=4, seeds={})
    jsonl, csv = tmp_path / "out.jsonl", tmp_path / "out.csv"
    res = run.run_child(
        ["-m", "kforcing", "verify", "-i", str(run.DATA / "connected_8.g6"),
         "--sample", "4", "--seed", "7", "--out-jsonl", str(jsonl),
         "--out-csv", str(csv)], tmp_path)
    assert res.problems == []
    if target is None:
        assert run.check_campaign(jsonl, csv, 7, ref, refs.digests) == []
    else:
        _tamper(tmp_path / target, old, new)
        assert run.check_campaign(jsonl, csv, 7, ref, refs.digests)


def _kforcing_attributes() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "kforcing" or name.startswith("kforcing.")
        for attr, value in vars(module).items()
    }


def test_tracer_restores_every_attribute_it_wrapped():
    import kforcing.cli  # noqa: F401
    import kforcing.records
    import kforcing.smallgraphs  # noqa: F401

    before = _kforcing_attributes()
    original = kforcing.records.k_forcing_number
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert kforcing.records.k_forcing_number is not original
            changed = [key for key, value in _kforcing_attributes().items()
                       if value is not before[key]]
            assert len(changed) >= len(tracer.SPANS)
            raise RuntimeError("leave the block early")
    after = _kforcing_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_counts_and_accounts_for_time():
    from kforcing.bounds import evaluate_bounds
    from kforcing.families import FamilySpec, generate

    g = generate(FamilySpec("cycle", (6,)))
    with tracer.Tracer() as tr:
        import kforcing.bounds

        reports = kforcing.bounds.evaluate_bounds(g, [1, 2])
    assert len(reports) == len(evaluate_bounds(g, [1, 2]))
    m = tr.metrics(tr.top_level_s)
    assert m["bounds.evaluate_bounds.calls"] == 1
    assert m["records.compute_record.calls"] == 1
    assert m["bounds.reports"] == len(reports)
    assert m["forcing.closures"] == m["forcing.subsets_tried"] > 0
    assert m["invariants.subsets_tried"] > 0
    # C6 is 2-connected, so gamma_{2,c} is used
    assert m["invariants.gamma_kc_unused_frac"] == 0
    assert m["trace.accounted_frac"] == pytest.approx(1 - tr.overhead_s / tr.top_level_s)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    with tracer.Tracer() as tr:
        pass
    names = list(tr.metrics(1.0)) + ["cli.scaling_eff", "trace_overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in names
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "kbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "kbench/run.py", "--workload", "search_c8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
