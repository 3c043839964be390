#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 kbench/record.py

Runs every workload's commands once at the current source tree and writes
``reference.json`` (SHA-256 of each corpus and each output) and
``connected_8.digests`` (one short digest per graph of ``connected_8``, from
a full ``verify`` of that corpus, so that a campaign sample at any seed can
be checked graph by graph). A reference changes only with a change that
says why the output changed.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

HELD_OUT_SEED = 2


def record_command(cmd: run.Command) -> dict[str, str]:
    res = run.run_child(cmd.args, cmd.dir)
    if res.problems:
        raise SystemExit(f"record: {res.problems}")
    return {key: run.sha256_file(path) for key, path in cmd.outputs.items()}


def main() -> int:
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    outputs: dict[str, str] = {}
    for workload in ("verify_c7", "search_c8", "enum_corpus"):
        for cmd in run.workload_unit(workload, 1, work / workload):
            for key, digest in record_command(cmd).items():
                if outputs.setdefault(key, digest) != digest:
                    raise SystemExit(f"record: {key} depends on --jobs")

    c8 = run.DATA / "connected_8.g6"
    full = work / "connected_8"
    record_command(run.Command(
        ["-m", "kforcing", "verify", "-i", str(c8), "--jobs", "2",
         "--out-jsonl", str(full / "out.jsonl"), "--out-csv", str(full / "out.csv")],
        full, graphs=run.corpus_size(c8)))
    header, graphs = run.split_campaign(full / "out.jsonl", full / "out.csv")
    if [index for index, _, _ in graphs] != list(range(run.corpus_size(c8))):
        raise SystemExit("record: full verify of connected_8 skipped graphs")
    digests = [run.graph_digest(block, row) for _, block, row in graphs]

    campaign = {
        "sample": run.CAMPAIGN_SAMPLE,
        "default_seed": 1,
        "held_out_seed": HELD_OUT_SEED,
        "csv_header": header.decode("ascii"),
        "seeds": {},
    }
    for seed in (1, HELD_OUT_SEED):
        (cmd,) = run.workload_unit("campaign_c8", seed, work / f"seed{seed}")
        hashes = record_command(cmd)
        problems = run.check_campaign(cmd.outputs["campaign_c8.jsonl"],
                                      cmd.outputs["campaign_c8.csv"], seed,
                                      campaign, digests)
        if problems:
            raise SystemExit(f"record: sample disagrees with the full run: {problems}")
        campaign["seeds"][str(seed)] = {
            "jsonl": hashes["campaign_c8.jsonl"], "csv": hashes["campaign_c8.csv"]
        }

    reference = {
        "corpus": {
            f"data/{name}": run.sha256_file(run.DATA / name)
            for name in ("connected_7.g6", "connected_8.g6", "trees_10.g6")
        },
        "outputs": outputs,
        "campaign_c8": campaign,
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    run.DIGESTS.write_text("\n".join(digests) + "\n")
    shutil.rmtree(run.WORK, ignore_errors=True)
    print(f"wrote {run.REFERENCE.name} and {len(digests)} graph digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
