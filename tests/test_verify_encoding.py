"""verify's JSONL block, encoded by the worker, against a per-report oracle.

The oracle is the encoder verify used before workers wrote their own
text: one dict per :func:`evaluate_bounds` report, passed through
json.dumps. The worker instead reads :func:`bound_outcomes` and looks each
line up in a per-process memo, so the oracle reports are computed apart,
on a fresh record.
"""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import kforcing.cli as cli
import kforcing.verify as verify
from kforcing.bounds import ALL_BOUNDS, BoundId, BoundReport, evaluate_bounds
from kforcing.graphio import graph6_order, parse_graph6, write_graph6
from kforcing.records import DEFAULT_MAX_N, compute_record
from kforcing.smallgraphs import all_graphs

from conftest import DATA


def report_line_oracle(index: int, g6: str, n: int, rep: BoundReport) -> str:
    """One report's JSONL line, built as a dict and encoded by json.dumps."""
    return json.dumps({
        "index": index,
        "graph6": g6,
        "n": n,
        "k": rep.k,
        "bound": rep.bound.value,
        "side": rep.side,
        "applicable": rep.applicable,
        "bound_value": None if rep.bound_value is None else str(rep.bound_value),
        "exact": rep.exact_value,
        "slack": None if rep.slack is None else str(rep.slack),
        "equality": rep.equality,
        "satisfied": rep.satisfied,
        "detail": dict(rep.detail),
    }) + "\n"


def verify_with_outcomes(monkeypatch, index: int, g6: str, ks=None, outcomes=None):
    """Run the worker on one graph; return its result and the outcomes it encoded.

    ``outcomes``, when given, replaces what bound_outcomes returns.
    """
    seen = []

    def outcomes_of(*args, **kwargs):
        seen[:] = real(*args, **kwargs) if outcomes is None else outcomes
        return seen

    real = verify.bound_outcomes
    with monkeypatch.context() as patch:
        patch.setattr(verify, "bound_outcomes", outcomes_of)
        result = verify._verify_one(index, graphs={index: (*graph6_order(g6), "test")},
                                    ks=ks, ids=ALL_BOUNDS, max_n=DEFAULT_MAX_N,
                                    want_row=True)
    return result, list(seen)


def assert_block_matches_oracle(result, reports, g6: str, n: int):
    index, text, counts, violations, _ = result
    assert text == "".join(report_line_oracle(index, g6, n, rep) for rep in reports)
    applicable = [rep for rep in reports if rep.applicable]
    assert counts == (len(applicable), sum(bool(rep.equality) for rep in applicable),
                      len(reports) - len(applicable))
    assert violations == [
        f"VIOLATION: graph6={g6} k={rep.k} bound={rep.bound.value} side={rep.side} "
        f"bound_value={rep.bound_value} exact={rep.exact_value}"
        for rep in applicable if not rep.satisfied
    ]


def assert_worker_matches_oracle(monkeypatch, index: int, g6: str):
    """The worker's block equals the oracle of evaluate_bounds' own reports."""
    g = parse_graph6(g6)
    ks = range(1, max(max(g.degree(v) for v in range(g.n)), 1) + 1)
    reports = evaluate_bounds(g, ks)
    result, outcomes = verify_with_outcomes(monkeypatch, index, g6)
    assert [outcome[:3] for outcome in outcomes] == [
        (rep.k, rep.bound, rep.side) for rep in reports]
    assert_block_matches_oracle(result, reports, g6, g.n)
    return reports


def test_block_matches_oracle_on_connected_graphs_upto_6(monkeypatch):
    index = 0
    for n in range(1, 7):
        for g6 in (DATA / f"connected_{n}.g6").read_text().split():
            assert_worker_matches_oracle(monkeypatch, index, g6)
            index += 1


def test_block_matches_oracle_on_family_sweep(monkeypatch):
    detailed = set()
    specs = ["cycle_tree:3..4,3..4", "circulant:8:1,2..3", "complete:2..6",
             "cycle:3..8", "subdivided_star:3:2"]
    for index, (g6, n, _) in enumerate(cli._load_graphs(None, specs=specs)):
        reports = assert_worker_matches_oracle(monkeypatch, index, g6)
        detailed |= {rep.bound for rep in reports if rep.detail}
    assert {BoundId.K1R, BoundId.CLAWFREE, BoundId.CYCLE_TREE} <= detailed


def test_block_matches_oracle_on_hand_made_reports(monkeypatch):
    g6 = "EC\\o"  # JSON escapes the backslash
    assert g6 in (DATA / "connected_6.g6").read_text().split()
    # each outcome beside the report evaluate_bounds makes of it
    cases = [
        # the not-applicable tail depends on k, bound and side alike
        ((1, BoundId.TREE_LEAF, "lower"),
         BoundReport(1, BoundId.TREE_LEAF, "lower", False)),
        ((1, BoundId.TREE_LEAF, "upper"),
         BoundReport(1, BoundId.TREE_LEAF, "upper", False)),
        ((2, BoundId.TREE_LEAF, "upper"),
         BoundReport(2, BoundId.TREE_LEAF, "upper", False)),
        ((2, BoundId.TREE_COR, "upper"),
         BoundReport(2, BoundId.TREE_COR, "upper", False)),
        ((1, BoundId.MAIN, "upper", 7, 2, 3, 1, ()),
         BoundReport(1, BoundId.MAIN, "upper", True, Fraction(7, 2), 3,
                     Fraction(1, 2), False, True)),
        ((1, BoundId.RATIO, "upper", 3, 1, 4, -1, ()),
         BoundReport(1, BoundId.RATIO, "upper", True, Fraction(3), 4,
                     Fraction(-1), False, False)),
        ((2, BoundId.LOWER_DEG, "lower", -2, 1, 1, 3, ()),
         BoundReport(2, BoundId.LOWER_DEG, "lower", True, Fraction(-2), 1,
                     Fraction(3), False, True)),
        ((2, BoundId.K1R, "upper", 4, 1, 4, 0, (("r", 3), ("index", 4))),
         BoundReport(2, BoundId.K1R, "upper", True, Fraction(4), 4,
                     Fraction(0), True, True, (("r", 3), ("index", 4)))),
        # signs, slashes and several digits on both sides of the slash
        ((2, BoundId.KCOR, "upper", -1001, 6, 12, -1073, ()),
         BoundReport(2, BoundId.KCOR, "upper", True, Fraction(-1001, 6), 12,
                     Fraction(-1073, 6), False, False)),
        ((2, BoundId.GAMMA_LOWER, "lower", 1001, 2, 1000, 999, ()),
         BoundReport(2, BoundId.GAMMA_LOWER, "lower", True, Fraction(1001, 2),
                     1000, Fraction(999, 2), False, True)),
        # a pair not in lowest terms prints reduced, as its Fraction does
        ((1, BoundId.COR3, "upper", 14, 4, 3, 2, ()),
         BoundReport(1, BoundId.COR3, "upper", True, Fraction(7, 2), 3,
                     Fraction(1, 2), False, True)),
    ]
    outcomes = [outcome for outcome, _ in cases]
    reports = [rep for _, rep in cases]
    result, encoded = verify_with_outcomes(monkeypatch, 7, g6, [1, 2], outcomes)
    assert encoded == outcomes
    assert_block_matches_oracle(result, reports, g6, 6)
    assert result[2] == (7, 1, 4)
    assert result[3] == ["VIOLATION: graph6=EC\\o k=1 bound=RATIO side=upper "
                         "bound_value=3 exact=4",
                         "VIOLATION: graph6=EC\\o k=2 bound=KCOR side=upper "
                         "bound_value=-1001/6 exact=12"]
    assert '"bound_value": "-1001/6", "exact": 12, "slack": "-1073/6"' in result[1]
    assert '"graph6": "EC\\\\o"' in result[1]
    assert result[4][-1] == "K1R@2:upper"  # the CSV row ends with its equalities


def line_of(outcome: tuple) -> dict:
    """The fields a memo tail writes for ``outcome``, decoded."""
    return json.loads("{" + verify._tail(outcome))


def test_rationals_print_as_their_fractions():
    for q in range(1, 25):
        for p in range(-60, 61):
            line = line_of((1, BoundId.MAIN, "upper", p, q, 0, p, ()))
            assert line["bound_value"] == line["slack"] == str(Fraction(p, q)), (p, q)


def test_new_key_lines_agree_in_sign_with_their_fractions(monkeypatch):
    outcomes = []
    for side in ("upper", "lower"):
        for q in range(1, 5):
            for p in range(-7, 8):
                for exact in range(-3, 4):
                    d = p - exact * q if side == "upper" else exact * q - p
                    outcomes.append((97, BoundId.MAIN, side, p, q, exact, d, ()))
    monkeypatch.setattr(verify, "_TAILS", {})
    result, _ = verify_with_outcomes(monkeypatch, 0, "Bw", [97], outcomes)
    assert set(outcomes) <= verify._TAILS.keys()
    lines = [json.loads(text) for text in result[1].splitlines()]
    assert len(lines) == len(outcomes)
    for (_, _, side, p, q, exact, _, _), line in zip(outcomes, lines):
        slack = Fraction(p, q) - exact if side == "upper" else exact - Fraction(p, q)
        assert Fraction(line["slack"]) == slack
        assert Fraction(line["bound_value"]) == Fraction(p, q)
        assert line["satisfied"] == (slack >= 0)
        assert line["equality"] == (slack == 0)
    assert len(result[3]) == sum(not line["satisfied"] for line in lines)


def test_warm_memo_writes_what_a_cold_process_writes(tmp_path, monkeypatch, capsys):
    args = ["verify", "-i", str(DATA / "connected_7.g6"), "--jobs", "1"]
    pythonpath = os.pathsep.join(
        p for p in (str(DATA.parent / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cold = tmp_path / "cold.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "kforcing", *args, "--out-jsonl", str(cold)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(verify, "_TAILS", {})
    runs = []
    for name in ("first.jsonl", "warm.jsonl"):
        assert cli.main([*args, "--out-jsonl", str(tmp_path / name)]) == 0
        runs.append((tmp_path / name).read_bytes())
        assert capsys.readouterr().out == proc.stdout
    assert 500 < len(verify._TAILS) < 1000
    assert runs[0] == runs[1] == cold.read_bytes()


def dictwriter_csv(rows: list[dict]) -> str:
    """The CSV as ``csv.DictWriter`` wrote it from merged per-row dicts."""
    max_k = max((k for row in rows for k in row["forcing"]), default=0)
    columns = ["index", "graph6", "n", "m", "max_degree", "min_degree"]
    columns += [f"f{k}" for k in range(1, max_k + 1)]
    columns += ["gamma_c", "alpha_1", "equalities"]
    out = io.StringIO(newline="")
    writer = csv.DictWriter(out, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row | {f"f{k}": value for k, value in row["forcing"].items()})
    return out.getvalue()


def oracle_row(index: int, g6: str, ks: list[int] | None) -> dict:
    """One graph's CSV row as a dict, from its record and evaluate_bounds' reports."""
    g = parse_graph6(g6)
    rec = compute_record(g)
    ks = ks or cli._parse_ks("auto", rec.max_degree)
    equalities = [f"{rep.bound.value}@{rep.k}:{rep.side}"
                  for rep in evaluate_bounds(g, ks, ALL_BOUNDS, rec=rec)
                  if rep.applicable and rep.equality]
    return {"index": index, "graph6": g6, "n": g.n, "m": g.m,
            "max_degree": rec.max_degree, "min_degree": rec.min_degree,
            "forcing": {k: rec.forcing[k] for k in ks}, "gamma_c": rec.gamma_c,
            "alpha_1": rec.alpha[1], "equalities": ";".join(equalities)}


def test_csv_rows_match_the_dictwriter_oracle(tmp_path):
    # every graph on 5 vertices, the disconnected ones (gamma_c None) too
    lines = [write_graph6(g) for g in all_graphs(5)]
    lines += (DATA / "connected_6.g6").read_text().split()[:40]
    corpus, out = tmp_path / "in.g6", tmp_path / "out.csv"
    # the edgeless graphs alone still check k = 1 under auto
    for graphs in (lines, ["@", "D??"], []):
        corpus.write_text("".join(line + "\n" for line in graphs))
        for ks in (None, [2, 4], [1, 3, 12]):
            k = "auto" if ks is None else ",".join(map(str, ks))
            assert cli.main(["verify", "-i", str(corpus), "--k", k, "--jobs", "1",
                             "--out-csv", str(out)]) == cli.EXIT_OK
            rows = [oracle_row(i, g6, ks) for i, g6 in enumerate(graphs)]
            assert any(row["gamma_c"] is None for row in rows) or not graphs
            assert out.read_bytes().decode() == dictwriter_csv(rows)
